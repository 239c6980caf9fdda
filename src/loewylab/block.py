"""The singular block of restricted highest weights for SL(n+1).

For an odd prime p not dividing n + 1, the block under study contains
exactly n + 1 restricted highest weights lam_0, ..., lam_n.  This module
builds that table exactly, exposes the companion weights mu_i and
nu_i = lam_i + rho, and classifies arbitrary weights into the block.

A simple module in the ambient category is labelled by the pair
(i, coords) (`Label`): the restricted class lam_i twisted by the p-fold
translation nu = Weight(coords).  It is the first two fields of every
layer table's rows (i, coords, multiplicity), and `check_label` is its one
validity check.
"""

from __future__ import annotations

from functools import lru_cache

from .lattice import Weight, eps_basis, restricted_decompose, rho
from .record import Record

__all__ = [
    "BlockContext",
    "is_odd_prime",
    "check_hypotheses",
    "check_index",
    "check_label",
    "make_context",
    "block_weight",
    "mu_weight",
    "nu_weight",
    "classify",
    "label_weight",
]


Label = tuple[int, tuple[int, ...]]


class BlockContext(Record):
    """Rank, characteristic, and the block's restricted weight table."""

    __slots__ = ("n", "p", "lambdas")

    def __init__(self, n: int, p: int, lambdas: tuple[Weight, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "lambdas", lambdas)


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The least odd composite passing Miller-Rabin to every base in _WITNESSES
# (Sorenson and Webster); below it the test is exact.  Without the base 41
# the bound would be 318665857834031151167461.
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_odd_prime(p: int) -> bool:
    """Deterministic primality for odd p, by Miller-Rabin on the primes to 41.

    Raises ValueError for odd p at or above 3.3e24, where those bases no
    longer decide primality.

    >>> [q for q in range(20) if is_odd_prime(q)]
    [3, 5, 7, 11, 13, 17, 19]
    """
    if p < 3 or p % 2 == 0:
        return False
    if p >= _PRIME_TEST_BOUND:
        raise ValueError(
            f"p must be below {_PRIME_TEST_BOUND} for an exact primality test (got {p})"
        )
    if p in _WITNESSES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_index(n: int, i: int) -> None:
    """Raise ValueError unless `i` is a block index at rank n, 0 <= i <= n."""
    if not 0 <= i <= n:
        raise ValueError(f"block index i must be in [0, {n}] (got {i})")


def check_label(ctx: BlockContext, i: int, coords: tuple[int, ...]) -> None:
    """Raise ValueError unless (i, coords) labels a simple of the block: a
    block index and the n coordinates of a twist."""
    check_index(ctx.n, i)
    if len(coords) != ctx.n:
        raise ValueError("rank mismatch")


def check_hypotheses(n: int, p: int) -> None:
    """Raise ValueError naming the violated hypothesis when n < 1, p is not
    an odd prime, or p divides n + 1 (the very-good-prime hypothesis).

    Takes time polynomial in the digits of n and p, not in n.
    """
    if n < 1:
        raise ValueError(f"rank parameter n must be >= 1 (got {n})")
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, p > 2 (got {p})")
    if (n + 1) % p == 0:
        raise ValueError(
            f"p must not divide n + 1 (very good prime hypothesis; got p = {p}, n + 1 = {n + 1})"
        )


def make_context(n: int, p: int) -> BlockContext:
    """Build the block for SL(n+1) in characteristic p, checking the
    hypotheses first (`check_hypotheses`).  The table holds (n+1)·n ints."""
    check_hypotheses(n, p)
    ctx = BlockContext(n, p, ())
    lambdas = tuple(block_weight(ctx, i, 1) for i in range(n + 1))
    return BlockContext(n, p, lambdas)


def block_weight(ctx: BlockContext, i: int, a: int = 1) -> Weight:
    """The i-th restricted weight of the block family, twist parameter a.

    For 1 <= a <= p - 1 the family at fixed a is a block of its own; the
    canonical table stored in the context is a = 1.  All coordinates are
    p - 1 except: coordinate 1 is a - 1 when i = 0; coordinate n is
    p - a - 1 when i = n; otherwise coordinate i is p - a - 1 and
    coordinate i + 1 is a - 1.
    """
    n, p = ctx.n, ctx.p
    check_index(n, i)
    if not 1 <= a <= p - 1:
        raise ValueError(f"twist parameter a must be in [1, {p - 1}] (got {a})")
    coords = [p - 1] * n
    if i == 0:
        coords[0] = a - 1
    elif i == n:
        coords[n - 1] = p - a - 1
    else:
        coords[i - 1] = p - a - 1
        coords[i] = a - 1
    return Weight(tuple(coords))


def mu_weight(ctx: BlockContext, i: int) -> Weight:
    """The dot-orbit representative mu_i = eps_{i+1} - rho."""
    check_index(ctx.n, i)
    return eps_basis(ctx.n, i + 1) - rho(ctx.n)


def nu_weight(ctx: BlockContext, i: int) -> Weight:
    """The shifted weight nu_i = lam_i + rho used by pairings and dimensions."""
    return ctx.lambdas[i] + rho(ctx.n)


def classify(ctx: BlockContext, w: Weight) -> Label | None:
    """Label of `w` if its restricted part lies in the block, else None.

    Decomposes w = mu + p nu with mu restricted; when mu = lam_i the label
    is (i, nu.coords).
    """
    if w.rank != ctx.n:
        raise ValueError("rank mismatch")
    mu, nu = restricted_decompose(w, ctx.p)
    i = _index_by_coords(ctx).get(mu.coords)
    if i is None:
        return None
    return i, nu.coords


def label_weight(ctx: BlockContext, label: Label) -> Weight:
    """The actual highest weight lam_i + p * nu of the label (i, nu.coords)."""
    i, coords = label
    check_label(ctx, i, coords)
    return ctx.lambdas[i] + ctx.p * Weight(coords)


@lru_cache(maxsize=4)
def _index_by_coords(ctx: BlockContext) -> dict[tuple[int, ...], int]:
    return {lam.coords: i for i, lam in enumerate(ctx.lambdas)}
