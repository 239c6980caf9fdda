"""The singular block of restricted highest weights for SL(n+1).

For an odd prime p not dividing n + 1, the block under study contains
exactly n + 1 restricted highest weights lam_0, ..., lam_n.  This module
builds that table exactly, exposes the companion weights mu_i and
nu_i = lam_i + rho, and classifies arbitrary weights into the block.

A simple module in the ambient category is labelled by the pair
(i, coords) (`Label`): the restricted class lam_i twisted by the p-fold
translation nu whose fundamental coordinates are the int tuple coords.
Every API that names a simple takes it, it is the first two fields of
every layer table's rows (i, coords, multiplicity), and `check_label` is
its one validity check: it refuses anything but such a pair and returns
it, so a label API opens with `i, v = check_label(ctx, label)`.  Every
int argument here, a label's block index too, passes `lattice._check_int`.
"""

from __future__ import annotations

from collections import namedtuple

from .lattice import (
    _check_int, _is_coords, add, check_weight, eps_basis, restricted_decompose, rho, scale, sub,
)

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


class BlockContext(namedtuple("BlockContext", ("n", "p", "lambdas"))):
    """Rank, characteristic, and the block's restricted weight table
    lam_0, ..., lam_n, each a coordinate tuple.  Immutable and hashable."""

    __slots__ = ()


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The least odd composite passing Miller-Rabin to every base in _WITNESSES
# (Sorenson and Webster); below it the test is exact.  Without the base 41
# the bound would be 318665857834031151167461.
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_odd_prime(p: int) -> bool:
    """Deterministic primality for odd p, by Miller-Rabin on the primes to 41.

    Raises ValueError for odd p at or above 3.3e24, where those bases no
    longer decide primality, and TypeError unless p is an exact int.

    >>> [q for q in range(20) if is_odd_prime(q)]
    [3, 5, 7, 11, 13, 17, 19]
    """
    _check_int("p", p)
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
    """Raise ValueError unless `i` is a block index at rank n, 0 <= i <= n,
    and TypeError unless it is an exact int."""
    _check_int("block index i", i)
    if not 0 <= i <= n:
        raise ValueError(f"block index i must be in [0, {n}] (got {i})")


def check_label(ctx: BlockContext, label: Label) -> Label:
    """Return `label` once it is checked to name a simple of the block: a
    pair (i, coords) of a block index and a twist's n coordinates, a tuple
    of ints, or else TypeError or ValueError."""
    if type(label) is not tuple or len(label) != 2:
        raise TypeError(f"label must be a pair (i, coords) (got {label!r})")
    i, coords = label
    if not _is_coords(coords):
        raise TypeError("twist coordinates must be a tuple of ints")
    check_index(ctx.n, i)
    if len(coords) != ctx.n:
        raise ValueError("rank mismatch")
    return label


def check_hypotheses(n: int, p: int) -> None:
    """Raise ValueError naming the violated hypothesis when n < 1, p is not
    an odd prime, or p divides n + 1 (the very-good-prime hypothesis), and
    TypeError unless n and p are exact ints.

    Takes time polynomial in the digits of n and p, not in n.
    """
    _check_int("n", n)
    _check_int("p", p)
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


def block_weight(ctx: BlockContext, i: int, a: int = 1) -> tuple[int, ...]:
    """The i-th restricted weight of the block family, twist parameter a.

    For 1 <= a <= p - 1 the family at fixed a is a block of its own; the
    canonical table stored in the context is a = 1.  All coordinates are
    p - 1 except: coordinate i is p - a - 1 when i > 0, and coordinate
    i + 1 is a - 1 when i < n.  Raises TypeError unless i and a are exact
    ints.
    """
    n, p = ctx.n, ctx.p
    check_index(n, i)
    _check_int("twist parameter a", a)
    if not 1 <= a <= p - 1:
        raise ValueError(f"twist parameter a must be in [1, {p - 1}] (got {a})")
    coords = [p - 1] * n
    if i > 0:
        coords[i - 1] = p - a - 1
    if i < n:
        coords[i] = a - 1
    return tuple(coords)


def mu_weight(ctx: BlockContext, i: int) -> tuple[int, ...]:
    """The dot-orbit representative mu_i = eps_{i+1} - rho."""
    check_index(ctx.n, i)
    return sub(eps_basis(ctx.n, i + 1), rho(ctx.n))


def nu_weight(ctx: BlockContext, i: int) -> tuple[int, ...]:
    """The shifted weight nu_i = lam_i + rho used by pairings and dimensions."""
    check_index(ctx.n, i)
    return add(ctx.lambdas[i], rho(ctx.n))


def classify(ctx: BlockContext, w: tuple[int, ...]) -> Label | None:
    """Label of the weight `w` if its restricted part lies in the block,
    else None.

    Decomposes w = mu + p nu with mu restricted; when mu = lam_i the label
    is (i, nu).  The weight is checked (`lattice.check_weight`) before its
    rank.
    """
    check_weight(w)
    if len(w) != ctx.n:
        raise ValueError("rank mismatch")
    mu, nu = restricted_decompose(w, ctx.p)
    for i, lam in enumerate(ctx.lambdas):
        if lam == mu:
            return i, nu
    return None


def label_weight(ctx: BlockContext, label: Label) -> tuple[int, ...]:
    """The actual highest weight lam_i + p * nu of the label (i, nu)."""
    i, coords = check_label(ctx, label)
    return add(ctx.lambdas[i], scale(ctx.p, coords))
