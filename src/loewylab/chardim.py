"""Dimensions and simplicity certificates for the singular block.

Two independent kinds of exact evidence live here:

* Weyl-polynomial dimensions of the simple modules in the block and of the
  two parabolic baby covers (`checks.dimension_table` ties them together
  by the additivity identities).
* Jantzen-style witness certificates: for every positive root, the pairing
  m of nu_i = lam_i + rho against its coroot decomposes uniquely as
  m = a p^s + b p^{s+1} with 0 < a < p, and a certificate exhibits one root
  pairing to a p^s plus b pairwise-distinct roots pairing to p^{s+1}.  A
  full sweep of valid certificates forces every baby Verma radical in the
  block to be as small as the layer formulas say, which is what
  `check_block_simplicity` machine-checks.

A certificate is the tuple (root, m, s, a, b, beta0, betas): the root, its
pairing m and the split (s, a, b) of m, beta0, and the tuple of betas.  Its
tail (m, s, a, b, beta0, betas) is the witness, and the sweep reports each
certificate as the row (i, root, m, s, a, b, beta0, betas).

Certificates are produced by two routes on purpose: a deterministic greedy
search, and a closed-form builder that reads the certificate off the
simple-root pairings of nu_i without searching.  Those are p except at the
two special slots, p - 1 at alpha_i and 1 at alpha_{i+1}, so the builder
has two rules, chosen by the valuation s of m: at s = 0 the root's interval
holds one special slot, and beta0 is the simple root where it sits; at
s >= 1 the roots run between evenly spaced fences, moved one slot right
past both special slots when the interval holds them.  Both routes run once
per nu_i and check their arguments at most once there, never per root: the
search (`witness_search`) checks nu and p, then finds the witness of every
distinct pairing m of nu at once, each two lookups in a pairing table built
once per nu from prefix sums of its coordinates; the builder
(`_closed_forms`) pairs lam_i through one list of its prefix sums, adds
rho's pairing j - k, and yields every root's witness in turn.  Both split m
unchecked (`_split`, which `jantzen_decompose` wraps in its checks).  Both
kinds of certificate are re-verified from scratch against nu_i through the
lattice's own table of nu_i's pairings (`lattice._pair_table`, running sums
along each k, unchecked), never through the search's table:
each root, beta0 and beta is one lookup in it, and a pair that is not a
positive root has no entry and fails.  A searched certificate depends on
its root only through the pairing m, and many roots share one witness: the
sweep re-verifies each searched witness once per (nu_i, m) and gives it to
every root whose own pairing is m.  Each closed-form certificate is
re-verified whole, root by root.  The sweep reads each root's pairing once
and compares it with both routes' m.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate
from math import factorial, prod

from .block import BlockContext, check_index, nu_weight
from .lattice import _check_int, _pair_table, check_weight, fundamental, zero

__all__ = [
    "positive_roots",
    "superfactorial",
    "weyl_dim",
    "dim_parabolic_verma",
    "jantzen_decompose",
    "witness_search",
    "check_block_simplicity",
]

Root = tuple[int, int]
# A certificate's witness (m, s, a, b, beta0, betas), and the sweep's row
# (i, root, m, s, a, b, beta0, betas) of the certificate at block index i.
Witness = tuple[int, int, int, int, Root, tuple[Root, ...]]
CertificateRow = tuple[int, Root, int, int, int, int, Root, tuple[Root, ...]]


def positive_roots(rank: int) -> list[Root]:
    """Index pairs (k, j) of all positive roots eps_k - eps_j, in lex order,
    for an exact int rank; rank 0 has none."""
    _check_int("rank", rank)
    return [(k, j) for k in range(1, rank + 1) for j in range(k + 1, rank + 2)]


def superfactorial(m: int) -> int:
    """The product 1! 2! ... m!, for an exact int m.

    >>> superfactorial(3)
    12
    """
    _check_int("m", m)
    return prod(factorial(t) for t in range(1, m + 1))


def _weyl_quotient(coords: tuple[int, ...], rank: int, shift: int, factor: int) -> int:
    """factor times the product of coords' pairings with the positive roots
    of rank `rank` moved `shift` slots right, over 1! 2! ... rank!, exactly.
    The pairings are read from one table of coords' (`lattice._pair_table`)."""
    pairing = _pair_table(coords)
    num = prod(pairing[k + shift, j + shift] for k, j in positive_roots(rank))
    q, r = divmod(factor * num, superfactorial(rank))
    if r:
        raise RuntimeError(f"Weyl numerator must divide exactly (remainder {r} at {coords})")
    return q


def weyl_dim(lam: tuple[int, ...]) -> int:
    """Weyl dimension polynomial at a dominant weight, exactly.

    >>> weyl_dim(zero(3))
    1
    >>> weyl_dim(fundamental(2, 1))
    3
    """
    check_weight(lam)
    if any(a < 0 for a in lam):
        raise ValueError(f"weight must be dominant (got {lam})")
    return _weyl_quotient(tuple(a + 1 for a in lam), len(lam), 0, 1)


def dim_parabolic_verma(ctx: BlockContext, i: int, side: str) -> int:
    """Dimension of the parabolic baby cover of lam_i on the given side.

    Side "I" is the parabolic whose Levi permutes slots 1..n, side "J" the
    one permuting slots 2..n+1.  The value is p^n times the Levi's Weyl
    numerator at nu_i over the Levi's Weyl denominator.
    """
    n = ctx.n
    check_index(n, i)
    if side not in ("I", "J"):
        raise ValueError(f'side must be "I" or "J" (got {side!r})')
    # Side "J"'s Levi roots are side "I"'s moved one slot right.
    return _weyl_quotient(nu_weight(ctx, i), n - 1, 1 if side == "J" else 0, ctx.p**n)


def jantzen_decompose(m: int, p: int) -> tuple[int, int, int]:
    """The unique split of m >= 1 as a p^s + b p^{s+1} with 0 < a < p and
    b >= 0, as (s, a, b): the checks of m and p, then `_split`.  Raises
    TypeError unless m and p are exact ints, and ValueError if m < 1 or
    p < 2.

    >>> jantzen_decompose(6, 5)
    (0, 1, 1)
    >>> jantzen_decompose(50, 5)
    (2, 2, 0)
    """
    _check_int("m", m)
    _check_int("p", p)
    if m < 1:
        raise ValueError(f"m must be >= 1 (got {m})")
    if p < 2:
        raise ValueError(f"p must be >= 2 (got {p})")
    return _split(m, p)


def _split(m: int, p: int) -> tuple[int, int, int]:
    """`jantzen_decompose` of an int m >= 1 and an int p >= 2 the library
    holds, unchecked."""
    s, u = 0, m
    while u % p == 0:
        u //= p
        s += 1
    return s, u % p, u // p


@lru_cache(maxsize=4)
def _pairing_table(coords: tuple[int, ...]) -> tuple[dict[Root, int], dict[int, tuple[Root, ...]]]:
    """Pairings of the weight with these coordinates against every positive root.

    Returns root -> m, and m -> the roots pairing to m in lex order.  A
    sweep asks about one nu for every root in turn, so a few entries do.
    The tables are shared between callers, who must not change them.
    """
    prefix = list(accumulate(coords, initial=0))
    by_root: dict[Root, int] = {}
    by_m: dict[int, list[Root]] = {}
    for k, j in positive_roots(len(coords)):
        m = by_root[k, j] = prefix[j - 1] - prefix[k - 1]
        by_m.setdefault(m, []).append((k, j))
    return by_root, {m: tuple(roots) for m, roots in by_m.items()}


def witness_search(nu: tuple[int, ...], p: int) -> dict[int, Witness | None]:
    """Deterministic greedy search for a witness at every pairing of nu.

    Returns m -> the witness (m, s, a, b, beta0, betas) for each distinct
    pairing m of nu with a positive root (`_pairing_table`), or None when
    m is nonpositive or no witness exists.  A witness takes the lex-first
    positive root pairing to a p^s as beta0 and the lex-first b roots
    pairing to p^{s+1} as the betas: two lookups in nu's pairing table.
    A root's certificate is its pairing's witness, so one search serves
    every root.  p is checked first, as `jantzen_decompose` checks it, and
    then nu; each m is split unchecked.
    """
    # Splitting 1 checks p as every split does, and nothing else.
    jantzen_decompose(1, p)
    check_weight(nu)
    _, roots_at = _pairing_table(nu)
    found: dict[int, Witness | None] = {}
    for m in roots_at:
        if m < 1:
            found[m] = None
            continue
        s, a, b = _split(m, p)
        heads = roots_at.get(a * p**s)
        # 0 < a < p, so a p^s != p^{s+1}: beta0 is never in the tail's bucket.
        tail = roots_at.get(p ** (s + 1), ())[:b]
        found[m] = (m, s, a, b, heads[0], tail) if heads and len(tail) == b else None
    return found


def _witness_ok(pairing: dict[Root, int], witness: Witness, p: int) -> bool:
    """For a certificate's witness (m, s, a, b, beta0, betas), against the
    root -> pairing table of nu (`lattice._pair_table`): the split's
    identity and ranges hold, beta0 pairs to a p^s, and the betas are b
    distinct roots other than beta0 pairing to p^{s+1}.  A pair that is
    not a positive root has no pairing, and fails.

    The witness holds no root, so certificates that differ only in their
    root pass or fail together.  A valid witness has m = a p^s + b p^{s+1}
    >= 1, so a root whose pairing equals its m pairs positively.
    """
    m, s, a, b, beta0, betas = witness
    if not (0 < a < p and b >= 0 and s >= 0):
        return False
    unit = p**s
    step = unit * p
    return (
        m == a * unit + b * step
        and pairing.get(beta0) == a * unit
        and len(betas) == b
        and len({beta0, *betas}) == b + 1
        and set(map(pairing.get, betas)) <= {step}
    )


def _closed_forms(p: int, i: int, lam: tuple[int, ...], roots: list[Root]) -> Iterator[Witness]:
    """Yield each root's witness, built directly from nu_i's pairing
    pattern, in `roots` order, for lam = lam_i and positive root indices
    the library built, unchecked.

    The simple roots pair with nu_i to p, except the two special slots:
    alpha_i pairs to p - 1 (when i >= 1) and alpha_{i+1} to 1 (when
    i + 1 <= n).  So the valuation s of the root's pairing picks one of two
    rules, and neither searches:

    * s = 0: the interval holds exactly one special slot.  Either the 1
      opens it (k = i + 1) and beta0 is its first simple root, or the p - 1
      closes it (j = i + 1) and beta0 is its last; the betas are the b
      other simple roots, each pairing to p.
    * s >= 1: the interval holds neither special slot, or both, whose
      p - 1 and 1 add up to one p.  The roots run between the fences k,
      then k + a p^(s-1) + r p^s for r = 0..b; when both special slots are
      inside (k <= i < j - 1), every fence past i moves one slot right.

    lam_i is paired through one list of its prefix sums, and the s = 0
    runs are slices of one tuple of the simple roots.
    """
    prefix = list(accumulate(lam, initial=0))
    simple = tuple(zip(range(1, len(lam) + 1), range(2, len(lam) + 2)))
    for k, j in roots:
        # nu_i = lam_i + rho, and rho pairs to j - k with the coroot of (k, j).
        m = prefix[j - 1] - prefix[k - 1] + j - k
        s, a, b = _split(m, p)
        if s == 0:
            # The run of simple roots from k to j is simple[k - 1 : j - 1].
            if k == i + 1:
                yield m, s, a, b, simple[k - 1], simple[k : j - 1]
            else:
                yield m, s, a, b, simple[j - 2], simple[k - 1 : j - 2]
            continue
        # The fences after k end at j, or at j - 1 before the shift when both
        # special slots are inside (the next would be p^s > 1 slots on).  The
        # shift never moves k, which is then at most i.
        unit = p ** (s - 1)
        step = unit * p
        first = k + a * unit
        if k <= i < j - 1:
            kept = range(first, i + 1, step)
            fences = (*kept, *range(first + len(kept) * step + 1, j + 2, step))
        else:
            fences = range(first, j + 1, step)
        yield m, s, a, b, (k, fences[0]), tuple(zip(fences, fences[1:]))


def check_block_simplicity(ctx: BlockContext) -> dict:
    """Certify every (block index, positive root) pairing, both routes.

    For each nu_i the search runs once (`witness_search`), for every
    distinct pairing m in nu_i's pairing table at once (a searched witness
    depends on its root only through m), and each witness is re-verified
    once.  Each root's pairing is then read from the lattice's table of
    nu_i's pairings (`lattice._pair_table`, built once per nu_i), never
    from the search's table: its searched certificate holds when that
    pairing is its witness's m.  The closed forms of all roots are built
    in one pass per nu_i, without re-checking i and the roots, and each is
    re-verified whole against the same table.
    Reports any failures (expected: none), and the searched certificates as
    rows (i, root, m, s, a, b, beta0, betas) in (i, root) order.
    """
    n, p = ctx.n, ctx.p
    roots = positive_roots(n)
    certificates: list[CertificateRow] = []
    failures, replay_failures = [], []
    for i in range(n + 1):
        nu = nu_weight(ctx, i)
        found = witness_search(nu, p)
        by_root, _ = _pairing_table(nu)
        pairing = _pair_table(nu)
        # m -> the searched witness for m, or None when none was found or it
        # failed re-verification.
        witnesses = {
            m: witness if witness is not None and _witness_ok(pairing, witness, p) else None
            for m, witness in found.items()
        }
        for root, replayed in zip(roots, _closed_forms(p, i, ctx.lambdas[i], roots)):
            witness = witnesses.get(by_root[root])
            paired = pairing.get(root)
            if witness is not None and witness[0] == paired:
                certificates.append((i, root, *witness))
            else:
                failures.append({"i": i, "root": list(root), "reason": "search failed"})
            if replayed[0] != paired or not _witness_ok(pairing, replayed, p):
                replay_failures.append(
                    {"i": i, "root": list(root), "reason": "closed-form certificate invalid"}
                )
    checked = (n + 1) * len(roots)
    return {
        "n": n,
        "p": p,
        "checked": checked,
        "failures": failures,
        "replayed": checked,
        "replay_failures": replay_failures,
        "certificates": certificates,
        "ok": not failures and not replay_failures,
    }
