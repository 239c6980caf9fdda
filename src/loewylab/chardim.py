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
past both special slots when the interval holds them.  The search is two
lookups in a pairing table built once per nu from prefix sums of its
coordinates; the builder pairs lam_i (`lattice._pair`) and adds rho's
pairing j - k.  Both kinds of certificate are re-verified from scratch
against nu_i through the lattice's own table of nu_i's pairings
(`lattice._pair_table`, running sums along each k, unchecked like
`_pair`), never through the search's table: each root, beta0 and beta is
one lookup in it, and a pair that is not a positive root has no entry and
fails.  A searched certificate depends on its root only through the
pairing m, and many roots share one witness: the sweep searches once per
distinct m per nu_i, re-verifies that witness once, and gives it to every
root whose own pairing is m.  Each closed-form certificate is re-verified
whole, root by root.  The sweep reads each root's pairing once and
compares it with both routes' m.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import factorial, prod

from .block import BlockContext, check_index, nu_weight
from .lattice import _check_int, _pair, _pair_table, check_weight, fundamental, zero

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
# (root, m, s, a, b, beta0, betas), and the sweep's row of it at block index i.
Certificate = tuple[Root, int, int, int, int, Root, tuple[Root, ...]]
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
    of rank `rank` moved `shift` slots right, over 1! 2! ... rank!, exactly."""
    num = prod(_pair(coords, k + shift, j + shift) for k, j in positive_roots(rank))
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
    b >= 0, as (s, a, b).  Raises TypeError unless m and p are exact ints.

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


def witness_search(nu: tuple[int, ...], root: Root, p: int) -> Certificate | None:
    """Deterministic greedy search for a witness certificate.

    Takes the lex-first positive root pairing to a p^s as beta0 and the
    lex-first b roots pairing to p^{s+1} as the tail: two lookups in nu's
    pairing table.  Returns None when the pairing is nonpositive or no
    certificate exists.  The root's indices and p are exact ints.
    """
    check_weight(nu)
    by_root, roots_at = _pairing_table(nu)
    root = tuple(root)
    for k in root:
        _check_int("root index", k)
    _check_int("p", p)
    m = by_root.get(root)
    if m is None:
        raise ValueError(f"(k, j) = {root} is not a positive root index")
    if m < 1:
        return None
    s, a, b = jantzen_decompose(m, p)
    heads = roots_at.get(a * p**s)
    # 0 < a < p, so a p^s != p^{s+1}: beta0 is never in the tail's bucket.
    tail = roots_at.get(p ** (s + 1), ())[:b]
    if not heads or len(tail) < b:
        return None
    return root, m, s, a, b, heads[0], tail


def _witness_ok(pairing: dict[Root, int], witness: tuple, p: int) -> bool:
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


def _closed_form(p: int, i: int, lam: tuple[int, ...], root: Root) -> Certificate:
    """Build a witness certificate directly from nu_i's pairing pattern, for
    lam = lam_i and a positive root index the library built, unchecked.

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
    """
    k, j = root
    # nu_i = lam_i + rho, and rho pairs to j - k with the coroot of (k, j).
    m = _pair(lam, k, j) + (j - k)
    s, a, b = jantzen_decompose(m, p)
    if s == 0:
        simple = tuple(zip(range(k, j), range(k + 1, j + 1)))
        if k == i + 1:
            return root, m, s, a, b, simple[0], simple[1:]
        return root, m, s, a, b, simple[-1], simple[:-1]
    # The fences after k end at j, or at j - 1 before the shift when both
    # special slots are inside (the next would be p^s > 1 slots on).  The
    # shift never moves k, which is then at most i.
    fences = range(k + a * p ** (s - 1), j + 1, p**s)
    if k <= i < j - 1:
        fences = [x + (x > i) for x in fences]
    return root, m, s, a, b, (k, fences[0]), tuple(zip(fences, fences[1:]))


def check_block_simplicity(ctx: BlockContext) -> dict:
    """Certify every (block index, positive root) pairing, both routes.

    For each nu_i, the search runs once per distinct pairing m in nu_i's
    pairing table, for the lex-first root pairing to m (a searched witness
    (m, s, a, b, beta0, betas) depends on its root only through m), and
    that witness is re-verified once.  Each root's pairing is then read
    from the lattice's table of nu_i's pairings (`lattice._pair_table`,
    built once per nu_i), never from the search's table: its searched
    certificate holds when that pairing is its witness's m, and its
    closed-form certificate, built without re-checking i and the root, is
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
        lam = ctx.lambdas[i]
        by_root, _ = _pairing_table(nu)
        pairing = _pair_table(nu)
        # m -> the searched witness for m, or None when none was found or it
        # failed re-verification.
        witnesses: dict[int, tuple | None] = {}
        for root in roots:
            m = by_root[root]
            if m not in witnesses:
                found = witness_search(nu, root, p)
                ok = found is not None and _witness_ok(pairing, found[1:], p)
                witnesses[m] = found[1:] if ok else None
            witness = witnesses[m]
            paired = pairing.get(root)
            if witness is not None and witness[0] == paired:
                certificates.append((i, root, *witness))
            else:
                failures.append({"i": i, "root": list(root), "reason": "search failed"})
            built = _closed_form(p, i, lam, root)
            if built[1] != paired or not _witness_ok(pairing, built[1:], p):
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
