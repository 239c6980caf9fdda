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
diagonal pairing pattern of nu_i without searching.  The search is two
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
from .lattice import _pair, _pair_table, check_weight, fundamental, zero

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
    """Index pairs (k, j) of all positive roots eps_k - eps_j, in lex order."""
    return [(k, j) for k in range(1, rank + 1) for j in range(k + 1, rank + 2)]


def superfactorial(m: int) -> int:
    """The product 1! 2! ... m!.

    >>> superfactorial(3)
    12
    """
    return prod(factorial(t) for t in range(1, m + 1))


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
    n = len(lam)
    shifted = tuple(a + 1 for a in lam)
    num = prod(_pair(shifted, k, j) for k, j in positive_roots(n))
    q, r = divmod(num, superfactorial(n))
    if r:
        raise RuntimeError(f"Weyl numerator must divide exactly (remainder {r} at {lam})")
    return q


def dim_parabolic_verma(ctx: BlockContext, i: int, side: str) -> int:
    """Dimension of the parabolic baby cover of lam_i on the given side.

    Side "I" is the parabolic whose Levi permutes slots 1..n, side "J" the
    one permuting slots 2..n+1.  The value is p^n times the Levi's Weyl
    numerator at nu_i over the Levi's Weyl denominator.
    """
    n, p = ctx.n, ctx.p
    check_index(ctx.n, i)
    nu = nu_weight(ctx, i)
    if side == "I":
        levi_roots = [(k, j) for k in range(1, n) for j in range(k + 1, n + 1)]
    elif side == "J":
        levi_roots = [(k, j) for k in range(2, n + 1) for j in range(k + 1, n + 2)]
    else:
        raise ValueError(f'side must be "I" or "J" (got {side!r})')
    num = prod(_pair(nu, k, j) for k, j in levi_roots)
    q, r = divmod(p**n * num, superfactorial(n - 1))
    if r:
        raise RuntimeError(f"Levi Weyl numerator must divide exactly (remainder {r} at i={i})")
    return q


def jantzen_decompose(m: int, p: int) -> tuple[int, int, int]:
    """The unique split of m >= 1 as a p^s + b p^{s+1} with 0 < a < p and
    b >= 0, as (s, a, b).  Raises TypeError unless m and p are exact ints
    (not floats, not bools).

    >>> jantzen_decompose(6, 5)
    (0, 1, 1)
    >>> jantzen_decompose(50, 5)
    (2, 2, 0)
    """
    if type(m) is not int or type(p) is not int:
        raise TypeError(f"m and p must be ints (got {m!r}, {p!r})")
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
    certificate exists.
    """
    check_weight(nu)
    by_root, roots_at = _pairing_table(nu)
    root = tuple(root)
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


def _closed_form(n: int, p: int, i: int, lam: tuple[int, ...], root: Root) -> Certificate:
    """Build a witness certificate directly from nu_i's pairing pattern, for
    lam = lam_i and a positive root index the library built, unchecked.

    The simple-root pairings of nu_i are p everywhere except for a single
    p - 1 (and, away from the block edges, an adjacent 1), so every
    positive-root pairing falls into one of a handful of shapes; each shape
    has an explicit certificate, assembled here without any searching.
    """
    k, j = root
    # nu_i = lam_i + rho, and rho pairs to j - k with the coroot of (k, j).
    m = _pair(lam, k, j) + (j - k)
    s, a, b = jantzen_decompose(m, p)

    if i == 0 and k == 1:
        # Pairing 1 + (j - 2) p: the unit sits on alpha_1.
        beta0 = (1, 2)
        betas = tuple(zip(range(2, j), range(3, j + 1)))
    elif (i == n and j == n + 1) or (0 < i < n and k <= i and j == i + 1):
        # Pairing (p - 1) + (j - 1 - k) p: the p - 1 sits on alpha_{j-1}.
        beta0 = (j - 1, j)
        betas = tuple(zip(range(k, j - 1), range(k + 1, j)))
    elif 0 < i < n and k == i + 1:
        # Pairing 1 + (j - i - 2) p: the unit sits on alpha_{i+1}.
        beta0 = (i + 1, i + 2)
        betas = tuple(zip(range(i + 2, j), range(i + 3, j + 1)))
    elif 0 < i < n and k <= i and j >= i + 2:
        # Pairing (j - k - 1) p: the interval straddles both special slots,
        # whose contributions p - 1 and 1 merge into one p.
        width0 = a * p ** (s - 1)
        step = p**s
        if k + width0 >= i + 1:
            # beta0 itself straddles; the tail walks the all-p right side.
            beta0 = (k, k + 1 + width0)
            betas = _steps(k + 1 + width0, step, b)
        else:
            # beta0 fits left of the special slots; the tail walks right,
            # stretching by one slot on the jump that crosses them.
            beta0 = (k, k + width0)
            tail = []
            cur = k + width0
            for _ in range(b):
                if cur + step <= i:
                    tail.append((cur, cur + step))
                    cur += step
                elif cur <= i:
                    tail.append((cur, cur + 1 + step))
                    cur += 1 + step
                else:
                    tail.append((cur, cur + step))
                    cur += step
            betas = tuple(tail)
    else:
        # The interval avoids the special slots entirely: every simple
        # pairing inside it is p, so the pairing is (j - k) p.
        width0 = a * p ** (s - 1)
        beta0 = (k, k + width0)
        betas = _steps(k + width0, p**s, b)
    return root, m, s, a, b, beta0, betas


def _steps(start: int, step: int, b: int) -> tuple[Root, ...]:
    """The b roots (start + (r - 1) step, start + r step), r = 1..b."""
    ends = range(start, start + (b + 1) * step, step)
    return tuple(zip(ends, ends[1:]))


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
            built = _closed_form(n, p, i, lam, root)
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
