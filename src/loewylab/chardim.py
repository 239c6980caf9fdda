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
coordinates; the builder pairs lam_i and adds rho's pairing j - k.  Both
kinds of certificate are re-verified from scratch against nu_i, paired
through `lattice.pair`, never through that table.  A closed-form
certificate goes through `verify_certificate` whole.  A searched one
depends on its root only through the pairing m, and many roots share one
witness: the sweep pairs every root, and checks each distinct searched
witness once per nu_i.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import factorial, prod

from .block import BlockContext, check_index, nu_weight
from .lattice import Weight, fundamental, pair, zero

__all__ = [
    "positive_roots",
    "superfactorial",
    "weyl_dim",
    "dim_parabolic_verma",
    "jantzen_decompose",
    "witness_search",
    "verify_certificate",
    "closed_form_certificate",
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


def weyl_dim(lam: Weight) -> int:
    """Weyl dimension polynomial at a dominant weight, exactly.

    >>> weyl_dim(zero(3))
    1
    >>> weyl_dim(fundamental(2, 1))
    3
    """
    if any(a < 0 for a in lam.coords):
        raise ValueError(f"weight must be dominant (got {lam.coords})")
    n = lam.rank
    shifted = Weight(tuple(a + 1 for a in lam.coords))
    num = prod(pair(shifted, k, j) for k, j in positive_roots(n))
    q, r = divmod(num, superfactorial(n))
    if r:
        raise RuntimeError(f"Weyl numerator must divide exactly (remainder {r} at {lam.coords})")
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
    num = prod(pair(nu, k, j) for k, j in levi_roots)
    q, r = divmod(p**n * num, superfactorial(n - 1))
    if r:
        raise RuntimeError(f"Levi Weyl numerator must divide exactly (remainder {r} at i={i})")
    return q


@lru_cache(maxsize=1024)
def jantzen_decompose(m: int, p: int) -> tuple[int, int, int]:
    """The unique split of m >= 1 as a p^s + b p^{s+1} with 0 < a < p and
    b >= 0, as (s, a, b).

    >>> jantzen_decompose(6, 5)
    (0, 1, 1)
    >>> jantzen_decompose(50, 5)
    (2, 2, 0)

    A pure function of (m, p) returning a tuple, so results are cached; a
    refused call raises every time.
    """
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


def witness_search(nu: Weight, root: Root, p: int) -> Certificate | None:
    """Deterministic greedy search for a witness certificate.

    Takes the lex-first positive root pairing to a p^s as beta0 and the
    lex-first b roots pairing to p^{s+1} as the tail: two lookups in nu's
    pairing table.  Returns None when the pairing is nonpositive or no
    certificate exists.
    """
    by_root, roots_at = _pairing_table(nu.coords)
    m = by_root.get(tuple(root))
    if m is None:
        raise ValueError(f"(k, j) = {tuple(root)} is not a positive root index")
    if m < 1:
        return None
    s, a, b = jantzen_decompose(m, p)
    heads = roots_at.get(a * p**s)
    # 0 < a < p, so a p^s != p^{s+1}: beta0 is never in the tail's bucket.
    tail = roots_at.get(p ** (s + 1), ())[:b]
    if not heads or len(tail) < b:
        return None
    return root, m, s, a, b, heads[0], tail


def verify_certificate(nu: Weight, cert: Certificate, p: int) -> bool:
    """Re-verify a certificate from scratch against `nu`.

    Checks the split's defining identity and ranges, the validity and
    distinctness of all roots, and every pairing.
    """
    return _root_ok(nu, cert) and _witness_ok(nu, cert[1:], p)


def _valid_root(rank: int, r: Root) -> bool:
    k, j = r
    return 1 <= k < j <= rank + 1


def _root_ok(nu: Weight, cert: Certificate) -> bool:
    """The certificate's root is a positive root pairing to its m >= 1."""
    root, m = cert[:2]
    return _valid_root(nu.rank, root) and m == pair(nu, *root) and m >= 1


def _witness_ok(nu: Weight, witness: tuple, p: int) -> bool:
    """For a certificate's witness (m, s, a, b, beta0, betas): the split's
    identity and ranges hold, beta0 pairs to a p^s, and the betas are b
    distinct roots other than beta0 pairing to p^{s+1}.

    The witness holds no root, so certificates that differ only in their
    root pass or fail together.
    """
    m, s, a, b, beta0, betas = witness
    if not (0 < a < p and b >= 0 and s >= 0):
        return False
    if m != a * p**s + b * p ** (s + 1):
        return False
    if not _valid_root(nu.rank, beta0) or pair(nu, *beta0) != a * p**s:
        return False
    if len(betas) != b:
        return False
    seen = {beta0}
    for beta in betas:
        if not _valid_root(nu.rank, beta) or beta in seen:
            return False
        if pair(nu, *beta) != p ** (s + 1):
            return False
        seen.add(beta)
    return True


def closed_form_certificate(ctx: BlockContext, i: int, root: Root) -> Certificate:
    """Build a witness certificate directly from nu_i's pairing pattern.

    The simple-root pairings of nu_i are p everywhere except for a single
    p - 1 (and, away from the block edges, an adjacent 1), so every
    positive-root pairing falls into one of a handful of shapes; each shape
    has an explicit certificate, assembled here without any searching.
    """
    n, p = ctx.n, ctx.p
    k, j = root
    check_index(ctx.n, i)
    if not 1 <= k < j <= n + 1:
        raise ValueError(f"root (k, j) must satisfy 1 <= k < j <= {n + 1} (got {root})")
    # nu_i = lam_i + rho, and rho pairs to j - k with the coroot of (k, j).
    m = pair(ctx.lambdas[i], k, j) + (j - k)
    s, a, b = jantzen_decompose(m, p)

    if i == 0 and k == 1:
        # Pairing 1 + (j - 2) p: the unit sits on alpha_1.
        beta0 = (1, 2)
        betas = tuple((t, t + 1) for t in range(2, j))
    elif (i == n and j == n + 1) or (0 < i < n and k <= i and j == i + 1):
        # Pairing (p - 1) + (j - 1 - k) p: the p - 1 sits on alpha_{j-1}.
        beta0 = (j - 1, j)
        betas = tuple((k + r - 1, k + r) for r in range(1, j - k))
    elif 0 < i < n and k == i + 1:
        # Pairing 1 + (j - i - 2) p: the unit sits on alpha_{i+1}.
        beta0 = (i + 1, i + 2)
        betas = tuple((i + 1 + r, i + 2 + r) for r in range(1, j - i - 1))
    elif 0 < i < n and k <= i and j >= i + 2:
        # Pairing (j - k - 1) p: the interval straddles both special slots,
        # whose contributions p - 1 and 1 merge into one p.
        width0 = a * p ** (s - 1)
        step = p**s
        if k + width0 >= i + 1:
            # beta0 itself straddles; the tail walks the all-p right side.
            beta0 = (k, k + 1 + width0)
            start = k + 1 + width0
            betas = tuple(
                (start + (r - 1) * step, start + r * step) for r in range(1, b + 1)
            )
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
        step = p**s
        start = k + width0
        beta0 = (k, start)
        betas = tuple(
            (start + (r - 1) * step, start + r * step) for r in range(1, b + 1)
        )
    return root, m, s, a, b, beta0, betas


def check_block_simplicity(ctx: BlockContext) -> dict:
    """Certify every (block index, positive root) pairing, both routes.

    For each nu_i and each positive root, runs the greedy search and the
    closed-form builder, re-verifies both certificates from scratch, and
    reports any failures (expected: none).  A searched certificate's root
    pairing is checked for every root, and its witness
    (m, s, a, b, beta0, betas) once per nu_i: many roots share one.  The
    searched certificates are included in the report as rows
    (i, root, m, s, a, b, beta0, betas).
    """
    n, p = ctx.n, ctx.p
    roots = positive_roots(n)
    certificates: list[CertificateRow] = []
    failures, replay_failures = [], []
    for i in range(n + 1):
        nu = nu_weight(ctx, i)
        witnesses: dict[tuple, bool] = {}
        for root in roots:
            found = witness_search(nu, root, p)
            ok = found is not None and _root_ok(nu, found)
            if ok:
                witness = found[1:]
                ok = witnesses.get(witness)
                if ok is None:
                    ok = witnesses[witness] = _witness_ok(nu, witness, p)
            if ok:
                certificates.append((i, *found))
            else:
                failures.append({"i": i, "root": list(root), "reason": "search failed"})
            built = closed_form_certificate(ctx, i, root)
            if not verify_certificate(nu, built, p):
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
