"""Dimensions and simplicity certificates for the singular block.

Two independent kinds of exact evidence live here:

* Weyl-polynomial dimensions of the simple modules in the block and of the
  two parabolic baby covers, together with the additivity identities that
  tie them to each other.
* Jantzen-style witness certificates: for every positive root, the pairing
  m of nu_i = lam_i + rho against its coroot decomposes uniquely as
  m = a p^s + b p^{s+1} with 0 < a < p, and a certificate exhibits one root
  pairing to a p^s plus b pairwise-distinct roots pairing to p^{s+1}.  A
  full sweep of valid certificates forces every baby Verma radical in the
  block to be as small as the layer formulas say, which is what
  `check_block_simplicity` machine-checks.

Certificates are produced by two routes on purpose: a deterministic greedy
search, and a closed-form builder that reads the certificate off the
diagonal pairing pattern of nu_i without searching.  Both are re-verified
from scratch by `verify_certificate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod

from .block import BlockContext, check_index, nu_weight
from .lattice import Weight, fundamental, pair, zero

__all__ = [
    "positive_roots",
    "superfactorial",
    "weyl_dim",
    "dim_parabolic_verma",
    "verify_dim_identity",
    "JantzenDecomposition",
    "jantzen_decompose",
    "WitnessCertificate",
    "witness_search",
    "verify_certificate",
    "closed_form_certificate",
    "certificate_dict",
    "check_block_simplicity",
]

Root = tuple[int, int]


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
    check_index(ctx, i)
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


def verify_dim_identity(ctx: BlockContext, i: int, side: str) -> bool:
    """Check the additivity of the parabolic cover's dimension.

    Side "I" (valid for 0 <= i <= n-1) asserts
    dim M_I(lam_i) = dim L(lam_i) + dim L(lam_{i+1}); side "J" (valid for
    1 <= i <= n) uses lam_{i-1} instead.
    """
    n = ctx.n
    if side == "I":
        if not 0 <= i <= n - 1:
            raise ValueError(f'side "I" needs 0 <= i <= {n - 1} (got {i})')
        other = i + 1
    elif side == "J":
        if not 1 <= i <= n:
            raise ValueError(f'side "J" needs 1 <= i <= {n} (got {i})')
        other = i - 1
    else:
        raise ValueError(f'side must be "I" or "J" (got {side!r})')
    total = weyl_dim(ctx.lambdas[i]) + weyl_dim(ctx.lambdas[other])
    return dim_parabolic_verma(ctx, i, side) == total


@dataclass(frozen=True)
class JantzenDecomposition:
    """The unique split m = a p^s + b p^{s+1} with 0 < a < p, b >= 0."""

    m: int
    s: int
    a: int
    b: int


def jantzen_decompose(m: int, p: int) -> JantzenDecomposition:
    """Decompose m >= 1 as a p^s + b p^{s+1} with 0 < a < p.

    >>> jantzen_decompose(6, 5)
    JantzenDecomposition(m=6, s=0, a=1, b=1)
    >>> jantzen_decompose(50, 5)
    JantzenDecomposition(m=50, s=2, a=2, b=0)
    """
    if m < 1:
        raise ValueError(f"m must be >= 1 (got {m})")
    if p < 2:
        raise ValueError(f"p must be >= 2 (got {p})")
    s, u = 0, m
    while u % p == 0:
        u //= p
        s += 1
    return JantzenDecomposition(m, s, u % p, u // p)


@dataclass(frozen=True)
class WitnessCertificate:
    """Certificate that a pairing's Jantzen split is realised by roots.

    `beta0` pairs to a p^s against the ambient weight, and the `betas` are
    b pairwise-distinct positive roots each pairing to p^{s+1}.
    """

    root: Root
    decomposition: JantzenDecomposition
    beta0: Root
    betas: tuple[Root, ...]


def witness_search(nu: Weight, root: Root, p: int) -> WitnessCertificate | None:
    """Deterministic greedy search for a witness certificate.

    Scans positive roots in lex order for beta0, then fills the p^{s+1}
    slots in lex order.  Returns None when the pairing is nonpositive or no
    certificate exists.
    """
    m = pair(nu, *root)
    if m < 1:
        return None
    dec = jantzen_decompose(m, p)
    head_target = dec.a * p**dec.s
    tail_target = p ** (dec.s + 1)
    roots = positive_roots(nu.rank)
    tail_pool = [r for r in roots if pair(nu, *r) == tail_target]
    for beta0 in roots:
        if pair(nu, *beta0) != head_target:
            continue
        tail = [r for r in tail_pool if r != beta0][: dec.b]
        if len(tail) == dec.b:
            return WitnessCertificate(root, dec, beta0, tuple(tail))
    return None


def verify_certificate(nu: Weight, cert: WitnessCertificate, p: int) -> bool:
    """Re-verify a certificate from scratch against `nu`.

    Checks the decomposition's defining identity and ranges, the validity
    and distinctness of all roots, and every pairing.
    """
    rank = nu.rank

    def valid_root(r: Root) -> bool:
        k, j = r
        return 1 <= k < j <= rank + 1

    if not valid_root(cert.root):
        return False
    d = cert.decomposition
    if d.m != pair(nu, *cert.root) or d.m < 1:
        return False
    if not (0 < d.a < p and d.b >= 0 and d.s >= 0):
        return False
    if d.m != d.a * p**d.s + d.b * p ** (d.s + 1):
        return False
    if not valid_root(cert.beta0) or pair(nu, *cert.beta0) != d.a * p**d.s:
        return False
    if len(cert.betas) != d.b:
        return False
    seen = {cert.beta0}
    for beta in cert.betas:
        if not valid_root(beta) or beta in seen:
            return False
        if pair(nu, *beta) != p ** (d.s + 1):
            return False
        seen.add(beta)
    return True


def closed_form_certificate(ctx: BlockContext, i: int, root: Root) -> WitnessCertificate:
    """Build a witness certificate directly from nu_i's pairing pattern.

    The simple-root pairings of nu_i are p everywhere except for a single
    p - 1 (and, away from the block edges, an adjacent 1), so every
    positive-root pairing falls into one of a handful of shapes; each shape
    has an explicit certificate, assembled here without any searching.
    """
    n, p = ctx.n, ctx.p
    k, j = root
    check_index(ctx, i)
    if not 1 <= k < j <= n + 1:
        raise ValueError(f"root (k, j) must satisfy 1 <= k < j <= {n + 1} (got {root})")
    nu = nu_weight(ctx, i)
    dec = jantzen_decompose(pair(nu, k, j), p)

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
        width0 = dec.a * p ** (dec.s - 1)
        step = p**dec.s
        if k + width0 >= i + 1:
            # beta0 itself straddles; the tail walks the all-p right side.
            beta0 = (k, k + 1 + width0)
            start = k + 1 + width0
            betas = tuple(
                (start + (r - 1) * step, start + r * step) for r in range(1, dec.b + 1)
            )
        else:
            # beta0 fits left of the special slots; the tail walks right,
            # stretching by one slot on the jump that crosses them.
            beta0 = (k, k + width0)
            tail = []
            cur = k + width0
            for _ in range(dec.b):
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
        width0 = dec.a * p ** (dec.s - 1)
        step = p**dec.s
        start = k + width0
        beta0 = (k, start)
        betas = tuple(
            (start + (r - 1) * step, start + r * step) for r in range(1, dec.b + 1)
        )
    return WitnessCertificate(root, dec, beta0, betas)


def certificate_dict(cert: WitnessCertificate) -> dict:
    """JSON-ready dict form of a certificate."""
    d = cert.decomposition
    return {
        "root": list(cert.root),
        "m": d.m,
        "s": d.s,
        "a": d.a,
        "b": d.b,
        "beta0": list(cert.beta0),
        "betas": [list(b) for b in cert.betas],
    }


def check_block_simplicity(ctx: BlockContext) -> dict:
    """Certify every (block index, positive root) pairing, both routes.

    For each nu_i and each positive root, runs the greedy search and the
    closed-form builder, re-verifies both certificates from scratch, and
    reports any failures (expected: none).  The searched certificates are
    included in the report.
    """
    n, p = ctx.n, ctx.p
    roots = positive_roots(n)
    certificates, failures, replay_failures = [], [], []
    for i in range(n + 1):
        nu = nu_weight(ctx, i)
        for root in roots:
            found = witness_search(nu, root, p)
            if found is None or not verify_certificate(nu, found, p):
                failures.append({"i": i, "root": list(root), "reason": "search failed"})
            else:
                certificates.append({"i": i, **certificate_dict(found)})
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
