"""End-to-end acceptance criteria, each with an exactness check and a time cap.

Every test records a summary line (printed after the run by conftest) and
then asserts both the mathematical statement at exact equality and the cap.
"""

import random
from itertools import product
from math import comb
from time import perf_counter

from conftest import record
from oracles import as_labels

from loewylab.block import is_odd_prime, make_context
from loewylab.chardim import (
    check_block_simplicity,
    dim_parabolic_verma,
    positive_roots,
    weyl_dim,
)
from loewylab.ext import ext1_g1t_dim, rad1_qhat
from loewylab.lattice import (
    add,
    eps_basis,
    fundamental,
    in_root_lattice,
    leq,
    neg,
    scale,
    sub,
    zero,
)
from loewylab.loewy import (
    composition_class_z_g1,
    dual_verma_rows,
    layer_sizes,
    parabolic_m_structure,
    rad_layers_z_g1,
    verma_rows,
)
from loewylab.projective import (
    bgg_multiplicity,
    cover_rows,
    q_composition_mult_g1,
    verma_support,
)


def good_prime(n: int) -> int:
    q = 5
    while (n + 1) % q == 0 or not is_odd_prime(q):
        q += 2
    return q


def very_good_primes(n: int, count: int) -> list[int]:
    out = []
    q = 3
    while len(out) < count:
        if is_odd_prime(q) and (n + 1) % q != 0:
            out.append(q)
        q += 2
    return out


def finish(name: str, ok: bool, start: float, cap: float) -> None:
    elapsed = perf_counter() - start
    passed = ok and elapsed < cap
    record(name, passed, f"{elapsed:.2f}s, cap {cap:.0f}s")
    assert ok
    assert elapsed < cap


def test_criterion_01_frobenius_multiplicities_are_binomial():
    start = perf_counter()
    ok = True
    for n in range(1, 9):
        ctx = make_context(n, good_prime(n))
        for i in range(n + 1):
            layers = rad_layers_z_g1(ctx, i)
            for j, layer in enumerate(layers):
                expected = {}
                for k in range(0, min(i, j) + 1):
                    t = i + j - 2 * k
                    m = comb(i, k) * comb(n - i, j - k)
                    if 0 <= t <= n and m:
                        expected[t] = m
                ok = ok and layer == expected
            totals = composition_class_z_g1(ctx, i)
            ok = ok and all(
                totals.get(t, 0)
                == sum(layer.get(t, 0) for layer in layers)
                for t in range(n + 1)
            )
    finish("1 Frobenius-kernel multiplicities are binomial products", ok, start, 5.0)


def test_criterion_02_loewy_length_and_layer_sizes():
    start = perf_counter()
    ok = True
    for n in range(1, 9):
        ctx = make_context(n, good_prime(n))
        for i in range(n + 1):
            layers = as_labels(verma_rows(ctx, (i, (0,) * n)))
            ok = ok and len(layers) == n + 1
            ok = ok and layer_sizes(layers) == [comb(n, j) for j in range(n + 1)]
            ok = ok and all(m == 1 for layer in layers for m in layer.values())
    finish("2 baby Vermas have n+1 layers of size C(n,j)", ok, start, 5.0)


def test_criterion_03_dimension_conservation():
    start = perf_counter()
    ok = True
    for n in range(1, 7):
        for p in very_good_primes(n, 3):
            ctx = make_context(n, p)
            verma_dim = p ** (n * (n + 1) // 2)
            for i in range(n + 1):
                total = sum(
                    m * weyl_dim(ctx.lambdas[t])
                    for t, m in composition_class_z_g1(ctx, i).items()
                )
                ok = ok and total == verma_dim
    finish("3 composition factor dimensions sum to p^(n(n+1)/2)", ok, start, 30.0)


def test_criterion_04_parabolic_dimension_identities():
    start = perf_counter()
    ctx2 = make_context(2, 5)
    ok = weyl_dim(ctx2.lambdas[0]) == 15 and weyl_dim(ctx2.lambdas[1]) == 10
    ok = ok and dim_parabolic_verma(ctx2, 0, "I") == 25 == 15 + 10
    for n in range(1, 9):
        ctx = make_context(n, good_prime(n))
        simple = [weyl_dim(lam) for lam in ctx.lambdas]
        ok = ok and all(
            dim_parabolic_verma(ctx, i, "I") == simple[i] + simple[i + 1] for i in range(n)
        )
        ok = ok and all(
            dim_parabolic_verma(ctx, i, "J") == simple[i] + simple[i - 1] for i in range(1, n + 1)
        )
    finish("4 parabolic cover dimensions add adjacent simples", ok, start, 5.0)


def test_criterion_05_block_simplicity_certificates():
    start = perf_counter()
    ok = True
    for n in range(1, 9):
        for p in (5, 7, 11, 13):
            if (n + 1) % p == 0:
                continue
            ctx = make_context(n, p)
            report = check_block_simplicity(ctx)
            pairs = (n + 1) * len(positive_roots(n))
            ok = ok and report["ok"]
            ok = ok and report["failures"] == [] and report["replay_failures"] == []
            ok = ok and report["checked"] == pairs and report["replayed"] == pairs
            ok = ok and len(report["certificates"]) == pairs
    finish("5 Jantzen certificates verify with zero failures", ok, start, 60.0)


def test_criterion_06_first_layer_matches_parabolic_forms():
    start = perf_counter()
    ok = True
    for n in range(1, 9):
        ctx = make_context(n, good_prime(n))
        for i in range(n + 1):
            for t in (zero(n), fundamental(n, 1), neg(fundamental(n, n))):
                expected = {}
                for x in range(1, i + 1):
                    expected[(i - 1, sub(t, eps_basis(n, x)))] = 1
                for y in range(i + 2, n + 2):
                    expected[(i + 1, add(t, eps_basis(n, y)))] = 1
                head = (i, t)
                ok = ok and as_labels(verma_rows(ctx, head))[1] == expected
                if i < n:
                    (label,) = as_labels(parabolic_m_structure(ctx, head, "I"))[1]
                    ok = ok and label in expected
                if i > 0:
                    (label,) = as_labels(parabolic_m_structure(ctx, head, "J"))[1]
                    ok = ok and label in expected
    finish("6 first radical layers match the parabolic forms", ok, start, 10.0)


def eps_ball(n: int, radius: int) -> set[tuple[int, ...]]:
    signed = []
    for k in range(1, n + 2):
        signed.append(eps_basis(n, k))
        signed.append(neg(eps_basis(n, k)))
    offsets = {zero(n)}
    frontier = {zero(n)}
    for _ in range(radius):
        frontier = {add(w, v) for w in frontier for v in signed}
        offsets |= frontier
    return offsets


def test_criterion_07_ext_suite():
    start = perf_counter()
    ok = True
    for n in range(1, 9):
        ctx = make_context(n, good_prime(n))
        ball = eps_ball(n, 3)
        head = (0, zero(n))
        for i in range(n + 1):
            a = (i, zero(n))
            for j in range(n + 1):
                if abs(i - j) != 1:
                    ok = ok and all(ext1_g1t_dim(ctx, a, (j, t)) == 0 for t in ball)
        twists = [zero(n), fundamental(n, 1), neg(fundamental(n, n)), eps_basis(n, 2)]
        labels = [(i, t) for i in range(n + 1) for t in twists]
        for a in labels:
            for b in labels:
                ok = ok and ext1_g1t_dim(ctx, a, b) == ext1_g1t_dim(ctx, b, a)
        for i in range(n + 1):
            for t in (zero(n), fundamental(n, 1)):
                a = (i, t)
                rows = rad1_qhat(ctx, a)
                (layer,) = as_labels([rows])
                want = n + 1 if i in (0, n) else 2 * n + 2
                ok = ok and len(rows) == len(layer) == want and sum(layer.values()) == want
                ok = ok and all(ext1_g1t_dim(ctx, a, b) == 1 for b in layer)
                expected = {}
                for k in range(1, n + 2):
                    step = sub(fundamental(n, k), fundamental(n, k - 1))
                    if i > 0:
                        expected[(i - 1, sub(t, step))] = 1
                    if i < n:
                        expected[(i + 1, add(t, step))] = 1
                ok = ok and layer == expected
    finish("7 Ext rules: vanishing, symmetry, cover first layer", ok, start, 30.0)


def test_criterion_08_projective_cover_structure():
    start = perf_counter()
    ok = True
    for n in range(1, 6):
        ctx = make_context(n, good_prime(n))
        for i in range(n + 1):
            head = (i, zero(n))
            layers = as_labels(cover_rows(ctx, head))
            ok = ok and len(layers) == 2 * n + 1
            ok = ok and layers[0] == {head: 1}
            ok = ok and layers[1] == as_labels([rad1_qhat(ctx, head)])[0]
            ok = ok and all(layers[j] == layers[2 * n - j] for j in range(2 * n + 1))
            totals = [0] * (n + 1)
            for layer in layers:
                for (u, _), m in layer.items():
                    totals[u] += m
            ok = ok and totals == [
                q_composition_mult_g1(ctx, i, j) for j in range(n + 1)
            ]
            ok = ok and bgg_multiplicity(ctx, head, head) == 1
            support = verma_support(ctx, head)
            ok = ok and len({(t, eta) for t, eta, _ in support}) == len(support)
    finish(
        "8 projective cover layers (conditional on Loewy length)", ok, start, 120.0
    )


def test_criterion_09_rigidity_reversals():
    start = perf_counter()
    ok = True
    for n in range(1, 7):
        ctx = make_context(n, good_prime(n))
        for i in range(n + 1):
            for head in ((i, zero(n)), (i, fundamental(n, 1))):
                rad = as_labels(verma_rows(ctx, head))
                rev = list(reversed(rad))
                ok = ok and as_labels(dual_verma_rows(ctx, head)) == rev
                ok = ok and rad[0] == {head: 1} == rev[-1]
    finish("9 socle series and dual layers are exact reversals", ok, start, 10.0)


def test_criterion_10_lattice_order_suite():
    start = perf_counter()
    ok = True
    rng = random.Random(11)
    for n in range(1, 6):
        w1 = fundamental(n, 1)
        samples = [
            tuple(rng.randrange(-4, 5) for _ in range(n)) for _ in range(24)
        ]
        ok = ok and all(leq(w, w) for w in samples)
        for a in samples[:12]:
            for b in samples[:12]:
                if leq(a, b) and leq(b, a):
                    ok = ok and a == b
                for p in (5, 7):
                    if (n + 1) % p == 0:
                        continue
                    ok = ok and leq(scale(p, a), scale(p, b)) == leq(a, b)
        for _ in range(400):
            a, b, c = rng.sample(samples, 3)
            if leq(a, b) and leq(b, c):
                ok = ok and leq(a, c)
        count = 0
        for w in product(range(13), repeat=n):
            residue = sum(t * c for t, c in enumerate(w, start=1)) % (n + 1)
            member = in_root_lattice(sub(w, w1))
            ok = ok and member == (residue == 1 % (n + 1))
            if member:
                count += 1
                ok = ok and leq(w1, w)
        ok = ok and count > 0
    finish("10 dominance order axioms and coset minimality", ok, start, 30.0)
