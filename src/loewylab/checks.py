"""Machine checks of the block's invariants at one (n, p).

`verify_checks` is the battery behind `loewylab verify`: thirteen named
checks of the weight table, dimensions, certificates, Verma layers, Ext
rules and projective covers.  `dimension_table` tabulates the simple and
parabolic cover dimensions with their additivity identities and the
per-Verma dimension conservation, which `loewylab dim` renders and two of
the checks read.
"""

from __future__ import annotations

from itertools import product
from math import comb

from .block import BlockContext, IrreducibleLabel, block_weight, classify, label_weight, mu_weight
from .chardim import (
    check_block_simplicity, dim_parabolic_verma, positive_roots, weyl_dim,
)
from .ext import ext1_g1t_dim, rad1_qhat
from .lattice import (
    Weight, eps_basis, eps_coords, from_eps, fundamental, in_root_lattice, leq, pair, rho, zero,
)
from .loewy import (
    composition_class_z_g1, layer_sizes, parabolic_m_structure, rad_layers_z_g1,
    rad_layers_z_g1t, rad_layers_zprime_g1t,
)
from .projective import bgg_multiplicity, q_composition_mult_g1, rad_layers_qhat, verma_support
from .weyl import act, longest, longest_fixing_last

__all__ = ["dimension_table", "verify_checks"]


def dimension_table(ctx: BlockContext) -> dict:
    """Dimensions in the block, with their identities.

    One row per block index: the simple's dimension, both parabolic cover
    dimensions and whether each is the sum of its two simples (None where
    the side does not exist); the baby Verma dimension p^(n(n+1)/2); and
    whether every baby Verma's composition factors add up to it.
    """
    n, p = ctx.n, ctx.p
    verma_dim = p ** (n * (n + 1) // 2)
    simple = [weyl_dim(lam) for lam in ctx.lambdas]
    rows = []
    for i in range(n + 1):
        cover_i = dim_parabolic_verma(ctx, i, "I") if i < n else None
        cover_j = dim_parabolic_verma(ctx, i, "J") if i > 0 else None
        rows.append({
            "i": i,
            "dim_simple": simple[i],
            "dim_cover_I": cover_i,
            "dim_cover_J": cover_j,
            "identity_I": cover_i == simple[i] + simple[i + 1] if i < n else None,
            "identity_J": cover_j == simple[i] + simple[i - 1] if i > 0 else None,
        })
    conservation = all(
        sum(m * simple[t] for t, m in composition_class_z_g1(ctx, i).items()) == verma_dim
        for i in range(n + 1)
    )
    return {"rows": rows, "verma_dimension": verma_dim, "conservation_ok": conservation}


def verify_checks(ctx: BlockContext) -> list[dict]:
    """Run every named check at (n, p), in a fixed order.

    Each check is a dict with its `name`, `ok`, a `detail` that is empty
    when it passes, and whether it is `conditional` on the Loewy length
    conjecture.
    """
    n, p = ctx.n, ctx.p
    checks: list[dict] = []

    def add(name: str, ok: bool, detail: str = "", conditional: bool = False) -> None:
        checks.append(
            {"name": name, "ok": bool(ok), "detail": "" if ok else detail, "conditional": conditional}
        )

    twists = [zero(n), fundamental(n, 1), -fundamental(n, n)]

    # Weight arithmetic round trips and the rho pairing normalisation.
    samples = list(ctx.lambdas) + [rho(n), zero(n), fundamental(n, 1)]
    ok = all(from_eps(eps_coords(w)) == w for w in samples)
    ok = ok and all(pair(rho(n), k, j) == j - k for k, j in positive_roots(n))
    ok = ok and all(leq(w, w) for w in samples)
    add("lattice.round_trip", ok, "eps round trip or rho pairing broke")

    # Twisting by p preserves and reflects the dominance order.
    pairs = list(product(twists + [rho(n)], repeat=2))
    ok = all(leq(p * a, p * b) == leq(a, b) for a, b in pairs)
    add("lattice.twist_order", ok, "p-dilation did not preserve/reflect the order")

    # Minimality of the first fundamental weight in its dominant coset.
    bad = None
    for coords in product(range(3), repeat=n):
        w = Weight(coords)
        if in_root_lattice(w - fundamental(n, 1)) and not leq(fundamental(n, 1), w):
            bad = w
            break
    add("lattice.coset_minimality", bad is None, f"counterexample {bad and bad.coords}")

    # The weight table against its defining companions.
    ok = all(
        ctx.lambdas[i] == mu_weight(ctx, i) + p * rho(n) - p * fundamental(n, i + 1)
        for i in range(n)
    )
    ok = ok and ctx.lambdas[n] == mu_weight(ctx, n) + p * rho(n)
    ok = ok and all(
        all(0 <= c < p for c in block_weight(ctx, i, a).coords)
        for i in range(n + 1)
        for a in range(1, p)
    )
    ok = ok and all(
        classify(ctx, label_weight(ctx, IrreducibleLabel(i, t))) == IrreducibleLabel(i, t)
        for i in range(n + 1)
        for t in twists
    )
    add("block.weight_table", ok, "lambda/mu/classification identities broke")

    # The lowest-weight identity tying consecutive table entries together.
    w_i, w_0 = longest_fixing_last(n), longest(n)
    shift = -((p - 1) * (n + 1)) * fundamental(n, n)
    target = -p * fundamental(n, n)
    ok = all(
        shift + act(w_i, ctx.lambdas[i]) - act(w_0, ctx.lambdas[i + 1]) == target
        for i in range(n)
    )
    add("block.lowest_weight_identity", ok, "Weyl-twisted lowest weights misaligned")

    # Parabolic cover dimensions are sums of adjacent simple dimensions.
    dims = dimension_table(ctx)
    ok = all(
        row[side] is not False for row in dims["rows"] for side in ("identity_I", "identity_J")
    )
    add("chardim.dim_identities", ok, "a cover dimension identity failed")

    # Composition factors of each baby Verma account for its full dimension.
    add("chardim.dimension_conservation", dims["conservation_ok"],
        "dimensions do not sum to p^(n(n+1)/2)")

    # Every pairing has a valid certificate, by search and by closed form.
    report = check_block_simplicity(ctx)
    add(
        "chardim.block_simplicity",
        report["ok"],
        f"{len(report['failures'])} search, {len(report['replay_failures'])} replay failures",
    )

    # The twisted baby Vermas the next four checks read, built once each.
    vermas = {(i, t): rad_layers_z_g1t(ctx, i, t) for i in range(n + 1) for t in twists}

    # Layer counts: binomial per layer, Loewy length n + 1, twist-sum match.
    ok = True
    for i in range(n + 1):
        g1 = rad_layers_z_g1(ctx, i)
        ok = ok and layer_sizes(g1) == [comb(n, j) for j in range(n + 1)]
        for t in twists:
            g1t = vermas[i, t]
            ok = ok and layer_sizes(g1t) == [comb(n, j) for j in range(n + 1)]
            collapsed = [
                {
                    u: sum(m for lab, m in layer.items() if lab.i == u)
                    for u in {lab.i for lab in layer}
                }
                for layer in g1t
            ]
            ok = ok and collapsed == g1
    add("loewy.layer_counts", ok, "layer sizes or twist-collapse mismatch")

    # First radical layer against the two parabolic covers' second layers.
    ok = True
    for i in range(n + 1):
        for t in twists:
            expected = {}
            for x in range(1, i + 1):
                expected[IrreducibleLabel(i - 1, t - eps_basis(n, x))] = 1
            for y in range(i + 2, n + 2):
                expected[IrreducibleLabel(i + 1, t + eps_basis(n, y))] = 1
            ok = ok and vermas[i, t][1] == expected
            if i < n:
                sub = parabolic_m_structure(ctx, i, t, "I")[1]
                ok = ok and all(lab in expected for lab in sub)
            if i > 0:
                sub = parabolic_m_structure(ctx, i, t, "J")[1]
                ok = ok and all(lab in expected for lab in sub)
    add("loewy.rad1_parabolic_forms", ok, "rad_1 disagrees with the cover forms")

    # Rigidity: socle series and dual-Verma radicals are index reversals.
    ok = True
    for i in range(n + 1):
        for t in twists:
            rev = rad_layers_zprime_g1t(ctx, i, t)
            ok = ok and rev == list(reversed(vermas[i, t]))
            ok = ok and rev[-1] == {IrreducibleLabel(i, t): 1}
    add("loewy.rigidity", ok, "socle/dual series are not reversals")

    # Ext rules: symmetry, adjacency vanishing, and the cover's first layer.
    ok = True
    labels = [IrreducibleLabel(i, t) for i in range(n + 1) for t in twists]
    for a in labels:
        for b in labels:
            d_ab, d_ba = ext1_g1t_dim(ctx, a, b), ext1_g1t_dim(ctx, b, a)
            ok = ok and d_ab == d_ba
            if abs(a.i - b.i) != 1:
                ok = ok and d_ab == 0
    for i in range(n + 1):
        for t in twists:
            layer = rad1_qhat(ctx, i, t)
            want = (n + 1) * ((i > 0) + (i < n))
            ok = ok and sum(layer.values()) == want
            head = IrreducibleLabel(i, t)
            ok = ok and all(ext1_g1t_dim(ctx, head, b) == 1 for b in layer)
            ok = ok and all(m == 1 for m in layer.values())
            ok = ok and all(lab in layer for lab in vermas[i, t][1])
    add("ext.rules", ok, "symmetry/vanishing/first-layer rules broke")

    # Projective covers: shape, palindromy, first layer, and aggregates.
    ok = True
    for i in range(n + 1):
        layers = rad_layers_qhat(ctx, i, zero(n))
        ok = ok and len(layers) == 2 * n + 1
        ok = ok and layers[0] == {IrreducibleLabel(i, zero(n)): 1}
        ok = ok and layers[1] == rad1_qhat(ctx, i, zero(n))
        ok = ok and all(layers[j] == layers[2 * n - j] for j in range(2 * n + 1))
        totals: dict[int, int] = {}
        for layer in layers:
            for lab, m in layer.items():
                totals[lab.i] = totals.get(lab.i, 0) + m
        ok = ok and totals == {j: q_composition_mult_g1(ctx, i, j) for j in range(n + 1)}
        head = IrreducibleLabel(i, zero(n))
        ok = ok and bgg_multiplicity(ctx, head, head) == 1
        support = verma_support(ctx, i, zero(n))
        ok = ok and len({e.verma for e in support}) == len(support)
    add("projective.structure", ok, "cover layer shape or aggregates broke", conditional=True)

    return checks
