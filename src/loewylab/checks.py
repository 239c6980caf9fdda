"""Machine checks of the block's invariants at one (n, p).

`verify_checks` is the battery behind `loewylab verify`: thirteen named
checks of the weight table, dimensions, certificates, Verma layers, Ext
rules and projective covers.  It reads the Verma and cover layer tables
only as the (block index, twist coordinates, multiplicity) rows of
`verma_rows`, `dual_verma_rows` and `cover_rows`, and compares them, the
parabolic covers and the first radical layer `rad1_qhat` as row lists.
Every API that names a simple takes its label, the pair (block index,
twist coordinates) that is the first two fields of those rows: the
battery builds its twisted labels once and keys its shared Vermas by
them.  Weights and twists are coordinate tuples throughout, added and
scaled by the `lattice` helpers.
`dimension_table` tabulates the simple and parabolic cover dimensions with
their additivity identities and the per-Verma dimension conservation,
which `loewylab dim` renders and two of the checks read; `identities_hold`
says whether every identity holds, for both.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, groupby, product
from math import comb
from operator import itemgetter

from .block import BlockContext, block_weight, check_label, classify, label_weight, mu_weight
from .chardim import (
    check_block_simplicity, dim_parabolic_verma, positive_roots, weyl_dim,
)
from .ext import _ext1_dim, ext1_g1t_dim, rad1_qhat
from .lattice import (
    add, eps_basis, eps_coords, from_eps, fundamental, in_root_lattice, leq, neg, pair, rho, scale,
    sub, zero,
)
from .loewy import (
    Row, composition_class_z_g1, dual_verma_rows, layer_sizes, parabolic_m_structure,
    rad_layers_z_g1, verma_rows,
)
from .projective import bgg_multiplicity, cover_rows, q_composition_mult_g1, verma_support
from .weyl import act, longest, longest_fixing_last

__all__ = ["dimension_table", "identities_hold", "verify_checks"]


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


def identities_hold(table: dict) -> bool:
    """Whether every cover identity of a `dimension_table` holds; a side
    that does not exist (None) passes."""
    sides = ("identity_I", "identity_J")
    return all(row[side] is not False for row in table["rows"] for side in sides)


def _index_totals(rows: Iterable[Row]) -> dict[int, int]:
    """Summed multiplicity per block index over (i, coords, mult) rows.

    Layer rows come in block index order, so each run of one index is
    summed in C.
    """
    totals: dict[int, int] = {}
    mult = itemgetter(2)
    for u, run in groupby(rows, itemgetter(0)):
        totals[u] = totals.get(u, 0) + sum(map(mult, run))
    return totals


def verify_checks(ctx: BlockContext) -> list[dict]:
    """Run every named check at (n, p), in a fixed order.

    Each check is a dict with its `name`, `ok`, a `detail` that is empty
    when it passes, and whether it is `conditional` on the Loewy length
    conjecture.
    """
    n, p = ctx.n, ctx.p
    checks: list[dict] = []

    def note(name: str, ok: bool, detail: str = "", conditional: bool = False) -> None:
        checks.append(
            {"name": name, "ok": bool(ok), "detail": "" if ok else detail, "conditional": conditional}
        )

    # Weights the checks below share, built once: eps[k - 1] is eps_k.
    origin, w_1, rho_n = zero(n), fundamental(n, 1), rho(n)
    eps = [eps_basis(n, k) for k in range(1, n + 2)]
    twists = [origin, w_1, neg(fundamental(n, n))]
    labels = [(i, t) for i in range(n + 1) for t in twists]

    # Round trips through eps coordinates and the rho pairing normalisation.
    samples = [*ctx.lambdas, rho_n, origin, w_1]
    ok = all(from_eps(eps_coords(w)) == w for w in samples)
    ok = ok and all(pair(rho_n, k, j) == j - k for k, j in positive_roots(n))
    ok = ok and all(leq(w, w) for w in samples)
    note("lattice.round_trip", ok, "eps round trip or rho pairing broke")

    # Twisting by p preserves and reflects the dominance order.
    pairs = list(product(twists + [rho_n], repeat=2))
    ok = all(leq(scale(p, a), scale(p, b)) == leq(a, b) for a, b in pairs)
    note("lattice.twist_order", ok, "p-dilation did not preserve/reflect the order")

    # Minimality of the first fundamental weight in its dominant coset.
    bad = None
    for w in product(range(3), repeat=n):
        if in_root_lattice(sub(w, w_1)) and not leq(w_1, w):
            bad = w
            break
    note("lattice.coset_minimality", bad is None, f"counterexample {bad}")

    # The weight table against its defining companions.
    p_rho = scale(p, rho_n)
    ok = all(
        ctx.lambdas[i] == sub(add(mu_weight(ctx, i), p_rho), scale(p, fundamental(n, i + 1)))
        for i in range(n)
    )
    ok = ok and ctx.lambdas[n] == add(mu_weight(ctx, n), p_rho)
    ok = ok and all(
        all(0 <= c < p for c in block_weight(ctx, i, a))
        for i in range(n + 1)
        for a in range(1, p)
    )
    ok = ok and all(classify(ctx, label_weight(ctx, label)) == label for label in labels)
    note("block.weight_table", ok, "lambda/mu/classification identities broke")

    # The lowest-weight identity tying consecutive table entries together.
    w_i, w_0 = longest_fixing_last(n), longest(n)
    shift = scale(-(p - 1) * (n + 1), fundamental(n, n))
    target = scale(-p, fundamental(n, n))
    ok = all(
        sub(add(shift, act(w_i, ctx.lambdas[i])), act(w_0, ctx.lambdas[i + 1])) == target
        for i in range(n)
    )
    note("block.lowest_weight_identity", ok, "Weyl-twisted lowest weights misaligned")

    # Parabolic cover dimensions are sums of adjacent simple dimensions.
    dims = dimension_table(ctx)
    note("chardim.dim_identities", identities_hold(dims), "a cover dimension identity failed")

    # Composition factors of each baby Verma account for its full dimension.
    note("chardim.dimension_conservation", dims["conservation_ok"],
         "dimensions do not sum to p^(n(n+1)/2)")

    # Every pairing has a valid certificate, by search and by closed form.
    report = check_block_simplicity(ctx)
    note(
        "chardim.block_simplicity",
        report["ok"],
        f"{len(report['failures'])} search, {len(report['replay_failures'])} replay failures",
    )

    # The twisted baby Vermas the next four checks read, built once each.
    vermas = {label: verma_rows(ctx, label) for label in labels}
    sizes = [comb(n, j) for j in range(n + 1)]

    # Layer counts: binomial per layer, Loewy length n + 1, twist-sum match.
    g1 = [rad_layers_z_g1(ctx, i) for i in range(n + 1)]
    ok = all(layer_sizes(layers) == sizes for layers in g1)
    for (i, _), g1t in vermas.items():
        ok = ok and [sum(m for _, _, m in rows) for rows in g1t] == sizes
        ok = ok and [_index_totals(rows) for rows in g1t] == g1[i]
    note("loewy.layer_counts", ok, "layer sizes or twist-collapse mismatch")

    # First radical layer against the two parabolic covers' second layers.
    ok = True
    for i in range(n + 1):
        for t in twists:
            expected = sorted(
                [(i - 1, sub(t, e), 1) for e in eps[:i]]
                + [(i + 1, add(t, e), 1) for e in eps[i + 1:]]
            )
            label = (i, t)
            ok = ok and vermas[label][1] == expected
            if i < n:
                ok = ok and set(parabolic_m_structure(ctx, label, "I")[1]) <= set(expected)
            if i > 0:
                ok = ok and set(parabolic_m_structure(ctx, label, "J")[1]) <= set(expected)
    note("loewy.rad1_parabolic_forms", ok, "rad_1 disagrees with the cover forms")

    # Rigidity: socle series and dual-Verma radicals are index reversals.
    ok = True
    for label, rows in vermas.items():
        rev = dual_verma_rows(ctx, label)
        ok = ok and rev == rows[::-1]
        ok = ok and rev[-1] == [(*label, 1)]
    note("loewy.rigidity", ok, "socle/dual series are not reversals")

    # Ext rules: symmetry, adjacency vanishing, and the cover's first layer.
    # The battery's labels are checked once, and their pairs compared
    # unchecked; the cover's first-layer labels go through the checked API.
    for label in labels:
        check_label(ctx, label)
    ok = True
    for a in labels:
        for b in labels:
            d_ab, d_ba = _ext1_dim(a, b), _ext1_dim(b, a)
            ok = ok and d_ab == d_ba
            if abs(a[0] - b[0]) != 1:
                ok = ok and d_ab == 0
    for head in labels:
        i = head[0]
        layer = rad1_qhat(ctx, head)
        ok = ok and sum(m for _, _, m in layer) == (n + 1) * ((i > 0) + (i < n))
        ok = ok and all(ext1_g1t_dim(ctx, head, (u, c)) == 1 for u, c, _ in layer)
        ok = ok and all(m == 1 for _, _, m in layer)
        ok = ok and set(vermas[head][1]) <= set(layer)
    note("ext.rules", ok, "symmetry/vanishing/first-layer rules broke")

    # Projective covers: shape, palindromy, first layer, and aggregates.
    ok = True
    # The covers of the untwisted labels (i, 0): labels are i-major, twists[0] = 0.
    for i, head in enumerate(labels[:: len(twists)]):
        layers = cover_rows(ctx, head)
        ok = ok and len(layers) == 2 * n + 1
        ok = ok and layers[0] == [(*head, 1)]
        ok = ok and layers[1] == rad1_qhat(ctx, head)
        ok = ok and layers == layers[::-1]
        totals = _index_totals(chain.from_iterable(layers))
        ok = ok and totals == {j: q_composition_mult_g1(ctx, i, j) for j in range(n + 1)}
        ok = ok and bgg_multiplicity(ctx, head, head) == 1
        support = verma_support(ctx, head)
        ok = ok and len({(t, eta) for t, eta, _ in support}) == len(support)
    note("projective.structure", ok, "cover layer shape or aggregates broke", conditional=True)

    return checks
