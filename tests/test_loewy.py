from fractions import Fraction
from math import comb

import pytest
from oracles import as_labels, as_rows, far_twist, twists, verma_layers

import loewylab.loewy
from loewylab.block import classify, label_weight, make_context
from loewylab.lattice import add, check_weight, eps_basis, fundamental, neg, rho, scale, sub, zero
from loewylab.loewy import (
    composition_class_z_g1,
    dual_verma_rows,
    layer_sizes,
    parabolic_m_structure,
    rad_layers_z_g1,
    verma_blocks,
    verma_rows,
)


def simple_root(rank, t):
    # alpha_t = eps_t - eps_{t+1}
    return sub(eps_basis(rank, t), eps_basis(rank, t + 1))


def test_g1_layers_frozen_rank_two():
    ctx = make_context(2, 5)
    assert rad_layers_z_g1(ctx, 0) == [{0: 1}, {1: 2}, {2: 1}]
    assert rad_layers_z_g1(ctx, 1) == [{1: 1}, {0: 1, 2: 1}, {1: 1}]
    assert rad_layers_z_g1(ctx, 2) == [{2: 1}, {1: 2}, {0: 1}]


def test_g1_layers_match_binomial_products():
    for n in range(1, 7):
        ctx = make_context(n, 5 if (n + 1) % 7 == 0 else 7)
        for i in range(n + 1):
            layers = rad_layers_z_g1(ctx, i)
            assert len(layers) == n + 1
            for j, layer in enumerate(layers):
                expected = {}
                for k in range(0, min(i, j) + 1):
                    t = i + j - 2 * k
                    m = comb(i, k) * comb(n - i, j - k)
                    if 0 <= t <= n and m:
                        expected[t] = m
                assert layer == expected
                assert sum(layer.values()) == comb(n, j)


def test_g1t_layers_frozen_rank_one():
    ctx = make_context(1, 5)
    assert verma_rows(ctx, (0, (0,))) == [[(0, (0,), 1)], [(1, (-1,), 1)]]
    assert verma_rows(ctx, (1, (0,))) == [[(1, (0,), 1)], [(0, (-1,), 1)]]


def test_g1t_layers_frozen_rank_two():
    ctx = make_context(2, 5)
    assert verma_rows(ctx, (1, (0, 0))) == [
        [(1, (0, 0), 1)],
        [(0, (-1, 0), 1), (2, (0, -1), 1)],
        [(1, (-1, -1), 1)],
    ]
    assert verma_rows(ctx, (0, (0, 0))) == [
        [(0, (0, 0), 1)],
        [(1, (-1, 1), 1), (1, (0, -1), 1)],
        [(2, (-1, 0), 1)],
    ]


def test_g1t_layer_multiset_sizes_and_twist_equivariance():
    for n, p in [(2, 5), (3, 5), (4, 7)]:
        ctx = make_context(n, p)
        shift = fundamental(n, 1)
        for i in range(n + 1):
            base = verma_rows(ctx, (i, (0,) * n))
            shifted = verma_rows(ctx, (i, shift))
            for j in range(n + 1):
                assert sum(m for _, _, m in base[j]) == comb(n, j)
                assert all(m == 1 for _, _, m in base[j])
                moved = [(u, add(c, shift), m) for u, c, m in base[j]]
                assert moved == shifted[j]


def test_g1t_collapses_to_g1():
    for n, p in [(1, 5), (2, 5), (3, 7)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            g1 = rad_layers_z_g1(ctx, i)
            g1t = verma_rows(ctx, (i, (0,) * n))
            for j in range(n + 1):
                collapsed: dict[int, int] = {}
                for u, _, m in g1t[j]:
                    collapsed[u] = collapsed.get(u, 0) + m
                assert collapsed == g1[j]


def test_first_layer_explicit_form():
    for n, p in [(2, 5), (3, 5), (5, 7)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            for t in (zero(n), fundamental(n, 1)):
                expected = {}
                for x in range(1, i + 1):
                    expected[(i - 1, sub(t, eps_basis(n, x)))] = 1
                for y in range(i + 2, n + 2):
                    expected[(i + 1, add(t, eps_basis(n, y)))] = 1
                assert as_labels(verma_rows(ctx, (i, t)))[1] == expected


def test_socle_and_dual_series_are_reversals():
    for n, p in [(1, 5), (2, 5), (3, 7)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            for t in ((0,) * n, neg(fundamental(n, n))):
                rad = as_labels(verma_rows(ctx, (i, t)))
                dual = as_labels(dual_verma_rows(ctx, (i, t)))
                assert dual == list(reversed(rad))
                assert dual[-1] == {(i, t): 1}
                assert rad[0] == {(i, t): 1}


def test_composition_classes():
    ctx = make_context(2, 5)
    assert composition_class_z_g1(ctx, 1) == {0: 1, 1: 2, 2: 1}


def test_layer_sizes_helper():
    ctx = make_context(3, 5)
    assert layer_sizes(rad_layers_z_g1(ctx, 2)) == [1, 3, 3, 1]
    assert layer_sizes(as_labels(verma_rows(ctx, (2, (0, 0, 0))))) == [1, 3, 3, 1]


def test_parabolic_m_structure_interior():
    ctx = make_context(3, 5)
    nu = (1, 0, -1)
    head = (1, nu, 1)
    assert parabolic_m_structure(ctx, (1, nu), "I") == [
        [head],
        [(2, sub(nu, fundamental(3, 3)), 1)],
    ]
    assert parabolic_m_structure(ctx, (1, nu), "J") == [
        [head],
        [(0, sub(nu, fundamental(3, 1)), 1)],
    ]
    with pytest.raises(ValueError):
        parabolic_m_structure(ctx, (1, nu), "x")


def test_parabolic_m_structure_boundary_degenerates_to_verma():
    for n, p in [(1, 5), (2, 5), (3, 7)]:
        ctx = make_context(n, p)
        nu = fundamental(n, 1)
        assert parabolic_m_structure(ctx, (n, nu), "I") == verma_rows(ctx, (n, nu))
        assert parabolic_m_structure(ctx, (0, nu), "J") == verma_rows(ctx, (0, nu))


def test_parabolic_second_layer_sits_inside_verma_first_layer():
    for n, p in [(2, 5), (3, 5)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            rad1 = verma_rows(ctx, (i, (0,) * n))[1]
            if i < n:
                (row,) = parabolic_m_structure(ctx, (i, (0,) * n), "I")[1]
                assert row in rad1
            if i > 0:
                (row,) = parabolic_m_structure(ctx, (i, (0,) * n), "J")[1]
                assert row in rad1


# ---------------------------------------------------------------------------
# Independent oracle: rebuild the layers by stacking parabolic covers from
# the rank-one base case, never consulting the closed-form layer formula.
# ---------------------------------------------------------------------------


def root_coords(w):
    """Coordinates of `w` over the simple roots, as exact Fractions.

    Row s of (n + 1) times the inverse type-A Cartan matrix has entries
    min(s, t) (n + 1 - max(s, t)).
    """
    d = len(w) + 1
    return tuple(
        Fraction(sum(min(s, t) * (d - max(s, t)) * a for t, a in enumerate(w, 1)), d)
        for s in range(1, d)
    )


def test_root_coords_of_simple_roots_are_unit_vectors():
    for n in range(1, 6):
        for t in range(1, n + 1):
            coords = root_coords(simple_root(n, t))
            assert coords == tuple(
                Fraction(1 if s == t else 0) for s in range(1, n + 1)
            )


def test_root_coords_exact_fractions():
    assert root_coords(fundamental(2, 1)) == (Fraction(2, 3), Fraction(1, 3))
    assert root_coords(rho(3)) == (Fraction(3, 2), Fraction(2, 1), Fraction(3, 2))


def stacked_rad_layers(ctx, label):
    n, p = ctx.n, ctx.p
    i, nu = label
    if n == 1:
        below = (1 - i, sub(nu, fundamental(1, 1)))
        return [{label: 1}, {below: 1}]
    side = "I" if i < n else "J"
    sub_ctx = make_context(n - 1, p)
    sub_head = (i if side == "I" else n - 1, (0,) * (n - 1))
    sub_layers = stacked_rad_layers(sub_ctx, sub_head)
    sub_top = label_weight(sub_ctx, sub_head)
    top = label_weight(ctx, label)
    layers = [dict() for _ in range(len(sub_layers) + 1)]
    for j, sub_layer in enumerate(sub_layers):
        for sub_label, mult in sub_layer.items():
            gamma = sub(sub_top, label_weight(sub_ctx, sub_label))
            offsets = root_coords(gamma)
            assert all(c.denominator == 1 for c in offsets)
            lift = zero(n)
            for t, c in enumerate(offsets, start=1):
                slot = t if side == "I" else t + 1
                lift = add(lift, scale(int(c), simple_root(n, slot)))
            label = classify(ctx, sub(top, lift))
            assert label is not None
            assert label[0] < n if side == "I" else label[0] > 0
            cover = as_labels(parabolic_m_structure(ctx, label, side))
            assert len(cover) == 2 and cover[0] == {label: 1}
            ((below, _),) = cover[1].items()
            layers[j][label] = layers[j].get(label, 0) + mult
            layers[j + 1][below] = layers[j + 1].get(below, 0) + mult
    return layers


def test_stacking_oracle_reproduces_layers():
    for n in (2, 3, 4):
        ctx = make_context(n, 7)
        for i in range(n + 1):
            for t in ((0,) * n, fundamental(n, 1)):
                assert stacked_rad_layers(ctx, (i, t)) == as_labels(verma_rows(ctx, (i, t)))


def test_stacking_oracle_reproduces_layers_rank_five():
    ctx = make_context(5, 7)
    for i in range(6):
        label = (i, (0,) * 5)
        assert stacked_rad_layers(ctx, label) == as_labels(verma_rows(ctx, label))


# ---------------------------------------------------------------------------
# The cached (n, i) pattern, translated by nu, against label-by-label weights.
# ---------------------------------------------------------------------------


def test_g1t_layers_match_weight_oracle():
    for n in range(1, 6):
        ctx = make_context(n, 7)
        for i in range(n + 1):
            for nu in twists(n):
                assert as_labels(verma_rows(ctx, (i, nu))) == verma_layers(ctx, (i, nu))


def test_verma_rows_match_weight_oracle():
    for n in range(1, 5):
        ctx = make_context(n, 7)
        for i in range(n + 1):
            for nu in [*twists(n), far_twist(n)]:
                assert verma_rows(ctx, (i, nu)) == as_rows(verma_layers(ctx, (i, nu)))


def test_g1t_layers_iterate_in_label_order():
    # Each layer's rows are built in strictly increasing (i, nu) order.
    for n in range(1, 7):
        ctx = make_context(n, 5 if (n + 1) % 5 else 7)
        for i in range(n + 1):
            for nu in twists(n):
                for rows in verma_rows(ctx, (i, nu)):
                    keys = [(u, c) for u, c, _ in rows]
                    assert all(a < b for a, b in zip(keys, keys[1:]))
                    assert min(m for _, _, m in rows) >= 1


def test_verma_rows_flatten_verma_blocks():
    # A layer's blocks (t, heads, tails) come in increasing t, with heads of
    # length i and tails of length n - i (() at the edges i = 0 and i = n).
    # `verma_rows` is their flattening, head-major, and each flattened layer
    # is strictly increasing.
    for n in range(1, 7):
        ctx = make_context(n, 5 if (n + 1) % 5 else 7)
        for i in range(n + 1):
            for nu in [*twists(n), far_twist(n)]:
                layers = verma_blocks(ctx, (i, nu))
                flat = [
                    [(t, head + tail, 1) for t, heads, tails in blocks for head in heads for tail in tails]
                    for blocks in layers
                ]
                assert verma_rows(ctx, (i, nu)) == flat
                for blocks in layers:
                    ts = [t for t, _, _ in blocks]
                    assert all(a < b for a, b in zip(ts, ts[1:]))
                    for _, heads, tails in blocks:
                        assert {len(head) for head in heads} <= {i}
                        assert {len(tail) for tail in tails} <= {n - i}
                for rows in flat:
                    keys = [(u, c) for u, c, _ in rows]
                    assert keys and all(a < b for a, b in zip(keys, keys[1:]))


def test_verma_pattern_blocks_are_never_empty():
    # Layer j's triples (t, k, l) are the pairs |X| = k <= i, |Y| = l <= n - i
    # of the layer formula: each names a nonempty head list and a nonempty
    # tail list, and there are tails for l = 0..n - i only.
    for n in range(1, 8):
        for i in range(n + 1):
            heads, tails, layers = loewylab.loewy._verma_pattern(n, i)
            assert len(heads) == i + 1 and len(tails) == n - i + 1, (n, i)
            for j, layer in enumerate(layers):
                assert layer, (n, i, j)
                for t, k, l in layer:
                    assert k + l == j and t == i + j - 2 * k, (n, i, j)
                    assert 0 <= k < len(heads) and heads[k], (n, i, j, k)
                    assert 0 <= l < len(tails) and tails[l], (n, i, j, l)


def test_g1t_labels_behave_like_validated_ones():
    # The kernel's rows hold plain int tuples of rank n, whose first two
    # fields are an immutable label: it names a weight that classifies back
    # to it, and its coordinates pass `check_weight`.
    ctx = make_context(4, 7)
    for nu in twists(4):
        for rows in verma_rows(ctx, (2, nu)):
            for u, c, m in rows:
                assert type(u) is int and type(m) is int and type(c) is tuple
                assert len(c) == 4 and all(type(x) is int for x in c)
                check_weight(c)
                assert classify(ctx, label_weight(ctx, (u, c))) == (u, c)
    label = (u, c)
    with pytest.raises(TypeError):
        label[0] = 0  # type: ignore[index]
    with pytest.raises(TypeError):
        label[1] = zero(4)  # type: ignore[index]


def test_repeated_twist_shifts_raise(monkeypatch):
    # A layer's labels must be distinct; with every subset enumerated twice
    # the pattern is refused by a raised error, which `python -O` keeps.
    real = loewylab.loewy.combinations
    monkeypatch.setattr(loewylab.loewy, "combinations", lambda pool, r: [*real(pool, r)] * 2)
    loewylab.loewy._verma_pattern.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=r"^layer labels must be distinct: head shift \(0,\) repeats$"):
            loewylab.loewy._verma_pattern(3, 1)
    finally:
        loewylab.loewy._verma_pattern.cache_clear()


def test_g1t_layers_are_fresh_maps():
    ctx = make_context(3, 5)
    nu = fundamental(3, 1)
    layers = verma_rows(ctx, (1, nu))
    layers[0].append((0, (9, 9, 9), 7))
    layers[1].clear()
    layers.append([])
    assert verma_rows(ctx, (1, nu)) == as_rows(verma_layers(ctx, (1, nu)))


def test_g1t_validation_messages():
    ctx = make_context(2, 5)
    with pytest.raises(ValueError, match=r"^block index i must be in \[0, 2\] \(got 3\)$"):
        verma_rows(ctx, (3, (0, 0, 0)))
    with pytest.raises(ValueError, match=r"^rank mismatch$"):
        verma_rows(ctx, (1, (0, 0, 0)))
