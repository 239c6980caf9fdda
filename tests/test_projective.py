from itertools import product
from math import comb

import pytest
from oracles import as_rows, cover_layers, far_twist, twists

import loewylab.projective
from loewylab.block import IrreducibleLabel, make_context
from loewylab.chardim import weyl_dim
from loewylab.ext import rad1_qhat
from loewylab.lattice import Weight, eps_basis, fundamental, zero
from loewylab.loewy import layer_sizes, rad_layers_z_g1t
from loewylab.projective import (
    CONDITIONAL_FLAG_KEY,
    bgg_multiplicity,
    cover_rows,
    q_composition_mult_g1,
    rad_layers_qhat,
    verma_support,
)


def lab(i, coords):
    return IrreducibleLabel(i, Weight(coords))


def support_set(entries):
    return {(e.verma.i, e.verma.nu, e.layer) for e in entries}


def test_conditional_flag_key_is_stable():
    assert CONDITIONAL_FLAG_KEY == "conditional_on_loewy_length_conjecture"


def test_verma_support_frozen_rank_one():
    ctx = make_context(1, 5)
    assert support_set(verma_support(ctx, 0, zero(1))) == {
        (0, Weight((0,)), 0),
        (1, Weight((1,)), 1),
    }


def test_verma_support_frozen_rank_two():
    ctx = make_context(2, 5)
    assert support_set(verma_support(ctx, 1, zero(2))) == {
        (1, Weight((0, 0)), 0),
        (0, Weight((1, -1)), 1),
        (0, Weight((0, 1)), 1),
        (2, Weight((1, 0)), 1),
        (2, Weight((-1, 1)), 1),
        (1, Weight((1, 1)), 2),
    }


def test_verma_support_validation():
    ctx = make_context(2, 5)
    with pytest.raises(ValueError):
        verma_support(ctx, 3, zero(2))
    with pytest.raises(ValueError):
        verma_support(ctx, 0, zero(3))


# ---------------------------------------------------------------------------
# Independent oracle: find every baby Verma containing the target simple by
# scanning all twists in an eps-ball, reading layers straight off the Verma
# layer tables rather than the support enumeration under test.
# ---------------------------------------------------------------------------


def scanned_support(ctx, i, nu, radius):
    n = ctx.n
    target = IrreducibleLabel(i, nu)
    twists = set()
    for signed in product(range(-radius, radius + 1), repeat=n + 1):
        if sum(abs(c) for c in signed) > radius:
            continue
        offset = zero(n)
        for k, c in enumerate(signed, start=1):
            offset = offset + c * eps_basis(n, k)
        twists.add(nu + offset)
    found = set()
    for t in range(n + 1):
        for eta in twists:
            for k, layer in enumerate(rad_layers_z_g1t(ctx, t, eta)):
                if target in layer:
                    # BGG reciprocity: the Verma's multiplicity in the cover.
                    assert layer[target] == 1
                    found.add((t, eta, k))
    return found


def test_verma_support_against_ball_scan():
    for n, p in [(2, 5), (3, 5)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            expected = scanned_support(ctx, i, zero(n), n + 1)
            assert support_set(verma_support(ctx, i, zero(n))) == expected
    ctx = make_context(2, 5)
    t = fundamental(2, 1)
    assert support_set(verma_support(ctx, 1, t)) == scanned_support(ctx, 1, t, 3)


def test_verma_support_count_is_closed_form():
    # Each baby Verma has 2^n composition factors and the cover has
    # (n + 1) C(n, i) 2^n, so the filtration has (n + 1) C(n, i) Vermas.
    for n in range(1, 7):
        ctx = make_context(n, 11)
        nu = 3 * fundamental(n, 1) - fundamental(n, n)
        for i in range(n + 1):
            entries = verma_support(ctx, i, nu)
            assert len(entries) == (n + 1) * comb(n, i)
            assert len({(e.verma, e.layer) for e in entries}) == len(entries)


def test_rad_layers_qhat_frozen_rank_one():
    ctx = make_context(1, 5)
    assert rad_layers_qhat(ctx, 0, zero(1)) == [
        {lab(0, (0,)): 1},
        {lab(1, (-1,)): 1, lab(1, (1,)): 1},
        {lab(0, (0,)): 1},
    ]
    assert rad_layers_qhat(ctx, 1, zero(1)) == [
        {lab(1, (0,)): 1},
        {lab(0, (-1,)): 1, lab(0, (1,)): 1},
        {lab(1, (0,)): 1},
    ]


def test_rad_layers_qhat_frozen_rank_two_outer():
    ctx = make_context(2, 5)
    layers = rad_layers_qhat(ctx, 0, zero(2))
    assert layer_sizes(layers) == [1, 3, 4, 3, 1]
    assert layers[0] == {lab(0, (0, 0)): 1}
    assert layers[2] == {
        lab(2, (-1, 0)): 1,
        lab(0, (0, 0)): 1,
        lab(2, (1, -1)): 1,
        lab(2, (0, 1)): 1,
    }


def test_rad_layers_qhat_frozen_rank_two_middle():
    ctx = make_context(2, 5)
    layers = rad_layers_qhat(ctx, 1, zero(2))
    assert layer_sizes(layers) == [1, 6, 10, 6, 1]
    assert layers[2] == {
        lab(1, (0, 0)): 4,
        lab(1, (-1, -1)): 1,
        lab(1, (1, 1)): 1,
        lab(1, (2, -1)): 1,
        lab(1, (-2, 1)): 1,
        lab(1, (-1, 2)): 1,
        lab(1, (1, -2)): 1,
    }


def test_qhat_layer_shape_sweep():
    for n, p in [(1, 5), (2, 5), (3, 5), (4, 7)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            for t in (zero(n), fundamental(n, 1)):
                layers = rad_layers_qhat(ctx, i, t)
                assert len(layers) == 2 * n + 1
                assert layers[0] == {IrreducibleLabel(i, t): 1}
                assert layers[-1] == {IrreducibleLabel(i, t): 1}
                assert layers[1] == rad1_qhat(ctx, i, t)
                for j in range(2 * n + 1):
                    assert layers[j] == layers[2 * n - j]


def test_qhat_g1_totals_match_closed_form():
    for n, p in [(1, 5), (2, 5), (3, 5), (4, 7)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            layers = rad_layers_qhat(ctx, i, zero(n))
            totals = [0] * (n + 1)
            for layer in layers:
                for label, mult in layer.items():
                    totals[label.i] += mult
            for j in range(n + 1):
                assert totals[j] == q_composition_mult_g1(ctx, i, j)


def test_q_composition_mult_frozen():
    assert q_composition_mult_g1(make_context(1, 5), 0, 0) == 2
    assert q_composition_mult_g1(make_context(2, 5), 1, 1) == 12
    assert q_composition_mult_g1(make_context(3, 5), 1, 2) == 36
    with pytest.raises(ValueError):
        q_composition_mult_g1(make_context(2, 5), 1, 3)


def test_bgg_multiplicity():
    ctx = make_context(2, 5)
    target = lab(0, (0, 0))
    assert bgg_multiplicity(ctx, target, lab(0, (0, 0))) == 1
    assert bgg_multiplicity(ctx, target, lab(1, (1, 0))) == 1
    assert bgg_multiplicity(ctx, target, lab(2, (0, 1))) == 1
    assert bgg_multiplicity(ctx, target, lab(1, (0, 0))) == 0
    assert bgg_multiplicity(ctx, target, lab(0, (1, 0))) == 0


def test_qhat_dimension_is_support_count_times_verma_dimension():
    for n, p in [(1, 5), (2, 5), (3, 5)]:
        ctx = make_context(n, p)
        verma_dim = p ** (n * (n + 1) // 2)
        simple_dims = [weyl_dim(ctx.lambdas[j]) for j in range(n + 1)]
        for i in range(n + 1):
            support = verma_support(ctx, i, zero(n))
            total = 0
            for layer in rad_layers_qhat(ctx, i, zero(n)):
                for label, mult in layer.items():
                    total += mult * simple_dims[label.i]
            assert total == len(support) * verma_dim


# ---------------------------------------------------------------------------
# Covers stacked over int tuples against one Weight-built Verma per entry.
# ---------------------------------------------------------------------------


def test_qhat_matches_stacked_weight_oracle():
    for n in range(1, 6):
        ctx = make_context(n, 7)
        for i in range(n + 1):
            for nu in twists(n):
                assert rad_layers_qhat(ctx, i, nu) == cover_layers(ctx, i, nu)


def test_cover_rows_match_stacked_weight_oracle():
    # Label by label, with multiplicities and in order; the far twist shows
    # that nu is added after the packed keys are decoded, never packed.
    for n in range(1, 5):
        ctx = make_context(n, 7)
        for i in range(n + 1):
            for nu in [*twists(n), far_twist(n)]:
                assert cover_rows(ctx, i, nu) == as_rows(cover_layers(ctx, i, nu))


def test_cover_rows_strictly_increase():
    for n in range(1, 7):
        ctx = make_context(n, 5 if (n + 1) % 5 else 7)
        for i in range(n + 1):
            for nu in twists(n):
                for rows in cover_rows(ctx, i, nu):
                    keys = [(u, c) for u, c, _ in rows]
                    assert all(a < b for a, b in zip(keys, keys[1:]))
                    assert min(m for _, _, m in rows) >= 1


def test_packing_refuses_wide_pattern_coordinates(monkeypatch):
    # A coordinate of 2 could stack past the digits that decode uniquely, so
    # building the packed layers raises, which `python -O` keeps.
    def widened(n, t):
        return (((t, (tuple([2] * t),), (tuple([2] * (n - t)),)),),)

    monkeypatch.setattr(loewylab.projective, "_verma_pattern", widened)
    loewylab.projective._packed_pattern.cache_clear()
    try:
        with pytest.raises(
            RuntimeError,
            match=r"^packed cover labels need pattern coordinates in \{-1, 0, 1\}: "
            r"shift \(2,\) of the Verma pattern at \(n, t\) = \(2, 1\)$",
        ):
            cover_rows(make_context(2, 5), 1, zero(2))
    finally:
        loewylab.projective._packed_pattern.cache_clear()


def test_qhat_layers_are_fresh_maps():
    ctx = make_context(2, 5)
    nu = -fundamental(2, 2)
    layers = rad_layers_qhat(ctx, 1, nu)
    layers[0][lab(1, (9, 9))] = 7
    layers[2].clear()
    layers.pop()
    assert rad_layers_qhat(ctx, 1, nu) == cover_layers(ctx, 1, nu)


def test_qhat_validation_messages():
    ctx = make_context(2, 5)
    with pytest.raises(ValueError, match=r"^block index i must be in \[0, 2\] \(got 3\)$"):
        rad_layers_qhat(ctx, 3, zero(2))
    with pytest.raises(ValueError, match=r"^block index i must be in \[0, 2\] \(got -1\)$"):
        rad_layers_qhat(ctx, -1, zero(3))
    with pytest.raises(ValueError, match=r"^rank mismatch$"):
        rad_layers_qhat(ctx, 1, zero(3))
