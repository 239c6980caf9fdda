from itertools import product

import pytest

from loewylab.block import IrreducibleLabel, make_context
from loewylab.ext import ExtDescriptor, ExtKind, ext1_g1, ext1_g1t_dim, rad1_qhat
from loewylab.lattice import Weight, eps_basis, fundamental, zero
from loewylab.loewy import rad_layers_z_g1t


def lab(i, coords):
    return IrreducibleLabel(i, Weight(coords))


def test_kind_matrix_rank_two():
    ctx = make_context(2, 5)
    kinds = [[ext1_g1(ctx, i, j).kind for j in range(3)] for i in range(3)]
    Z, S, D = ExtKind.ZERO, ExtKind.STANDARD, ExtKind.DUAL
    assert kinds == [[Z, D, Z], [S, Z, D], [Z, S, Z]]
    with pytest.raises(ValueError):
        ext1_g1(ctx, 0, 3)


def test_descriptor_weights_and_dims():
    eps = [eps_basis(2, k) for k in (1, 2, 3)]
    assert eps == [Weight((1, 0)), Weight((-1, 1)), Weight((0, -1))]
    d = ExtDescriptor(ExtKind.STANDARD, 2)
    assert all(d.multiplicity(w) == 1 for w in eps)
    assert d.multiplicity(zero(2)) == 0

    dual = ExtDescriptor(ExtKind.DUAL, 2)
    assert all(dual.multiplicity(-w) == 1 for w in eps)
    assert all(dual.multiplicity(w) == 0 for w in eps)
    assert all(ExtDescriptor(ExtKind.ZERO, 2).multiplicity(w) == 0 for w in eps)


def test_descriptor_weight_multisets_are_mutually_negative():
    # Over a ball holding every eps_k and -eps_k, the standard
    # representation's weights are exactly the n + 1 distinct eps_k, and the
    # dual's are their negatives.
    for n in range(1, 6):
        s = ExtDescriptor(ExtKind.STANDARD, n)
        d = ExtDescriptor(ExtKind.DUAL, n)
        eps = {eps_basis(n, k) for k in range(1, n + 2)}
        assert len(eps) == n + 1
        for coords in product(range(-1, 2), repeat=n):
            w = Weight(coords)
            assert s.multiplicity(w) == int(w in eps)
            assert d.multiplicity(w) == s.multiplicity(-w)


def test_g1t_dims_frozen_rank_two():
    ctx = make_context(2, 5)
    a = lab(1, (0, 0))
    assert ext1_g1t_dim(ctx, a, lab(0, (-1, 0))) == 1
    assert ext1_g1t_dim(ctx, a, lab(0, (1, -1))) == 1
    assert ext1_g1t_dim(ctx, a, lab(0, (0, 1))) == 1
    assert ext1_g1t_dim(ctx, a, lab(2, (1, 0))) == 1
    assert ext1_g1t_dim(ctx, a, lab(2, (-1, 1))) == 1
    assert ext1_g1t_dim(ctx, a, lab(2, (0, -1))) == 1
    assert ext1_g1t_dim(ctx, a, lab(0, (0, 0))) == 0
    assert ext1_g1t_dim(ctx, a, lab(2, (2, 0))) == 0
    assert ext1_g1t_dim(ctx, a, lab(1, (1, 0))) == 0
    assert ext1_g1t_dim(ctx, a, a) == 0


def test_g1t_dim_is_symmetric():
    for n, p in [(2, 5), (3, 5)]:
        ctx = make_context(n, p)
        twists = [zero(n), fundamental(n, 1), -eps_basis(n, 2)]
        labels = [
            IrreducibleLabel(i, t) for i in range(n + 1) for t in twists
        ]
        for a in labels:
            for b in labels:
                assert ext1_g1t_dim(ctx, a, b) == ext1_g1t_dim(ctx, b, a)


def test_vanishing_off_adjacent_indices():
    ctx = make_context(3, 5)
    for i, j in product(range(4), repeat=2):
        if abs(i - j) != 1:
            d = ext1_g1(ctx, i, j)
            assert d.kind is ExtKind.ZERO


def test_rad1_qhat_frozen_rank_one():
    ctx = make_context(1, 5)
    assert rad1_qhat(ctx, 0, zero(1)) == {lab(1, (1,)): 1, lab(1, (-1,)): 1}
    assert rad1_qhat(ctx, 1, zero(1)) == {lab(0, (-1,)): 1, lab(0, (1,)): 1}


def test_rad1_qhat_frozen_rank_two():
    ctx = make_context(2, 5)
    assert rad1_qhat(ctx, 0, zero(2)) == {
        lab(1, (1, 0)): 1,
        lab(1, (-1, 1)): 1,
        lab(1, (0, -1)): 1,
    }
    assert rad1_qhat(ctx, 1, zero(2)) == {
        lab(0, (-1, 0)): 1,
        lab(0, (1, -1)): 1,
        lab(0, (0, 1)): 1,
        lab(2, (1, 0)): 1,
        lab(2, (-1, 1)): 1,
        lab(2, (0, -1)): 1,
    }


def test_rad1_qhat_sizes():
    for n in range(1, 9):
        ctx = make_context(n, 5 if (n + 1) % 7 == 0 else 7)
        for i in range(n + 1):
            layer = rad1_qhat(ctx, i, zero(n))
            expected = n + 1 if i in (0, n) else 2 * n + 2
            assert len(layer) == expected
            assert sum(layer.values()) == expected


def test_rad1_qhat_matches_ext_rule():
    for n, p in [(2, 5), (3, 5), (4, 7)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            a = IrreducibleLabel(i, zero(n))
            found = set()
            for j in range(n + 1):
                for s in (-1, 1):
                    for k in range(1, n + 2):
                        b = IrreducibleLabel(j, s * eps_basis(n, k))
                        if ext1_g1t_dim(ctx, a, b) == 1:
                            found.add(b)
                b0 = IrreducibleLabel(j, zero(n))
                assert ext1_g1t_dim(ctx, a, b0) == 0
            assert found == set(rad1_qhat(ctx, i, zero(n)))


def test_rad1_qhat_fundamental_shift_form():
    for n, p in [(2, 5), (3, 5), (5, 7)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            t = fundamental(n, 1)
            expected: dict[IrreducibleLabel, int] = {}
            for k in range(1, n + 2):
                step = fundamental(n, k) - fundamental(n, k - 1)
                if i > 0:
                    expected[IrreducibleLabel(i - 1, t - step)] = 1
                if i < n:
                    expected[IrreducibleLabel(i + 1, t + step)] = 1
            assert rad1_qhat(ctx, i, t) == expected


def test_rad1_qhat_twist_equivariance():
    ctx = make_context(3, 5)
    shift = fundamental(3, 2)
    for i in range(4):
        base = rad1_qhat(ctx, i, zero(3))
        moved = {IrreducibleLabel(l.i, l.nu + shift): m for l, m in base.items()}
        assert moved == rad1_qhat(ctx, i, shift)


def test_verma_first_layer_embeds_in_rad1_qhat():
    for n, p in [(2, 5), (3, 5), (4, 7)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            verma_rad1 = rad_layers_z_g1t(ctx, i, zero(n))[1]
            cover_rad1 = rad1_qhat(ctx, i, zero(n))
            for label, mult in verma_rad1.items():
                assert cover_rad1.get(label) == mult


def test_rad1_qhat_validation():
    ctx = make_context(2, 5)
    with pytest.raises(ValueError):
        rad1_qhat(ctx, 3, zero(2))
    with pytest.raises(ValueError):
        rad1_qhat(ctx, 1, zero(3))
