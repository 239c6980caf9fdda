from itertools import product

import pytest
from oracles import as_labels, twists

from loewylab.block import make_context
from loewylab.ext import ext1_g1_row, ext1_g1t_dim, rad1_qhat
from loewylab.lattice import add, eps_basis, fundamental, neg, scale, sub, zero
from loewylab.loewy import verma_rows
from loewylab.projective import cover_rows


def test_kind_matrix_rank_two():
    ctx = make_context(2, 5)
    assert [ext1_g1_row(ctx, i) for i in range(3)] == [
        ["zero", "dual", "zero"],
        ["standard", "zero", "dual"],
        ["zero", "standard", "zero"],
    ]
    for i in (-1, 3):
        with pytest.raises(ValueError, match=rf"^block index i must be in \[0, 2\] \(got {i}\)$"):
            ext1_g1_row(ctx, i)


def test_descriptor_weights_and_dims():
    # ext1_g1t_dim((i, x), (j, y)) is the multiplicity of x - y in the kind
    # from i to j: from index 1, the standard representation toward 0, its
    # dual toward 2, and zero toward 1.
    ctx = make_context(2, 5)
    eps = [eps_basis(2, k) for k in (1, 2, 3)]
    assert eps == [(1, 0), (-1, 1), (0, -1)]
    a = (1, (0, 0))
    assert all(ext1_g1t_dim(ctx, a, (0, neg(w))) == 1 for w in eps)
    assert ext1_g1t_dim(ctx, a, (0, (0, 0))) == 0

    assert all(ext1_g1t_dim(ctx, a, (2, w)) == 1 for w in eps)
    assert all(ext1_g1t_dim(ctx, a, (2, neg(w))) == 0 for w in eps)
    assert all(ext1_g1t_dim(ctx, a, (1, neg(w))) == 0 for w in eps)


def test_descriptor_weight_multisets_are_mutually_negative():
    # Over a ball holding every eps_k and -eps_k, the standard
    # representation's weights are exactly the n + 1 distinct eps_k, and the
    # dual's are their negatives.  The weight w is read from (1, 0) toward
    # (0, -w) for the standard kind and from (0, 0) toward (1, -w) for the dual.
    for n in range(1, 6):
        ctx = make_context(n, 5 if (n + 1) % 5 else 7)
        eps = {eps_basis(n, k) for k in range(1, n + 2)}
        assert len(eps) == n + 1
        top, bottom = (1, zero(n)), (0, zero(n))

        def standard(w):
            return ext1_g1t_dim(ctx, top, (0, neg(w)))

        def dual(w):
            return ext1_g1t_dim(ctx, bottom, (1, neg(w)))

        for w in product(range(-1, 2), repeat=n):
            assert standard(w) == int(w in eps)
            assert dual(w) == standard(neg(w))


def test_g1t_dims_frozen_rank_two():
    ctx = make_context(2, 5)
    a = (1, (0, 0))
    assert ext1_g1t_dim(ctx, a, (0, (-1, 0))) == 1
    assert ext1_g1t_dim(ctx, a, (0, (1, -1))) == 1
    assert ext1_g1t_dim(ctx, a, (0, (0, 1))) == 1
    assert ext1_g1t_dim(ctx, a, (2, (1, 0))) == 1
    assert ext1_g1t_dim(ctx, a, (2, (-1, 1))) == 1
    assert ext1_g1t_dim(ctx, a, (2, (0, -1))) == 1
    assert ext1_g1t_dim(ctx, a, (0, (0, 0))) == 0
    assert ext1_g1t_dim(ctx, a, (2, (2, 0))) == 0
    assert ext1_g1t_dim(ctx, a, (1, (1, 0))) == 0
    assert ext1_g1t_dim(ctx, a, a) == 0


def test_g1t_dim_is_symmetric():
    for n, p in [(2, 5), (3, 5)]:
        ctx = make_context(n, p)
        twists = [zero(n), fundamental(n, 1), neg(eps_basis(n, 2))]
        labels = [(i, t) for i in range(n + 1) for t in twists]
        for a in labels:
            for b in labels:
                assert ext1_g1t_dim(ctx, a, b) == ext1_g1t_dim(ctx, b, a)


def test_g1t_dim_refuses_labels_of_the_wrong_rank():
    # Either label is checked, even where the kind alone would give zero.
    ctx = make_context(3, 5)
    good = (0, (1, 0, 0))
    for bad in ((1, (0, 0)), (0, (1, 0)), (2, (0, 0, 0, 0))):
        with pytest.raises(ValueError, match=r"^rank mismatch$"):
            ext1_g1t_dim(ctx, bad, good)
        with pytest.raises(ValueError, match=r"^rank mismatch$"):
            ext1_g1t_dim(ctx, good, bad)
    with pytest.raises(ValueError, match=r"^rank mismatch$"):
        ext1_g1t_dim(ctx, (1, (0, 0)), (0, (1, 0)))
    with pytest.raises(ValueError, match=r"^block index i must be in \[0, 3\] \(got 4\)$"):
        ext1_g1t_dim(ctx, good, (4, (0, 0, 0)))


def test_vanishing_off_adjacent_indices():
    ctx = make_context(3, 5)
    for i in range(4):
        row = ext1_g1_row(ctx, i)
        assert len(row) == 4
        for j, kind in enumerate(row):
            if abs(i - j) != 1:
                assert kind == "zero"


def test_rad1_qhat_frozen_rank_one():
    ctx = make_context(1, 5)
    assert rad1_qhat(ctx, (0, (0,))) == [(1, (-1,), 1), (1, (1,), 1)]
    assert rad1_qhat(ctx, (1, (0,))) == [(0, (-1,), 1), (0, (1,), 1)]


def test_rad1_qhat_frozen_rank_two():
    ctx = make_context(2, 5)
    assert rad1_qhat(ctx, (0, (0, 0))) == [
        (1, (-1, 1), 1),
        (1, (0, -1), 1),
        (1, (1, 0), 1),
    ]
    assert rad1_qhat(ctx, (1, (0, 0))) == [
        (0, (-1, 0), 1),
        (0, (0, 1), 1),
        (0, (1, -1), 1),
        (2, (-1, 1), 1),
        (2, (0, -1), 1),
        (2, (1, 0), 1),
    ]


def test_rad1_qhat_sizes():
    for n in range(1, 9):
        ctx = make_context(n, 5 if (n + 1) % 7 == 0 else 7)
        for i in range(n + 1):
            rows = rad1_qhat(ctx, (i, (0,) * n))
            expected = n + 1 if i in (0, n) else 2 * n + 2
            assert len(rows) == expected
            assert sum(m for _, _, m in rows) == expected
            assert rows == sorted(set(rows))


def test_rad1_qhat_matches_ext_rule():
    for n, p in [(2, 5), (3, 5), (4, 7)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            a = (i, zero(n))
            found = set()
            for j in range(n + 1):
                for s in (-1, 1):
                    for k in range(1, n + 2):
                        b = (j, scale(s, eps_basis(n, k)))
                        if ext1_g1t_dim(ctx, a, b) == 1:
                            found.add(b)
                b0 = (j, zero(n))
                assert ext1_g1t_dim(ctx, a, b0) == 0
            (layer,) = as_labels([rad1_qhat(ctx, (i, (0,) * n))])
            assert found == set(layer)


def test_rad1_qhat_fundamental_shift_form():
    for n, p in [(2, 5), (3, 5), (5, 7)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            t = fundamental(n, 1)
            expected: dict[tuple[int, tuple[int, ...]], int] = {}
            for k in range(1, n + 2):
                step = sub(fundamental(n, k), fundamental(n, k - 1))
                if i > 0:
                    expected[(i - 1, sub(t, step))] = 1
                if i < n:
                    expected[(i + 1, add(t, step))] = 1
            assert as_labels([rad1_qhat(ctx, (i, t))]) == [expected]


def test_rad1_qhat_twist_equivariance():
    ctx = make_context(3, 5)
    shift = fundamental(3, 2)
    for i in range(4):
        base = rad1_qhat(ctx, (i, (0, 0, 0)))
        moved = [(u, add(c, shift), m) for u, c, m in base]
        assert moved == rad1_qhat(ctx, (i, shift))


def test_verma_first_layer_embeds_in_rad1_qhat():
    for n, p in [(2, 5), (3, 5), (4, 7)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            verma_rad1 = verma_rows(ctx, (i, (0,) * n))[1]
            assert set(verma_rad1) <= set(rad1_qhat(ctx, (i, (0,) * n)))


def test_rad1_qhat_validation():
    ctx = make_context(2, 5)
    with pytest.raises(ValueError):
        rad1_qhat(ctx, (3, (0, 0)))
    with pytest.raises(ValueError):
        rad1_qhat(ctx, (1, (0, 0, 0)))


def test_layers_are_ext1_connected():
    # An oracle from outside the layer kernels: in a rigid module each factor
    # of radical layer j >= 1 has Ext^1 dimension one with some factor of
    # layer j - 1, and each factor below the last layer with some factor of
    # layer j + 1.  `ext1_g1t_dim` shares no code with `loewy` or `projective`.
    for n in range(1, 5):
        ctx = make_context(n, 7)
        for i, nu in product(range(n + 1), twists(n)):
            for layers in (verma_rows(ctx, (i, nu)), cover_rows(ctx, (i, nu))):
                labels = [list(layer) for layer in as_labels(layers)]
                for j, layer in enumerate(labels):
                    neighbours = [labels[k] for k in (j - 1, j + 1) if 0 <= k < len(labels)]
                    for a in layer:
                        for near in neighbours:
                            assert any(ext1_g1t_dim(ctx, a, b) == 1 for b in near), (n, i, nu, j, a)
