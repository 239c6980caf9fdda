from collections import Counter
from itertools import product
from math import comb

import pytest
from oracles import as_labels, as_rows, cover_formula, cover_layers, far_twist, twists

import loewylab.loewy
import loewylab.projective
from loewylab.block import make_context
from loewylab.cli import main
from loewylab.chardim import weyl_dim
from loewylab.ext import rad1_qhat
from loewylab.lattice import add, eps_basis, fundamental, neg, scale, sub, zero
from loewylab.loewy import _verma_pattern, layer_sizes, verma_rows
from loewylab.projective import (
    CONDITIONAL_FLAG_KEY,
    _decode,
    bgg_multiplicity,
    cover_rows,
    q_composition_mult_g1,
    verma_support,
)


def test_conditional_flag_key_is_stable():
    assert CONDITIONAL_FLAG_KEY == "conditional_on_loewy_length_conjecture"


def test_verma_support_frozen_rank_one():
    ctx = make_context(1, 5)
    assert set(verma_support(ctx, (0, (0,)))) == {
        (0, (0,), 0),
        (1, (1,), 1),
    }


def test_verma_support_frozen_rank_two():
    ctx = make_context(2, 5)
    assert set(verma_support(ctx, (1, (0, 0)))) == {
        (1, (0, 0), 0),
        (0, (1, -1), 1),
        (0, (0, 1), 1),
        (2, (1, 0), 1),
        (2, (-1, 1), 1),
        (1, (1, 1), 2),
    }


def test_verma_support_validation():
    ctx = make_context(2, 5)
    with pytest.raises(ValueError):
        verma_support(ctx, (3, (0, 0)))
    with pytest.raises(ValueError):
        verma_support(ctx, (0, (0, 0, 0)))


# ---------------------------------------------------------------------------
# Independent oracle: find every baby Verma containing the target simple by
# scanning all twists in an eps-ball, reading layers straight off the Verma
# layer tables rather than the support enumeration under test.
# ---------------------------------------------------------------------------


def scanned_support(ctx, target, radius):
    n = ctx.n
    nu = target[1]
    twists = set()
    for signed in product(range(-radius, radius + 1), repeat=n + 1):
        if sum(abs(c) for c in signed) > radius:
            continue
        offset = zero(n)
        for k, c in enumerate(signed, start=1):
            offset = add(offset, scale(c, eps_basis(n, k)))
        twists.add(add(nu, offset))
    found = set()
    for t in range(n + 1):
        for eta in twists:
            for k, layer in enumerate(as_labels(verma_rows(ctx, (t, eta)))):
                if target in layer:
                    # BGG reciprocity: the Verma's multiplicity in the cover.
                    assert layer[target] == 1
                    found.add((t, eta, k))
    return found


def test_verma_support_against_ball_scan():
    for n, p in [(2, 5), (3, 5)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            label = (i, (0,) * n)
            assert set(verma_support(ctx, label)) == scanned_support(ctx, label, n + 1)
    ctx = make_context(2, 5)
    label = (1, fundamental(2, 1))
    assert set(verma_support(ctx, label)) == scanned_support(ctx, label, 3)


def test_verma_support_count_is_closed_form():
    # Each baby Verma has 2^n composition factors and the cover has
    # (n + 1) C(n, i) 2^n, so the filtration has (n + 1) C(n, i) Vermas.
    for n in range(1, 7):
        ctx = make_context(n, 11)
        nu = sub(scale(3, fundamental(n, 1)), fundamental(n, n))
        for i in range(n + 1):
            rows = verma_support(ctx, (i, nu))
            assert len(rows) == (n + 1) * comb(n, i)
            assert len(set(rows)) == len(rows)


def test_verma_support_moves_with_its_target_row_for_row():
    # The support of (i, nu) is the support of (i, 0) translated by nu, in
    # the same order and at the same depths, up to twists far past any
    # digit; each row is a Verma of multiplicity one.  At nu = 0 the rows
    # are the negated shifts of the index-i labels of the Vermas' own rows.
    for n in range(1, 5):
        ctx = make_context(n, 7)
        huge = tuple((-1) ** k * 10**40 for k in range(n))
        for i in range(n + 1):
            rows = verma_support(ctx, (i, zero(n)))
            for nu in (zero(n), fundamental(n, 1), huge):
                moved = verma_support(ctx, (i, nu))
                assert moved == [(t, add(nu, eta), k) for t, eta, k in rows], (n, i, nu)
                for t, eta, _ in moved:
                    assert bgg_multiplicity(ctx, (i, nu), (t, eta)) == 1, (n, i, nu, t, eta)
            labels = [
                (t, neg(x), depth)
                for t in range(n + 1)
                for depth, layer in enumerate(verma_rows(ctx, (t, zero(n))))
                for u, x, _ in layer
                if u == i
            ]
            assert sorted(rows) == sorted(labels), (n, i)


def test_rad_layers_qhat_frozen_rank_one():
    ctx = make_context(1, 5)
    assert as_labels(cover_rows(ctx, (0, (0,)))) == [
        {(0, (0,)): 1},
        {(1, (-1,)): 1, (1, (1,)): 1},
        {(0, (0,)): 1},
    ]
    assert as_labels(cover_rows(ctx, (1, (0,)))) == [
        {(1, (0,)): 1},
        {(0, (-1,)): 1, (0, (1,)): 1},
        {(1, (0,)): 1},
    ]


def test_rad_layers_qhat_frozen_rank_two_outer():
    ctx = make_context(2, 5)
    layers = as_labels(cover_rows(ctx, (0, (0, 0))))
    assert layer_sizes(layers) == [1, 3, 4, 3, 1]
    assert layers[0] == {(0, (0, 0)): 1}
    assert layers[2] == {
        (2, (-1, 0)): 1,
        (0, (0, 0)): 1,
        (2, (1, -1)): 1,
        (2, (0, 1)): 1,
    }


def test_rad_layers_qhat_frozen_rank_two_middle():
    ctx = make_context(2, 5)
    layers = as_labels(cover_rows(ctx, (1, (0, 0))))
    assert layer_sizes(layers) == [1, 6, 10, 6, 1]
    assert layers[2] == {
        (1, (0, 0)): 4,
        (1, (-1, -1)): 1,
        (1, (1, 1)): 1,
        (1, (2, -1)): 1,
        (1, (-2, 1)): 1,
        (1, (-1, 2)): 1,
        (1, (1, -2)): 1,
    }


def test_qhat_layer_shape_sweep():
    for n, p in [(1, 5), (2, 5), (3, 5), (4, 7)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            for head in ((i, (0,) * n), (i, fundamental(n, 1))):
                rows = cover_rows(ctx, head)
                layers = as_labels(rows)
                assert len(layers) == 2 * n + 1
                assert layers[0] == layers[-1] == {head: 1}
                assert rows[1] == rad1_qhat(ctx, head)
                for j in range(2 * n + 1):
                    assert layers[j] == layers[2 * n - j]


def test_qhat_g1_totals_match_closed_form():
    for n, p in [(1, 5), (2, 5), (3, 5), (4, 7)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            layers = as_labels(cover_rows(ctx, (i, (0,) * n)))
            totals = [0] * (n + 1)
            for layer in layers:
                for (u, _), mult in layer.items():
                    totals[u] += mult
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
    target = (0, (0, 0))
    assert bgg_multiplicity(ctx, target, (0, (0, 0))) == 1
    assert bgg_multiplicity(ctx, target, (1, (1, 0))) == 1
    assert bgg_multiplicity(ctx, target, (2, (0, 1))) == 1
    assert bgg_multiplicity(ctx, target, (1, (0, 0))) == 0
    assert bgg_multiplicity(ctx, target, (0, (1, 0))) == 0
    # Twisted targets: 1 exactly at the Vermas of the support.  Support
    # shifts have coordinates in [-2, 2], so the box around nu holds them all.
    for n in (1, 2, 3):
        ctx = make_context(n, 5)
        for i in range(n + 1):
            nu = tuple(range(1 - n, 1 + n, 2))
            support = {(t, eta) for t, eta, _ in verma_support(ctx, (i, nu))}
            found = set()
            for t in range(n + 1):
                for shift in product(range(-2, 3), repeat=n):
                    eta = add(nu, shift)
                    mult = bgg_multiplicity(ctx, (i, nu), (t, eta))
                    assert mult == ((t, eta) in support), (n, i, t, eta)
                    if mult:
                        found.add((t, eta))
            assert found == support


def test_bgg_multiplicity_reads_only_the_verma_patterns_own_t(monkeypatch):
    # The multiplicity of (t, eta) reads the filtration at t alone: only
    # Verma t's pattern is asked for, never the cover's other n of them.
    ctx = make_context(3, 5)
    asked = []

    def recorder(n, t):
        asked.append((n, t))
        return _verma_pattern(n, t)

    monkeypatch.setattr(loewylab.projective, "_verma_pattern", recorder)
    for i in range(4):
        for t in range(4):
            for eta in ((0, 0, 0), (1, -1, 0)):
                asked.clear()
                bgg_multiplicity(ctx, (i, (0, 1, 0)), (t, eta))
                assert asked == [(3, t)], (i, t, eta)


def test_bgg_multiplicity_refuses_labels_of_the_wrong_rank():
    ctx = make_context(3, 5)
    good = (0, (0, 0, 0))
    for bad in ((1, (1, 0)), (0, (0, 0, 0, 0))):
        with pytest.raises(ValueError, match=r"^rank mismatch$"):
            bgg_multiplicity(ctx, good, bad)
        with pytest.raises(ValueError, match=r"^rank mismatch$"):
            bgg_multiplicity(ctx, bad, good)
    with pytest.raises(ValueError, match=r"^block index i must be in \[0, 3\] \(got 4\)$"):
        bgg_multiplicity(ctx, good, (4, (0, 0, 0)))


def test_qhat_dimension_is_support_count_times_verma_dimension():
    for n, p in [(1, 5), (2, 5), (3, 5)]:
        ctx = make_context(n, p)
        verma_dim = p ** (n * (n + 1) // 2)
        simple_dims = [weyl_dim(ctx.lambdas[j]) for j in range(n + 1)]
        for i in range(n + 1):
            support = verma_support(ctx, (i, (0,) * n))
            total = 0
            for layer in as_labels(cover_rows(ctx, (i, (0,) * n))):
                for (u, _), mult in layer.items():
                    total += mult * simple_dims[u]
            assert total == len(support) * verma_dim


# ---------------------------------------------------------------------------
# Covers stacked over int tuples against one oracle-built Verma per entry.
# ---------------------------------------------------------------------------


def test_qhat_matches_stacked_weight_oracle():
    for n in range(1, 6):
        ctx = make_context(n, 7)
        for i in range(n + 1):
            for nu in twists(n):
                assert as_labels(cover_rows(ctx, (i, nu))) == cover_layers(ctx, (i, nu))


def test_cover_rows_match_stacked_weight_oracle():
    # Label by label, with multiplicities and in order; the far twist shows
    # that nu is added after the packed keys are decoded, never packed.
    for n in range(1, 5):
        ctx = make_context(n, 7)
        for i in range(n + 1):
            for nu in [*twists(n), far_twist(n)]:
                assert cover_rows(ctx, (i, nu)) == as_rows(cover_layers(ctx, (i, nu)))


def test_cover_rows_match_closed_form_oracle():
    # The projective Loewy series summed from sign patterns alone, with no
    # Verma and no support enumeration, at every n <= 6 and every i.
    for n in range(1, 7):
        ctx = make_context(n, 5 if (n + 1) % 5 else 7)
        for i in range(n + 1):
            for nu in [*twists(n), far_twist(n)]:
                assert cover_rows(ctx, (i, nu)) == as_rows(cover_formula(n, (i, nu)))


def test_dropped_support_entry_is_not_palindromic(monkeypatch, capsys):
    # A cover layer gets its mirror's rows only when the two summed layers
    # compare equal, so a table that is not palindromic still shows it:
    # here the kernel loses one contribution, as a dropped support entry
    # would lose its Verma's, from layer 1.
    summed = loewylab.projective._summed

    def dropped(n, i):
        layers = summed(n, i)
        key = min(layers[1])
        layers[1][key] -= 1
        if not layers[1][key]:
            del layers[1][key]
        return layers

    monkeypatch.setattr(loewylab.projective, "_summed", dropped)
    ctx = make_context(2, 5)
    for i in range(3):
        for nu in twists(2):
            rows = cover_rows(ctx, (i, nu))
            expected = as_rows(cover_layers(ctx, (i, nu)))
            assert rows[2:] == expected[2:] and rows[1] != expected[1]
            assert rows != rows[::-1]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "2", "--p", "5"])
    assert exc.value.code == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL projective.structure [conditional]: cover layer shape or aggregates broke"]


def test_cover_rows_strictly_increase():
    for n in range(1, 7):
        ctx = make_context(n, 5 if (n + 1) % 5 else 7)
        for i in range(n + 1):
            for nu in twists(n):
                for rows in cover_rows(ctx, (i, nu)):
                    keys = [(u, c) for u, c, _ in rows]
                    assert all(a < b for a, b in zip(keys, keys[1:]))
                    assert min(m for _, _, m in rows) >= 1


def test_cover_coordinates_stay_in_balanced_digits():
    # A summed label's coordinates are e_s - e_(s+1) for signs e_s in
    # {-1, 0, 1}, so after nu comes off each lies in [-2, 2], the digits
    # that packed keys decode uniquely, at every n <= 7 and every i; both
    # ends are reached exactly when 0 < i < n.
    for n in range(1, 8):
        ctx = make_context(n, 5 if (n + 1) % 5 else 7)
        for i in range(n + 1):
            for nu in ((0,) * n, far_twist(n)):
                offsets = {
                    x - v for rows in cover_rows(ctx, (i, nu)) for _, c, _ in rows
                    for x, v in zip(c, nu)
                }
                assert offsets <= set(range(-2, 3)), (n, i)
                assert ({-2, 2} <= offsets) == (0 < i < n), (n, i)


def test_cover_rows_need_no_verma_and_no_support(monkeypatch):
    # The closed form shares no code with the Verma patterns or the support
    # enumeration, so the `verify` battery's support check and its cover
    # checks are two routes: with both patched to raise, the covers still
    # equal the Verma-by-Verma oracle, which reads them unpatched first.
    expected = {
        (n, i, nu): as_rows(cover_layers(make_context(n, 7), (i, nu)))
        for n in range(1, 5) for i in range(n + 1) for nu in twists(n)
    }

    def refuse(*args):
        raise AssertionError(f"the cover read a Verma pattern or the support at {args}")

    monkeypatch.setattr(loewylab.loewy, "_verma_pattern", refuse)
    monkeypatch.setattr(loewylab.projective, "_verma_pattern", refuse)
    monkeypatch.setattr(loewylab.projective, "_support_at", refuse)
    loewylab.projective._sign_class.cache_clear()
    for (n, i, nu), rows in expected.items():
        assert cover_rows(make_context(n, 7), (i, nu)) == rows
    with pytest.raises(AssertionError, match="the cover read"):
        verma_support(make_context(2, 7), (1, (0, 0)))


def test_qhat_layers_are_fresh_maps():
    ctx = make_context(2, 5)
    nu = neg(fundamental(2, 2))
    layers = as_labels(cover_rows(ctx, (1, nu)))
    layers[0][(1, (9, 9))] = 7
    layers[2].clear()
    layers.pop()
    assert as_labels(cover_rows(ctx, (1, nu))) == cover_layers(ctx, (1, nu))


def test_mirrored_cover_layers_are_fresh_lists():
    # Layer j and its mirror 2n - j hold equal rows, in distinct lists:
    # changing one leaves the other, and the next call, as they were.
    ctx = make_context(3, 5)
    for nu in ((0, 0, 0), neg(fundamental(3, 3))):
        expected = as_rows(cover_layers(ctx, (1, nu)))
        rows = cover_rows(ctx, (1, nu))
        assert rows == expected
        assert all(rows[j] is not rows[6 - j] for j in range(3))
        rows[1].append((9, (9, 9, 9), 7))
        rows[2].clear()
        rows[0][0] = (0, (0, 0, 0), 2)
        assert rows[3:] == expected[3:]
        assert cover_rows(ctx, (1, nu)) == expected


def test_cover_builds_only_the_sign_classes_it_needs(monkeypatch):
    # The sign classes are built on demand, so the end covers at n = 12
    # (the largest `proj` admits) hold fewer keys than the 13 * 2^12 labels
    # they list, not the 3^13 of every class of both halves.  The classes
    # recurse through the module global, so a wrapper there sees each one.
    n = 12
    real = loewylab.projective._sign_class
    for i in (0, n):
        held = {}

        def counted(*args):
            held[args] = keys = real(*args)
            return keys

        monkeypatch.setattr(loewylab.projective, "_sign_class", counted)
        real.cache_clear()
        layers = cover_rows(make_context(n, 5), (i, (0,) * n))
        assert sum(m for rows in layers for _, _, m in rows) == (n + 1) * 2**n
        assert held and sum(map(len, held.values())) <= (n + 1) * 2**n
    real.cache_clear()


@pytest.mark.parametrize("u", [127, 128])
def test_decoded_block_index_raises_past_its_byte(u):
    # The key of (u, nu + (2, -1)) relative to the head (1, nu), as the
    # kernel's keys are: u = 127 decodes as itself, and u = 128, past its
    # signed byte, raises rather than wrapping.
    key = (u - 1) * 256**2 + 2 * 256 - 1
    counter = Counter({key: 3})
    if u < 128:
        assert _decode(counter, 2, (1, (5, -5))) == [(u, (7, -6), 3)]
    else:
        with pytest.raises(OverflowError):
            _decode(counter, 2, (1, (5, -5)))


def test_qhat_validation_messages():
    ctx = make_context(2, 5)
    with pytest.raises(ValueError, match=r"^block index i must be in \[0, 2\] \(got 3\)$"):
        cover_rows(ctx, (3, (0, 0)))
    with pytest.raises(ValueError, match=r"^block index i must be in \[0, 2\] \(got -1\)$"):
        cover_rows(ctx, (-1, (0, 0, 0)))
    with pytest.raises(ValueError, match=r"^rank mismatch$"):
        cover_rows(ctx, (1, (0, 0, 0)))
