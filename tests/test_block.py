import copy
import pickle
from itertools import product

import pytest

from loewylab.block import (
    BlockContext,
    block_weight,
    check_hypotheses,
    check_index,
    check_label,
    classify,
    is_odd_prime,
    label_weight,
    make_context,
    mu_weight,
    nu_weight,
)
from loewylab.chardim import dim_parabolic_verma
from loewylab.ext import ext1_g1_row, ext1_g1t_dim, rad1_qhat
from loewylab.lattice import add, fundamental, neg, rho, scale, sub, zero
from loewylab.loewy import (
    composition_class_z_g1,
    dual_verma_rows,
    parabolic_m_structure,
    rad_layers_z_g1,
    verma_blocks,
    verma_rows,
)
from loewylab.projective import bgg_multiplicity, cover_rows, q_composition_mult_g1, verma_support
from loewylab.weyl import act, longest, longest_fixing_last


def test_is_odd_prime():
    assert [q for q in range(2, 30) if is_odd_prime(q)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_odd_prime(2)
    assert not is_odd_prime(121)
    # Unchecked, 5.0 would pass as a prime, 9.0 would die inside pow and a
    # bool would print as True; p is refused as check_hypotheses refuses it.
    for p in (5.0, 9.0, 11.0, True, False):
        with pytest.raises(TypeError, match=rf"^p must be an int \(got {p!r}\)$"):
            is_odd_prime(p)


def test_is_odd_prime_beyond_trial_division():
    assert is_odd_prime(2**61 - 1)
    assert is_odd_prime(2**31 - 1)
    assert not is_odd_prime((2**31 - 1) ** 2)
    assert not is_odd_prime((2**19 - 1) * (2**61 - 1))
    # Strong pseudoprimes to every prime base up to 31, and up to 37.
    assert not is_odd_prime(3825123056546413051)
    assert not is_odd_prime(318665857834031151167461)
    # The least strong pseudoprime to all bases up to 41 is out of range.
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        is_odd_prime(3317044064679887385961981)
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        is_odd_prime((2**31 - 1) * (2**61 - 1))


def test_make_context_validation():
    with pytest.raises(ValueError):
        make_context(0, 5)
    with pytest.raises(ValueError):
        make_context(2, 2)
    with pytest.raises(ValueError):
        make_context(2, 9)
    with pytest.raises(ValueError):
        make_context(2, 3)  # p divides n + 1
    with pytest.raises(ValueError):
        make_context(4, 5)


def test_make_context_refuses_floats_and_bools():
    # A float or bool rank or prime compares equal to an int but would build
    # float coordinates or print as True.
    for n, p in [(2, 5.0), (2.0, 5), (True, 5), (2, True)]:
        what, bad = ("n", n) if type(n) is not int else ("p", p)
        for check in (make_context, check_hypotheses):
            with pytest.raises(TypeError, match=rf"^{what} must be an int \(got {bad!r}\)$"):
                check(n, p)


@pytest.mark.parametrize("i", [1.0, True], ids=["float", "bool"])
def test_every_block_index_api_refuses_an_index_that_is_not_an_int(i):
    # A block index is an exact int, as n and p are: a float passed the
    # range check, so rad1_qhat returned rows with block index 0.0 and
    # rad_layers_z_g1 died inside math.comb, and a bool would print as True.
    ctx = make_context(2, 5)
    apis = {
        "check_index": lambda i: check_index(2, i),
        "check_label": lambda i: check_label(ctx, (i, (0, 0))),
        "label_weight": lambda i: label_weight(ctx, (i, (0, 0))),
        "block_weight": lambda i: block_weight(ctx, i),
        "mu_weight": lambda i: mu_weight(ctx, i),
        "rad_layers_z_g1": lambda i: rad_layers_z_g1(ctx, i),
        "composition_class_z_g1": lambda i: composition_class_z_g1(ctx, i),
        "rad1_qhat": lambda i: rad1_qhat(ctx, (i, (0, 0))),
        "ext1_g1_row": lambda i: ext1_g1_row(ctx, i),
        "q_composition_mult_g1 i": lambda i: q_composition_mult_g1(ctx, i, 1),
        "q_composition_mult_g1 j": lambda i: q_composition_mult_g1(ctx, 1, i),
        "dim_parabolic_verma": lambda i: dim_parabolic_verma(ctx, i, "I"),
        "nu_weight": lambda i: nu_weight(ctx, i),
    }
    accepted = []
    for name, api in apis.items():
        api(1)
        try:
            api(i)
        except TypeError as err:
            assert str(err) == f"block index i must be an int (got {i!r})", name
        else:
            accepted.append(name)
    assert accepted == []


def test_nu_weight_refuses_an_index_out_of_range():
    # Unchecked, -1 would wrap round to nu_2 = (5, 4) and 3 would raise
    # IndexError.
    ctx = make_context(2, 5)
    assert [nu_weight(ctx, i) for i in range(3)] == [(1, 5), (4, 1), (5, 4)]
    for i in (-1, 3):
        with pytest.raises(ValueError, match=rf"^block index i must be in \[0, 2\] \(got {i}\)$"):
            nu_weight(ctx, i)


def test_block_weight_refuses_a_twist_parameter_that_is_not_an_int():
    # block_weight(ctx, 0, 2.0) returned the float weight (1.0, 4).
    ctx = make_context(2, 5)
    assert block_weight(ctx, 0, 2) == (1, 4)
    for a in (2.0, True):
        with pytest.raises(TypeError, match=r"^twist parameter a must be an int"):
            block_weight(ctx, 0, a)


def test_weight_table_frozen_rank_one():
    ctx = make_context(1, 5)
    assert ctx.lambdas == ((0,), (3,))


def test_weight_table_frozen_rank_two():
    ctx = make_context(2, 5)
    assert ctx.lambdas == ((0, 4), (3, 0), (4, 3))
    assert mu_weight(ctx, 0) == (0, -1)
    assert mu_weight(ctx, 1) == (-2, 0)
    assert mu_weight(ctx, 2) == (-1, -2)
    assert nu_weight(ctx, 0) == (1, 5)
    assert nu_weight(ctx, 1) == (4, 1)
    assert nu_weight(ctx, 2) == (5, 4)


def test_weight_table_frozen_rank_three():
    ctx = make_context(3, 5)
    assert ctx.lambdas == (
        (0, 4, 4),
        (3, 0, 4),
        (4, 3, 0),
        (4, 4, 3),
    )


def test_mu_lambda_companion_identities():
    for n, p in [(1, 5), (2, 5), (3, 5), (4, 7), (5, 7), (6, 5)]:
        ctx = make_context(n, p)
        for i in range(n):
            expected = add(mu_weight(ctx, i), scale(p, rho(n)))
            assert ctx.lambdas[i] == sub(expected, scale(p, fundamental(n, i + 1)))
        assert ctx.lambdas[n] == add(mu_weight(ctx, n), scale(p, rho(n)))


def test_lowest_weight_identity():
    for n, p in [(1, 5), (2, 5), (3, 7), (4, 7), (5, 7)]:
        ctx = make_context(n, p)
        w_i, w_0 = longest_fixing_last(n), longest(n)
        shift = scale(-((p - 1) * (n + 1)), fundamental(n, n))
        for i in range(n):
            value = sub(add(shift, act(w_i, ctx.lambdas[i])), act(w_0, ctx.lambdas[i + 1]))
            assert value == scale(-p, fundamental(n, n))


def test_general_twist_table():
    ctx = make_context(2, 5)
    assert block_weight(ctx, 0, 2) == (1, 4)
    assert block_weight(ctx, 1, 2) == (2, 1)
    assert block_weight(ctx, 2, 2) == (4, 2)
    for n, p in [(1, 5), (2, 5), (3, 7)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            assert block_weight(ctx, i, 1) == ctx.lambdas[i]
            for a in range(1, p):
                assert all(0 <= c < p for c in block_weight(ctx, i, a))
    with pytest.raises(ValueError):
        block_weight(ctx, 0, 0)
    with pytest.raises(ValueError):
        block_weight(ctx, 0, 7)


def test_classify_round_trip():
    for n, p in [(1, 5), (2, 5), (3, 7)]:
        ctx = make_context(n, p)
        twists = [zero(n), fundamental(n, 1), neg(fundamental(n, n)), rho(n)]
        for i in range(n + 1):
            for t in twists:
                label = (i, t)
                assert classify(ctx, label_weight(ctx, label)) == label


def test_classify_rejects_outside_weights():
    ctx = make_context(2, 5)
    assert classify(ctx, zero(2)) is None
    assert classify(ctx, rho(2)) is None
    assert classify(ctx, (4, 4)) is None
    with pytest.raises(ValueError):
        classify(ctx, (1,))


def test_labels_of_the_wrong_rank_are_refused():
    ctx = make_context(2, 5)
    for coords in ((0,), (0, 0, 0)):
        with pytest.raises(ValueError, match=r"^rank mismatch$"):
            check_label(ctx, (1, coords))
        with pytest.raises(ValueError, match=r"^rank mismatch$"):
            label_weight(ctx, (1, coords))
    with pytest.raises(ValueError, match=r"^block index i must be in \[0, 2\] \(got 3\)$"):
        label_weight(ctx, (3, (0,)))
    assert check_label(ctx, (2, (0, 0))) == (2, (0, 0))


def label_apis_accepting(label, message):
    """The names of the 14 label entry points that do not refuse `label`
    with a TypeError saying `message`; each refusal must say it."""
    ctx = make_context(2, 5)
    good = (0, (0, 0))
    apis = {
        "check_label": lambda label: check_label(ctx, label),
        "label_weight": lambda label: label_weight(ctx, label),
        "verma_blocks": lambda label: verma_blocks(ctx, label),
        "verma_rows": lambda label: verma_rows(ctx, label),
        "dual_verma_rows": lambda label: dual_verma_rows(ctx, label),
        "parabolic_m_structure I": lambda label: parabolic_m_structure(ctx, label, "I"),
        "parabolic_m_structure J": lambda label: parabolic_m_structure(ctx, label, "J"),
        "rad1_qhat": lambda label: rad1_qhat(ctx, label),
        "verma_support": lambda label: verma_support(ctx, label),
        "cover_rows": lambda label: cover_rows(ctx, label),
        "ext1_g1t_dim a": lambda label: ext1_g1t_dim(ctx, label, good),
        "ext1_g1t_dim b": lambda label: ext1_g1t_dim(ctx, good, label),
        "bgg_multiplicity target": lambda label: bgg_multiplicity(ctx, label, good),
        "bgg_multiplicity verma": lambda label: bgg_multiplicity(ctx, good, label),
    }
    accepted = []
    for name, api in apis.items():
        api(good)
        try:
            api(label)
        except TypeError as err:
            assert str(err) == message, name
        else:
            accepted.append(name)
    return accepted


@pytest.mark.parametrize("coords", [[0, 0], (0, 0.0), (0, True)], ids=["list", "float", "bool"])
def test_every_label_api_refuses_coordinates_that_are_not_an_int_tuple(coords):
    # A twist's coordinates are a tuple of exact ints, as a weight's are: a
    # list, a float or a bool (an int subclass, which would print as True)
    # would reach the rows unchecked.
    message = "twist coordinates must be a tuple of ints"
    assert label_apis_accepting((1, coords), message) == []


@pytest.mark.parametrize("label", [[1, (0, 0)], (1, (0, 0), 1), 1], ids=["list", "row", "index"])
def test_every_label_api_refuses_a_label_that_is_not_a_pair(label):
    # A label is the pair (i, coords): a list would pass for one, a row
    # (i, coords, multiplicity) died unpacking with Python's own message,
    # and so did a bare block index.
    message = f"label must be a pair (i, coords) (got {label!r})"
    assert label_apis_accepting(label, message) == []


def test_distinct_twists_distinct_weights():
    ctx = make_context(2, 5)
    seen = set()
    for i in range(3):
        for coords in product(range(-1, 2), repeat=2):
            w = label_weight(ctx, (i, coords))
            assert w not in seen
            seen.add(w)


def test_block_context_contract():
    # A context is an immutable, hashable value: equal and equally hashed
    # exactly when its fields are, frozen, and rebuilt equal by copies and
    # pickles.
    a, same, b = make_context(1, 5), BlockContext(1, 5, ((0,), (3,))), make_context(1, 7)
    assert (a.n, a.p, a.lambdas) == (1, 5, ((0,), (3,)))
    assert a == same and not a != same and a != b
    assert hash(a) == hash(same) and len({a: 0, same: 1, b: 2}) == 2
    assert repr(a) == "BlockContext(n=1, p=5, lambdas=((0,), (3,)))"
    for name in ("n", "p", "lambdas"):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 0
    assert a == same and a.lambdas == ((0,), (3,))
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is BlockContext and clone == a and hash(clone) == hash(a)
