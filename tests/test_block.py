from itertools import product

import pytest

from loewylab.block import (
    IrreducibleLabel,
    block_weight,
    classify,
    is_odd_prime,
    label_weight,
    make_context,
    mu_weight,
    nu_weight,
)
from loewylab.lattice import Weight, fundamental, rho, zero
from loewylab.weyl import act, longest, longest_fixing_last


def test_is_odd_prime():
    assert [q for q in range(2, 30) if is_odd_prime(q)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_odd_prime(2)
    assert not is_odd_prime(121)


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


def test_weight_table_frozen_rank_one():
    ctx = make_context(1, 5)
    assert [lam.coords for lam in ctx.lambdas] == [(0,), (3,)]


def test_weight_table_frozen_rank_two():
    ctx = make_context(2, 5)
    assert [lam.coords for lam in ctx.lambdas] == [(0, 4), (3, 0), (4, 3)]
    assert mu_weight(ctx, 0).coords == (0, -1)
    assert mu_weight(ctx, 1).coords == (-2, 0)
    assert mu_weight(ctx, 2).coords == (-1, -2)
    assert nu_weight(ctx, 0).coords == (1, 5)
    assert nu_weight(ctx, 1).coords == (4, 1)
    assert nu_weight(ctx, 2).coords == (5, 4)


def test_weight_table_frozen_rank_three():
    ctx = make_context(3, 5)
    assert [lam.coords for lam in ctx.lambdas] == [
        (0, 4, 4),
        (3, 0, 4),
        (4, 3, 0),
        (4, 4, 3),
    ]


def test_mu_lambda_companion_identities():
    for n, p in [(1, 5), (2, 5), (3, 5), (4, 7), (5, 7), (6, 5)]:
        ctx = make_context(n, p)
        for i in range(n):
            expected = mu_weight(ctx, i) + p * rho(n) - p * fundamental(n, i + 1)
            assert ctx.lambdas[i] == expected
        assert ctx.lambdas[n] == mu_weight(ctx, n) + p * rho(n)


def test_lowest_weight_identity():
    for n, p in [(1, 5), (2, 5), (3, 7), (4, 7), (5, 7)]:
        ctx = make_context(n, p)
        w_i, w_0 = longest_fixing_last(n), longest(n)
        shift = -((p - 1) * (n + 1)) * fundamental(n, n)
        for i in range(n):
            value = shift + act(w_i, ctx.lambdas[i]) - act(w_0, ctx.lambdas[i + 1])
            assert value == -p * fundamental(n, n)


def test_general_twist_table():
    ctx = make_context(2, 5)
    assert block_weight(ctx, 0, 2).coords == (1, 4)
    assert block_weight(ctx, 1, 2).coords == (2, 1)
    assert block_weight(ctx, 2, 2).coords == (4, 2)
    for n, p in [(1, 5), (2, 5), (3, 7)]:
        ctx = make_context(n, p)
        for i in range(n + 1):
            assert block_weight(ctx, i, 1) == ctx.lambdas[i]
            for a in range(1, p):
                assert all(0 <= c < p for c in block_weight(ctx, i, a).coords)
    with pytest.raises(ValueError):
        block_weight(ctx, 0, 0)
    with pytest.raises(ValueError):
        block_weight(ctx, 0, 7)


def test_classify_round_trip():
    for n, p in [(1, 5), (2, 5), (3, 7)]:
        ctx = make_context(n, p)
        twists = [zero(n), fundamental(n, 1), -fundamental(n, n), rho(n)]
        for i in range(n + 1):
            for t in twists:
                label = IrreducibleLabel(i, t)
                assert classify(ctx, label_weight(ctx, label)) == label


def test_classify_rejects_outside_weights():
    ctx = make_context(2, 5)
    assert classify(ctx, zero(2)) is None
    assert classify(ctx, rho(2)) is None
    assert classify(ctx, Weight((4, 4))) is None
    with pytest.raises(ValueError):
        classify(ctx, Weight((1,)))


def test_distinct_twists_distinct_weights():
    ctx = make_context(2, 5)
    seen = set()
    for i in range(3):
        for coords in product(range(-1, 2), repeat=2):
            w = label_weight(ctx, IrreducibleLabel(i, Weight(coords)))
            assert w.coords not in seen
            seen.add(w.coords)
