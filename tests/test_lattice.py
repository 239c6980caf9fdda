from itertools import product

import pytest

from loewylab.lattice import (
    Weight,
    eps_basis,
    eps_coords,
    from_eps,
    fundamental,
    in_root_lattice,
    leq,
    pair,
    restricted_decompose,
    rho,
    zero,
)


def simple_root(rank, t):
    # alpha_t = eps_t - eps_{t+1}
    return eps_basis(rank, t) - eps_basis(rank, t + 1)


def test_weight_arithmetic():
    a = Weight((1, 2))
    b = Weight((0, -1))
    assert (a + b).coords == (1, 1)
    assert (a - b).coords == (1, 3)
    assert (-a).coords == (-1, -2)
    assert (3 * a).coords == (3, 6)
    assert zero(2).is_zero() and not a.is_zero()
    with pytest.raises(ValueError):
        a + Weight((1, 2, 3))
    with pytest.raises(TypeError):
        Weight((1.0, 2))  # type: ignore[arg-type]


def test_eps_basis_sums_to_zero():
    for n in range(1, 6):
        total = zero(n)
        for k in range(1, n + 2):
            total = total + eps_basis(n, k)
        assert total.is_zero()


def test_from_eps_constant_shift_invariance():
    for shift in range(-3, 4):
        assert from_eps((2, 0, -1)) == from_eps((2 + shift, shift, -1 + shift))


def test_eps_round_trip():
    for coords in product(range(-2, 3), repeat=3):
        w = Weight(coords)
        assert from_eps(eps_coords(w)) == w
        assert eps_coords(w)[-1] == 0


def test_eps_basis_vs_fundamental_differences():
    # eps_k = w_k - w_{k-1} with the zero boundary convention.
    for n in range(1, 6):
        for k in range(1, n + 2):
            expected = fundamental(n, k) - fundamental(n, k - 1)
            assert eps_basis(n, k) == expected


def test_pair_on_rho_counts_root_height():
    for n in range(1, 7):
        r = rho(n)
        for k in range(1, n + 1):
            for j in range(k + 1, n + 2):
                assert pair(r, k, j) == j - k


def test_pair_is_additive():
    a = Weight((2, -1, 3))
    b = Weight((0, 5, -2))
    for k in range(1, 4):
        for j in range(k + 1, 5):
            assert pair(a + b, k, j) == pair(a, k, j) + pair(b, k, j)
    with pytest.raises(ValueError):
        pair(a, 2, 2)


def test_in_root_lattice_classifies_fundamental_weights():
    # w_t - t * w_1 is always in the root lattice, w_t itself never is.
    for n in range(1, 6):
        for t in range(1, n + 1):
            assert in_root_lattice(fundamental(n, t) - t * fundamental(n, 1))
            assert not in_root_lattice(fundamental(n, t))


def test_leq_basic_examples():
    assert leq(zero(2), simple_root(2, 1))
    assert leq(zero(2), simple_root(2, 1) + simple_root(2, 2))
    assert not leq(zero(2), fundamental(2, 1))
    assert not leq(simple_root(2, 1), zero(2))
    # Half a root is not an integral step.
    assert not leq(zero(1), fundamental(1, 1))
    assert leq(zero(1), 2 * fundamental(1, 1))


def test_leq_is_a_partial_order_on_samples():
    ws = [Weight(c) for c in product(range(-2, 3), repeat=2)]
    for a in ws:
        assert leq(a, a)
    for a in ws:
        for b in ws:
            if leq(a, b) and leq(b, a):
                assert a == b
    import random

    rng = random.Random(7)
    triples = [(rng.choice(ws), rng.choice(ws), rng.choice(ws)) for _ in range(400)]
    for a, b, c in triples:
        if leq(a, b) and leq(b, c):
            assert leq(a, c)


def test_leq_respects_scaling_by_p():
    for p in (5, 7):
        for a_coords in product(range(-2, 3), repeat=2):
            for b_coords in product(range(-2, 3), repeat=2):
                a, b = Weight(a_coords), Weight(b_coords)
                assert leq(p * a, p * b) == leq(a, b)


def test_restricted_decompose_round_trip():
    for p in (3, 5):
        for coords in product(range(-7, 8), repeat=2):
            w = Weight(coords)
            mu, nu = restricted_decompose(w, p)
            assert all(0 <= c < p for c in mu.coords)
            assert mu + p * nu == w
    with pytest.raises(ValueError):
        restricted_decompose(Weight((1,)), 1)


def test_restricted_decompose_examples():
    mu, nu = restricted_decompose(Weight((-1, 7)), 5)
    assert mu == Weight((4, 2))
    assert nu == Weight((-1, 1))
