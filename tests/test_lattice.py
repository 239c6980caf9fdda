import random
from itertools import product

import pytest

from loewylab.lattice import (
    Weight,
    _weight,
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


def test_weight_constructor_stores_a_tuple_of_ints():
    # Any iterable of ints gives the weight of the same tuple: equal, equally
    # hashed, and not changed through the list it was built from.
    coords = [1, -2]
    w = Weight(coords)
    coords[0] = 9
    assert type(w.coords) is tuple and w.coords == (1, -2)
    assert w == Weight((1, -2)) and hash(w) == hash(Weight((1, -2))) == hash(((1, -2),))
    assert Weight(c for c in (3, 0)).coords == (3, 0)
    # A bool is an int to isinstance, but not a coordinate.
    for bad in ((True, 0), [0, False], (1.0, 2), ("1",)):
        with pytest.raises(TypeError, match=r"^weight coordinates must be ints$"):
            Weight(bad)
    with pytest.raises(ValueError, match=r"^weight needs rank >= 1$"):
        Weight([])


def test_unvalidated_weights_behave_like_validated_ones():
    # Arithmetic and the layer kernels build weights through `_weight`,
    # which skips validation: the results compare, hash and order as if
    # built by `Weight`, and stay frozen.
    rng = random.Random(7)
    for _ in range(200):
        coords = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 5)))
        other = tuple(rng.randint(-3, 3) for _ in coords)
        built, checked = _weight(coords), Weight(coords)
        assert type(built) is Weight
        assert built == checked and hash(built) == hash(checked) and repr(built) == repr(checked)
        assert not (built < checked or checked < built)
        assert (built < Weight(other)) == (coords < other) == (checked < _weight(other))
        assert (built <= _weight(other)) == (coords <= other)
        assert {built: 1} == {checked: 1}
    a, b = Weight((1, -2, 3)), Weight((0, 4, -1))
    for result, coords in [(a + b, (1, 2, 2)), (a - b, (1, -6, 4)), (-a, (-1, 2, -3)), (2 * a, (2, -4, 6))]:
        assert result == Weight(coords) and hash(result) == hash(Weight(coords))
    for w in (Weight((1, 2)), _weight((1, 2)), a + b):
        with pytest.raises(AttributeError):
            w.coords = (0, 0)  # type: ignore[misc]
        assert w.coords in ((1, 2), (1, 2, 2))


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


def scaled_root_coords(coords):
    # (n + 1) times the simple-root coordinates, by the inverse Cartan
    # matrix: entry (s, t) of (n + 1) C^-1 is min(s, t) (n + 1 - max(s, t)).
    d = len(coords) + 1
    return [
        sum(min(s, t) * (d - max(s, t)) * a for t, a in enumerate(coords, start=1))
        for s in range(1, d)
    ]


def test_leq_and_root_lattice_match_inverse_cartan():
    rng = random.Random(23)
    seen = set()
    for n in range(1, 8):
        d = n + 1
        for _ in range(300):
            a = Weight(tuple(rng.randint(-6, 6) for _ in range(n)))
            # Half the pairs step up by a random nonnegative root combination,
            # so that both answers of leq occur at every rank.
            if rng.random() < 0.5:
                step = zero(n)
                for t in range(1, n + 1):
                    step = step + rng.randint(0, 3) * simple_root(n, t)
                b = a + step
            else:
                b = Weight(tuple(rng.randint(-6, 6) for _ in range(n)))
            member = all(c % d == 0 for c in scaled_root_coords(a.coords))
            assert in_root_lattice(a) == member
            diff = [y - x for x, y in zip(a.coords, b.coords)]
            below = all(c >= 0 and c % d == 0 for c in scaled_root_coords(diff))
            assert leq(a, b) == below
            seen.add((n, member, below))
    assert {(n, below) for n, _, below in seen} == {(n, v) for n in range(1, 8) for v in (False, True)}
    assert {member for _, member, _ in seen} == {False, True}
    with pytest.raises(ValueError):
        leq(zero(2), zero(3))


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
