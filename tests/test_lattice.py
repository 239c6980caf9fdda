import random
from itertools import product

import pytest

from loewylab.block import classify, make_context
from loewylab.chardim import positive_roots, weyl_dim, witness_search
from loewylab.lattice import (
    _pair_table,
    add,
    check_weight,
    eps_basis,
    eps_coords,
    from_eps,
    fundamental,
    in_root_lattice,
    leq,
    neg,
    pair,
    restricted_decompose,
    rho,
    scale,
    sub,
    zero,
)
from loewylab.weyl import act, longest, longest_fixing_last


def simple_root(rank, t):
    # alpha_t = eps_t - eps_{t+1}
    return sub(eps_basis(rank, t), eps_basis(rank, t + 1))


def test_weight_arithmetic():
    a = (1, 2)
    b = (0, -1)
    assert add(a, b) == (1, 1)
    assert sub(a, b) == (1, 3)
    assert neg(a) == (-1, -2)
    assert scale(3, a) == (3, 6)
    with pytest.raises(ValueError, match=r"^rank mismatch: 2 vs 3$"):
        add(a, (1, 2, 3))
    with pytest.raises(ValueError, match=r"^rank mismatch: 3 vs 2$"):
        sub((1, 2, 3), a)
    for k in (1.0, True):  # a bool is an int subclass, and would print as True
        with pytest.raises(TypeError, match=rf"^k must be an int \(got {k!r}\)$"):
            scale(k, a)  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        add((1.0, 2), a)  # type: ignore[arg-type]


def test_check_weight_admits_only_nonempty_int_tuples():
    # A weight is a tuple of exact ints: not a list or another iterable, and
    # not a bool, which is an int to isinstance but would print as True.
    for good in ((1, -2), (0,), (10**30, -(10**30))):
        check_weight(good)
    for bad in ((True, 0), [0, 1], (1.0, 2), ("1",), (c for c in (3, 0)), 5, None):
        with pytest.raises(TypeError, match=r"^weight coordinates must be a tuple of ints$"):
            check_weight(bad)
    with pytest.raises(ValueError, match=r"^weight needs rank >= 1$"):
        check_weight(())
    for build in (zero, rho):
        with pytest.raises(ValueError, match=r"^weight needs rank >= 1$"):
            build(0)


def test_weight_builders_refuse_a_rank_or_index_that_is_not_an_int():
    # A float or bool compares equal to an int: unchecked, fundamental(2,
    # True) and eps_basis(2, 1.0) would be (1, 0), and zero(True) a rank-1
    # weight.
    assert fundamental(2, 1) == eps_basis(2, 1) == (1, 0)
    assert zero(1) == (0,) and rho(1) == (1,)
    for bad in (1.0, True):
        for build in (fundamental, eps_basis):
            for rank, k, what in ((2, bad, "k"), (bad, 1, "rank")):
                message = rf"^{what} must be an int \(got {bad!r}\)$"
                with pytest.raises(TypeError, match=message):
                    build(rank, k)
        for build in (zero, rho):
            with pytest.raises(TypeError, match=rf"^rank must be an int \(got {bad!r}\)$"):
                build(bad)


def test_weight_builders_refuse_an_index_out_of_range():
    for k in (-1, 4):
        with pytest.raises(ValueError, match=rf"^w_{k} undefined at rank 2$"):
            fundamental(2, k)
    for k in (0, 4):
        with pytest.raises(ValueError, match=rf"^eps_{k} undefined at rank 2$"):
            eps_basis(2, k)
    for coeffs in ((), (5,)):
        with pytest.raises(ValueError, match=r"^need at least 2 eps coefficients$"):
            from_eps(coeffs)


def test_unvalidated_weights_behave_like_validated_ones():
    # The helpers' results are built unchecked, by map and comprehension, and
    # are exactly the tuples of ints a caller would pass: they pass
    # `check_weight`, compare and hash as their coordinates, and feed the
    # helpers back without error.
    rng = random.Random(7)
    for _ in range(200):
        a = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 5)))
        b = tuple(rng.randint(-3, 3) for _ in a)
        k = rng.randint(-3, 3)
        for result, expected in [
            (add(a, b), [x + y for x, y in zip(a, b)]),
            (sub(a, b), [x - y for x, y in zip(a, b)]),
            (neg(a), [-x for x in a]),
            (scale(k, a), [k * x for x in a]),
            (eps_coords(a)[:-1], [sum(a[t:]) for t in range(len(a))]),
        ]:
            assert type(result) is tuple and {type(c) for c in result} <= {int}
            check_weight(result)
            assert result == tuple(expected) and hash(result) == hash(tuple(expected))
        assert sub(add(a, b), b) == a and add(a, neg(a)) == zero(len(a))
        mu, nu = restricted_decompose(a, 3)
        assert add(mu, scale(3, nu)) == a


def test_eps_basis_sums_to_zero():
    for n in range(1, 6):
        total = zero(n)
        for k in range(1, n + 2):
            total = add(total, eps_basis(n, k))
        assert total == zero(n)


def test_from_eps_constant_shift_invariance():
    for shift in range(-3, 4):
        assert from_eps((2, 0, -1)) == from_eps((2 + shift, shift, -1 + shift))


def test_eps_round_trip():
    for w in product(range(-2, 3), repeat=3):
        assert from_eps(eps_coords(w)) == w
        assert eps_coords(w)[-1] == 0


def test_eps_basis_vs_fundamental_differences():
    # eps_k = w_k - w_{k-1} with the zero boundary convention.
    for n in range(1, 6):
        for k in range(1, n + 2):
            expected = sub(fundamental(n, k), fundamental(n, k - 1))
            assert eps_basis(n, k) == expected


def test_pair_on_rho_counts_root_height():
    for n in range(1, 7):
        r = rho(n)
        for k in range(1, n + 1):
            for j in range(k + 1, n + 2):
                assert pair(r, k, j) == j - k


def test_pair_is_additive():
    a = (2, -1, 3)
    b = (0, 5, -2)
    for k in range(1, 4):
        for j in range(k + 1, 5):
            assert pair(add(a, b), k, j) == pair(a, k, j) + pair(b, k, j)
    with pytest.raises(ValueError):
        pair(a, 2, 2)


def test_pair_and_weyl_elements_refuse_an_index_or_rank_that_is_not_an_int():
    # A bool or float compares equal to an int: unchecked, pair(w, True, 2)
    # would pair as k = 1 and longest(True) build a rank-1 element, and a
    # float would fail inside slicing or range with Python's own message.
    w = (2, -1, 3)
    assert pair(w, 1, 2) == 2 and longest(1) == (2, 1) and longest_fixing_last(1) == (1, 2)
    for bad in (True, 1.0):
        for k, j, what in ((bad, 2, "k"), (1, bad, "j")):
            with pytest.raises(TypeError, match=rf"^{what} must be an int \(got {bad!r}\)$"):
                pair(w, k, j)
        for build in (longest, longest_fixing_last):
            with pytest.raises(TypeError, match=rf"^rank must be an int \(got {bad!r}\)$"):
                build(bad)
    for build in (longest, longest_fixing_last):
        with pytest.raises(ValueError, match=r"^weight needs rank >= 1$"):
            build(0)


def test_in_root_lattice_classifies_fundamental_weights():
    # w_t - t * w_1 is always in the root lattice, w_t itself never is.
    for n in range(1, 6):
        for t in range(1, n + 1):
            assert in_root_lattice(sub(fundamental(n, t), scale(t, fundamental(n, 1))))
            assert not in_root_lattice(fundamental(n, t))


def test_leq_basic_examples():
    assert leq(zero(2), simple_root(2, 1))
    assert leq(zero(2), add(simple_root(2, 1), simple_root(2, 2)))
    assert not leq(zero(2), fundamental(2, 1))
    assert not leq(simple_root(2, 1), zero(2))
    # Half a root is not an integral step.
    assert not leq(zero(1), fundamental(1, 1))
    assert leq(zero(1), scale(2, fundamental(1, 1)))


def test_leq_is_a_partial_order_on_samples():
    ws = list(product(range(-2, 3), repeat=2))
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
        for a in product(range(-2, 3), repeat=2):
            for b in product(range(-2, 3), repeat=2):
                assert leq(scale(p, a), scale(p, b)) == leq(a, b)


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
            a = tuple(rng.randint(-6, 6) for _ in range(n))
            # Half the pairs step up by a random nonnegative root combination,
            # so that both answers of leq occur at every rank.
            if rng.random() < 0.5:
                step = zero(n)
                for t in range(1, n + 1):
                    step = add(step, scale(rng.randint(0, 3), simple_root(n, t)))
                b = add(a, step)
            else:
                b = tuple(rng.randint(-6, 6) for _ in range(n))
            member = all(c % d == 0 for c in scaled_root_coords(a))
            assert in_root_lattice(a) == member
            diff = [y - x for x, y in zip(a, b)]
            below = all(c >= 0 and c % d == 0 for c in scaled_root_coords(diff))
            assert leq(a, b) == below
            seen.add((n, member, below))
    assert {(n, below) for n, _, below in seen} == {(n, v) for n in range(1, 8) for v in (False, True)}
    assert {member for _, member, _ in seen} == {False, True}
    # Every weight with coordinates in -3..3 up to rank 4: the class in P/Q
    # against the inverse Cartan matrix, each class met at every rank.
    for n in range(1, 5):
        classes = set()
        for a in product(range(-3, 4), repeat=n):
            member = all(c % (n + 1) == 0 for c in scaled_root_coords(a))
            assert in_root_lattice(a) == member, a
            classes.add(member)
        assert classes == {False, True}, n
    with pytest.raises(ValueError):
        leq(zero(2), zero(3))


def test_restricted_decompose_round_trip():
    for p in (3, 5):
        for w in product(range(-7, 8), repeat=2):
            mu, nu = restricted_decompose(w, p)
            assert all(0 <= c < p for c in mu)
            assert add(mu, scale(p, nu)) == w
    with pytest.raises(ValueError):
        restricted_decompose((1,), 1)
    # A float p returned float coordinates.
    for p in (5.0, True):
        with pytest.raises(TypeError, match=r"^p must be an int"):
            restricted_decompose((1, 7), p)


def test_restricted_decompose_examples():
    mu, nu = restricted_decompose((-1, 7), 5)
    assert mu == (4, 2)
    assert nu == (-1, 1)


# Every public function that takes a weight from a caller, applied to a
# weight w in place of a rank-2 one.  Those in RANK_FREE accept any rank;
# the others relate w to a rank-2 partner, permutation or block, or to the
# root (1, 3), which a rank-1 weight does not have.
WEIGHT_APIS = {
    "check_weight": check_weight,
    "add a": lambda w: add(w, (1, 2)),
    "add b": lambda w: add((1, 2), w),
    "sub a": lambda w: sub(w, (1, 2)),
    "sub b": lambda w: sub((1, 2), w),
    "neg": neg,
    "scale": lambda w: scale(3, w),
    "eps_coords": eps_coords,
    "pair": lambda w: pair(w, 1, 3),
    "in_root_lattice": in_root_lattice,
    "leq a": lambda w: leq(w, (1, 2)),
    "leq b": lambda w: leq((1, 2), w),
    "restricted_decompose": lambda w: restricted_decompose(w, 5),
    "block.classify": lambda w: classify(make_context(2, 5), w),
    "chardim.weyl_dim": weyl_dim,
    "chardim.witness_search": lambda w: witness_search(w, 5),
    "weyl.act": lambda w: act(longest(2), w),
}
RANK_FREE = {
    "check_weight", "neg", "scale", "eps_coords", "in_root_lattice", "restricted_decompose",
    "chardim.weyl_dim", "chardim.witness_search",
}


@pytest.mark.parametrize(
    "coords, error",
    [([1, 2], TypeError), ((1, 2.0), TypeError), ((1, True), TypeError), (5, TypeError),
     ((), ValueError), ((1,), ValueError)],
    ids=["list", "float", "bool", "int", "empty", "wrong rank"],
)
def test_every_weight_api_refuses_what_is_not_a_weight_of_its_rank(coords, error):
    # A weight is a nonempty tuple of exact ints: a list, a float or a bool
    # (an int subclass, which would print as True) is refused with
    # TypeError before any arithmetic, a bare int before its rank is read,
    # and an empty or wrong-rank weight with ValueError.
    accepted = []
    for name, api in WEIGHT_APIS.items():
        api((1, 2))
        if coords == (1,) and name in RANK_FREE:
            api(coords)
            continue
        try:
            api(coords)
        except error as err:
            if error is TypeError:
                assert str(err) == "weight coordinates must be a tuple of ints", name
        else:
            accepted.append(name)
    assert accepted == []


def test_pair_table_matches_pair_at_every_positive_root():
    # The re-verification table holds `pair` at every positive root index
    # and nothing else, negative coordinates included.
    rng = random.Random(4049)
    for _ in range(200):
        rank = rng.randint(1, 8)
        w = tuple(rng.randint(-9, 9) for _ in range(rank))
        assert _pair_table(w) == {(k, j): pair(w, k, j) for k, j in positive_roots(rank)}, w
