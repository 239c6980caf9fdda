from itertools import permutations, product

import pytest

from loewylab.lattice import add, fundamental, neg, rho
from loewylab.weyl import act, longest, longest_fixing_last


def all_elements(n):
    return list(permutations(range(1, n + 2)))


def compose(u, v):
    """The product u v (first apply v, then u), as an image tuple."""
    return tuple(u[v[k] - 1] for k in range(len(u)))


def test_permutation_validation():
    lam = (1, 2)
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.3: \(1, 1, 3\)$"):
        act((1, 1, 3), lam)
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.3: \(0, 1, 2\)$"):
        act((0, 1, 2), lam)
    with pytest.raises(ValueError, match=r"^rank mismatch$"):
        act((2, 1), lam)


def test_action_is_linear_and_composes():
    ws = list(product(range(-2, 3), repeat=2))
    for u in all_elements(2):
        for v in all_elements(2):
            for lam in ws[:5]:
                assert act(u, act(v, lam)) == act(compose(u, v), lam)
    a, b = (2, -1), (0, 3)
    for w in all_elements(2):
        assert act(w, add(a, b)) == add(act(w, a), act(w, b))


def test_longest_element_reverses_fundamentals():
    for n in range(1, 5):
        w0 = longest(n)
        for t in range(1, n + 1):
            assert act(w0, fundamental(n, t)) == neg(fundamental(n, n + 1 - t))
        assert act(w0, rho(n)) == neg(rho(n))


def test_distinguished_involutions():
    for n in range(1, 6):
        identity = tuple(range(1, n + 2))
        for w in (longest(n), longest_fixing_last(n)):
            assert compose(w, w) == identity
        # Slot fixing as named.
        assert longest_fixing_last(n)[n] == n + 1
    # At rank one the subgroup fixing the last slot is trivial.
    assert longest_fixing_last(1) == (1, 2)
