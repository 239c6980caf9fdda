from itertools import permutations, product

import pytest

from loewylab.lattice import Weight, fundamental, rho
from loewylab.weyl import WeylElement, act, longest, longest_fixing_last


def all_elements(n):
    return [WeylElement(images) for images in permutations(range(1, n + 2))]


def compose(u, v):
    """The product u v (first apply v, then u)."""
    return WeylElement(tuple(u(v(k)) for k in range(1, u.rank + 2)))


def test_permutation_validation():
    with pytest.raises(ValueError):
        WeylElement((1, 1, 3))
    with pytest.raises(ValueError):
        WeylElement((0, 1, 2))


def test_action_is_linear_and_composes():
    ws = [Weight(c) for c in product(range(-2, 3), repeat=2)]
    for u in all_elements(2):
        for v in all_elements(2):
            for lam in ws[:5]:
                assert act(u, act(v, lam)) == act(compose(u, v), lam)
    a, b = Weight((2, -1)), Weight((0, 3))
    for w in all_elements(2):
        assert act(w, a + b) == act(w, a) + act(w, b)


def test_longest_element_reverses_fundamentals():
    for n in range(1, 5):
        w0 = longest(n)
        for t in range(1, n + 1):
            assert act(w0, fundamental(n, t)) == -fundamental(n, n + 1 - t)
        assert act(w0, rho(n)) == -rho(n)


def test_distinguished_involutions():
    for n in range(1, 6):
        identity = WeylElement(tuple(range(1, n + 2)))
        for w in (longest(n), longest_fixing_last(n)):
            assert compose(w, w) == identity
        # Slot fixing as named.
        assert longest_fixing_last(n)(n + 1) == n + 1
    # At rank one the subgroup fixing the last slot is trivial.
    assert longest_fixing_last(1) == WeylElement((1, 2))
