"""Exact weight arithmetic for the SL(n+1) weight lattice.

A weight is stored by its integer coordinates in the fundamental-weight
basis (w_1, ..., w_n); the rank n is the coordinate length.  The ambient
conventions are the usual type-A ones:

* eps_1, ..., eps_{n+1} are the images of the standard basis vectors in
  Z^{n+1} / Z(1, ..., 1), so eps_1 + ... + eps_{n+1} = 0 and
  eps_k = w_k - w_{k-1} with w_0 = w_{n+1} = 0;
* the simple roots are alpha_t = eps_t - eps_{t+1} and the positive roots
  are eps_k - eps_j for k < j;
* rho = w_1 + ... + w_n;
* the pairing of a weight with the coroot of eps_k - eps_j is the exact
  integer `pair(w, k, j)`.

Everything here is exact integer arithmetic; no floats.

>>> pair(rho(3), 1, 4)
3
>>> in_root_lattice(from_eps((1, -1, 0)))
True
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate
from operator import add, neg, sub

from .record import OrderedRecord

__all__ = [
    "Weight",
    "zero",
    "fundamental",
    "rho",
    "from_eps",
    "eps_basis",
    "eps_coords",
    "pair",
    "in_root_lattice",
    "leq",
    "restricted_decompose",
]


class Weight(OrderedRecord):
    """A weight in fundamental-weight coordinates.

    `coords[t - 1]` is the coefficient of w_t.  Instances are immutable and
    support the abelian-group operations plus integer scaling.  The
    constructor stores its coordinates as a tuple and validates them;
    arithmetic on weights, whose results are int tuples by construction,
    builds through `_weight` instead, which does not.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]) -> None:
        coords = tuple(coords)
        if not coords:
            raise ValueError("weight needs rank >= 1")
        # Exact ints: a bool is an int subclass, and would print as True.
        if any(type(c) is not int for c in coords):
            raise TypeError("weight coordinates must be ints")
        _set_coords(self, coords)

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __add__(self, other: Weight) -> Weight:
        self._check_rank(other)
        return _weight(tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: Weight) -> Weight:
        self._check_rank(other)
        return _weight(tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> Weight:
        return _weight(tuple(map(neg, self.coords)))

    def __rmul__(self, scalar: int) -> Weight:
        if not isinstance(scalar, int):
            raise TypeError("weights scale by ints only")
        return _weight(tuple(scalar * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def _check_rank(self, other: Weight) -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")


_new = object.__new__
_set_coords = Weight.__dict__["coords"].__set__


def _weight(coords: tuple[int, ...]) -> Weight:
    """A `Weight` from a nonempty tuple of ints, without re-validating it.

    For coordinates the library computed from validated weights: the
    translated labels of the layer kernels and weight arithmetic.  Such a
    weight compares, hashes and orders like `Weight(coords)`.
    """
    w = _new(Weight)
    _set_coords(w, coords)
    return w


def zero(rank: int) -> Weight:
    """The zero weight of the given rank."""
    return Weight((0,) * rank)


def fundamental(rank: int, k: int) -> Weight:
    """The fundamental weight w_k; `fundamental(rank, 0)` is zero.

    Both w_0 and w_{rank+1} are accepted and give zero, matching the
    boundary convention used throughout.
    """
    if not 0 <= k <= rank + 1:
        raise ValueError(f"w_{k} undefined at rank {rank}")
    if k == 0 or k == rank + 1:
        return zero(rank)
    return Weight(tuple(1 if t == k else 0 for t in range(1, rank + 1)))


def rho(rank: int) -> Weight:
    """The half-sum of positive roots, w_1 + ... + w_n."""
    return Weight((1,) * rank)


def from_eps(coeffs: Iterable[int]) -> Weight:
    """Weight from eps-basis coefficients (rank + 1 of them).

    Since eps_1 + ... + eps_{n+1} = 0, shifting all coefficients by a
    constant yields the same weight.

    >>> from_eps((2, 2, 2)).is_zero()
    True
    """
    c = tuple(coeffs)
    if len(c) < 2:
        raise ValueError("need at least 2 eps coefficients")
    return Weight(tuple(c[t] - c[t + 1] for t in range(len(c) - 1)))


def eps_basis(rank: int, k: int) -> Weight:
    """The weight eps_k, for 1 <= k <= rank + 1."""
    if not 1 <= k <= rank + 1:
        raise ValueError(f"eps_{k} undefined at rank {rank}")
    return from_eps(tuple(1 if t == k else 0 for t in range(1, rank + 2)))


def eps_coords(w: Weight) -> tuple[int, ...]:
    """Canonical eps-basis coefficients of `w`, normalised so the last is 0.

    >>> eps_coords(fundamental(2, 1))
    (1, 0, 0)
    """
    n = w.rank
    out = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        out[k] = out[k + 1] + w.coords[k]
    return tuple(out)


def pair(w: Weight, k: int, j: int) -> int:
    """Pairing of `w` with the coroot of the positive root eps_k - eps_j.

    Requires 1 <= k < j <= rank + 1.  Equals the sum of the fundamental
    coordinates a_k + ... + a_{j-1}.

    >>> pair(rho(4), 2, 5)
    3
    """
    coords = w.coords
    if not 1 <= k < j <= len(coords) + 1:
        raise ValueError(f"(k, j) = ({k}, {j}) is not a positive root index")
    return sum(coords[k - 1 : j - 1])


def _scaled_root_coords(coords: Iterable[int]) -> list[int]:
    # (rank + 1) times the simple-root coordinates of the weight with these
    # fundamental coordinates, exact integers: with e its eps coefficients,
    # P_k = e_1 + ... + e_k and S = P_{rank+1}, the k-th is
    # (rank + 1) P_k - k S.
    eps = list(accumulate(reversed(tuple(coords))))[::-1]
    d = len(eps) + 1
    total = sum(eps)
    return [d * prefix - k * total for k, prefix in enumerate(accumulate(eps), start=1)]


def in_root_lattice(w: Weight) -> bool:
    """Whether `w` lies in the root lattice (integral root coordinates)."""
    d = w.rank + 1
    return all(num % d == 0 for num in _scaled_root_coords(w.coords))


def leq(a: Weight, b: Weight) -> bool:
    """The dominance order: a <= b iff b - a is a nonnegative integral
    combination of simple roots.

    >>> leq(zero(2), from_eps((1, 0, -1)))
    True
    >>> leq(zero(2), fundamental(2, 1))
    False
    """
    a._check_rank(b)
    d = a.rank + 1
    diff = map(sub, b.coords, a.coords)
    return all(num >= 0 and num % d == 0 for num in _scaled_root_coords(diff))


def restricted_decompose(w: Weight, p: int) -> tuple[Weight, Weight]:
    """Split `w` uniquely as mu + p * nu with mu restricted.

    Returns `(mu, nu)`; coordinates of mu are the mod-p remainders in
    [0, p) and nu collects the quotients.

    >>> mu, nu = restricted_decompose(Weight((-1, 7)), 5)
    >>> (mu.coords, nu.coords)
    ((4, 2), (-1, 1))
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    quot, rem = zip(*(divmod(a, p) for a in w.coords))
    return Weight(rem), Weight(quot)
