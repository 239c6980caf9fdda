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

from dataclasses import dataclass
from functools import cache
from typing import Iterable

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


@dataclass(frozen=True, order=True)
class Weight:
    """A weight in fundamental-weight coordinates.

    `coords[t - 1]` is the coefficient of w_t.  Instances are immutable and
    support the abelian-group operations plus integer scaling.
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coords:
            raise ValueError("weight needs rank >= 1")
        if any(not isinstance(c, int) for c in self.coords):
            raise TypeError("weight coordinates must be ints")

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __add__(self, other: Weight) -> Weight:
        self._check_rank(other)
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: Weight) -> Weight:
        self._check_rank(other)
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> Weight:
        return Weight(tuple(-a for a in self.coords))

    def __rmul__(self, scalar: int) -> Weight:
        if not isinstance(scalar, int):
            raise TypeError("weights scale by ints only")
        return Weight(tuple(scalar * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def _check_rank(self, other: Weight) -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")


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
    if not 1 <= k < j <= w.rank + 1:
        raise ValueError(f"(k, j) = ({k}, {j}) is not a positive root index")
    return sum(w.coords[k - 1 : j - 1])


@cache
def _inverse_cartan_numerators(rank: int) -> tuple[tuple[int, ...], ...]:
    # (rank + 1) times the inverse of the type-A Cartan matrix:
    # entry (i, j) is min(i, j) * (rank + 1 - max(i, j)).
    return tuple(
        tuple(min(i, j) * (rank + 1 - max(i, j)) for j in range(1, rank + 1))
        for i in range(1, rank + 1)
    )


def _scaled_root_coords(w: Weight) -> tuple[int, ...]:
    # (rank + 1) times the simple-root coordinates; exact integers.
    table = _inverse_cartan_numerators(w.rank)
    return tuple(
        sum(m * a for m, a in zip(row, w.coords)) for row in table
    )


def in_root_lattice(w: Weight) -> bool:
    """Whether `w` lies in the root lattice (integral root coordinates)."""
    d = w.rank + 1
    return all(num % d == 0 for num in _scaled_root_coords(w))


def leq(a: Weight, b: Weight) -> bool:
    """The dominance order: a <= b iff b - a is a nonnegative integral
    combination of simple roots.

    >>> leq(zero(2), from_eps((1, 0, -1)))
    True
    >>> leq(zero(2), fundamental(2, 1))
    False
    """
    d = a.rank + 1
    diff = b - a
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
