"""Exact weight arithmetic for the SL(n+1) weight lattice.

A weight is the tuple of its integer coordinates in the fundamental-weight
basis (w_1, ..., w_n); the rank n is the tuple's length.  The ambient
conventions are the usual type-A ones:

* eps_1, ..., eps_{n+1} are the images of the standard basis vectors in
  Z^{n+1} / Z(1, ..., 1), so eps_1 + ... + eps_{n+1} = 0 and
  eps_k = w_k - w_{k-1} with w_0 = w_{n+1} = 0;
* the simple roots are alpha_t = eps_t - eps_{t+1} and the positive roots
  are eps_k - eps_j for k < j;
* rho = w_1 + ... + w_n;
* the pairing of a weight with the coroot of eps_k - eps_j is the exact
  integer `pair(w, k, j)`.

Everything here is exact integer arithmetic; no floats.  A weight from a
caller is checked by `check_weight` (a nonempty tuple of exact ints), which
every function here that takes one calls; `_pair_table` pairs a weight
the library built itself with every positive root at once, unchecked.
Every scalar from a caller (a rank, an index, a prime) is checked by
`_check_int`, the library's one exact-int check.

>>> pair(rho(3), 1, 4)
3
>>> in_root_lattice(from_eps((1, -1, 0)))
True
>>> add(fundamental(2, 1), scale(3, rho(2)))
(4, 3)
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from itertools import accumulate, count, repeat

__all__ = [
    "check_weight",
    "zero",
    "fundamental",
    "rho",
    "add",
    "sub",
    "neg",
    "scale",
    "from_eps",
    "eps_basis",
    "eps_coords",
    "pair",
    "in_root_lattice",
    "leq",
    "restricted_decompose",
]

_INT = frozenset((int,))  # the one type of a weight's coordinates, built once


def _is_coords(w: object) -> bool:
    """Whether `w` is a tuple of exact ints: a bool is an int subclass, and
    would print as True."""
    return type(w) is tuple and _INT.issuperset(map(type, w))


def _check_int(what: str, value: int) -> None:
    """Raise TypeError naming `what` unless `value` is an exact int: not a
    float, which equals an int, nor a bool, which would print as True."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an int (got {value!r})")


def check_weight(w: tuple[int, ...]) -> None:
    """Raise TypeError unless `w` is a tuple of exact ints, and ValueError
    if it is empty.

    >>> check_weight([1, 2])
    Traceback (most recent call last):
    ...
    TypeError: weight coordinates must be a tuple of ints
    """
    if not _is_coords(w):
        raise TypeError("weight coordinates must be a tuple of ints")
    if not w:
        raise ValueError("weight needs rank >= 1")


def _check_same_rank(a: tuple[int, ...], b: tuple[int, ...]) -> None:
    check_weight(a)
    check_weight(b)
    if len(a) != len(b):
        raise ValueError(f"rank mismatch: {len(a)} vs {len(b)}")


def _check_rank(rank: int) -> None:
    """Raise TypeError unless `rank` is an exact int, ValueError if below 1."""
    _check_int("rank", rank)
    if rank < 1:
        raise ValueError("weight needs rank >= 1")


def zero(rank: int) -> tuple[int, ...]:
    """The zero weight of the given rank."""
    _check_rank(rank)
    return (0,) * rank


def fundamental(rank: int, k: int) -> tuple[int, ...]:
    """The fundamental weight w_k; `fundamental(rank, 0)` is zero.

    Both w_0 and w_{rank+1} are accepted and give zero, matching the
    boundary convention used throughout.  Rank and k are exact ints.
    """
    _check_int("rank", rank)
    _check_int("k", k)
    if not 0 <= k <= rank + 1:
        raise ValueError(f"w_{k} undefined at rank {rank}")
    if k == 0 or k == rank + 1:
        return zero(rank)
    return tuple(1 if t == k else 0 for t in range(1, rank + 1))


def rho(rank: int) -> tuple[int, ...]:
    """The half-sum of positive roots, w_1 + ... + w_n."""
    _check_rank(rank)
    return (1,) * rank


def add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The sum a + b of two weights of one rank."""
    _check_same_rank(a, b)
    return tuple(map(operator.add, a, b))


def sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The difference a - b of two weights of one rank."""
    _check_same_rank(a, b)
    return tuple(map(operator.sub, a, b))


def neg(w: tuple[int, ...]) -> tuple[int, ...]:
    """The weight -w."""
    check_weight(w)
    return tuple(map(operator.neg, w))


def scale(k: int, w: tuple[int, ...]) -> tuple[int, ...]:
    """The weight k * w, for an exact int k.

    >>> scale(-2, (1, 0, 3))
    (-2, 0, -6)
    """
    _check_int("k", k)
    check_weight(w)
    return tuple(k * a for a in w)


def from_eps(coeffs: Iterable[int]) -> tuple[int, ...]:
    """The weight with these eps-basis coefficients (rank + 1 of them).

    Since eps_1 + ... + eps_{n+1} = 0, shifting all coefficients by a
    constant yields the same weight.

    >>> from_eps((2, 2, 2))
    (0, 0)
    """
    c = tuple(coeffs)
    if len(c) < 2:
        raise ValueError("need at least 2 eps coefficients")
    w = tuple(c[t] - c[t + 1] for t in range(len(c) - 1))
    check_weight(w)
    return w


def eps_basis(rank: int, k: int) -> tuple[int, ...]:
    """The weight eps_k, for exact ints rank and 1 <= k <= rank + 1."""
    _check_int("rank", rank)
    _check_int("k", k)
    if not 1 <= k <= rank + 1:
        raise ValueError(f"eps_{k} undefined at rank {rank}")
    return from_eps(tuple(1 if t == k else 0 for t in range(1, rank + 2)))


def eps_coords(w: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical eps-basis coefficients of `w`, normalised so the last is 0.

    >>> eps_coords(fundamental(2, 1))
    (1, 0, 0)
    """
    check_weight(w)
    return tuple(accumulate(reversed(w)))[::-1] + (0,)


def pair(w: tuple[int, ...], k: int, j: int) -> int:
    """Pairing of `w` with the coroot of the positive root eps_k - eps_j.

    Requires exact ints 1 <= k < j <= rank + 1.
    Equals the sum of the fundamental coordinates a_k + ... + a_{j-1}.

    >>> pair(rho(4), 2, 5)
    3
    """
    check_weight(w)
    _check_int("k", k)
    _check_int("j", j)
    if not 1 <= k < j <= len(w) + 1:
        raise ValueError(f"(k, j) = ({k}, {j}) is not a positive root index")
    return sum(w[k - 1 : j - 1])


def _pair_table(coords: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """`pair` of a weight the library built against every positive root,
    as root (k, j) -> pairing, unchecked.

    Row k is the running sum of a_k, a_{k+1}, ..., so (k, j) reads
    a_k + ... + a_{j-1}.  A pair that is not a positive root index has no
    entry.
    """
    table: dict[tuple[int, int], int] = {}
    for k in range(1, len(coords) + 1):
        table.update(zip(zip(repeat(k), count(k + 1)), accumulate(coords[k - 1 :])))
    return table


def in_root_lattice(w: tuple[int, ...]) -> bool:
    """Whether `w` lies in the root lattice (integral root coordinates).

    With fundamental coordinates a, eps coefficients e_k = a_k + ... +
    a_rank, P_k = e_1 + ... + e_k and S = e_1 + ... + e_(rank+1) =
    sum_k k a_k, the k-th of rank + 1 times the root coordinates is
    (rank + 1) P_k - k S.  So every one is divisible by rank + 1 iff S is
    (k = 1): w's class in P/Q = Z/(rank + 1) is S mod (rank + 1).

    >>> in_root_lattice((1, 0)), in_root_lattice((1, 1))
    (False, True)
    """
    check_weight(w)
    return sum(map(operator.mul, w, count(1))) % (len(w) + 1) == 0


def leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """The dominance order: a <= b iff b - a is a nonnegative integral
    combination of simple roots.

    >>> leq(zero(2), from_eps((1, 0, -1)))
    True
    >>> leq(zero(2), fundamental(2, 1))
    False
    """
    _check_same_rank(a, b)
    # rank + 1 times the k-th root coordinate of b - a is (rank + 1) P_k - k S
    # over its eps coefficients, as in `in_root_lattice`: all are divisible
    # by rank + 1 iff S is, and each is nonnegative iff (rank + 1) P_k >= k S.
    eps = list(accumulate(map(operator.sub, b[::-1], a[::-1])))[::-1]
    d = len(eps) + 1
    total = sum(eps)
    return total % d == 0 and all(
        d * prefix >= k * total for k, prefix in enumerate(accumulate(eps), start=1)
    )


def restricted_decompose(w: tuple[int, ...], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split `w` uniquely as mu + p * nu with mu restricted.

    Returns `(mu, nu)`; coordinates of mu are the mod-p remainders in
    [0, p) and nu collects the quotients.  Raises TypeError unless p is
    an exact int.

    >>> restricted_decompose((-1, 7), 5)
    ((4, 2), (-1, 1))
    """
    check_weight(w)
    _check_int("p", p)
    if p < 2:
        raise ValueError("p must be at least 2")
    quot, rem = zip(*(divmod(a, p) for a in w))
    return rem, quot
