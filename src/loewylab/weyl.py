"""The Weyl group of SL(n+1) and its linear action on weights.

The Weyl group is the symmetric group on the n + 1 eps-coordinate slots.
An element is its one-based image tuple w: `w[k - 1]` is where slot k is
sent.  Acting on a weight, a coordinate tuple, permutes its
eps-coefficients accordingly.

>>> act(longest(1), fundamental(1, 1))
(-1,)
"""

from __future__ import annotations

from .lattice import _check_rank, check_weight, eps_coords, from_eps, fundamental

__all__ = ["longest", "longest_fixing_last", "act"]


def longest(rank: int) -> tuple[int, ...]:
    """The longest element w0, sending slot k to n + 2 - k, for an exact
    int rank n >= 1."""
    _check_rank(rank)
    return tuple(rank + 2 - k for k in range(1, rank + 2))


def longest_fixing_last(rank: int) -> tuple[int, ...]:
    """Longest element of the subgroup fixing slot n + 1.

    Reverses slots 1..n; at rank 1 this is the identity.  The rank is an
    exact int n >= 1."""
    _check_rank(rank)
    return tuple(rank + 1 - k for k in range(1, rank + 1)) + (rank + 1,)


def act(w: tuple[int, ...], lam: tuple[int, ...]) -> tuple[int, ...]:
    """The linear action: eps-coefficient of slot k moves to slot w(k).

    Raises TypeError unless lam is a weight (`lattice.check_weight`), and
    ValueError if w is not a permutation of 1..len(w), or if it permutes
    other than the n + 1 slots of lam.

    >>> act(longest(2), fundamental(2, 1))
    (0, -1)
    """
    check_weight(lam)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
    if len(w) != len(lam) + 1:
        raise ValueError("rank mismatch")
    out = [0] * len(w)
    for image, c in zip(w, eps_coords(lam)):
        out[image - 1] = c
    return from_eps(tuple(out))
