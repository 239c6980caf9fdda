"""The Weyl group of SL(n+1) and its linear action on weights.

The Weyl group is the symmetric group on the n + 1 eps-coordinate slots.
An element is stored by its one-based image tuple: `images[k - 1]` is where
slot k is sent.  Acting on a weight permutes eps-coefficients accordingly.

>>> act(longest(1), fundamental(1, 1)).coords
(-1,)
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import Weight, eps_coords, from_eps, fundamental

__all__ = ["WeylElement", "longest", "longest_fixing_last", "act"]


@dataclass(frozen=True)
class WeylElement:
    """A permutation of the n + 1 eps slots, as a one-based image tuple."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @property
    def rank(self) -> int:
        return len(self.images) - 1

    def __call__(self, k: int) -> int:
        return self.images[k - 1]


def longest(rank: int) -> WeylElement:
    """The longest element w0, sending slot k to n + 2 - k."""
    return WeylElement(tuple(rank + 2 - k for k in range(1, rank + 2)))


def longest_fixing_last(rank: int) -> WeylElement:
    """Longest element of the subgroup fixing slot n + 1.

    Reverses slots 1..n; at rank 1 this is the identity.
    """
    return WeylElement(tuple(rank + 1 - k for k in range(1, rank + 1)) + (rank + 1,))


def act(w: WeylElement, lam: Weight) -> Weight:
    """The linear action: eps-coefficient of slot k moves to slot w(k).

    >>> act(longest(2), fundamental(2, 1)).coords
    (0, -1)
    """
    if w.rank != lam.rank:
        raise ValueError("rank mismatch")
    c = eps_coords(lam)
    out = [0] * (w.rank + 1)
    for k in range(1, w.rank + 2):
        out[w.images[k - 1] - 1] = c[k - 1]
    return from_eps(tuple(out))
