"""Ext groups between simples in the block, and the projective radical top.

Between simples of the block, Ext^1 over the Frobenius kernel vanishes
unless the block indices are adjacent, in which case (after untwisting)
it is the standard (n+1)-dimensional representation or its dual.  The
standard representation has the n + 1 pairwise-distinct weights
eps_1, ..., eps_{n+1}, each with multiplicity one, which is what turns the
Ext rule into exact label arithmetic: the twist-graded Ext dimension reads
off one weight multiplicity, and the first radical layer of the projective
cover is exactly the multiset of labels with Ext dimension one.  That layer
leaves the module as rows (block index, twist coordinates, multiplicity),
like every layer table, computed from nu's coordinates alone.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from operator import add, sub

from .block import BlockContext, Label, check_index, check_label
from .lattice import Weight, eps_basis
from .loewy import Row

__all__ = [
    "ExtKind",
    "ext1_g1",
    "ext1_g1t_dim",
    "rad1_qhat",
]


class ExtKind(Enum):
    """Untwisted Ext^1 between two block simples, as a representation:
    zero, the standard representation, or its dual."""

    STANDARD = "standard"
    DUAL = "dual"
    ZERO = "zero"


@lru_cache(maxsize=16)
def _standard_weights(rank: int) -> frozenset[tuple[int, ...]]:
    """The coordinates of the standard representation's weights eps_k."""
    return frozenset(eps_basis(rank, k).coords for k in range(1, rank + 2))


def ext1_g1(ctx: BlockContext, i: int, j: int) -> ExtKind:
    """Untwisted Ext^1 from the i-th to the j-th block simple.

    Standard representation when j = i - 1, its dual when j = i + 1, zero
    otherwise (in particular on the diagonal).
    """
    check_index(ctx.n, i)
    check_index(ctx.n, j)
    if j == i - 1:
        return ExtKind.STANDARD
    if j == i + 1:
        return ExtKind.DUAL
    return ExtKind.ZERO


def ext1_g1t_dim(ctx: BlockContext, a: Label, b: Label) -> int:
    """Dimension of Ext^1 between the twisted simples labelled a = (i, x)
    and b = (j, y).

    Equals the multiplicity of x - y in the untwisted Ext representation,
    so it is 0 or 1, and it is symmetric in (a, b).
    """
    (i, x), (j, y) = a, b
    check_label(ctx, i, x)
    check_label(ctx, j, y)
    kind = ext1_g1(ctx, i, j)
    if kind is ExtKind.ZERO:
        return 0
    if kind is ExtKind.DUAL:
        # The dual's weights are the negatives -eps_k: y - x is one of eps_k.
        x, y = y, x
    return int(tuple(map(sub, x, y)) in _standard_weights(ctx.n))


def rad1_qhat(ctx: BlockContext, i: int, nu: Weight) -> list[Row]:
    """First radical layer of the projective cover of the simple (i, nu), as
    rows (block index, twist coordinates, multiplicity) in (block index,
    twist coordinates) order.

    The labels b with Ext^1 dimension one from (i, nu): the n + 1 downward
    neighbours (i - 1, nu - eps_k) and the n + 1 upward neighbours
    (i + 1, nu + eps_k), each once, dropping whichever side falls outside
    the block.  Sizes: n + 1 at the ends, 2n + 2 inside.
    """
    n, v = ctx.n, nu.coords
    check_label(ctx, i, v)
    rows: list[Row] = []
    for k in range(1, n + 2):
        # eps_k = w_k - w_{k-1} in fundamental coordinates, w_0 = w_{n+1} = 0.
        eps = [(s == k) - (s == k - 1) for s in range(1, n + 1)]
        if i > 0:
            rows.append((i - 1, tuple(map(sub, v, eps)), 1))
        if i < n:
            rows.append((i + 1, tuple(map(add, v, eps)), 1))
    rows.sort()
    return rows
