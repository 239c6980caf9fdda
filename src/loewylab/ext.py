"""Ext groups between simples in the block, and the projective radical top.

Between simples of the block, Ext^1 over the Frobenius kernel vanishes
unless the block indices are adjacent, in which case (after untwisting)
it is the standard (n+1)-dimensional representation or its dual.  The
standard representation has the n + 1 pairwise-distinct weights
eps_1, ..., eps_{n+1}, each with multiplicity one, which is what turns the
Ext rule into exact label arithmetic: the twist-graded Ext dimension reads
off one weight multiplicity, and the first radical layer of the projective
cover is exactly the multiset of labels with Ext dimension one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache

from .block import BlockContext, IrreducibleLabel, check_index
from .lattice import Weight, eps_basis

__all__ = [
    "ExtKind",
    "ExtDescriptor",
    "ext1_g1",
    "ext1_g1t_dim",
    "rad1_qhat",
]


class ExtKind(Enum):
    STANDARD = "standard"
    DUAL = "dual"
    ZERO = "zero"


@cache
def _standard_weights(rank: int) -> frozenset[Weight]:
    return frozenset(eps_basis(rank, k) for k in range(1, rank + 2))


@dataclass(frozen=True)
class ExtDescriptor:
    """Untwisted Ext^1 between two block simples, as a representation.

    Either zero, the standard representation, or its dual; the weight data
    is all multiplicity one.
    """

    kind: ExtKind
    rank: int

    def multiplicity(self, w: Weight) -> int:
        if self.kind is ExtKind.STANDARD:
            return int(w in _standard_weights(self.rank))
        if self.kind is ExtKind.DUAL:
            return int(-w in _standard_weights(self.rank))
        return 0


def ext1_g1(ctx: BlockContext, i: int, j: int) -> ExtDescriptor:
    """Untwisted Ext^1 from the i-th to the j-th block simple.

    Standard representation when j = i - 1, its dual when j = i + 1, zero
    otherwise (in particular on the diagonal).
    """
    n = ctx.n
    check_index(ctx, i)
    check_index(ctx, j)
    if j == i - 1:
        return ExtDescriptor(ExtKind.STANDARD, n)
    if j == i + 1:
        return ExtDescriptor(ExtKind.DUAL, n)
    return ExtDescriptor(ExtKind.ZERO, n)


def ext1_g1t_dim(ctx: BlockContext, a: IrreducibleLabel, b: IrreducibleLabel) -> int:
    """Dimension of Ext^1 between the twisted simples labelled a and b.

    Equals the multiplicity of a.nu - b.nu in the untwisted Ext
    representation, so it is 0 or 1, and it is symmetric in (a, b).
    """
    return ext1_g1(ctx, a.i, b.i).multiplicity(a.nu - b.nu)


def rad1_qhat(ctx: BlockContext, i: int, nu: Weight) -> dict[IrreducibleLabel, int]:
    """First radical layer of the projective cover of the simple (i, nu).

    The multiset of labels b with Ext^1 dimension one from (i, nu): the
    n + 1 downward neighbours (i - 1, nu - eps_k) and the n + 1 upward
    neighbours (i + 1, nu + eps_k), each once, dropping whichever side
    falls outside the block.  Sizes: n + 1 at the ends, 2n + 2 inside.
    """
    n = ctx.n
    check_index(ctx, i)
    if nu.rank != n:
        raise ValueError("rank mismatch")
    layer: dict[IrreducibleLabel, int] = {}
    for k in range(1, n + 2):
        eps = eps_basis(n, k)
        if i > 0:
            layer[IrreducibleLabel(i - 1, nu - eps)] = 1
        if i < n:
            layer[IrreducibleLabel(i + 1, nu + eps)] = 1
    return layer
