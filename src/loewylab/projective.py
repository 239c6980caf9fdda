"""Loewy layers of projective covers in the block, by Verma convolution.

A projective cover is filtered by baby Vermas, and its radical layers are
obtained by stacking each Verma's own layers starting at the filtration
depth where that Verma sits.  The support of the filtration is computed
exactly: the baby Verma with label (t, eta) contains the target simple
(i, nu) in its layer k for at most one (k, X, Y), which pins down both the
depth and the BGG multiplicity.  Like the Verma layers, the support and
the stacked table depend on nu only by translation, and both read the
Vermas' cached nu = 0 block patterns (`loewy._verma_pattern`): the support
is the blocks of block index i, negated, and each supporting Verma's
blocks are stacked over plain int tuples with eta split at t into head and
tail the same way.  nu is added to each distinct label at the end.

The resulting layer table has 2n + 1 palindromic layers.  That shape (and
being the radical series at all) is CONDITIONAL on the projective cover
having Loewy length exactly 2n + 1, which is conjectural; consumers should
surface the flag key below.  The BGG multiplicities and the total
composition multiplicities are unconditional.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import comb
from operator import add, neg

from .block import BlockContext, IrreducibleLabel, check_index
from .lattice import Weight, _weight
from .loewy import _verma_pattern

__all__ = [
    "CONDITIONAL_FLAG_KEY",
    "VermaSupportEntry",
    "verma_support",
    "rad_layers_qhat",
    "bgg_multiplicity",
    "q_composition_mult_g1",
]

CONDITIONAL_FLAG_KEY = "conditional_on_loewy_length_conjecture"


@dataclass(frozen=True)
class VermaSupportEntry:
    """One baby Verma in the filtration: its label and depth.  The
    filtration is multiplicity-free, so each Verma has one entry."""

    verma: IrreducibleLabel
    layer: int


def _support(n: int, i: int) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...], int]]:
    """The filtration of the cover of (i, 0) as (t, eta head, eta tail, depth):
    the Verma lam_t + p eta, eta = -(head shift + tail shift) for each label
    (i, shift) in layer `depth` of the Verma pattern at t, split at t."""
    for t in range(n + 1):
        for depth, blocks in enumerate(_verma_pattern(n, t)):
            for u, heads, tails in blocks:
                if u != i:
                    continue
                neg_tails = [tuple(map(neg, tail)) for tail in tails]
                for head in heads:
                    neg_head = tuple(map(neg, head))
                    for neg_tail in neg_tails:
                        yield t, neg_head, neg_tail, depth


def _check_twist(ctx: BlockContext, i: int, nu: Weight) -> None:
    check_index(ctx, i)
    if nu.rank != ctx.n:
        raise ValueError("rank mismatch")


def verma_support(ctx: BlockContext, i: int, nu: Weight) -> list[VermaSupportEntry]:
    """All baby Vermas whose layers contain the simple (i, nu), with depth.

    Entry (t, eta) at depth k records that the simple sits in radical layer
    k of the baby Verma lam_t + p eta; the eta are nu minus the Verma layer
    formula's twist shifts (the blocks of `loewy._verma_pattern` at t), so
    the list is finite and multiplicity-free.
    """
    _check_twist(ctx, i, nu)
    v = nu.coords
    return [
        VermaSupportEntry(IrreducibleLabel(t, _weight(tuple(map(add, v, head + tail)))), k)
        for t, head, tail, k in _support(ctx.n, i)
    ]


def rad_layers_qhat(
    ctx: BlockContext, i: int, nu: Weight
) -> list[dict[IrreducibleLabel, int]]:
    """Radical layers of the projective cover of the simple (i, nu).

    Stacks each supporting baby Verma's radical layers at its depth.  The
    result has 2n + 1 layers, palindromic, with layer 0 the head and layer
    1 equal to `ext.rad1_qhat`.  Conditional on the Loewy length
    conjecture; see the module docstring.
    """
    _check_twist(ctx, i, nu)
    n = ctx.n
    counts: list[dict[tuple[int, tuple[int, ...]], int]] = [{} for _ in range(2 * n + 1)]
    for t, eta_head, eta_tail, depth in _support(n, i):
        for target, blocks in zip(counts[depth:], _verma_pattern(n, t)):
            for u, heads, tails in blocks:
                moved_tails = [tuple(map(add, eta_tail, tail)) for tail in tails]
                for head in heads:
                    moved = tuple(map(add, eta_head, head))
                    for tail in moved_tails:
                        key = u, moved + tail
                        target[key] = target.get(key, 0) + 1
    while counts and not counts[-1]:
        counts.pop()
    v = nu.coords
    layers: list[dict[IrreducibleLabel, int]] = []
    for j, counted in enumerate(counts):
        counts[j] = None
        layers.append(
            {IrreducibleLabel(u, _weight(tuple(map(add, v, c)))): m for (u, c), m in counted.items()}
        )
    return layers


def bgg_multiplicity(
    ctx: BlockContext, target: IrreducibleLabel, verma: IrreducibleLabel
) -> int:
    """Multiplicity of a baby Verma in the cover of `target` (0 or 1 here)."""
    return sum(1 for e in verma_support(ctx, target.i, target.nu) if e.verma == verma)


def q_composition_mult_g1(ctx: BlockContext, i: int, j: int) -> int:
    """Total multiplicity of the j-th simple in the cover of the i-th,
    over the Frobenius kernel: (n + 1) C(n, i) C(n, j)."""
    n = ctx.n
    check_index(ctx, i)
    check_index(ctx, j)
    return (n + 1) * comb(n, i) * comb(n, j)
