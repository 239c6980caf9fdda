"""Loewy layers of projective covers in the block, by Verma convolution.

A projective cover is filtered by baby Vermas, and its radical layers are
obtained by stacking each Verma's own layers starting at the filtration
depth where that Verma sits.  The support of the filtration is computed
exactly: the baby Verma with label (t, eta) contains the target simple
(i, nu) in its layer k for at most one (k, X, Y), which pins down both the
depth and the BGG multiplicity.  Like the Verma layers, the support and
the stacked table depend on nu only by translation: the Vermas' cached
nu = 0 patterns (`loewy._verma_pattern`) are stacked once over plain int
tuples, and nu is added to each distinct label at the end.

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
from operator import add

from .block import BlockContext, IrreducibleLabel, check_index
from .lattice import Weight
from .loewy import _layer_shifts, _verma_pattern

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


def _support(n: int, i: int) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """The filtration of the cover of (i, 0) as (t, eta coordinates, depth)
    triples: eta is minus a layer-formula shift at t."""
    for t in range(n + 1):
        for x_size in range(0, t + 1):
            k = i - t + 2 * x_size
            y_size = k - x_size
            if k < 0 or y_size < 0 or y_size > n - t:
                continue
            for shift in _layer_shifts(n, t, x_size, y_size):
                yield t, tuple(-c for c in shift), k


def _check_twist(ctx: BlockContext, i: int, nu: Weight) -> None:
    check_index(ctx, i)
    if nu.rank != ctx.n:
        raise ValueError("rank mismatch")


def verma_support(ctx: BlockContext, i: int, nu: Weight) -> list[VermaSupportEntry]:
    """All baby Vermas whose layers contain the simple (i, nu), with depth.

    Entry (t, eta) at depth k records that the simple sits in radical layer
    k of the baby Verma lam_t + p eta; the eta are nu minus the Verma layer
    formula's twist shifts (`loewy._layer_shifts` at t), so the list is
    finite and multiplicity-free.
    """
    _check_twist(ctx, i, nu)
    v = nu.coords
    return [
        VermaSupportEntry(IrreducibleLabel(t, Weight(tuple(map(add, v, eta)))), k)
        for t, eta, k in _support(ctx.n, i)
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
    for t, eta, depth in _support(n, i):
        for target, pattern_layer in zip(counts[depth:], _verma_pattern(n, t)):
            for u, shift in pattern_layer:
                key = u, tuple(map(add, eta, shift))
                target[key] = target.get(key, 0) + 1
    while counts and not counts[-1]:
        counts.pop()
    v = nu.coords
    layers: list[dict[IrreducibleLabel, int]] = []
    for j, counted in enumerate(counts):
        counts[j] = None
        layers.append(
            {IrreducibleLabel(u, Weight(tuple(map(add, v, c)))): m for (u, c), m in counted.items()}
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
