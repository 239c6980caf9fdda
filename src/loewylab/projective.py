"""Loewy layers of projective covers in the block, by Verma convolution.

A projective cover is filtered by baby Vermas, and its radical layers are
obtained by stacking each Verma's own layers starting at the filtration
depth where that Verma sits.  The support of the filtration is computed
exactly: the baby Verma with label (t, eta) contains the target simple
(i, nu) in its layer k for at most one (k, X, Y), which pins down both the
depth and the BGG multiplicity.

The resulting layer table has 2n + 1 palindromic layers.  That shape (and
being the radical series at all) is CONDITIONAL on the projective cover
having Loewy length exactly 2n + 1, which is conjectural; consumers should
surface the flag key below.  The BGG multiplicities and the total
composition multiplicities are unconditional.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .block import BlockContext, IrreducibleLabel, check_index
from .lattice import Weight
from .loewy import _layer_shifts, rad_layers_z_g1t

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
    """One baby Verma in the filtration: its label, depth, multiplicity."""

    verma: IrreducibleLabel
    layer: int
    mult: int


def verma_support(ctx: BlockContext, i: int, nu: Weight) -> list[VermaSupportEntry]:
    """All baby Vermas whose layers contain the simple (i, nu), with depth.

    Entry (t, eta) at depth k records that the simple sits in radical layer
    k of the baby Verma lam_t + p eta; the eta are nu minus the Verma layer
    formula's twist shifts (`loewy._layer_shifts` at t), so the list is
    finite and multiplicity-free.
    """
    n = ctx.n
    check_index(ctx, i)
    if nu.rank != n:
        raise ValueError("rank mismatch")
    entries: list[VermaSupportEntry] = []
    for t in range(n + 1):
        for x_size in range(0, t + 1):
            k = i - t + 2 * x_size
            y_size = k - x_size
            if k < 0 or y_size < 0 or y_size > n - t:
                continue
            for shift in _layer_shifts(n, t, x_size, y_size):
                entries.append(VermaSupportEntry(IrreducibleLabel(t, nu - shift), k, 1))
    return entries


def rad_layers_qhat(
    ctx: BlockContext, i: int, nu: Weight
) -> list[dict[IrreducibleLabel, int]]:
    """Radical layers of the projective cover of the simple (i, nu).

    Stacks each supporting baby Verma's radical layers at its depth.  The
    result has 2n + 1 layers, palindromic, with layer 0 the head and layer
    1 equal to `ext.rad1_qhat`.  Conditional on the Loewy length
    conjecture; see the module docstring.
    """
    n = ctx.n
    layers: list[dict[IrreducibleLabel, int]] = [{} for _ in range(2 * n + 1)]
    for entry in verma_support(ctx, i, nu):
        verma_layers = rad_layers_z_g1t(ctx, entry.verma.i, entry.verma.nu)
        for depth, verma_layer in enumerate(verma_layers):
            target = layers[entry.layer + depth]
            for label, mult in verma_layer.items():
                target[label] = target.get(label, 0) + entry.mult * mult
    while layers and not layers[-1]:
        layers.pop()
    return layers


def bgg_multiplicity(
    ctx: BlockContext, target: IrreducibleLabel, verma: IrreducibleLabel
) -> int:
    """Multiplicity of a baby Verma in the cover of `target` (0 or 1 here)."""
    return sum(
        e.mult
        for e in verma_support(ctx, target.i, target.nu)
        if e.verma == verma
    )


def q_composition_mult_g1(ctx: BlockContext, i: int, j: int) -> int:
    """Total multiplicity of the j-th simple in the cover of the i-th,
    over the Frobenius kernel: (n + 1) C(n, i) C(n, j)."""
    n = ctx.n
    check_index(ctx, i)
    check_index(ctx, j)
    return (n + 1) * comb(n, i) * comb(n, j)
