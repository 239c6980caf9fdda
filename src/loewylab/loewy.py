"""Radical and socle series of baby Verma modules in the singular block.

The closed form: the j-th radical layer of the baby Verma with highest
weight lam_i + p nu is multiplicity-free over pairs (X, Y), where X picks
k slots from [1, i], Y picks j - k slots from [i + 2, n + 1], and the pair
contributes the label (i + j - 2k, nu - eps_X + eps_Y).  The Loewy length
is always n + 1, layer j carries C(n, j) composition factors, and the
modules are rigid, so the socle series and the dual Verma's radical series
are index reversals of the same list.

Slot i + 1 is never moved, so in fundamental coordinates the shift
-eps_X + eps_Y splits in two: -eps_X lives on coordinates 1..i alone and
eps_Y on coordinates i + 1..n alone.  Each (j, k) part of a layer is
therefore a product heads(k) x tails(j - k), and the layers are computed
once per (n, i) as a nu = 0 pattern of such blocks over plain int tuples
(a small bounded cache).  On each call the heads are translated by nu's
first i coordinates and the tails by the rest, and each label is one tuple
concatenation.  `verma_rows` returns the layers, index 0 = head for
radical series, each as rows (block index, twist coordinates,
multiplicity) in (block index, twist) order; the
``dict[label, multiplicity]`` layers of `rad_layers_z_g1t` are a view of
those rows, their weights built without re-validation.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from operator import add, sub

from .block import BlockContext, IrreducibleLabel, check_index
from .lattice import Weight, _weight, fundamental

__all__ = [
    "rad_layers_z_g1",
    "verma_rows",
    "rad_layers_z_g1t",
    "rad_layers_zprime_g1t",
    "composition_class_z_g1",
    "parabolic_m_structure",
    "layer_sizes",
]


def rad_layers_z_g1(ctx: BlockContext, i: int) -> list[dict[int, int]]:
    """Radical layers of the baby Verma over the Frobenius kernel alone.

    Twists are invisible here, so layers are keyed by block index:
    layer j holds lam_{i+j-2k} with multiplicity C(i, k) C(n-i, j-k).
    """
    check_index(ctx, i)
    n = ctx.n
    layers: list[dict[int, int]] = []
    for j in range(n + 1):
        layer: dict[int, int] = {}
        for k in range(0, min(i, j) + 1):
            t = i + j - 2 * k
            mult = comb(i, k) * comb(n - i, j - k)
            if 0 <= t <= n and mult:
                layer[t] = mult
        layers.append(layer)
    return layers


def _half_shifts(length: int, size: int, head: bool) -> tuple[tuple[int, ...], ...]:
    """One half of the layer formula's twist shifts -eps_X + eps_Y, as
    sorted fundamental coordinates.

    Slot i + 1 is never moved, so -eps_X (X a subset of [1, i]) lives on
    coordinates 1..i alone and +eps_Y (Y a subset of [i + 2, n + 1]) on
    coordinates i + 1..n alone.  A head is -eps_X over its i coordinates
    (`length` = i, X of `size` slots); a tail is +eps_Y over its n - i.
    Raises RuntimeError if two subsets give the same shift, since a layer's
    labels must be distinct.
    """
    shifts = []
    for picks in combinations(range(length), size):
        eps = [0] * (length + 1)
        for s in picks:
            if head:
                eps[s] = -1
            else:
                eps[s + 1] = 1
        shifts.append(tuple(map(sub, eps, eps[1:])))
    shifts.sort()
    for shift, after in zip(shifts, shifts[1:]):
        if shift == after:
            half = "head" if head else "tail"
            raise RuntimeError(f"layer labels must be distinct: {half} shift {shift} repeats")
    return tuple(shifts)


Block = tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


@lru_cache(maxsize=32)
def _verma_pattern(n: int, i: int) -> tuple[tuple[Block, ...], ...]:
    """The radical layers of the baby Verma lam_i at nu = 0, as blocks.

    Layer j holds one block (t, heads, tails) per k with t = i + j - 2k <= n,
    in increasing t: its labels are (t, head + tail) for every head in
    `heads` (the shifts -eps_X, |X| = k) and tail in `tails` (+eps_Y,
    |Y| = j - k).  Both lists are sorted and duplicate-free, so the labels
    of a layer are distinct and, block by block, in lexicographic order.
    """
    layers = []
    for j in range(n + 1):
        layers.append(tuple(
            (i + j - 2 * k, _half_shifts(i, k, True), _half_shifts(n - i, j - k, False))
            for k in range(min(i, j), -1, -1)
            if i + j - 2 * k <= n
        ))
    return tuple(layers)


Row = tuple[int, tuple[int, ...], int]


def verma_rows(ctx: BlockContext, i: int, nu: Weight) -> list[list[Row]]:
    """Radical layers of the baby Verma with highest weight lam_i + p nu,
    as rows (block index, twist coordinates, multiplicity).

    Each layer's rows are in (block index, twist coordinates) order, and
    every multiplicity is one.
    """
    check_index(ctx, i)
    if nu.rank != ctx.n:
        raise ValueError("rank mismatch")
    # Lexicographic order is translation-invariant, so translating each
    # head by nu's first i coordinates and each tail by the rest keeps
    # every block sorted.
    v_head, v_tail = nu.coords[:i], nu.coords[i:]
    layers = []
    for blocks in _verma_pattern(ctx.n, i):
        rows: list[Row] = []
        for t, heads, tails in blocks:
            moved_tails = [tuple(map(add, v_tail, tail)) for tail in tails]
            for head in heads:
                moved = tuple(map(add, v_head, head))
                rows += [(t, moved + tail, 1) for tail in moved_tails]
        layers.append(rows)
    return layers


def rad_layers_z_g1t(
    ctx: BlockContext, i: int, nu: Weight
) -> list[dict[IrreducibleLabel, int]]:
    """Radical layers of the baby Verma with highest weight lam_i + p nu.

    Every composition factor within a layer occurs with multiplicity one;
    summed over the twist, layer j matches `rad_layers_z_g1`.  Each layer
    iterates in (block index, twist coordinates) order: it is a view of
    `verma_rows`.
    """
    return [{IrreducibleLabel(t, _weight(c)): m for t, c, m in rows} for rows in verma_rows(ctx, i, nu)]


def rad_layers_zprime_g1t(
    ctx: BlockContext, i: int, nu: Weight
) -> list[dict[IrreducibleLabel, int]]:
    """Radical layers of the dual (opposite) baby Verma with the same label.

    Its j-th radical layer equals radical layer n - j of the ordinary baby
    Verma, so the list is the reversal.  By rigidity the same list is the
    socle series of the baby Verma itself, bottom up: entry j is its
    (j+1)-st socle layer.
    """
    return list(reversed(rad_layers_z_g1t(ctx, i, nu)))


def composition_class_z_g1(ctx: BlockContext, i: int) -> dict[int, int]:
    """Total composition multiplicities over the Frobenius kernel."""
    total: dict[int, int] = {}
    for layer in rad_layers_z_g1(ctx, i):
        for t, mult in layer.items():
            total[t] = total.get(t, 0) + mult
    return total


def parabolic_m_structure(
    ctx: BlockContext, i: int, nu: Weight, side: str
) -> list[dict[IrreducibleLabel, int]]:
    """Radical layers of the parabolic baby cover of lam_i + p nu.

    Away from its degenerate edge each cover is uniserial of length two,
    head (i, nu) on top of a single twisted neighbour; at the edge (side
    "I" with i = n, side "J" with i = 0) the cover is the full baby Verma
    and its layers are returned instead.
    """
    check_index(ctx, i)
    n = ctx.n
    head = IrreducibleLabel(i, nu)
    if side == "I":
        if i == n:
            return rad_layers_z_g1t(ctx, n, nu)
        sub = IrreducibleLabel(i + 1, nu - fundamental(n, n))
    elif side == "J":
        if i == 0:
            return rad_layers_z_g1t(ctx, 0, nu)
        sub = IrreducibleLabel(i - 1, nu - fundamental(n, 1))
    else:
        raise ValueError(f'side must be "I" or "J" (got {side!r})')
    return [{head: 1}, {sub: 1}]


def layer_sizes(layers: list[dict]) -> list[int]:
    """Total multiplicity in each layer."""
    return [sum(layer.values()) for layer in layers]
