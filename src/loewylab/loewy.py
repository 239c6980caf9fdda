"""Radical and socle series of baby Verma modules in the singular block.

The closed form: the j-th radical layer of the baby Verma with highest
weight lam_i + p nu is multiplicity-free over pairs (X, Y), where X picks
k slots from [1, i], Y picks j - k slots from [i + 2, n + 1], and the pair
contributes the label (i + j - 2k, nu - eps_X + eps_Y).  The Loewy length
is always n + 1, layer j carries C(n, j) composition factors, and the
modules are rigid, so the socle series and the dual Verma's radical series
are index reversals of the same list.

The labels depend on nu only by translation, so the layers are computed
once per (n, i) as a nu = 0 pattern over plain int tuples (a small bounded
cache) and translated by nu on each call.  Layers are returned as fresh
``dict[label, multiplicity]`` maps, ordered bottom index 0 = head for
radical series.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import add, sub

from .block import BlockContext, IrreducibleLabel, check_index
from .lattice import Weight, fundamental

__all__ = [
    "rad_layers_z_g1",
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


def _layer_shifts(n: int, i: int, x: int, y: int) -> Iterator[tuple[int, ...]]:
    """The twist shifts -eps_X + eps_Y of the layer formula at block index i,
    as fundamental coordinates.

    X runs over the x-subsets of [1, i] and Y over the y-subsets of
    [i + 2, n + 1], in `combinations` order with X outermost.
    """
    for xs in combinations(range(1, i + 1), x):
        head = [0] * (n + 1)
        for k in xs:
            head[k - 1] = -1
        for ys in combinations(range(i + 2, n + 2), y):
            coeffs = head.copy()
            for k in ys:
                coeffs[k - 1] = 1
            yield tuple(map(sub, coeffs, coeffs[1:]))


@lru_cache(maxsize=32)
def _verma_pattern(n: int, i: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """The radical layers of the baby Verma lam_i at nu = 0: per layer, its
    (block index, shift coordinates) pairs, each exactly once."""
    layers = []
    for j in range(n + 1):
        layer: dict[tuple[int, tuple[int, ...]], None] = {}
        for k in range(0, min(i, j) + 1):
            t = i + j - 2 * k
            if t > n:
                continue
            for shift in _layer_shifts(n, i, k, j - k):
                if (t, shift) in layer:
                    label = IrreducibleLabel(t, Weight(shift))
                    raise RuntimeError(f"layer {j} labels must be distinct: {label} repeats")
                layer[t, shift] = None
        layers.append(tuple(layer))
    return tuple(layers)


def rad_layers_z_g1t(
    ctx: BlockContext, i: int, nu: Weight
) -> list[dict[IrreducibleLabel, int]]:
    """Radical layers of the baby Verma with highest weight lam_i + p nu.

    Every composition factor within a layer occurs with multiplicity one;
    summed over the twist, layer j matches `rad_layers_z_g1`.
    """
    check_index(ctx, i)
    if nu.rank != ctx.n:
        raise ValueError("rank mismatch")
    v = nu.coords
    return [
        {IrreducibleLabel(t, Weight(tuple(map(add, v, shift)))): 1 for t, shift in layer}
        for layer in _verma_pattern(ctx.n, i)
    ]


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
