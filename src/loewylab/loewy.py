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
once per (n, i) as a nu = 0 pattern (a small bounded cache): the half
lists heads(k) and tails(l) of plain int tuples, and each layer's parts
as index triples (t, k, j - k).  Every layer API takes the Verma's label
(i, nu coordinates), and on each call every head list is translated by
nu's first i coordinates and every tail list by the rest, once each, and
the triples pick the translated lists by index.  `verma_blocks` returns the
layers, index 0 = head for radical series, in that product form: blocks
(t, heads, tails) whose labels are (t, head + tail).  The command line
writes a listing from the blocks, so it formats each head and tail once
and never builds the 2^n labels.  `verma_rows` is their flattening, each
layer as rows (block index, twist coordinates, multiplicity) in (block
index, twist) order, and `dual_verma_rows` the same rows reversed; the
`verify` battery reads those.  The two-layer parabolic covers are rows
too (`parabolic_m_structure`), so no layer leaves the module as labels.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from operator import add, sub

from .block import BlockContext, Label, check_index, check_label

__all__ = [
    "rad_layers_z_g1",
    "verma_blocks",
    "verma_rows",
    "dual_verma_rows",
    "composition_class_z_g1",
    "parabolic_m_structure",
    "layer_sizes",
]


def rad_layers_z_g1(ctx: BlockContext, i: int) -> list[dict[int, int]]:
    """Radical layers of the baby Verma over the Frobenius kernel alone.

    Twists are invisible here, so layers are keyed by block index:
    layer j holds lam_{i+j-2k} with multiplicity C(i, k) C(n-i, j-k).
    """
    check_index(ctx.n, i)
    n = ctx.n
    layers: list[dict[int, int]] = []
    for j in range(n + 1):
        layer: dict[int, int] = {}
        for k in range(0, min(i, j) + 1):
            t = i + j - 2 * k
            mult = comb(i, k) * comb(n - i, j - k)
            # mult > 0 forces j - k <= n - i, so t = (i - k) + (j - k) is in [0, n].
            if mult:
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


Block = tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]


@lru_cache(maxsize=32)
def _verma_pattern(n: int, i: int) -> tuple[tuple, tuple, tuple]:
    """The radical layers of the baby Verma lam_i at nu = 0, as
    (heads, tails, layers).

    heads[k] lists the head shifts -eps_X with |X| = k <= i and tails[l]
    the tail shifts +eps_Y with |Y| = l <= n - i, each sorted,
    duplicate-free and nonempty.  Layer j holds one triple (t, k, j - k)
    per k with j - k <= n - i, in increasing t = i + j - 2k (at most n):
    its labels are (t, head + tail) for every head in heads[k] and tail in
    tails[j - k], distinct and, triple by triple, in lexicographic order.
    """
    heads = tuple(_half_shifts(i, k, True) for k in range(i + 1))
    tails = tuple(_half_shifts(n - i, l, False) for l in range(n - i + 1))
    layers = tuple(
        tuple((i + j - 2 * k, k, j - k) for k in range(min(i, j), -1, -1) if j - k <= n - i)
        for j in range(n + 1)
    )
    return heads, tails, layers


Row = tuple[int, tuple[int, ...], int]


def verma_blocks(ctx: BlockContext, label: Label) -> list[list[Block]]:
    """Radical layers of the baby Verma with highest weight lam_i + p nu,
    label (i, nu coordinates), as blocks (t, heads, tails).

    A block's labels are (t, head + tail) for every head in `heads` and tail
    in `tails`, head-major, each with multiplicity one; a layer's blocks come
    in increasing t.  The heads are the pattern's heads translated by nu's
    first i coordinates and the tails its tails translated by the rest.
    At i = 0 every head is (), and at i = n every tail is.
    """
    i, v = check_label(ctx, label)
    # Lexicographic order is translation-invariant, so translating each
    # half list (once, shared by the blocks that read it) keeps every
    # block sorted.
    heads, tails, layers = _verma_pattern(ctx.n, i)
    v_head, v_tail = v[:i], v[i:]
    heads = [[tuple(map(add, v_head, h)) for h in hs] for hs in heads]
    tails = [[tuple(map(add, v_tail, s)) for s in ts] for ts in tails]
    return [[(t, heads[k], tails[l]) for t, k, l in layer] for layer in layers]


def verma_rows(ctx: BlockContext, label: Label) -> list[list[Row]]:
    """Radical layers of the baby Verma with label (i, nu coordinates), as
    rows (block index, twist coordinates, multiplicity).

    Each layer's rows are its blocks' labels (t, head + tail), in block
    order and head-major within a block, so in (block index, twist
    coordinates) order, and every multiplicity is one.
    """
    return [
        [(t, head + tail, 1) for t, heads, tails in blocks for head in heads for tail in tails]
        for blocks in verma_blocks(ctx, label)
    ]


def dual_verma_rows(ctx: BlockContext, label: Label) -> list[list[Row]]:
    """Radical layers of the dual (opposite) baby Verma with the same label,
    as rows.

    Its j-th radical layer equals radical layer n - j of the ordinary baby
    Verma, so the list is the reversal of `verma_rows`.  By rigidity the
    same list is the socle series of the baby Verma itself, bottom up:
    entry j is its (j+1)-st socle layer.
    """
    return verma_rows(ctx, label)[::-1]


def composition_class_z_g1(ctx: BlockContext, i: int) -> dict[int, int]:
    """Total composition multiplicities over the Frobenius kernel."""
    total: dict[int, int] = {}
    for layer in rad_layers_z_g1(ctx, i):
        for t, mult in layer.items():
            total[t] = total.get(t, 0) + mult
    return total


def parabolic_m_structure(ctx: BlockContext, label: Label, side: str) -> list[list[Row]]:
    """Radical layers of the parabolic baby cover of lam_i + p nu, label
    (i, nu coordinates), as rows.

    Away from its degenerate edge each cover is uniserial of length two,
    head (i, nu) on top of a single twisted neighbour, (i + 1, nu - w_n) on
    side "I" and (i - 1, nu - w_1) on side "J"; at the edge (side "I" with
    i = n, side "J" with i = 0) the cover is the full baby Verma and its
    `verma_rows` are returned instead.
    """
    i, v = check_label(ctx, label)
    n = ctx.n
    if side == "I":
        if i == n:
            return verma_rows(ctx, label)
        below = (i + 1, (*v[:-1], v[-1] - 1), 1)
    elif side == "J":
        if i == 0:
            return verma_rows(ctx, label)
        below = (i - 1, (v[0] - 1, *v[1:]), 1)
    else:
        raise ValueError(f'side must be "I" or "J" (got {side!r})')
    return [[(i, v, 1)], [below]]


def layer_sizes(layers: list[dict]) -> list[int]:
    """Total multiplicity in each layer."""
    return [sum(layer.values()) for layer in layers]
