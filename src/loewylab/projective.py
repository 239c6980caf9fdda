"""Loewy layers of projective covers in the block, by Verma convolution.

A projective cover is filtered by baby Vermas, and its radical layers are
obtained by stacking each Verma's own layers starting at the filtration
depth where that Verma sits.  The support of the filtration is computed
exactly: the baby Verma with label (t, eta) contains the target simple
(i, nu) in its layer k for at most one (k, X, Y), which pins down both the
depth and the BGG multiplicity.  Like the Verma layers, the support and
the stacked table depend on nu only by translation, and both read the
Vermas' cached nu = 0 block patterns (`loewy._verma_pattern`): the support
is the blocks of block index i, negated.

The cover is stacked at nu = 0 over packed ints.  A label (u, c) is the key
u B^n + sum_k c_k B^(n-k) with B = 256, and each Verma pattern layer is
flattened once per (n, t) into such keys (a small bounded cache).  The
packing is linear, so translating a Verma by eta is adding eta's key, and
each supporting Verma is one `Counter.update` per layer.  Pattern
coordinates lie in {-1, 0, 1}, so the stacked coordinates lie in [-2, 2]:
these balanced digits decode uniquely, and numeric order on keys is
(u, coordinates) order.  The distinct keys are sorted and decoded once,
and nu is added while decoding, never packed.  `cover_rows` returns the
layers as rows (block index, twist coordinates, multiplicity);
`rad_layers_qhat` is a view of them as labels.

The resulting layer table has 2n + 1 palindromic layers.  That shape (and
being the radical series at all) is CONDITIONAL on the projective cover
having Loewy length exactly 2n + 1, which is conjectural; consumers should
surface the flag key below.  The BGG multiplicities and the total
composition multiplicities are unconditional.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import add, neg

from .block import BlockContext, IrreducibleLabel, check_index
from .lattice import Weight, _weight
from .loewy import Row, _verma_pattern

__all__ = [
    "CONDITIONAL_FLAG_KEY",
    "VermaSupportEntry",
    "verma_support",
    "cover_rows",
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


_BASE = 256


def _pack(u: int, coords: tuple[int, ...]) -> int:
    """The key u B^n + sum_k c_k B^(n-k) of the label (u, coords)."""
    key = u
    for c in coords:
        key = key * _BASE + c
    return key


@lru_cache(maxsize=32)
def _packed_pattern(n: int, t: int) -> tuple[tuple[int, ...], ...]:
    """The layers of `loewy._verma_pattern(n, t)`, each flattened to keys.

    Raises RuntimeError if a pattern coordinate lies outside {-1, 0, 1}:
    stacked covers would then leave the digits that decode uniquely.
    """
    layers = []
    for blocks in _verma_pattern(n, t):
        keys: list[int] = []
        for u, heads, tails in blocks:
            for shift in (*heads, *tails):
                if not set(shift) <= {-1, 0, 1}:
                    raise RuntimeError(
                        f"packed cover labels need pattern coordinates in {{-1, 0, 1}}: "
                        f"shift {shift} of the Verma pattern at (n, t) = ({n}, {t})"
                    )
            keys += [_pack(_pack(u, head), tail) for head in heads for tail in tails]
        layers.append(tuple(keys))
    return tuple(layers)


def cover_rows(ctx: BlockContext, i: int, nu: Weight) -> list[list[Row]]:
    """Radical layers of the projective cover of the simple (i, nu), as rows
    (block index, twist coordinates, multiplicity) in (block index, twist
    coordinates) order.

    Stacks each supporting baby Verma's radical layers at its depth.  The
    result has 2n + 1 layers, palindromic, with layer 0 the head and layer
    1 equal to `ext.rad1_qhat`.  Conditional on the Loewy length
    conjecture; see the module docstring.
    """
    _check_twist(ctx, i, nu)
    n = ctx.n
    counts = [Counter() for _ in range(2 * n + 1)]
    for t, eta_head, eta_tail, depth in _support(n, i):
        eta = _pack(0, eta_head + eta_tail)
        for counter, keys in zip(counts[depth:], _packed_pattern(n, t)):
            counter.update(map(eta.__add__, keys))
    while counts and not counts[-1]:
        counts.pop()
    # Biasing every digit by B/2 makes them the bytes of the key's low part.
    half = _BASE // 2
    bias, top = _pack(0, (half,) * n), _BASE**n
    offsets = tuple(c - half for c in nu.coords)
    layers = []
    for j, counter in enumerate(counts):
        counts[j] = None
        rows: list[Row] = []
        for key in sorted(counter):
            u, low = divmod(key + bias, top)
            rows.append((u, tuple(map(add, low.to_bytes(n, "big"), offsets)), counter[key]))
        layers.append(rows)
    return layers


def rad_layers_qhat(
    ctx: BlockContext, i: int, nu: Weight
) -> list[dict[IrreducibleLabel, int]]:
    """Radical layers of the projective cover of the simple (i, nu): a view
    of `cover_rows` as labels.  Conditional on the Loewy length conjecture;
    see the module docstring.
    """
    return [{IrreducibleLabel(u, _weight(c)): m for u, c, m in rows} for rows in cover_rows(ctx, i, nu)]


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
