"""Loewy layers of projective covers in the block, by Verma convolution.

A projective cover is filtered by baby Vermas, and its radical layers are
obtained by stacking each Verma's own layers starting at the filtration
depth where that Verma sits.  The support of the filtration is computed
exactly: the baby Verma with label (t, eta) contains the target simple
(i, nu) in its layer k for at most one (k, X, Y), which pins down both the
depth and the BGG multiplicity.  Like the Verma layers, the support and
the stacked table depend on nu only by translation, and both read the
Vermas' cached nu = 0 block patterns (`loewy._verma_pattern`): the support
is the blocks of block index i, negated, and `verma_support` returns it as
rows (t, eta coordinates, depth).

The cover is stacked at nu = 0 over packed ints.  A label (u, c) is the key
u B^n + sum_k c_k B^(n-k) with B = 256, and each Verma pattern layer is
flattened once per (n, t) into such keys (a small bounded cache).  The
packing is linear, so translating a Verma by eta is adding eta's key, and
each cover layer is one `Counter` over the translated keys of every
supporting Verma layer that lands in it.  Pattern coordinates lie in
{-1, 0, 1}, so the stacked coordinates lie in [-2, 2]: these balanced
digits decode uniquely, and numeric order on keys is (u, coordinates)
order.  A layer's distinct keys are sorted and decoded in bulk: biased by
B/2 in every digit, each key is n + 1 bytes (a block index that does not
fit its byte raises, never wraps), and with the bytes' high bits flipped
the joined keys read back as signed bytes, the block indices by one slice
and the coordinates by one struct unpack.  nu is added per row after
decoding, and only when nu != 0, never packed.  Layer j of a palindromic
cover equals its mirror layer 2n - j, so a layer whose counter compares
equal to its mirror's, already decoded, gets a copy of the mirror's rows;
the comparison is real, and a table that is not palindromic decodes every
layer.  `cover_rows` returns the layers as rows (block index, twist
coordinates, multiplicity), and `bgg_multiplicity` takes its labels as the
same (block index, twist coordinates) pairs.

The resulting layer table has 2n + 1 palindromic layers.  That shape (and
being the radical series at all) is CONDITIONAL on the projective cover
having Loewy length exactly 2n + 1, which is conjectural; consumers should
surface the flag key below.  The BGG multiplicities and the total
composition multiplicities are unconditional.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from functools import lru_cache
from itertools import chain
from math import comb
from operator import add, neg
from struct import Struct

from .block import BlockContext, Label, check_index, check_label
from .lattice import Weight
from .loewy import Row, _verma_pattern

__all__ = [
    "CONDITIONAL_FLAG_KEY",
    "verma_support",
    "cover_rows",
    "bgg_multiplicity",
    "q_composition_mult_g1",
]

CONDITIONAL_FLAG_KEY = "conditional_on_loewy_length_conjecture"


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


def verma_support(ctx: BlockContext, i: int, nu: Weight) -> list[Row]:
    """All baby Vermas whose layers contain the simple (i, nu), as rows
    (t, eta coordinates, depth).

    Row (t, eta, k) records that the simple sits in radical layer k of the
    baby Verma lam_t + p eta; the eta are nu minus the Verma layer formula's
    twist shifts (the blocks of `loewy._verma_pattern` at t), so the list is
    finite and multiplicity-free.
    """
    v = nu.coords
    check_label(ctx, i, v)
    return [(t, tuple(map(add, v, head + tail)), k) for t, head, tail, k in _support(ctx.n, i)]


_BASE = 256
_HALF = _BASE // 2
# A biased digit d + B/2 with its high bit flipped is d as a signed byte.
_FLIP = bytes(b ^ _HALF for b in range(_BASE))


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
    check_label(ctx, i, nu.coords)
    n = ctx.n
    feeds = [[] for _ in range(2 * n + 1)]
    for t, eta_head, eta_tail, depth in _support(n, i):
        eta = _pack(0, eta_head + eta_tail)
        for feed, keys in zip(feeds[depth:], _packed_pattern(n, t)):
            feed.append(map(eta.__add__, keys))
    counts = [Counter(chain.from_iterable(feed)) for feed in feeds]
    while counts and not counts[-1]:
        counts.pop()
    layers: list[list[Row]] = []
    for j, counter in enumerate(counts):
        mirror = 2 * n - j
        # dict equality, in C: Counter's own == is Python code that reads
        # missing keys as zero counts, and no count here is zero.
        if mirror < j and dict.__eq__(counter, counts[mirror]):
            layers.append(list(layers[mirror]))
        else:
            layers.append(_decode(counter, n, nu.coords))
    return layers


def _decode(counter: Counter, n: int, v: tuple[int, ...]) -> list[Row]:
    """The rows (u, c + v, multiplicity) of one stacked layer's keys, in key
    order.

    Each key, biased, is n + 1 bytes, which read back as signed bytes: the
    block index, then the coordinates.  Raises OverflowError if a block
    index does not fit its byte.
    """
    keys = sorted(counter)
    width, bias = n + 1, _pack(_HALF, (_HALF,) * n)
    data = b"".join([(key + bias).to_bytes(width, "big") for key in keys]).translate(_FLIP)
    coords = Struct(f"x{n}b").iter_unpack(data)
    if any(v):
        coords = (tuple(map(add, c, v)) for c in coords)
    return list(zip(memoryview(data).cast("b")[::width], coords, map(counter.__getitem__, keys)))


def bgg_multiplicity(ctx: BlockContext, target: Label, verma: Label) -> int:
    """Multiplicity of the baby Verma `verma` = (t, eta) in the cover of
    `target` = (i, nu coordinates) (0 or 1 here)."""
    i, coords = target
    check_label(ctx, *verma)
    return sum(1 for t, eta, _ in verma_support(ctx, i, Weight(coords)) if (t, eta) == verma)


def q_composition_mult_g1(ctx: BlockContext, i: int, j: int) -> int:
    """Total multiplicity of the j-th simple in the cover of the i-th,
    over the Frobenius kernel: (n + 1) C(n, i) C(n, j)."""
    n = ctx.n
    check_index(ctx.n, i)
    check_index(ctx.n, j)
    return (n + 1) * comb(n, i) * comb(n, j)
