"""Loewy layers of projective covers in the block, in closed form.

A projective cover is filtered by baby Vermas, and its radical layers are
obtained by stacking each Verma's own layers starting at the filtration
depth where that Verma sits.  The support of the filtration is computed
exactly: the baby Verma with label (t, eta) contains the target simple
(i, nu) in its layer k for at most one (k, X, Y), which pins down both the
depth and the BGG multiplicity.  Like the Verma layers, the support depends
on nu only by translation, and it reads the Vermas' cached nu = 0
patterns (`loewy._verma_pattern`): the support at t is nu minus the shifts
of the index-i labels of Verma t's pattern, and `verma_support` returns it
as rows (t, eta coordinates, depth).  Every API here takes its simples and
Vermas as labels (block index, twist coordinates).

The cover's layers are not stacked Verma by Verma but summed in closed
form, and share no code with the support, so the `verify` battery compares
two routes.  Slot t + 1 of a Verma lam_t is never moved, so every
contribution is a sign pattern e in {-1, 0, 1}^(n+1) with e_(t+1) = 0,
and the number of supporting Vermas lam_t + p eta that put its label in a
given layer is a product of two binomials that depends only on how many
1s, -1s and 0s e has before slot t + 1 (its head) and after it (its tail)
(`_summed`).  So each layer is a sum over t and over pairs of such sign
classes of head x tail products.

Labels are summed as packed ints: the offset (u - i, c) of a label (u, c)
from the head (i, 0) is the key (u - i) B^n + sum_k c_k B^(n-k) with
B = 256.  The packing is linear, so a sign pattern's key is the sum of one
key per nonzero slot, and each sign class of each half is one list of keys
(one bounded cache over all ranks, filled as covers ask for classes).  Each
cover layer is one `Counter` over its keys, counted with multiplicity.
Sign patterns have coordinates e_s - e_(s+1) in [-2, 2]: these balanced
digits decode uniquely, and numeric order on keys is (u, coordinates)
order.  A layer's distinct keys are sorted and decoded in bulk: biased by
B/2 in every digit and by i in the first, each key is n + 1 bytes (a block
index that does not fit its byte raises, never wraps), and with the bytes'
high bits flipped the joined keys read back as signed bytes, the block
indices by one slice and the coordinates by one struct unpack.  nu is added
per row after decoding, and only when nu != 0, never packed.  Layer j of a
palindromic cover equals its mirror layer 2n - j, so a layer whose counter
compares equal to its mirror's, already decoded, gets a copy of the
mirror's rows; the comparison is real, and a table that is not palindromic
decodes every layer.  `cover_rows` returns the layers as rows (block
index, twist coordinates, multiplicity).

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
from operator import add, sub
from struct import Struct

from .block import BlockContext, Label, check_index, check_label
from .loewy import Row, _verma_pattern

__all__ = [
    "CONDITIONAL_FLAG_KEY",
    "verma_support",
    "cover_rows",
    "bgg_multiplicity",
    "q_composition_mult_g1",
]

CONDITIONAL_FLAG_KEY = "conditional_on_loewy_length_conjecture"


def _support_at(n: int, i: int, t: int) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """The labels (i, shift) of Verma t's pattern as (t, shift, depth): the
    shift is head shift + tail shift, and `depth` the pattern's layer."""
    heads, tails, layers = _verma_pattern(n, t)
    for depth, blocks in enumerate(layers):
        for u, k, l in blocks:
            if u == i:
                for head in heads[k]:
                    for tail in tails[l]:
                        yield t, head + tail, depth


def verma_support(ctx: BlockContext, label: Label) -> list[Row]:
    """All baby Vermas whose layers contain the simple with label
    (i, nu coordinates), as rows (t, eta coordinates, depth).

    Row (t, eta, k) records that the simple sits in radical layer k of the
    baby Verma lam_t + p eta; eta is nu minus the twist shift of a label
    (i, shift) in layer k of Verma t's pattern (`loewy._verma_pattern`), so
    the list is finite and multiplicity-free.  The rows come t by t
    (`_support_at`), t from 0 to n.
    """
    i, v = check_label(ctx, label)
    support = chain.from_iterable(_support_at(ctx.n, i, t) for t in range(ctx.n + 1))
    return [(t, tuple(map(sub, v, shift)), k) for t, shift, k in support]


_BASE = 256
_HALF = _BASE // 2
# A biased digit d + B/2 with its high bit flipped is d as a signed byte.
_FLIP = bytes(b ^ _HALF for b in range(_BASE))


@lru_cache(maxsize=4096)
def _sign_class(n: int, t: int, p: int, m: int, head: bool) -> list[int]:
    """The keys sum(e_s W_s) of one sign class at rank n: the sign patterns
    e over slots 1..t (the head) or t + 2..n + 1 (the tail) with p >= 0
    entries 1, m >= 0 entries -1 and the rest 0, p + m at most the slots.

    W_s = B^n + B^(n-s) - B^(n-s+1) is the key of the sign pattern whose
    only nonzero entry is e_s = 1 (block index one up, coordinate s one up
    and coordinate s - 1 one down, where they exist).  A half without slots
    is the one key 0; any other class is built from the classes one slot
    shorter (the slot next to t + 1 left off) with that slot's e = 0, 1 and
    -1.  Classes are built when first asked for and never mutated; the
    cache holds every class of a rank (2 C(n + 3, 3) of them) up to n = 21.
    """
    size, slot, shorter = (t, t, t - 1) if head else (n - t, t + 2, t + 1)
    if not size:
        return [0]
    # W_slot; coordinates 0 and n + 1 do not exist.
    w = _BASE**n
    if slot <= n:
        w += _BASE ** (n - slot)
    if slot > 1:
        w -= _BASE ** (n - slot + 1)
    keys = list(_sign_class(n, shorter, p, m, head)) if p + m < size else []
    if p:
        keys += map(w.__add__, _sign_class(n, shorter, p - 1, m, head))
    if m:
        keys += map(w.__rsub__, _sign_class(n, shorter, p, m - 1, head))
    return keys


def _summed(n: int, i: int) -> list[Counter]:
    """The layers of the cover of (i, 0), each one `Counter` of keys
    relative to the head, summed in closed form over sign classes.

    The sign pattern e with e_(t+1) = 0 is the label (i + sum(e),
    (e_s - e_(s+1))_s), whose key is sum(e_s W_s).  With P, M and Z counting
    the 1s, -1s and 0s of its head (slots 1..t, subscript h) and of its
    tail (slots t + 2..n + 1, subscript t), each a in 0..Z_h with
    b = i - t - M_t + P_h + a in 0..Z_t adds C(Z_h, a) C(Z_t, b) to that
    label in layer P_h + M_h + P_t + M_t + 2(a + b).  So each t and pair of
    a head and a tail class adds its head x tail keys, with that
    multiplicity, to one layer per such a.
    """
    binom = [[comb(z, a) for a in range(z + 1)] for z in range(n + 1)]
    feeds: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
    for t in range(n + 1):
        # b - a = d0 - M_t, and b <= Z_t is a <= n - i - P_h - P_t.
        for p_h in range(min(t, n - i) + 1):
            d0 = i - t + p_h
            for m_h in range(t - p_h + 1):
                z_h = t - p_h - m_h
                if min(z_h, n - i - p_h) < -d0:
                    continue  # no tail class leaves a valid a
                heads = _sign_class(n, t, p_h, m_h, True)
                row_h = binom[z_h]
                for p_t in range(min(n - t, n - i - p_h) + 1):
                    top = min(z_h, n - i - p_h - p_t)
                    layer = p_h + m_h + p_t + 2 * d0
                    # a runs from max(0, M_t - d0), where b >= 0, to top.
                    for m_t in range(min(n - t - p_t, top + d0) + 1):
                        tails = _sign_class(n, t, p_t, m_t, False)
                        # A class without signs is the one key 0.
                        if not p_h + m_h:
                            keys = tails
                        elif not p_t + m_t:
                            keys = heads
                        else:
                            keys = [head + tail for head in heads for tail in tails]
                        row_t, d = binom[n - t - p_t - m_t], d0 - m_t
                        for a in range(max(0, -d), top + 1):
                            feeds[layer + 4 * a] += [keys] * (row_h[a] * row_t[a + d])
                        layer -= 1
    return [Counter(chain.from_iterable(feed)) for feed in feeds]


def cover_rows(ctx: BlockContext, label: Label) -> list[list[Row]]:
    """Radical layers of the projective cover of the simple with label
    (i, nu coordinates), as rows (block index, twist coordinates,
    multiplicity) in (block index, twist coordinates) order.

    Sums the layer formula over sign classes (`_summed`).  The result has
    2n + 1 layers, palindromic, with layer 0 the head and layer 1 equal to
    `ext.rad1_qhat`.  Conditional on the Loewy length conjecture; see the
    module docstring.
    """
    i, v = check_label(ctx, label)
    n = ctx.n
    counts = _summed(n, i)
    layers: list[list[Row]] = []
    for j, counter in enumerate(counts):
        mirror = 2 * n - j
        # dict equality, in C: Counter's own == is Python code that reads
        # missing keys as zero counts, and no count here is zero.
        if mirror < j and dict.__eq__(counter, counts[mirror]):
            layers.append(list(layers[mirror]))
        else:
            layers.append(_decode(counter, n, label))
    return layers


def _decode(counter: Counter, n: int, label: Label) -> list[Row]:
    """The rows (i + k, c + v, multiplicity) of one layer's keys (k, c)
    relative to the head `label` = (i, v), in key order.

    Each key, biased, is n + 1 bytes, which read back as signed bytes: the
    block index, then the coordinates.  Raises OverflowError if a block
    index does not fit its byte.
    """
    i, v = label
    keys = sorted(counter)
    width = n + 1
    bias = int.from_bytes(bytes([_HALF]) * width, "big") + i * _BASE**n
    data = b"".join([(key + bias).to_bytes(width, "big") for key in keys]).translate(_FLIP)
    coords = Struct(f"x{n}b").iter_unpack(data)
    if any(v):
        coords = (tuple(map(add, c, v)) for c in coords)
    return list(zip(memoryview(data).cast("b")[::width], coords, map(counter.__getitem__, keys)))


def bgg_multiplicity(ctx: BlockContext, target: Label, verma: Label) -> int:
    """Multiplicity of the baby Verma `verma` = (t, eta) in the cover of
    `target` = (i, nu coordinates) (0 or 1 here).

    Counts the labels of block index i in Verma t's pattern whose shift is
    nu - eta (`_support_at`), reading only that pattern and without
    building the `verma_support` rows.
    """
    t, eta = check_label(ctx, verma)
    i, v = check_label(ctx, target)
    shift = tuple(map(sub, v, eta))
    return sum(1 for _, s, _ in _support_at(ctx.n, i, t) if s == shift)


def q_composition_mult_g1(ctx: BlockContext, i: int, j: int) -> int:
    """Total multiplicity of the j-th simple in the cover of the i-th,
    over the Frobenius kernel: (n + 1) C(n, i) C(n, j)."""
    n = ctx.n
    check_index(ctx.n, i)
    check_index(ctx.n, j)
    return (n + 1) * comb(n, i) * comb(n, j)
