"""Ext groups between simples in the block, and the projective radical top.

Between simples of the block, Ext^1 over the Frobenius kernel vanishes
unless the block indices are adjacent, in which case (after untwisting)
it is the standard (n+1)-dimensional representation or its dual: one row
per block index, `ext1_g1_row`, names every kind.  The
standard representation has the n + 1 pairwise-distinct weights
eps_1, ..., eps_{n+1}, each with multiplicity one, which is what turns the
Ext rule into exact label arithmetic: the twist-graded Ext dimension reads
off one weight multiplicity, and the first radical layer of the projective
cover is exactly the multiset of labels with Ext dimension one.  Both take
labels (i, nu coordinates).  In fundamental coordinates eps_k is +1 at
coordinate k and -1 at coordinate k - 1, where they exist, so a twist
difference is tested for that shape and a neighbour is built by changing
two coordinates; no table of the eps_k is kept.  The layer leaves as rows
(block index, twist coordinates, multiplicity).
"""

from __future__ import annotations

from operator import sub

from .block import BlockContext, Label, check_index, check_label
from .loewy import Row

__all__ = [
    "ext1_g1_row",
    "ext1_g1t_dim",
    "rad1_qhat",
]


def _is_eps(d: tuple[int, ...]) -> bool:
    """Whether the fundamental coordinates d are one of the standard
    representation's weights eps_k = w_k - w_{k-1} (w_0 = w_{n+1} = 0),
    k = 1..n+1: a 1 at coordinate k and a -1 at coordinate k - 1, where
    they exist, and 0 elsewhere."""
    last = len(d) - 1
    nonzero = len(d) - d.count(0)
    if nonzero == 1:
        return d[0] == 1 or d[last] == -1
    if nonzero == 2 and -1 in d:
        k = d.index(-1)
        return k < last and d[k + 1] == 1
    return False


def ext1_g1_row(ctx: BlockContext, i: int) -> list[str]:
    """Untwisted Ext^1 from the i-th block simple to each j-th, j = 0..n.

    "standard" (the standard representation) at j = i - 1, "dual" (its
    dual) at j = i + 1, "zero" elsewhere, in particular at j = i.
    """
    check_index(ctx.n, i)
    row = ["zero"] * (ctx.n + 1)
    if i > 0:
        row[i - 1] = "standard"
    if i < ctx.n:
        row[i + 1] = "dual"
    return row


def ext1_g1t_dim(ctx: BlockContext, a: Label, b: Label) -> int:
    """Dimension of Ext^1 between the twisted simples labelled a = (i, x)
    and b = (j, y).

    Equals the multiplicity of x - y in the untwisted Ext representation
    (`ext1_g1_row`: standard toward j = i - 1, its dual toward j = i + 1,
    zero otherwise), so it is 0 or 1, and it is symmetric in (a, b).
    """
    check_label(ctx, a)
    check_label(ctx, b)
    return _ext1_dim(a, b)


def _ext1_dim(a: Label, b: Label) -> int:
    """`ext1_g1t_dim` for labels of one rank that `check_label` has checked."""
    (i, x), (j, y) = a, b
    # The kind read off the indices.
    if j == i + 1:
        # The dual's weights are the negatives -eps_k: y - x is one of eps_k.
        x, y = y, x
    elif j != i - 1:
        return 0
    return int(_is_eps(tuple(map(sub, x, y))))


def rad1_qhat(ctx: BlockContext, label: Label) -> list[Row]:
    """First radical layer of the projective cover of the simple with label
    (i, nu coordinates), as rows (block index, twist coordinates,
    multiplicity) in (block index, twist coordinates) order.

    The labels b with Ext^1 dimension one from (i, nu): the n + 1 downward
    neighbours (i - 1, nu - eps_k) and the n + 1 upward neighbours
    (i + 1, nu + eps_k), each once, dropping whichever side falls outside
    the block.  Sizes: n + 1 at the ends, 2n + 2 inside.
    """
    i, v = check_label(ctx, label)
    n = ctx.n
    rows: list[Row] = []
    for k in range(1, n + 2):
        for u, sign in ((i - 1, -1), (i + 1, 1)):
            if 0 <= u <= n:
                # v + sign eps_k: coordinates k and k - 1 (where they exist) move.
                c = list(v)
                if k <= n:
                    c[k - 1] += sign
                if k > 1:
                    c[k - 2] -= sign
                rows.append((u, tuple(c), 1))
    rows.sort()
    return rows
