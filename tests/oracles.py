"""Label-by-label oracles for the Verma and cover layer tables.

They build every label's twist as a `Weight`, straight from the layer
formula and one baby Verma per entry of the cover's support, without the
library's cached patterns, so the layer tests compare two independent code
paths.  A label is the pair (i, twist coordinates).
"""

from itertools import combinations

from loewylab.lattice import Weight, eps_basis, fundamental, zero
from loewylab.projective import verma_support


def twists(n):
    """The twists the layer tests sweep: 0, w_1, -w_n and (-2, 3, 0, ...)."""
    return [zero(n), fundamental(n, 1), -fundamental(n, n), Weight(((-2, 3) + (0,) * n)[:n])]


def far_twist(n):
    """(10^6, -10^6, 10^6, ...): far outside any digit a packed label holds."""
    return Weight(tuple((-1) ** k * 10**6 for k in range(n)))


def as_rows(layers):
    """Label layers as rows (i, coordinates, multiplicity) in (i, coordinates) order."""
    return [sorted((i, c, m) for (i, c), m in layer.items()) for layer in layers]


def as_labels(layers):
    """Rows (i, coordinates, multiplicity) as label layers, each a dict
    {(i, coordinates): multiplicity}: the label view the layer tests read."""
    return [{(i, c): m for i, c, m in rows} for rows in layers]


def verma_layers(ctx, i, nu):
    """Radical layers of the baby Verma lam_i + p nu: layer j holds
    (i + j - 2k, nu - eps_X + eps_Y) for X a k-subset of [1, i] and Y a
    (j - k)-subset of [i + 2, n + 1]."""
    n = ctx.n
    layers = []
    for j in range(n + 1):
        layer = {}
        for k in range(min(i, j) + 1):
            t = i + j - 2 * k
            if t > n:
                continue
            for xs in combinations(range(1, i + 1), k):
                for ys in combinations(range(i + 2, n + 2), j - k):
                    eta = nu
                    for x in xs:
                        eta = eta - eps_basis(n, x)
                    for y in ys:
                        eta = eta + eps_basis(n, y)
                    label = (t, eta.coords)
                    assert label not in layer
                    layer[label] = 1
        layers.append(layer)
    return layers


def cover_layers(ctx, i, nu):
    """Radical layers of the cover of (i, nu): each supporting Verma's
    oracle layers, stacked from its depth."""
    layers = [{} for _ in range(2 * ctx.n + 1)]
    for t, eta, depth in verma_support(ctx, i, nu):
        for k, verma_layer in enumerate(verma_layers(ctx, t, Weight(eta))):
            target = layers[depth + k]
            for label, mult in verma_layer.items():
                target[label] = target.get(label, 0) + mult
    while layers and not layers[-1]:
        layers.pop()
    return layers
