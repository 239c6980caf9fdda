"""Label-by-label oracles for the Verma and cover layer tables.

They build every label's twist by `lattice` arithmetic, straight from the
layer formula and one baby Verma per entry of the cover's support, without
the library's cached patterns, so the layer tests compare two independent
code paths.  `cover_formula` sums a cover's layers in closed form, from
sign patterns alone, without any Verma or the library's support.  A label
is the pair (i, twist coordinates), and each oracle takes the label of its
module, as the library's layer APIs do.

`certificate_ok` checks a Jantzen witness certificate on its own, against
a table of pairings that `pairings` builds with `lattice.pair`, so the
certificate tests need neither the sweep's table nor its witness check.

The expectations and helpers more than one test file reads live here
once: `very_good_primes` finds primes by trial division, not by the
library's primality test; `g1_layer` and `first_layer` state a baby
Verma's Frobenius-kernel layer and first radical layer from their
formulas; `simple_root` builds a simple root from eps vectors, and
`root_coords` writes a weight over the simple roots by the inverse Cartan
matrix, not by the library's dominance order.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb

from loewylab.lattice import add, eps_basis, fundamental, neg, pair, sub, zero
from loewylab.projective import verma_support


def very_good_primes(n, count):
    """The `count` least odd primes that do not divide n + 1."""
    out, p = [], 3
    while len(out) < count:
        if all(p % d for d in range(2, p)) and (n + 1) % p:
            out.append(p)
        p += 2
    return out


def simple_root(rank, t):
    """alpha_t = eps_t - eps_{t+1}."""
    return sub(eps_basis(rank, t), eps_basis(rank, t + 1))


def root_coords(w):
    """Coordinates of `w` over the simple roots, as exact Fractions.

    Row s of (n + 1) times the inverse type-A Cartan matrix has entries
    min(s, t) (n + 1 - max(s, t)).
    """
    d = len(w) + 1
    return tuple(
        Fraction(sum(min(s, t) * (d - max(s, t)) * a for t, a in enumerate(w, 1)), d)
        for s in range(1, d)
    )


def g1_layer(n, i, j):
    """Block index -> multiplicity in radical layer j of the untwisted baby
    Verma of block index i: C(i, k) C(n - i, j - k) at index i + j - 2k."""
    layer = {}
    for k in range(0, min(i, j) + 1):
        t = i + j - 2 * k
        m = comb(i, k) * comb(n - i, j - k)
        if 0 <= t <= n and m:
            layer[t] = m
    return layer


def first_layer(n, label):
    """The first radical layer of the baby Verma with label (i, t), as a
    dict {label: 1}: (i - 1, t - eps_x) for x in [1, i] and (i + 1,
    t + eps_y) for y in [i + 2, n + 1]."""
    i, t = label
    layer = {}
    for x in range(1, i + 1):
        layer[(i - 1, sub(t, eps_basis(n, x)))] = 1
    for y in range(i + 2, n + 2):
        layer[(i + 1, add(t, eps_basis(n, y)))] = 1
    return layer


def twists(n):
    """The twist coordinates the layer tests sweep: 0, w_1, -w_n and
    (-2, 3, 0, ...)."""
    return [zero(n), fundamental(n, 1), neg(fundamental(n, n)), ((-2, 3) + (0,) * n)[:n]]


def far_twist(n):
    """(10^6, -10^6, 10^6, ...): far outside any digit a packed label holds."""
    return tuple((-1) ** k * 10**6 for k in range(n))


def as_rows(layers):
    """Label layers as rows (i, coordinates, multiplicity) in (i, coordinates) order."""
    return [sorted((i, c, m) for (i, c), m in layer.items()) for layer in layers]


def as_labels(layers):
    """Rows (i, coordinates, multiplicity) as label layers, each a dict
    {(i, coordinates): multiplicity}: the label view the layer tests read."""
    return [{(i, c): m for i, c, m in rows} for rows in layers]


def verma_layers(ctx, label):
    """Radical layers of the baby Verma lam_i + p nu, label (i, nu
    coordinates): layer j holds (i + j - 2k, nu - eps_X + eps_Y) for X a
    k-subset of [1, i] and Y a (j - k)-subset of [i + 2, n + 1]."""
    n, (i, nu) = ctx.n, label
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
                        eta = sub(eta, eps_basis(n, x))
                    for y in ys:
                        eta = add(eta, eps_basis(n, y))
                    label = (t, eta)
                    assert label not in layer
                    layer[label] = 1
        layers.append(layer)
    return layers


def cover_layers(ctx, label):
    """Radical layers of the cover of the simple `label`: each supporting
    Verma's oracle layers, stacked from its depth."""
    layers = [{} for _ in range(2 * ctx.n + 1)]
    for t, eta, depth in verma_support(ctx, label):
        for k, verma_layer in enumerate(verma_layers(ctx, (t, eta))):
            target = layers[depth + k]
            for label, mult in verma_layer.items():
                target[label] = target.get(label, 0) + mult
    while layers and not layers[-1]:
        layers.pop()
    return layers


def cover_formula(n, label):
    """Radical layers of the cover of the simple `label` = (i, nu
    coordinates), summed over the block index t
    of its supporting Vermas in closed form.

    Slot t + 1 is never moved, so a label's eps coefficients e are
    normalised to e_{t+1} = 0, and each e_s lies in {-1, 0, 1}.  With P, M
    and Z counting the +1s, -1s and 0s among e_1..e_t (the head, subscript
    h) and among e_{t+2}..e_{n+1} (the tail, subscript t), each a in 0..Z_h
    gives b = i - t - M_t + P_h + a; for 0 <= b <= Z_t the label with block
    index t + P_t + b - M_h - a and coordinates nu + (e_s - e_{s+1}) gains
    C(Z_h, a) C(Z_t, b) in layer P_h + M_h + P_t + M_t + 2(a + b).
    """
    i, nu = label
    layers = [{} for _ in range(2 * n + 1)]
    for t in range(n + 1):
        for signs in product((-1, 0, 1), repeat=n):
            head, tail = signs[:t], signs[t:]
            e = (*head, 0, *tail)
            coords = tuple(v + e[s] - e[s + 1] for s, v in enumerate(nu))
            p_h, m_h, z_h = head.count(1), head.count(-1), head.count(0)
            p_t, m_t, z_t = tail.count(1), tail.count(-1), tail.count(0)
            for a in range(z_h + 1):
                b = i - t - m_t + p_h + a
                if not 0 <= b <= z_t:
                    continue
                layer = layers[p_h + m_h + p_t + m_t + 2 * (a + b)]
                label = (t + p_t + b - m_h - a, coords)
                layer[label] = layer.get(label, 0) + comb(z_h, a) * comb(z_t, b)
    while layers and not layers[-1]:
        layers.pop()
    return layers


def pairings(nu):
    """Root (k, j) -> pairing of nu with the coroot of eps_k - eps_j, at
    every positive root and nothing else, by `lattice.pair`."""
    rank = len(nu)
    return {
        (k, j): pair(nu, k, j) for k in range(1, rank + 1) for j in range(k + 1, rank + 2)
    }


def certificate_ok(pairing, cert, p):
    """Whether cert = (root, m, s, a, b, beta0, betas) certifies its root,
    for `pairing` a table root -> pairing of nu (as `pairings` builds it).

    The root pairs to m = a p^s + b p^(s+1) with s >= 0, 0 < a < p and
    b >= 0; beta0 pairs to a p^s; the betas are b roots, distinct from each
    other and from beta0, each pairing to p^(s+1).  A pair with no entry in
    the table is not a positive root, and fails.  The root may be a list.
    """
    root, m, s, a, b, beta0, betas = cert
    roots = [tuple(root), beta0, *betas]
    if any(r not in pairing for r in roots):
        return False
    if s < 0 or b < 0 or not 0 < a < p:
        return False
    unit, step = p**s, p ** (s + 1)
    if pairing[roots[0]] != m or m != a * unit + b * step or pairing[beta0] != a * unit:
        return False
    if len(betas) != b or len(set(roots[1:])) != len(roots) - 1:
        return False
    return all(pairing[beta] == step for beta in betas)
