"""The symbolic coefficient map, kept as a test oracle for the sampled Jacobian.

`symbolic_map` runs one forward pass of a gauged network over a ring of the
inputs ``x{i}`` and the free weights ``w{layer}_{row}_{col}`` (gauged
positions are 1) and splits each output by x-monomial, so every coefficient
is an exact polynomial in the free weights.  The full map is the same builder
on the ungauged map (`ungauged`).  Formal partial derivatives (`partial`)
and evaluation (`evaluate`) then give the bordered gauged Jacobian that
`rank.jacobian_at` evaluates numerically.  The expansion grows quickly
with depth and degree, so only small architectures are affordable.

`tangent_jacobian` is the forward-mode reference for the reverse pass of
`rank.jacobian_at`: over the same cached forward values it pushes one tangent
per free weight through every later layer, with `SparsePoly` products.

`const`, `neg`, `sub` and `is_zero` are the polynomial operations only the
tests need; `reference_product` is the product `SparsePoly` multiplication
is checked against, one tuple sum per pair of terms.

`reference_echelon` is the column-by-column elimination the row-by-row
kernel `rank._echelon` is checked against, and `nullspace` back-substitutes
on its echelon rows.  `lattice_relations` is the oracle for the relations on
a composite Veronese image: the kernel (`nullspace`) of the chain evaluated
at the principal lattice, as coefficient vectors.

`reference_power_scan` is the per-trial route of the criterion-8 power lab,
the reference for `veronese.power_threshold_scan`: each trial's forms are
built as `SparsePoly` objects (`_random_instance`), cleared to their
coefficient rows (`coefficient_rows`), and every power is decided by the
public `power_independence` on those rows.

Coefficients are combined with plain `+`, `-` and `*` and reduced modulo the
ring's characteristic p when p > 0, independently of `SparsePoly`'s own
arithmetic.
"""

import math
import random
from fractions import Fraction
from typing import Mapping

from neurovar.domains import RATIONALS
from neurovar.errors import PivotVanishes
from neurovar.network import GaugedMap
from neurovar.poly import Ring, SparsePoly, monomials_of_degree
from neurovar.rank import _forward_cached, _integer_rows, auto_prime_field, derive_seed
from neurovar.veronese import (
    PowerScanReport,
    _proportional,
    lattice_points,
    power_independence,
)


def weight_name(layer, row, col):
    return f"w{layer}_{row}_{col}"


def ungauged(arch):
    """The GaugedMap with every weight free, in position order."""
    w = arch.widths
    free = tuple(
        (i, r, c) for i in range(1, len(w)) for r in range(w[i]) for c in range(w[i - 1])
    )
    return GaugedMap(arch, free)


def network_ring(gmap):
    """Inputs x0..x_{n0-1}, then the free weights of `gmap` in position order."""
    names = [f"x{i}" for i in range(gmap.arch.n_in)]
    return Ring(names + [weight_name(*pos) for pos in gmap.free])


def symbolic_weights(gmap, ring):
    """Weight matrices with every free weight a variable of `ring`, 1 where gauged."""
    return gmap.weight_matrices([ring.var(weight_name(*pos)) for pos in gmap.free], ring.one())


def forward_layers(arch, matrices):
    """All intermediate forms F_{k,j}, as layers[k-1][j] for k = 1..L, given the
    per-layer weight matrices as ring elements; the outputs are layers[-1].

    F_{1,j} are the input linear forms; thereafter
    F_{k,j} = sum_i W_k[j][i] * F_{k-1,i}^{d_{k-1}}, so the x-degree of layer
    k is the product of the first k-1 activation degrees.
    """
    ring = matrices[0][0][0].ring
    current = [ring.var(f"x{i}") for i in range(arch.n_in)]
    layers = []
    for k in range(1, arch.depth + 1):
        if k >= 2:
            d = arch.degrees[k - 2]
            current = [p ** d for p in current]
        W = matrices[k - 1]
        nxt = []
        for r in range(arch.widths[k]):
            acc = ring.zero()
            for c in range(arch.widths[k - 1]):
                acc = acc + W[r][c] * current[c]
            nxt.append(acc)
        layers.append(nxt)
        current = nxt
    return layers


def symbolic_map(gmap):
    """(vectors, weight_ring): per output, the coefficients of its degree-D
    x-monomials in lexicographic order, as polynomials in the free weights.

    The pivot of every output is entry 0, the coefficient of x0^D.
    """
    arch = gmap.arch
    n0 = arch.n_in
    ring = network_ring(gmap)
    weight_ring = Ring(ring.names[n0:])
    index = {m: j for j, m in enumerate(monomials_of_degree(n0, arch.total_degree))}
    vectors = []
    for out in forward_layers(arch, symbolic_weights(gmap, ring))[-1]:
        buckets = [{} for _ in index]
        for m, c in out.terms.items():
            buckets[index[m[:n0]]][m[n0:]] = c
        vectors.append(tuple(SparsePoly(weight_ring, b) for b in buckets))
    return tuple(vectors), weight_ring


def _tangent_outputs(arch, wvals, powers, activated, layer, row, col, ring):
    """Derivative of every output with respect to weight (layer, row, col): a
    tangent seeded at F_layer[row] propagates as
    dF_t[i] = sum_s W_t[i][s] * d_{t-1} * F_{t-1}[s]^(d_{t-1}-1) * dF_{t-1}[s]."""
    dcur = {row: activated[layer - 1][col]}
    for t in range(layer + 1, arch.depth + 1):
        d_prev = arch.degrees[t - 2]
        W = wvals[t - 1]
        dnext = {}
        for s, dpoly in dcur.items():
            dG = (powers[t - 1][s] * dpoly).scale(d_prev)
            for r in range(arch.widths[t]):
                w = W[r][s]
                if not w:
                    continue
                contrib = dG.scale(w)
                dnext[r] = dnext[r] + contrib if r in dnext else contrib
        dcur = dnext
    zero = ring.zero()
    return [dcur.get(ell, zero) for ell in range(arch.n_out)]


def tangent_jacobian(gmap, point, domain):
    """The bordered rows of `rank.jacobian_at(gmap, point, domain).matrix`,
    assembled by one forward tangent pass per free weight over the same
    cached forward values.  Raises PivotVanishes where `jacobian_at` does."""
    arch = gmap.arch
    ring = Ring([f"x{i}" for i in range(arch.n_in)], domain)
    values = [v.numerator if v.denominator == 1 else v for v in point]
    wvals = gmap.weight_matrices(values, 1)
    outputs, powers, activated = _forward_cached(arch, wvals, ring)
    monos = monomials_of_degree(arch.n_in, arch.total_degree)
    if not all(out.terms.get(monos[0]) for out in outputs):
        raise PivotVanishes(tuple(point))
    rows = [[0] * gmap.domain_dim + [out.terms.get(m, 0) if i == ell else 0
                                     for i in range(arch.n_out)]
            for m in monos for ell, out in enumerate(outputs)]
    for j, (layer, row, col) in enumerate(gmap.free):
        douts = _tangent_outputs(arch, wvals, powers, activated, layer, row, col, ring)
        for r, v in enumerate(d.terms.get(m, 0) for m in monos for d in douts):
            rows[r][j] = v
    return rows


def reference_echelon(m: list[list[int]], p: int) -> list[int]:
    """Forward row echelon form of the integer rows `m`, in place, column by
    column; returns the pivot columns, pivot row r being m[r].  The reference
    for `rank._echelon`.

    p > 0: elimination modulo p on entries already reduced mod p.  p == 0:
    fraction-free (Bareiss) elimination over the integers, where every
    division is exact and the last pivot is the determinant of the pivot
    block.  Only rows below a pivot are eliminated.
    """
    nrows = len(m)
    ncols = len(m[0])
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        piv = None
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        pv = prow[col]
        if p:
            inv = pow(pv, -1, p)
            for i in range(rank + 1, nrows):
                ri = m[i]
                f = ri[col]
                if f:
                    f = f * inv % p
                    for c in range(col, ncols):
                        ri[c] = (ri[c] - f * prow[c]) % p
        else:
            for i in range(rank + 1, nrows):
                ri = m[i]
                f = ri[col]
                for c in range(col + 1, ncols):
                    ri[c] = (pv * ri[c] - f * prow[c]) // prev
                ri[col] = 0
            prev = pv
        pivots.append(col)
        if rank + 1 == nrows:
            break
    return pivots


def nullspace(rows, domain) -> list[list]:
    """Reduced basis of {v : A v = 0} over the field of the matrix A.

    One vector per non-pivot column f of the echelon form, with 1 at f and 0
    at every other non-pivot column, in column order.  Back-substitution on
    the echelon rows of `reference_echelon`: over F_p by pivot inverses; over
    Q on integers scaled by the last pivot, which by Cramer's rule clears
    every denominator, so each division is exact.
    """
    m, p = _integer_rows(rows, domain)
    if not m:
        return []
    ncols = len(m[0])
    pivots = reference_echelon(m, p)
    scale = m[len(pivots) - 1][pivots[-1]] if pivots and not p else 1
    invs = [pow(m[r][c], -1, p) for r, c in enumerate(pivots)] if p else None
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = scale
        filled = [f]
        for r, pc in reversed(list(enumerate(pivots))):
            row = m[r]
            s = sum(row[c] * v[c] for c in filled)
            v[pc] = -s * invs[r] % p if p else -s // row[pc]
            filled.append(pc)
        basis.append(v if p else [Fraction(x, scale) for x in v])
    return basis


def lattice_relations(cv):
    """The linear forms in z0..z_{ambient-1} vanishing on the image of the
    composite Veronese `cv`, as coefficient vectors: `nullspace`'s reduced
    basis of the kernel of the chain evaluated at the lattice of degree
    prod(degrees), where a form vanishes exactly when its degree-D pullback
    does."""
    rows = [cv.evaluate(x) for x in lattice_points(cv.nvars, math.prod(cv.degrees))]
    return nullspace(rows, RATIONALS)


def _random_instance(nvars, count, form_degree, domain, rng) -> list[SparsePoly]:
    """Random pairwise non-proportional forms of the given degree."""
    ring = Ring([f"z{i}" for i in range(nvars)], domain)
    monos = monomials_of_degree(nvars, form_degree)
    rows: list[list] = []
    while len(rows) < count:
        row = [domain.sample(rng) for _ in monos]
        if any(row) and not any(_proportional(row, r, domain.p) for r in rows):
            rows.append(row)
    return [SparsePoly(ring, {m: c for m, c in zip(monos, row) if c}) for row in rows]


def coefficient_rows(forms, degree):
    """The coefficient rows of `forms` over `monomials_of_degree(nvars, degree)`."""
    monos = monomials_of_degree(forms[0].ring.nvars, degree)
    return [[f.terms.get(m, 0) for m in monos] for f in forms]


def reference_power_scan(nvars, count, form_degree, trials, seed, power=None,
                         find_min_power=False) -> PowerScanReport:
    """`power_threshold_scan` on valid input, trial by trial through
    `_random_instance`, `coefficient_rows` and `power_independence`, called
    once per trial and per power tried."""
    if power is None:
        power = count - 1
    domain = auto_prime_field(derive_seed(seed, "power-domain"))
    independent = 0
    mins = []
    for t in range(trials):
        rng = random.Random(derive_seed(seed, "power", t))
        rows = coefficient_rows(_random_instance(nvars, count, form_degree, domain, rng),
                                form_degree)
        if power_independence(rows, nvars, form_degree, power, domain)[0]:
            independent += 1
        if find_min_power:
            r = 1
            while not power_independence(rows, nvars, form_degree, r, domain)[0]:
                r += 1
            mins.append(r)
    return PowerScanReport(nvars, count, form_degree, power, trials, independent,
                           tuple(mins) if find_min_power else None)


def const(ring, value):
    """The constant polynomial `value` of `ring`, reduced mod p over F_p."""
    p = ring.domain.p
    value = value % p if p else value
    return SparsePoly(ring, {(0,) * ring.nvars: value} if value else {})


def neg(poly):
    """-poly, reduced mod p over F_p."""
    p = poly.ring.domain.p
    return SparsePoly(poly.ring, {m: -c % p if p else -c for m, c in poly.terms.items()})


def sub(a, b):
    """a - b."""
    return a + neg(b)


def reference_product(a, b, p):
    """The term map of the product of the term maps `a` and `b`, one exponent
    tuple built per pair of terms, reduced mod p over F_p."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(int.__add__, ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    if p:
        out = {m: c % p for m, c in out.items()}
    return {m: c for m, c in out.items() if c}


def is_zero(poly):
    return not poly.terms


def partial(poly, var):
    """Formal partial derivative of `poly` with respect to the variable `var`."""
    i = poly.ring.index(var)
    p = poly.ring.domain.p
    out = {}
    for m, c in poly.terms.items():
        e = m[i]
        if e == 0:
            continue
        dm = m[:i] + (e - 1,) + m[i + 1 :]
        coeff = out.get(dm, 0) + c * e
        if p:
            coeff %= p
        if coeff:
            out[dm] = coeff
        else:
            out.pop(dm, None)
    return SparsePoly(poly.ring, out)


def evaluate(poly, point):
    """Evaluate at a full assignment (dict name->value or sequence by index),
    reduced mod p over F_p."""
    p = poly.ring.domain.p
    if isinstance(point, Mapping):
        values = [point[n] for n in poly.ring.names]
    else:
        values = list(point)
        if len(values) != poly.ring.nvars:
            raise ValueError("point length does not match variable count")
    total = 0
    for m, c in poly.terms.items():
        term = c
        for e, v in zip(m, values):
            if e:
                term = term * _power(v, e, p)
        total += term
    return total % p if p else total


def _power(value, e, p):
    """Repeated-squaring power, reduced mod p when p > 0."""
    result = 1
    base = value
    while e:
        if e & 1:
            result = result * base % p if p else result * base
        base = base * base % p if p else base * base
        e >>= 1
    return result
