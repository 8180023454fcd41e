"""Exact Jacobian rank sampling for gauged network parameterizations.

The gauged coefficient map sends free weights to ratios of coefficient
polynomials.  Its Jacobian at a random exact point is computed by one forward
value pass (polynomials in the inputs, on ints reduced mod p over F_p or
ints over Q) followed by one reverse (adjoint) pass over the cached layer
powers.  With F_t the layer forms, G_t = F_t^d_t their activations (G_0 the
inputs) and W_t the weights, the derivative of output l with respect to
weight (t, r, c) is A_t[r][l]*G_{t-1}[c], where A_t[r][l] is the adjoint of
F_t[r]: A_L[r][l] = [r = l], and
A_t[r][l] = d_t*F_t[r]^(d_t-1) * sum_s W_{t+1}[s][r]*A_{t+1}[s][l].
A last-layer column is G_{L-1}[c] itself; the adjoints of layer L-1 are the
scalar multiples d*W_L[l][r] of one power, so one product per column serves
every output; below that, each adjoint is computed once per (r, l), and at
layer 1 the factor G_0[c] = x_c is a single monomial.  The pass streams: a
row's adjoints write that row's columns and are kept only until the layer
below has read them.  The quotient rule then yields the derivative of every
dehomogenized coordinate c_m/c_0, kept cleared of its denominator: the row of
output coordinate m is c_0*dc_m - c_m*dc_0, the derivative times c_0^2.
Scaling a row by a nonzero constant changes no rank of any set of columns,
and over Q at an integral point every entry stays an int, so no Fraction is
built and no pivot coefficient inverted.  This is the package's only Jacobian
route: the coefficient map is never expanded symbolically, since that blows
up with depth.  The test suite checks the per-point pass against formal
derivatives of a symbolic coefficient map on small cases, and entry for entry
against a forward-tangent assembly (one tangent pass per free weight) on a
small grid.

A field is read off its characteristic `domain.p` (0 for Q).  One echelon
routine, `_echelon`, serves rank in every field: row-by-row elimination,
modulo p for a prime field and, for a rational matrix cleared of its
denominators, fraction-free over the integers with each row kept
primitive; `exact_rank` counts its pivots.  It stops at min(rows, cols) or at a proven
rank bound from the caller: the pivot rows are independent, so the rank is
at least their count and, by the bound, at most it.  `jacobian_at` passes
`theory.dim_upper_bound`, since the rank at a point is at most the generic
rank, hence the dimension.

A rational rank starts with a certificate: the same routine modulo the fixed
prime q of CERTIFICATE_FIELD on the cleared integer rows.  Rank modulo a
prime never exceeds the rational rank, so a count there that meets the
bound is the answer; otherwise the routine runs again over the integers.
Either way it is exact.
"""

from __future__ import annotations

import hashlib
import random
from math import gcd, lcm
from typing import NamedTuple

from .domains import RATIONALS, PrimeField, random_prime
from .errors import PivotVanishes, SamplingExhausted
from .network import Architecture, GaugedMap, gauge_fix
from .poly import Ring, count_monomials, monomials_of_degree, refuse_past_cap
from .theory import (
    dim_upper_bound,
    expected_dim,
    expected_dim_general,
    expected_dim_single_output,
)

DEFAULT_TRIES = 10
DEFAULT_SEED = 1729
# F_q for the Mersenne prime q = 2^61 - 1: the field of every full-rank
# certificate over Q.
CERTIFICATE_FIELD = PrimeField((1 << 61) - 1)


def derive_seed(*parts) -> int:
    """Stable 64-bit seed derived from the given parts (platform-independent)."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def auto_prime_field(seed: int) -> PrimeField:
    """The default sampling field: a random prime in [2^60, 2^62) from `seed`."""
    return PrimeField(random_prime(derive_seed(seed, "prime")))


def resolve_domain(field: str, prime: int | None, seed: int):
    """The sampling domain of a `field` ("prime" or "rational") choice: Q, the
    given prime field, or the seed's `auto_prime_field` when `prime` is None.

    Raises ValueError for a prime given with the rational field."""
    if field == "rational":
        if prime is not None:
            raise ValueError(f"--field rational samples over Q and takes no --prime, got {prime}")
        return RATIONALS
    return auto_prime_field(seed) if prime is None else PrimeField(prime)


# -- exact elimination ---------------------------------------------------------


def _echelon(m: list[list[int]], p: int, bound: int | None = None) -> list[int]:
    """The pivot columns, in increasing order, of a row echelon form of the
    integer rows `m`, until their count reaches `bound` (default
    min(rows, cols)); `m` is left as it is.

    Row by row: each row is reduced against the pivot rows so far, keyed by
    leading column, and one that stays nonzero becomes a pivot row.  p > 0:
    a pivot row is scaled to a leading 1 and an entry is reduced mod p only
    when read, so `m` may hold any ints.  p == 0: fraction-free over the
    integers; an entry f under a pivot row led by v turns the row into
    (v/g)*row - (f/g)*prow, g = gcd(v, f), and pivot rows and reduced rows
    are divided by the gcd of their entries, so entries stay small.
    """
    ncols = len(m[0])
    limit = min(len(m), ncols) if bound is None else bound
    reduced: dict[int, list[int]] = {}
    for row in m:
        if len(reduced) == limit:
            break
        for c in range(ncols):
            f = row[c] % p if p else row[c]
            if not f:
                continue
            prow = reduced.get(c)
            if prow is None:
                # The pivot that meets the limit is never read: not scaled.
                if len(reduced) + 1 < limit:
                    if p:
                        inv = pow(f, -1, p)
                        row = [v * inv % p for v in row]
                    else:
                        g = gcd(*row)
                        if g > 1:
                            row = [v // g for v in row]
                reduced[c] = row
                break
            if p:
                row = [a - f * b for a, b in zip(row, prow)]
                continue
            g = gcd(prow[c], f)
            v, f = prow[c] // g, f // g
            row = [v * a - f * b for a, b in zip(row, prow)]
            g = gcd(*row)
            if not g:
                break
            if g > 1:
                row = [a // g for a in row]
    return sorted(reduced)


def _integer_rows(matrix, domain) -> tuple[list[list[int]], int]:
    """Integer copies of the rows and their modulus: entries reduced mod p
    over F_p; over Q (p = 0) each row times the lcm of its denominators (1
    for a row of ints)."""
    p = domain.p
    if p:
        return [[v % p for v in row] for row in matrix], p
    cleared = []
    for row in matrix:
        scale = lcm(*[v.denominator for v in row])
        cleared.append([v.numerator * (scale // v.denominator) for v in row])
    return cleared, 0


def exact_rank(matrix, domain, bound: int | None = None) -> int:
    """min(rank, `bound`) of a matrix of domain elements (rows of equal
    length): its rank when `bound` is None or a proven upper bound on it.

    Elimination stops once the pivots reach min(rows, cols, `bound`).  Over
    Q the cleared integer rows are first eliminated modulo the prime q of
    CERTIFICATE_FIELD: rank modulo a prime never exceeds the rational rank,
    so a count that meets that limit is the answer.  A lower one proves
    nothing (q may divide every nonzero minor of that size), and the
    integer rows are then eliminated over Z.
    """
    if not matrix:
        return 0
    limit = min(len(matrix), len(matrix[0]), len(matrix) if bound is None else bound)
    if domain.p:
        return len(_echelon(matrix, domain.p, limit))
    m = _integer_rows(matrix, domain)[0]
    rank = len(_echelon(m, CERTIFICATE_FIELD.p, limit))
    return rank if rank == limit else len(_echelon(m, 0, limit))


# -- forward value pass and reverse (adjoint) pass -----------------------------


def _forward_cached(arch: Architecture, wvals, ring: Ring):
    """Layer forms plus the caches the adjoint pass reads.

    Returns (outputs, powers, activated) where activated[t] holds the
    G^{(t)} vector (activated[0] being the input variables) and powers[t][s]
    is F^{(t)}_s ** (d_t - 1) for the hidden layers t = 1..L-1: the adjoint
    of G_t[s] reaches F_t[s] times d_t * powers[t][s], and
    G_t[s] = powers[t][s] * F_t[s].
    """
    xs = [ring.var(f"x{i}") for i in range(arch.n_in)]
    activated = [xs]
    powers: list = [None]
    current = xs
    outputs = None
    for t in range(1, arch.depth + 1):
        W = wvals[t - 1]
        forms = []
        for r in range(arch.widths[t]):
            acc = ring.zero()
            for c, g in enumerate(current):
                w = W[r][c]
                if w:
                    acc = acc + g.scale(w)
            forms.append(acc)
        if t < arch.depth:
            d = arch.degrees[t - 1]
            pw = [f ** (d - 1) for f in forms]
            act = [pw[s] * forms[s] for s in range(len(forms))]
            powers.append(pw)
            activated.append(act)
            current = act
        else:
            outputs = forms
    return outputs, powers, activated


class JacobianSample(NamedTuple):
    """One exact Jacobian evaluation: one row per non-pivot coefficient ratio
    c_m/c_0 (output-major), holding its derivative cleared of the pivot
    denominator, c_0*dc_m - c_m*dc_0; columns are the free weights in
    `GaugedMap.free` order.  The ratio Jacobian has the same rank, block by
    block, since each row differs from it by the nonzero factor c_0^2."""

    matrix: list[list]
    rank: int


def jacobian_at(gmap: GaugedMap, point, domain) -> JacobianSample:
    """Exact Jacobian of the gauged map at a point assigning the free weights
    in `gmap.free` order; its columns follow that order and its rows are
    cleared of the pivot denominators (`JacobianSample`).

    Integral values of the point (a Fraction n/1 over Q) enter the passes as
    ints.  Raises PivotVanishes when any output's pivot coefficient (index 0,
    the coefficient of x0^D) is zero at the point; callers resample.
    """
    arch = gmap.arch
    ring = Ring([f"x{i}" for i in range(arch.n_in)], domain)
    values = [v.numerator if v.denominator == 1 else v for v in point]
    wvals = gmap.weight_matrices(values, 1)
    outputs, powers, activated = _forward_cached(arch, wvals, ring)

    monos = monomials_of_degree(arch.n_in, arch.total_degree)
    coeffs = []
    for out in outputs:
        vec = [out.terms.get(m, 0) for m in monos]
        if not vec[0]:
            raise PivotVanishes(tuple(point))
        coeffs.append(vec)

    p = domain.p
    span = len(monos) - 1
    nrows = arch.n_out * span
    ncols = gmap.domain_dim
    rows = [[0] * ncols for _ in range(nrows)]
    column = {pos: j for j, pos in enumerate(gmap.free)}

    def put(j, ell, deriv, k):
        """Write column j's rows of output ell, whose derivative is k*deriv."""
        dterms = deriv.terms
        cvec = coeffs[ell]
        c0, dc0 = cvec[0], dterms.get(monos[0], 0)
        for mi in range(1, len(monos)):
            num = (c0 * dterms.get(monos[mi], 0) - cvec[mi] * dc0) * k
            rows[ell * span + mi - 1][j] = num % p if p else num

    L = arch.depth
    for r in range(arch.n_out):
        for c, g in enumerate(activated[L - 1]):
            if (L, r, c) in column:
                put(column[L, r, c], r, g, 1)
    # upper[s][ell] = (k, a): the adjoint of F_{t+1}[s] for output ell is k*a.
    upper = []
    for t in range(L - 1, 0, -1):
        d = arch.degrees[t - 1]
        W = wvals[t]
        kept = []
        for r in range(arch.widths[t]):
            pw = powers[t][r]
            if t == L - 1:
                adj = [(d * W[ell][r], pw) for ell in range(arch.n_out)]
            else:
                adj = []
                for ell in range(arch.n_out):
                    acc = ring.zero()
                    for s, above in enumerate(upper):
                        k, a = above[ell]
                        acc = acc + a.scale(W[s][r] * k)
                    adj.append((d, pw * acc))
            for c, g in enumerate(activated[t - 1]):
                j = column.get((t, r, c))
                if j is None:
                    continue
                if t == L - 1:
                    shared = pw * g
                    for ell, (k, _) in enumerate(adj):
                        put(j, ell, shared, k)
                else:
                    for ell, (k, a) in enumerate(adj):
                        put(j, ell, a * g, k)
            if t > 1:
                kept.append(adj)
        upper = kept

    # Interleaved by output, the rows reach the rank sooner than output-major.
    interleaved = [row for i in range(span) for row in rows[i::span]]
    rank = exact_rank(interleaved, domain, dim_upper_bound(arch)) if nrows else 0
    return JacobianSample(rows, rank)


# -- sampling ------------------------------------------------------------------


def sampling_steps(arch: Architecture, tries: int) -> int:
    """The estimated work of sampling `arch` max(tries, 1) times.  With M
    output monomials (counted up to the cap) and W free weights, a trial lists
    M*n_0, runs n_L*(W*L + 1) products of up to M terms at 16 steps a term,
    plus 2*bitlen(d_t) per unit of hidden layer t for its power, and
    eliminates the n_L*(M - 1) x W Jacobian, rows*W*min(rows, W)."""
    m = count_monomials(arch.n_in, arch.total_degree)
    w = arch.free_weight_count
    rows = arch.n_out * (m - 1)
    powers = sum(n * d.bit_length() for n, d in zip(arch.widths[1:], arch.degrees))
    products = arch.n_out * (w * arch.depth + 1) + 2 * powers
    return max(tries, 1) * (m * arch.n_in + 16 * m * products + rows * w * min(rows, w))


def generic_rank(
    gmap: GaugedMap,
    tries: int = DEFAULT_TRIES,
    seed: int = DEFAULT_SEED,
    domain=None,
) -> tuple[int, tuple | None]:
    """Max Jacobian rank over `tries` independent samples, with its witness.

    Deterministic given the seed: trial t draws from a stream derived from
    (seed, t), so parallel and serial schedules agree and rank is monotone in
    `tries`.  Pivot failures resample without consuming a trial;
    SamplingExhausted is raised after 100*tries consecutive failures.

    Sampling stops early once the rank reaches min(free weights, target
    dimension, `theory.dim_upper_bound`).  The stop changes neither result:
    every sampled rank is a lower bound on the dimension, so no later trial
    can exceed a rank that meets a proven upper bound, and the witness is
    the first point that reached the best rank either way.

    A trial reads low only where a rank-`cap` minor vanishes.  Each output
    coefficient has weight degree deg_c = f_L (f_1 = 1, f_t = 1 + d_{t-1} f_{t-1}),
    so each cleared entry c_0*dc_m - c_m*dc_0 has degree 2*deg_c - 1, that minor
    has degree cap*(2*deg_c - 1), and by Schwartz-Zippel a trial over F_p reads
    low with probability at most that over p.  A prime that makes this bound
    1/2 or more raises ValueError.  The verbs refuse a map whose
    `sampling_steps` pass the work cap before they build it.
    """
    if tries < 1:
        raise ValueError("tries must be >= 1")
    if domain is None:
        domain = auto_prime_field(seed)
    cap = min(gmap.domain_dim, gmap.target_dim, dim_upper_bound(gmap.arch))
    if domain.p:
        deg_c = 1
        for d in gmap.arch.degrees:
            deg_c = 1 + d * deg_c
        degree = cap * (2 * deg_c - 1)
        if 2 * degree >= domain.p:
            raise ValueError(f"modulus {domain.p} is too small to sample {gmap.arch.label()}: "
                             f"the false-low bound per trial is {degree}/{domain.p} >= 1/2")
    best_rank = 0
    witness = None
    failures = 0
    for t in range(tries):
        rng = random.Random(derive_seed(seed, "trial", t))
        while True:
            point = tuple(domain.sample(rng) for _ in gmap.free)
            try:
                sample = jacobian_at(gmap, point, domain)
                break
            except PivotVanishes:
                failures += 1
                if failures >= 100 * tries:
                    raise SamplingExhausted(
                        f"{failures} consecutive pivot failures for {gmap.arch.label()}"
                    )
        failures = 0
        if sample.rank > best_rank or witness is None:
            best_rank = sample.rank
            witness = point
        if best_rank >= cap:
            break
    return best_rank, witness


class DimReport(NamedTuple):
    """Dimension statistics of one architecture under one sampling run."""

    arch: Architecture
    expdim_general: int
    expdim_refined: int | None
    dim_actual: int
    fiber_dim: int
    defective: bool
    trials: int
    seed: int
    witness: tuple | None
    domain_kind: str
    prime: int | None

    @property
    def expdim_applicable(self) -> int:
        return expected_dim(self.arch)


def neurovariety_stats(
    arch: Architecture,
    tries: int = DEFAULT_TRIES,
    seed: int = DEFAULT_SEED,
    domain=None,
) -> DimReport:
    """Expected dimensions, sampled actual dimension, fiber, defectiveness.

    The defectiveness flag compares against `theory.expected_dim`: the refined
    expected dimension where it is defined (single output, depth >= 2), the
    general one otherwise.
    """
    if domain is None:
        domain = auto_prime_field(seed)
    gmap = gauge_fix(arch)
    dim_actual, witness = generic_rank(gmap, tries, seed, domain)
    return DimReport(
        arch=arch,
        expdim_general=expected_dim_general(arch),
        expdim_refined=expected_dim_single_output(arch),
        dim_actual=dim_actual,
        fiber_dim=gmap.domain_dim - dim_actual,
        defective=dim_actual < expected_dim(arch),
        trials=tries,
        seed=seed,
        witness=witness,
        domain_kind=domain.kind,
        prime=domain.p or None,
    )


class BlockRankReport(NamedTuple):
    """Ranks of the Jacobian column blocks grouped by owning layer.

    `normal_rank` covers the union of layers 1..L-2, `last_rank` the final
    two layers together; under the theorem hypotheses the total splits as
    normal_rank + last_rank with each intermediate block of full size."""

    per_layer: tuple[tuple[int, int], ...]
    normal_rank: int
    last_rank: int
    total_rank: int


def _columns_rank(gmap: GaugedMap, sample: JacobianSample, layers: set[int], domain) -> int:
    cols = [j for j, (layer, _, _) in enumerate(gmap.free) if layer in layers]
    if not cols or not sample.matrix:
        return 0
    sub = [[row[j] for j in cols] for row in sample.matrix]
    return exact_rank(sub, domain)


def block_ranks(gmap: GaugedMap, point, domain) -> BlockRankReport:
    """Per-layer column-block ranks at one sample point; AmbientTooLarge when
    one trial's `sampling_steps` pass the cap."""
    refuse_past_cap(gmap.arch.label(), sampling_steps(gmap.arch, 1))
    sample = jacobian_at(gmap, point, domain)
    L = gmap.arch.depth
    per_layer = tuple(
        (layer, _columns_rank(gmap, sample, {layer}, domain)) for layer in range(1, L + 1)
    )
    normal = _columns_rank(gmap, sample, set(range(1, L - 1)), domain)
    last = _columns_rank(gmap, sample, {L - 1, L} if L >= 2 else {L}, domain)
    return BlockRankReport(
        per_layer=per_layer,
        normal_rank=normal,
        last_rank=last,
        total_rank=sample.rank,
    )
