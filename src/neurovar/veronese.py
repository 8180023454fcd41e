"""Composite Veronese maps, image relations, secant dimensions, power independence.

A composite Veronese is the chain of power maps nu_{e_m} o ... o nu_{e_1},
realized stage by stage as "all monomials of degree e_t in the previous
stage's coordinates".  It is a monomial map with coefficients 1: every final
coordinate is one source monomial x^E of degree D = prod(e_t).  A linear form
in the final coordinates pulls back to sum_E (sum of its coefficients on the
coordinates of exponent E) x^E, so it vanishes on the image exactly when each
of those sums is zero.  The relations are therefore read off the exponents,
with no elimination: z_f - z_c for each coordinate f that repeats the
exponent of an earlier coordinate c.

Power independence is a question about forms of one known degree N, and such
a form is decided by its values at the principal lattice of order N
(`lattice_points`): the form is zero exactly when it vanishes there.  So
nothing is sampled beyond need and no power of a polynomial is expanded.

Secant dimensions of single Veronese varieties reuse the network rank
machinery: the width-(n, s, 1) depth-2 architecture with activation degree d
parameterizes exactly the s-term power sums of linear forms, so its sampled
Jacobian rank is the projective dimension of the secant variety.

Independence of the powers p_1^r, ..., p_k^r is first certified at k points
drawn from the instance's seed: the k x k matrix of values p_i(x_j)^r modulo
a prime is a linear image of the powers' coefficient rows, so rank k there
proves the powers independent.  When that matrix is singular, the exact rank
of the values p_i(x)^r at the lattice of degree s*r is the rank of the
powers.  One routine (`_rows_power_rank`) decides this on the forms' integer
coefficient rows: `power_independence` calls it once it has checked and
cleared the coefficient rows it is given, and the random-instance lab
`power_threshold_scan` draws its trials straight into rows and calls it for
every power, with the monomials listed once per scan.  No polynomial object
is built here: a form is a coefficient row, a relation a coordinate pair.
"""

import math
import random
from typing import NamedTuple

from .errors import ProportionalPair
from .network import gauge_fix, validate
from .poly import Monomial, count_monomials, monomials_of_degree, refuse_past_cap
from .rank import (
    CERTIFICATE_FIELD,
    DEFAULT_SEED,
    DEFAULT_TRIES,
    _integer_rows,
    auto_prime_field,
    derive_seed,
    exact_rank,
    generic_rank,
    sampling_steps,
)

def lattice_points(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """The principal lattice of order `degree`: the point (1, e_1, ..., e_{n-1})
    for each exponent tuple e of `monomials_of_degree(nvars, degree)`, in that
    order, so there is one point per monomial of that degree.

    A form f of degree N in n variables that vanishes at these points is zero,
    over Q and over F_p for every prime p > N.  Write g(y) = f(1, y), of
    degree <= N in m = n - 1 variables; it vanishes on the points a of
    Z_{>=0}^m with |a| <= N.  By induction on m and N: for m = 0 or N = 0
    that is one point and g is a constant.  Otherwise the face |a| = N lies on
    the hyperplane l(y) = y_1 + ... + y_m - N = 0, where it is the principal
    lattice of order N in the coordinates y_1..y_{m-1}, so g vanishes on that
    hyperplane by induction on m and g = l * h with deg h <= N - 1.  At the
    remaining points 1 <= N - |a| <= N, so l(a) != 0 when p > N, and h
    vanishes on the lattice of order N - 1, hence h = 0 by induction on N.

    So the square matrix of monomial values at these points is invertible,
    and the values of degree-N forms at the lattice have the rank of their
    coefficient vectors.
    """
    return [(1,) + e[1:] for e in monomials_of_degree(nvars, degree)]


class CompositeVeronese(NamedTuple):
    """The coefficient map of a chain of Veronese embeddings.

    stage_monomials[t] lists the degree-e_{t+1} monomials in the stage-t
    coordinates; dims[t] is the coordinate count after t stages (dims[0] is
    the source variable count).
    """

    nvars: int
    degrees: tuple[int, ...]
    stage_monomials: tuple[tuple[Monomial, ...], ...]
    dims: tuple[int, ...]

    @property
    def ambient(self) -> int:
        """Coordinate count of the final stage."""
        return self.dims[-1]

    def evaluate(self, point):
        """Map a source point of integers or fractions through every stage, exactly."""
        values = list(point)
        if len(values) != self.nvars:
            raise ValueError("point length must equal the source variable count")
        for monos in self.stage_monomials:
            values = [math.prod(v ** e for v, e in zip(values, m) if e) for m in monos]
        return values


def relations_steps(nvars: int, degrees) -> int:
    """The estimated work of the chain's relations: a stage of m monomials
    (counted up to the cap) in n coordinates is listed, traced to the source
    exponents and evaluated at 50 check points, m*n*(nvars + 51) steps."""
    dims = [nvars]
    for e in degrees:
        dims.append(count_monomials(dims[-1], e))
    return sum(m * n * (nvars + 51) for n, m in zip(dims, dims[1:]))


def composite_veronese(nvars: int, degrees) -> CompositeVeronese:
    """Build the chain nu_{e_m} o ... o nu_{e_1} on `nvars` source variables.

    Raises AmbientTooLarge, before any stage is listed, when its
    `relations_steps` pass the work cap.
    """
    if nvars < 2:
        raise ValueError("composite Veronese needs at least 2 source variables")
    degrees = tuple(int(e) for e in degrees)
    if not degrees or any(e < 2 for e in degrees):
        raise ValueError("all Veronese degrees must be >= 2")
    refuse_past_cap(f"n={nvars} d={','.join(map(str, degrees))}", relations_steps(nvars, degrees))
    stages = [tuple(monomials_of_degree(nvars, degrees[0]))]
    for e in degrees[1:]:
        stages.append(tuple(monomials_of_degree(len(stages[-1]), e)))
    return CompositeVeronese(nvars, degrees, tuple(stages), (nvars, *map(len, stages)))


def _source_exponents(cv: CompositeVeronese) -> list[Monomial]:
    """The source monomial x^E of each final coordinate, as its exponent E."""
    n = cv.nvars
    exps = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    for monos in cv.stage_monomials:
        exps = [tuple(sum(a * e[i] for a, e in zip(m, exps) if a) for i in range(n))
                for m in monos]
    return exps


def image_linear_relations(cv: CompositeVeronese, seed: int = DEFAULT_SEED) -> list[tuple[int, int]]:
    """Basis of the linear forms vanishing on the image of the composite map.

    As linear forms in coordinates z0..z_{ambient-1}: z_f - z_c, given as the
    pair (c, f), for each coordinate f, in order, whose source monomial
    (`_source_exponents`) repeats that of an earlier coordinate c < f, the
    first of that monomial.
    A form vanishes on the image exactly when its coefficients sum to zero
    on every monomial's coordinates, and these relations span those forms.
    This is the reduced kernel basis, by elimination, of the chain
    evaluated at the lattice of degree prod(degrees): there the pivot
    columns are the first coordinates of each monomial, since distinct
    degree-D monomials are independent on that lattice (`lattice_points`),
    so the basis is a function of the space alone.  It is re-verified at 50
    random points drawn from `seed` before returning.
    """
    first: dict[Monomial, int] = {}
    relations = []
    for f, e in enumerate(_source_exponents(cv)):
        c = first.setdefault(e, f)
        if c != f:
            relations.append((c, f))

    rng = random.Random(derive_seed(seed, "relations"))
    for _ in range(50):
        img = cv.evaluate([rng.randint(-99, 99) for _ in range(cv.nvars)])
        if any(img[f] != img[c] for c, f in relations):
            raise AssertionError("computed relation does not vanish on the image")
    return relations


def empirical_secant_dim(
    nvars: int,
    deg: int,
    s: int,
    tries: int = DEFAULT_TRIES,
    seed: int = DEFAULT_SEED,
    domain=None,
) -> int:
    """Sampled projective dimension of Sec_s of the degree-`deg` Veronese.

    Routed through the depth-2 network machinery: the (nvars, s, 1)
    architecture with activation degree `deg` parameterizes s-term sums of
    d-th powers of linear forms, and the gauged Jacobian rank at a random
    point equals the projective secant dimension.  With `domain` None it
    samples over `generic_rank`'s default, the seed's `auto_prime_field`.
    Raises ValueError, naming the argument, for nvars below 1, deg below 2
    or s below 1.
    """
    if nvars < 1:
        raise ValueError(f"variable count nvars must be >= 1, got {nvars}")
    if deg < 2:
        raise ValueError(f"Veronese degree deg must be >= 2, got {deg}")
    if s < 1:
        raise ValueError(f"secant order s must be >= 1, got {s}")
    arch = validate((nvars, s, 1), (deg,))
    refuse_past_cap(arch.label(), sampling_steps(arch, tries))
    rank, _ = generic_rank(gauge_fix(arch), tries=tries, seed=seed, domain=domain)
    return rank


def _proportional(u, v, p: int) -> bool:
    """Whether the coefficient rows u and v are proportional over F_p (p > 0,
    entries read mod p) or Q (p = 0), i.e. all their 2x2 minors vanish.

    With (a, b) the entries of u and v at the first index where u is nonzero,
    the minors through that index, u_i*b - v_i*a, vanish exactly when
    v = (b/a)*u, and then all minors do; a zero u is proportional to every v.
    One pass, which for non-proportional rows usually stops at the second
    entry.
    """
    for a, b in zip(u, v):
        if a % p if p else a:
            break
    else:
        return True
    for x, y in zip(u, v):
        d = x * b - y * a
        if d % p if p else d:
            return False
    return True


def _certificate_points(rows, r: int, nvars: int, p: int) -> list[list[int]]:
    """One point of F_p^nvars per form, drawn from a stream seeded by the
    instance: the forms' integer coefficient rows and the power r."""
    rng = random.Random(derive_seed("power-points", r, *rows))
    return [[rng.randrange(p) for _ in range(nvars)] for _ in rows]


def _power_values(rows, monos, points, r: int, p: int) -> list[list[int]]:
    """The values p_i(x)^r, one row per point x and one column per form, of
    the forms with integer coefficient rows over `monos`: modulo p, or exactly
    when p = 0."""
    mod = p or None
    values = []
    for x in points:
        mono_vals = [math.prod(pow(v, e, mod) for v, e in zip(x, m) if e) for m in monos]
        values.append([pow(sum(map(int.__mul__, cs, mono_vals)), r, mod) for cs in rows])
    return values


def _rows_power_rank(rows, monos, nvars: int, s: int, r: int, domain) -> tuple[bool, int]:
    """`power_independence` of the degree-s forms in `nvars` variables with
    pairwise non-proportional integer coefficient rows (reduced mod p over
    F_p, cleared over Q) over `monos`, at the power r >= 0.

    Raises ValueError over F_p when p <= s*r.  Certificate at k points drawn
    from the rows and r, modulo the domain's prime or CERTIFICATE_FIELD's;
    otherwise the exact rank at the N points of the lattice of degree s*r,
    refused past the work cap: N*M*(nvars*(1 + bitlen(s)) + k) steps to
    evaluate, as for the certificate, and N*k*min(N, k) to eliminate.
    """
    p = domain.p
    if p and p <= s * r:
        raise ValueError(f"power_independence over F_{p} needs p > s*r = {s * r}")
    field = domain if p else CERTIFICATE_FIELD
    q = field.p
    k = len(rows)
    certificate = _power_values(rows, monos, _certificate_points(rows, r, nvars, q), r, q)
    if exact_rank(certificate, field) == k:
        return True, k
    n, value = count_monomials(nvars, s * r), nvars * (1 + s.bit_length()) + k
    refuse_past_cap(f"vars={nvars} and form degree={s} at power {r}",
                    n * len(monos) * value + n * k * min(n, k))
    rank = exact_rank(_power_values(rows, monos, lattice_points(nvars, s * r), r, p), domain)
    return rank == k, rank


def power_independence(rows, nvars: int, s: int, r: int, domain) -> tuple[bool, int]:
    """Whether p_1^r, ..., p_k^r are linearly independent, with the exact rank.

    Each form p_i of degree s in `nvars` variables is given as its coefficient
    row over `monomials_of_degree(nvars, s)`, with entries in `domain`.  Raises
    ValueError for r < 0, for a row of another length, and over F_p when
    p <= s*r.  Raises ProportionalPair if two rows are proportional (the
    instance precondition, `_proportional`).  The rows are first reduced mod p
    or, over Q, each scaled to integers, which scales its power and keeps
    (in)dependence; `_rows_power_rank`, the routine `power_threshold_scan`
    runs on its own rows, then decides.

    Certificate first: the forms are evaluated at k points drawn from the
    instance's own seed, and each value is raised to r modulo a prime (the
    forms' own, or CERTIFICATE_FIELD over Q, where a relation among integer
    powers clears to one with coprime weights that survives reduction).  Rank
    k of that k x k matrix proves independence and returns (True, k).
    Otherwise (dependent powers, or points on which some nonzero combination
    happens to vanish) the rank of the values p_i(x)^r at the lattice of
    degree s*r, exact over Q, is the rank of the powers (`lattice_points`).
    """
    if r < 0:
        raise ValueError(f"power must be >= 0, got {r}")
    monos = monomials_of_degree(nvars, s)
    for i, row in enumerate(rows):
        if len(row) != len(monos):
            raise ValueError(f"row {i} has {len(row)} coefficients, but degree {s} in "
                             f"{nvars} variables has {len(monos)} monomials")
    rows, p = _integer_rows(rows, domain)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if _proportional(rows[i], rows[j], p):
                raise ProportionalPair(i, j)
    return _rows_power_rank(rows, monos, nvars, s, r, domain)


class PowerScanReport(NamedTuple):
    """Outcome of repeated random power-independence trials.  The field
    `count` (the number of forms) shadows `tuple.count`."""

    nvars: int
    count: int
    form_degree: int
    power: int
    trials: int
    independent: int
    min_powers: tuple[int, ...] | None

    @property
    def all_independent(self) -> bool:
        return self.independent == self.trials


def power_scan_steps(nvars: int, k: int, s: int, trials: int, find_min_power: bool) -> int:
    """The estimated work of `power_threshold_scan`: M*nvars to list M monomials
    (counted up to the cap), per trial 16*k*M for draws and k*k*M for
    proportionality checks, and per power tried (k with `find_min_power`)
    k*M*(nvars*(1 + bitlen(s)) + k) to evaluate the certificate, k^3 to rank it."""
    m = count_monomials(nvars, s)
    certificate = k * m * (nvars * (1 + s.bit_length()) + k) + k**3
    trial = 16 * k * m + k * k * m + (k if find_min_power else 1) * certificate
    return m * nvars + trials * trial


def power_threshold_scan(
    nvars: int,
    count: int,
    form_degree: int,
    trials: int,
    seed: int = DEFAULT_SEED,
    power: int | None = None,
    find_min_power: bool = False,
) -> PowerScanReport:
    """Test independence of k-th powers on random instances.

    By default checks the power r = count - 1 (the proven threshold); with
    `find_min_power` it also records, per instance, the least r at which the
    powers become independent (linear scan from 1).

    Each trial draws `count` pairwise non-proportional coefficient rows
    straight from its own stream (one `domain.sample` per coefficient,
    redrawing zero and proportional rows), and every power tried is decided
    on them by `_rows_power_rank`, the routine behind `power_independence`.

    Raises ValueError, naming the inputs, for vars below 1, a negative form
    degree, a count below 1 or a negative power, and when two or more forms
    are asked of a single monomial (one variable, or form degree 0), where no
    pairwise non-proportional forms exist.  Raises AmbientTooLarge, naming
    vars and form degree, when its `power_scan_steps` pass the work cap, and
    at the lattice fallback of `_rows_power_rank`.
    """
    if nvars < 1:
        raise ValueError(f"vars={nvars}: nvars must be >= 1")
    if form_degree < 0:
        raise ValueError(f"form degree={form_degree}: deg must be >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    refuse_past_cap(f"vars={nvars} and form degree={form_degree}",
                    power_scan_steps(nvars, count, form_degree, trials, find_min_power))
    if count > 1 and (nvars == 1 or form_degree == 0):
        raise ValueError(
            f"count={count} needs pairwise non-proportional forms, but vars={nvars} "
            f"and form degree={form_degree} leave a single monomial"
        )
    if power is None:
        power = count - 1
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    domain = auto_prime_field(derive_seed(seed, "power-domain"))
    p = domain.p
    monos = monomials_of_degree(nvars, form_degree)
    independent = 0
    mins: list[int] = []
    for t in range(trials):
        rng = random.Random(derive_seed(seed, "power", t))
        rows: list[list[int]] = []
        while len(rows) < count:
            row = [domain.sample(rng) for _ in monos]
            if any(row) and not any(_proportional(row, u, p) for u in rows):
                rows.append(row)
        if _rows_power_rank(rows, monos, nvars, form_degree, power, domain)[0]:
            independent += 1
        if find_min_power:
            r = 1
            while not _rows_power_rank(rows, monos, nvars, form_degree, r, domain)[0]:
                r += 1
            mins.append(r)
    return PowerScanReport(
        nvars=nvars,
        count=count,
        form_degree=form_degree,
        power=power,
        trials=trials,
        independent=independent,
        min_powers=tuple(mins) if find_min_power else None,
    )
