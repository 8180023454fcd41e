"""Composite Veronese maps, image relations, secant dimensions, power independence.

A composite Veronese is the chain of power maps nu_{e_m} o ... o nu_{e_1},
realized stage by stage as "all monomials of degree e_t in the previous
stage's coordinates".  The linear forms vanishing on its image are computed
by evaluating the chain at more random points than the ambient has
coordinates and taking the kernel of the evaluation matrix with
`rank.nullspace`, the same echelon routine that computes every rank; only the
linear stratum of the ideal is needed, so no elimination theory is involved.

Secant dimensions of single Veronese varieties reuse the network rank
machinery: the width-(n, s, 1) depth-2 architecture with activation degree d
parameterizes exactly the s-term power sums of linear forms, so its sampled
Jacobian rank is the projective dimension of the secant variety.

Independence of the powers p_1^r, ..., p_k^r is first certified by
evaluation, without expanding any power: the k x k matrix of values
p_i(x_j)^r at k points modulo a prime is a linear image of the powers'
coefficient rows, so rank k there proves the powers independent.  Only when
that matrix is singular (the powers are dependent, or the points were
unlucky) are the powers expanded and their coefficient rows ranked exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .domains import RATIONALS, Rationals
from .errors import AmbientTooLarge, ProportionalPair
from .network import gauge_fix, validate
from .poly import Monomial, Ring, SparsePoly, monomials_of_degree
from .rank import (
    CERTIFICATE_FIELD,
    DEFAULT_SEED,
    DEFAULT_TRIES,
    _integer_rows,
    auto_prime_field,
    derive_seed,
    exact_rank,
    generic_rank,
    nullspace,
)

# The relation kernel ranks an (ambient + 10) x ambient matrix of fractions,
# so its time grows about as ambient^4: `image_linear_relations` took 0.5 s at
# ambient 66, 4.7 s at 120, 11.8 s at 153 and 24.1 s at 190 (2-core x86-64,
# Python 3.11).  The largest ambient in the tests and the benchmark is 55.
AMBIENT_CAP = 200


@dataclass(frozen=True)
class CompositeVeronese:
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

    def evaluate(self, point, domain):
        """Map a source point through every stage; exact in the domain."""
        values = list(point)
        if len(values) != self.nvars:
            raise ValueError("point length must equal the source variable count")
        for monos in self.stage_monomials:
            nxt = []
            for m in monos:
                term = domain.one
                for e, v in zip(m, values):
                    for _ in range(e):
                        term = domain.mul(term, v)
                nxt.append(term)
            values = nxt
        return values


def composite_veronese(nvars: int, degrees, cap: int = AMBIENT_CAP) -> CompositeVeronese:
    """Build the chain nu_{e_m} o ... o nu_{e_1} on `nvars` source variables.

    Raises AmbientTooLarge when a stage would have more than `cap`
    coordinates, before enumerating that stage's monomials.
    """
    if nvars < 2:
        raise ValueError("composite Veronese needs at least 2 source variables")
    degrees = tuple(int(e) for e in degrees)
    if not degrees or any(e < 2 for e in degrees):
        raise ValueError("all Veronese degrees must be >= 2")
    dims = [nvars]
    stages = []
    for e in degrees:
        count = math.comb(dims[-1] - 1 + e, e)
        if count > cap:
            raise AmbientTooLarge(f"stage ambient {count} exceeds the cap {cap}")
        monos = monomials_of_degree(dims[-1], e)
        stages.append(tuple(monos))
        dims.append(len(monos))
    return CompositeVeronese(nvars, degrees, tuple(stages), tuple(dims))


def image_linear_relations(
    cv: CompositeVeronese,
    oversample: int | None = None,
    seed: int = DEFAULT_SEED,
    domain=RATIONALS,
) -> list[SparsePoly]:
    """Basis of the linear forms vanishing on the image of the composite map.

    Evaluates the chain at `oversample` random source points (default:
    ambient + 10, and at least ambient + 1) and returns the kernel of the
    evaluation matrix as linear forms in coordinates z0..z_{ambient-1}.  The
    kernel is re-verified at fresh random points before returning.
    """
    ambient = cv.ambient
    if oversample is None:
        oversample = ambient + 10
    if oversample < ambient + 1:
        raise ValueError("oversample must be at least ambient + 1")
    rng = random.Random(derive_seed(seed, "relations"))
    if isinstance(domain, Rationals):
        def draw():
            return [domain.from_int(rng.randint(-99, 99)) for _ in range(cv.nvars)]
    else:
        def draw():
            return [domain.sample(rng) for _ in range(cv.nvars)]

    rows = [cv.evaluate(draw(), domain) for _ in range(oversample)]
    kernel = nullspace(rows, domain)

    ring = Ring([f"z{i}" for i in range(ambient)], domain)
    basis = []
    for vec in kernel:
        terms = {}
        for i, c in enumerate(vec):
            if c:
                exp = [0] * ambient
                exp[i] = 1
                terms[tuple(exp)] = c
        basis.append(SparsePoly(ring, terms))

    for _ in range(50):
        img = cv.evaluate(draw(), domain)
        for form in basis:
            val = form.eval(img)
            if val:
                raise AssertionError("computed relation does not vanish on the image")
    return basis


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
    point equals the projective secant dimension.
    """
    if s < 1:
        raise ValueError("secant order s must be >= 1")
    arch = validate((nvars, s, 1), (deg,))
    if domain is None:
        domain = auto_prime_field(seed)
    rank, _ = generic_rank(gauge_fix(arch), tries=tries, seed=seed, domain=domain)
    return rank


@dataclass(frozen=True)
class PowerInstance:
    """Homogeneous forms p_1..p_k of one degree, to be raised to the r-th power."""

    forms: tuple[SparsePoly, ...]
    power: int


def _proportional(u: dict, v: dict, monos, domain) -> bool:
    """Whether two coefficient vectors are proportional (all 2x2 minors zero)."""
    for i in range(len(monos)):
        for j in range(i + 1, len(monos)):
            a = u.get(monos[i], domain.zero)
            b = u.get(monos[j], domain.zero)
            c = v.get(monos[i], domain.zero)
            d = v.get(monos[j], domain.zero)
            if domain.sub(domain.mul(a, d), domain.mul(b, c)):
                return False
    return True


def _certificate_points(inst: PowerInstance, nvars: int, p: int) -> list[list[int]]:
    """k points of F_p^nvars, drawn from a stream seeded by the instance."""
    rng = random.Random(
        derive_seed("power-points", inst.power, *(f.terms_sorted() for f in inst.forms))
    )
    return [[rng.randrange(p) for _ in range(nvars)] for _ in inst.forms]


def _powers_certified(inst: PowerInstance, monos, domain) -> bool:
    """Whether the values p_i(x_j)^r at k points form a nonsingular matrix
    modulo a prime: the domain's own prime, or CERTIFICATE_FIELD over Q.

    Column i is the matrix of degree-s*r monomial values at the points
    times the coefficient vector of p_i^r, so rank k proves the powers
    independent over F_p.  Over Q each form is first scaled to integer
    coefficients, which scales its power and keeps (in)dependence; a
    relation among integer powers clears to one with coprime integer
    weights, which survives reduction mod q.
    """
    rows, p = _integer_rows([[f.terms.get(m, domain.zero) for m in monos] for f in inst.forms],
                            domain)
    field = domain if p else CERTIFICATE_FIELD
    if not p:
        p = field.p
        rows = [[c % p for c in row] for row in rows]
    r = inst.power
    values = []
    for x in _certificate_points(inst, len(monos[0]), p):
        mono_vals = []
        for m in monos:
            v = 1
            for xi, e in zip(x, m):
                if e:
                    v = v * pow(xi, e, p) % p
            mono_vals.append(v)
        values.append([pow(sum(map(int.__mul__, cs, mono_vals)) % p, r, p) for cs in rows])
    return exact_rank(values, field) == len(inst.forms)


def power_independence(inst: PowerInstance) -> tuple[bool, int]:
    """Whether p_1^r, ..., p_k^r are linearly independent, with the exact rank.

    The forms must be homogeneous of one degree s, and r >= 0.  Raises
    ProportionalPair if two input forms are linearly dependent (the instance
    precondition), detected through 2x2 minors of their coefficient vectors.

    Certificate first: the forms are evaluated at k points drawn from the
    instance's own seed, and each value is raised to r modulo a prime.  Rank
    k of that k x k matrix proves independence and returns (True, k) without
    expanding a power.  Otherwise (dependent powers, or points on which some
    nonzero combination happens to vanish) every p_i^r is expanded and the
    k x T matrix of its degree-s*r coefficients is ranked exactly.
    """
    if inst.power < 0:
        raise ValueError(f"power must be >= 0, got {inst.power}")
    forms = inst.forms
    if not forms:
        return True, 0
    ring = forms[0].ring
    domain = ring.domain
    s = forms[0].total_degree()
    if any(sum(m) != s for f in forms for m in f.terms):
        raise ValueError(f"power_independence needs forms homogeneous of one degree s={s}")
    monos = monomials_of_degree(ring.nvars, s)
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            if _proportional(forms[i].terms, forms[j].terms, monos, domain):
                raise ProportionalPair(i, j)
    if _powers_certified(inst, monos, domain):
        return True, len(forms)
    target = monomials_of_degree(ring.nvars, s * inst.power)
    rows = []
    for p in forms:
        q = p ** inst.power
        rows.append([q.terms.get(m, domain.zero) for m in target])
    rank = exact_rank(rows, domain)
    return rank == len(forms), rank


@dataclass(frozen=True)
class PowerScanReport:
    """Outcome of repeated random power-independence trials."""

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


def _random_instance(nvars, count, form_degree, domain, rng) -> list[SparsePoly]:
    """Random pairwise non-proportional forms of the given degree."""
    ring = Ring([f"z{i}" for i in range(nvars)], domain)
    monos = monomials_of_degree(nvars, form_degree)
    forms: list[SparsePoly] = []
    while len(forms) < count:
        terms = {}
        for m in monos:
            c = domain.sample(rng)
            if c:
                terms[m] = c
        cand = SparsePoly(ring, terms)
        if not terms:
            continue
        if any(_proportional(cand.terms, f.terms, monos, domain) for f in forms):
            continue
        forms.append(cand)
    return forms


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

    Raises ValueError, naming the inputs, for vars below 1, a negative form
    degree, a count below 1 or a negative power, and when two or more forms
    are asked of a single monomial (one variable, or form degree 0), where no
    pairwise non-proportional forms exist.
    """
    if nvars < 1:
        raise ValueError(f"vars={nvars}: nvars must be >= 1")
    if form_degree < 0:
        raise ValueError(f"form degree={form_degree}: deg must be >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > 1 and len(monomials_of_degree(nvars, form_degree)) == 1:
        raise ValueError(
            f"count={count} needs pairwise non-proportional forms, but vars={nvars} "
            f"and form degree={form_degree} leave a single monomial"
        )
    if power is None:
        power = count - 1
    domain = auto_prime_field(derive_seed(seed, "power-domain"))
    independent = 0
    mins: list[int] = []
    for t in range(trials):
        rng = random.Random(derive_seed(seed, "power", t))
        forms = _random_instance(nvars, count, form_degree, domain, rng)
        ok, _ = power_independence(PowerInstance(tuple(forms), power))
        if ok:
            independent += 1
        if find_min_power:
            r = 1
            while True:
                got, _ = power_independence(PowerInstance(tuple(forms), r))
                if got:
                    mins.append(r)
                    break
                r += 1
    return PowerScanReport(
        nvars=nvars,
        count=count,
        form_degree=form_degree,
        power=power,
        trials=trials,
        independent=independent,
        min_powers=tuple(mins) if find_min_power else None,
    )
