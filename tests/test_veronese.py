"""Composite Veronese maps, image relations, secant sampler, power independence."""

import json
import math
import random
from fractions import Fraction

import pytest

import neurovar.poly as poly_module
import neurovar.rank as rank_module
import neurovar.veronese as veronese_module
from neurovar.cli import main
from neurovar.domains import PrimeField, RATIONALS
from neurovar.errors import AmbientTooLarge, ProportionalPair
from neurovar.poly import Ring, SparsePoly, monomials_of_degree, poly_pow
from neurovar.rank import CERTIFICATE_FIELD, _echelon, auto_prime_field
from neurovar.theory import ah_secant_defective, expected_secant_dim
from neurovar.veronese import (
    _proportional,
    composite_veronese,
    empirical_secant_dim,
    image_linear_relations,
    lattice_points,
    power_independence,
    power_threshold_scan,
)
from oracle import _random_instance, coefficient_rows, lattice_relations, reference_power_scan
from support import reference_rank


def test_composite_veronese_conic():
    cv = composite_veronese(2, [2])
    assert cv.dims == (2, 3)
    assert cv.stage_monomials[0] == ((2, 0), (1, 1), (0, 2))
    t, s = Fraction(3), Fraction(5)
    assert cv.evaluate([t, s]) == [t * t, t * s, s * s]


def test_composite_veronese_two_stages():
    cv = composite_veronese(2, [2, 2])
    assert cv.dims == (2, 3, 6)
    point = [Fraction(2), Fraction(7)]
    values = cv.evaluate(point)
    z = [Fraction(4), Fraction(14), Fraction(49)]
    assert values == [
        z[0] * z[0], z[0] * z[1], z[0] * z[2], z[1] * z[1], z[1] * z[2], z[2] * z[2]
    ]


def test_composite_veronese_plane_quadrics():
    cv = composite_veronese(3, [2])
    assert cv.ambient == 6
    assert len(cv.stage_monomials[0]) == 6


def test_composite_veronese_rejects_huge_ambient(monkeypatch):
    # Stage 2 of (3; 2, 5) has binom(10, 5) = 252 coordinates in 6, so the
    # relations take 252 * 6 * (3 + 51) = 81,648 steps after the 6 * 3 * 54
    # of stage 1: admitted at a cap of 82,620 and refused one below.
    steps = 6 * 3 * 54 + 252 * 6 * 54
    monkeypatch.setattr(poly_module, "WORK_CAP", steps)
    assert composite_veronese(3, [2, 5]).ambient == 252
    monkeypatch.setattr(poly_module, "WORK_CAP", steps - 1)
    with pytest.raises(AmbientTooLarge, match=r"^n=3 d=2,5: about 10\^5 steps of work, "
                                              f"past the cap of {steps - 1}$"):
        composite_veronese(3, [2, 5])


def test_composite_veronese_default_cap_admits_only_affordable_kernels(monkeypatch):
    # Ambient 55 (the largest chain in the benchmark) passes, and so does
    # ambient 53,130 (5 s); a degree-40 stage on 6 coordinates, 1,221,759
    # coordinates, is refused before any stage is listed.
    assert composite_veronese(4, [2, 2]).ambient == 55
    monkeypatch.setattr(veronese_module, "monomials_of_degree", _unlisted)
    with pytest.raises(AmbientTooLarge, match=r"^n=2 d=5,40: about 10\^9 steps of work"):
        composite_veronese(2, [5, 40])


def test_composite_veronese_refuses_huge_stage_without_its_binomial(monkeypatch):
    # binom(2*10**6 - 1, 10**6) alone takes tens of seconds to form; the
    # count stops at the first partial binomial past the cap.
    def unformed(*args):
        raise AssertionError("math.comb called on a stage past the cap")

    monkeypatch.setattr(math, "comb", unformed)
    monkeypatch.setattr(veronese_module, "monomials_of_degree", _unlisted)
    with pytest.raises(AmbientTooLarge, match=r"^n=1000000 d=1000000: about 10\^\d+ steps"):
        composite_veronese(10**6, [10**6])


def _unlisted(*args):
    raise AssertionError("monomials listed past the cap")


def test_composite_veronese_rejects_bad_input():
    with pytest.raises(ValueError):
        composite_veronese(1, [2])
    with pytest.raises(ValueError):
        composite_veronese(2, [1])
    with pytest.raises(ValueError):
        composite_veronese(2, [])


def test_image_relations_double_conic():
    # The composite degree-(2,2) map of a binary source satisfies exactly one
    # linear relation: the quadric z0*z2 - z1^2 read in stage-2 coordinates.
    # Those are indexed by quadric monomials in lex order, z0^2, z0 z1, z0 z2,
    # z1^2, z1 z2, z2^2, so the relation is Z3 - Z2, the pair (2, 3).
    cv = composite_veronese(2, [2, 2])
    assert image_linear_relations(cv, seed=5) == [(2, 3)]


def test_image_relations_single_veronese_is_nondegenerate():
    cv = composite_veronese(2, [2])
    assert image_linear_relations(cv, seed=5) == []


def test_image_relations_cubic_then_quadric():
    # Degree-6 binary forms span 7 of the 10 stage-2 coordinates.
    cv = composite_veronese(2, [3, 2])
    basis = image_linear_relations(cv, seed=5)
    assert cv.ambient == 10
    assert len(basis) == 3


def test_image_relations_stable_under_reseeding():
    cv = composite_veronese(2, [2, 2])
    a = image_linear_relations(cv, seed=1)
    b = image_linear_relations(cv, seed=123456)
    assert a == b  # reduced echelon basis of the same space is canonical


def test_image_relations_vanish_on_fresh_points():
    cv = composite_veronese(3, [2, 2])
    basis = image_linear_relations(cv, seed=9)
    assert basis and all(c < f for c, f in basis)
    rng = random.Random(1000)
    for _ in range(50):
        pt = [Fraction(rng.randint(-40, 40)) for _ in range(3)]
        img = cv.evaluate(pt)
        for c, f in basis:
            assert img[f] - img[c] == 0


# -- the principal lattice -------------------------------------------------------------


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_lattice_points_are_unisolvent(nvars):
    # The degree-N monomials evaluated at the lattice of order N form a
    # square matrix of full rank, over Q (elimination over the integers)
    # and modulo 2^61 - 1.
    for degree in range(9):
        monos = monomials_of_degree(nvars, degree)
        points = lattice_points(nvars, degree)
        assert len(points) == len(monos) and all(x[0] == 1 for x in points)
        matrix = [[math.prod(v ** e for v, e in zip(x, m)) for m in monos] for x in points]
        assert len(_echelon(matrix, 0)) == len(monos), (nvars, degree)
        assert reference_rank(matrix, CERTIFICATE_FIELD.p)[0] == len(monos), (nvars, degree)


def _chains(limit):
    """Every chain (nvars, degrees) whose stages all have at most `limit`
    coordinates."""
    found = []

    def extend(nvars, dim, degrees):
        if degrees:
            found.append((nvars, tuple(degrees)))
        e = 2
        while math.comb(dim - 1 + e, e) <= limit:
            extend(nvars, math.comb(dim - 1 + e, e), degrees + [e])
            e += 1

    nvars = 2
    while math.comb(nvars + 1, 2) <= limit:
        extend(nvars, nvars, [])
        nvars += 1
    return found


def test_image_relations_kernel_dimension_over_chain_grid():
    # The image spans every degree-D source form, so the relations number
    # ambient - binom(nvars - 1 + D, nvars - 1), and the pairs (c, f) read
    # off the exponents, as vectors z_f - z_c, are the reduced kernel basis of
    # the lattice values.
    chains = _chains(60)
    assert len(chains) == 106 and sum(len(ds) > 1 for _, ds in chains) == 28
    for nvars, degrees in chains:
        cv = composite_veronese(nvars, degrees)
        forms = math.comb(nvars - 1 + math.prod(degrees), nvars - 1)
        relations = image_linear_relations(cv, seed=3)
        assert len(relations) == cv.ambient - forms, (nvars, degrees)
        vectors = [[(i == f) - (i == c) for i in range(cv.ambient)] for c, f in relations]
        assert vectors == lattice_relations(cv), (nvars, degrees)


def test_image_relations_need_no_elimination(monkeypatch, capsys):
    # The single degree-99 stage (ambient 100) has no relation; it is read
    # off the exponents without a kernel or an echelon form.
    def refuse(*args):
        raise AssertionError("relations ran an elimination")

    monkeypatch.setattr(rank_module, "_echelon", refuse)
    assert main(["relations", "-n", "2", "-d", "99", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["ambient"], record["kernel_dim"], record["relations"]) == (100, 0, [])


# -- secant dimensions -------------------------------------------------------------


def test_empirical_secant_twisted_cubic():
    assert empirical_secant_dim(2, 3, 2, tries=5, seed=31) == 3


def test_empirical_secant_quartic_plane_defective():
    dim = empirical_secant_dim(3, 4, 5, tries=10, seed=31)
    assert dim < expected_secant_dim(3, 4, 5) == 14
    assert dim == 13
    assert empirical_secant_dim(3, 4, 5, tries=10, seed=777) == 13


def test_empirical_secant_quadric_family_defective():
    dim = empirical_secant_dim(3, 2, 2, tries=10, seed=31)
    assert dim < expected_secant_dim(3, 2, 2) == 5
    assert dim == 4


def test_empirical_secant_cubic_sporadic_case():
    # Secant order 7 of the quartic... cubic Veronese of P^4 is the sporadic
    # defective case; order 8 already fills the ambient space.
    assert empirical_secant_dim(5, 3, 7, tries=10, seed=31) == 33
    assert empirical_secant_dim(5, 3, 8, tries=10, seed=31) == 34 == expected_secant_dim(5, 3, 8)


def test_empirical_secant_large_quartic_sporadics():
    assert empirical_secant_dim(4, 4, 9, tries=10, seed=31) == 33
    assert empirical_secant_dim(5, 4, 14, tries=10, seed=31) == 68


def test_empirical_secant_never_exceeds_expected():
    rng = random.Random(14)
    for _ in range(15):
        nvars = rng.randint(2, 4)
        deg = rng.randint(2, 4)
        s = rng.randint(1, 6)
        dim = empirical_secant_dim(nvars, deg, s, tries=3, seed=rng.randint(0, 10**6))
        assert dim <= expected_secant_dim(nvars, deg, s)


def test_empirical_classification_matches_table():
    # Full sweep: every Veronese secant with at most 70 ambient coordinates,
    # source dimension <= 4, degree <= 4, order <= 10.
    domain = auto_prime_field(2024)
    for nvars in range(2, 6):
        for deg in range(2, 5):
            ambient = math.comb(nvars - 1 + deg, nvars - 1)
            if ambient > 70:
                continue
            for s in range(1, 11):
                dim = empirical_secant_dim(nvars, deg, s, tries=6, seed=55, domain=domain)
                expected = expected_secant_dim(nvars, deg, s)
                assert (dim < expected) == ah_secant_defective(nvars, deg, s), (
                    nvars, deg, s, dim, expected,
                )


# -- power independence --------------------------------------------------------------


# Linear binary forms x, y and x + y, as coefficient rows over (x, y).
_X_Y_XPLUSY = [[1, 0], [0, 1], [1, 1]]


def test_power_independence_dependent_at_power_one():
    ok, rank = power_independence(_X_Y_XPLUSY, 2, 1, 1, RATIONALS)
    assert not ok
    assert rank == 2


def test_power_independence_holds_at_power_two():
    ok, rank = power_independence(_X_Y_XPLUSY, 2, 1, 2, RATIONALS)
    assert ok
    assert rank == 3


def test_power_independence_random_quadratics():
    rng = random.Random(6)
    rows = []
    while len(rows) < 4:
        row = [Fraction(rng.randint(-9, 9)) for _ in monomials_of_degree(3, 2)]
        if any(row):
            rows.append(row)
    ok, rank = power_independence(rows, 3, 2, 3, RATIONALS)
    assert ok and rank == 4


def test_power_independence_detects_proportional_pair():
    # x + 2y, its multiple -3x - 6y, and y.
    rows = [[Fraction(1), Fraction(2)], [Fraction(-3), Fraction(-6)], [0, 1]]
    with pytest.raises(ProportionalPair) as err:
        power_independence(rows, 2, 1, 2, RATIONALS)
    assert (err.value.i, err.value.j) == (0, 1)


def _minors_vanish(u, v, p):
    """Reference proportionality: every 2x2 minor u_i*v_j - u_j*v_i of the two
    rows is zero, over F_p (p > 0) or Q (p = 0)."""
    return all(
        (u[i] * v[j] - u[j] * v[i]) % p == 0 if p else u[i] * v[j] == u[j] * v[i]
        for i in range(len(u))
        for j in range(i + 1, len(u))
    )


def _proportionality_pairs(rng, p, m):
    """Random pairs of length-m rows over F_p (p > 0, entries wrapping past
    [0, p)) or Q: unrelated, exactly proportional, with zero leading entries,
    and zero."""
    def entry():
        if p:
            return rng.randrange(p) + p * rng.randint(-2, 2)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))

    pairs = []
    for _ in range(60):
        u = [entry() for _ in range(m)]
        for lead in range(rng.randint(0, m)):
            u[lead] = p * rng.randint(-1, 1)
        lam = rng.randrange(1, p) if p else Fraction(rng.randint(-7, 7), rng.randint(1, 4))
        v = [lam * x + p * rng.randint(-2, 2) for x in u]
        pairs += [(u, v), (v, u), (u, [entry() for _ in range(m)]), (u, [0] * m), ([0] * m, u)]
        near = list(v)
        near[-1] += 1
        pairs.append((u, near))
    return pairs


@pytest.mark.parametrize("p", [0, 2, 7, 13, CERTIFICATE_FIELD.p])
def test_proportional_matches_two_by_two_minors(p):
    rng = random.Random(p + 5)
    seen = set()
    for m in (1, 2, 3, 6):
        for u, v in _proportionality_pairs(rng, p, m):
            expected = _minors_vanish(u, v, p)
            assert _proportional(u, v, p) == expected, (u, v, p)
            seen.add(expected)
    assert seen == {True, False}


def test_power_threshold_scan_binary_linear_forms():
    report = power_threshold_scan(2, 3, 1, trials=100, seed=8)
    assert report.power == 2
    assert report.independent == 100


def test_power_threshold_scan_five_quadrics():
    report = power_threshold_scan(3, 5, 2, trials=50, seed=8)
    assert report.power == 4
    assert report.independent == 50


def test_power_threshold_scan_pair():
    report = power_threshold_scan(2, 2, 1, trials=10, seed=8)
    assert report.power == 1
    assert report.independent == 10


def test_power_independence_monotone_in_power():
    # Once the powers become independent they stay independent.
    report = power_threshold_scan(2, 4, 2, trials=10, seed=21, find_min_power=True)
    assert report.min_powers is not None
    domain = auto_prime_field(0)
    rng = random.Random(99)
    for t, min_r in enumerate(report.min_powers):
        forms = _random_instance(2, 4, 2, domain, random.Random(rng.randint(0, 9999)))
        rows = coefficient_rows(forms, 2)
        base = None
        for r in range(1, 7):
            ok, _ = power_independence(rows, 2, 2, r, domain)
            if base is None and ok:
                base = r
            if base is not None and r >= base:
                assert ok
        assert min_r <= 3  # proven threshold k-1 for k = 4


# Criterion 8's grid: vars, count k and form degree s.
_CRITERION_8_CELLS = [(nv, k, s) for nv in (2, 3) for k in range(2, 7) for s in (1, 2, 3)]


def test_power_threshold_scan_matches_per_trial_reference():
    # The row-level scan reports what building each trial's forms and calling
    # power_independence per power reports, at the threshold on every cell
    # and at r = 1 and the least independent r on the cells with k <= 4.
    seed = 613
    for nv, k, s in _CRITERION_8_CELLS:
        runs = [{}]
        if k <= 4:
            runs += [{"power": 1}, {"find_min_power": True}]
        for kwargs in runs:
            assert power_threshold_scan(nv, k, s, trials=10, seed=seed, **kwargs) == \
                reference_power_scan(nv, k, s, trials=10, seed=seed, **kwargs), (nv, k, s, kwargs)


# -- the evaluation certificate against the expansion route ---------------------------


def _expanded_rank(rows, nvars, degree, power, domain):
    """Rank of the coefficient rows of p_i^r, for the forms p_i with these
    coefficient rows, from `poly_pow` and the oracle."""
    ring = Ring([f"z{i}" for i in range(nvars)], domain)
    monos = monomials_of_degree(nvars, degree)
    target = monomials_of_degree(nvars, degree * power)
    forms = [SparsePoly(ring, {m: c for m, c in zip(monos, row) if c}) for row in rows]
    expanded = [[poly_pow(f, power).terms.get(m, 0) for m in target] for f in forms]
    return reference_rank(expanded, domain.p)[0]


def _random_rows(nvars, count, degree, domain, rng):
    """Random pairwise non-proportional coefficient rows of forms of one
    degree over the domain."""
    monos = monomials_of_degree(nvars, degree)
    rows = []
    while len(rows) < count:
        if domain.p:
            row = [domain.sample(rng) for _ in monos]
        else:
            row = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in monos]
        if any(row) and not any(_minors_vanish(row, r, domain.p) for r in rows):
            rows.append(row)
    return rows


def _certificate_cases():
    """`power_independence` arguments (rows, nvars, degree, power, domain)
    over F_p and Q: random instances at powers 0..k, and the dependent
    families below the threshold and beyond the monomial count."""
    rng = random.Random(41)
    cases = []
    for domain in (auto_prime_field(41), RATIONALS):
        for nvars, count, degree in ((2, 3, 1), (2, 4, 2), (3, 4, 1), (3, 3, 2), (2, 5, 1)):
            rows = _random_rows(nvars, count, degree, domain, rng)
            cases += [(rows, nvars, degree, r, domain) for r in range(count + 1)]
    return cases


def test_power_independence_matches_expansion():
    dependent = 0
    for case in _certificate_cases():
        expected = _expanded_rank(*case)
        assert power_independence(*case) == (expected == len(case[0]), expected)
        if expected < len(case[0]):
            dependent += 1
    # Powers below k - 1 of binary linear forms, and five binary linear forms
    # at r = 2 (three monomials), are among the dependent cases.
    assert dependent >= 10


def test_power_independence_falls_back_on_repeated_points(monkeypatch):
    # One repeated point certifies nothing; the lattice decides.
    monkeypatch.setattr(
        veronese_module, "_certificate_points",
        lambda rows, r, nvars, p: [[3] * nvars for _ in rows],
    )
    for case in _certificate_cases():
        expected = _expanded_rank(*case)
        assert power_independence(*case) == (expected == len(case[0]), expected)


def test_power_independence_certificate_with_denominator_q(monkeypatch):
    # A coefficient 1/q is cleared to an integer before reduction mod q, so
    # the certificate alone proves independence of the squares of x/q + y, y
    # and x + y, without the lattice.
    def no_lattice(*args):
        raise AssertionError("the certificate did not decide")

    rows = [[Fraction(1, CERTIFICATE_FIELD.p), Fraction(1)], [0, 1], [1, 1]]
    assert _expanded_rank(rows, 2, 1, 2, RATIONALS) == 3
    monkeypatch.setattr(veronese_module, "lattice_points", no_lattice)
    assert power_independence(rows, 2, 1, 2, RATIONALS) == (True, 3)


def test_lab_never_multiplies_or_powers_polynomials(monkeypatch):
    # Relations, dependent powers and the power scan are decided by
    # evaluation alone, on coordinate pairs and coefficient rows: the lab
    # builds no polynomial object at all.
    cases = [(case, _expanded_rank(*case)) for case in _certificate_cases()]
    dependent = [(case, rank) for case, rank in cases if rank < len(case[0])]
    assert len(dependent) >= 10

    def refuse(*args):
        raise AssertionError("the lab built or powered a polynomial")

    monkeypatch.setattr(poly_module.SparsePoly, "__init__", refuse)
    monkeypatch.setattr(poly_module, "poly_pow", refuse)
    for nvars, degrees in ((2, (2, 2)), (3, (2, 2)), (2, (3, 2)), (2, (2, 2, 2))):
        image_linear_relations(composite_veronese(nvars, degrees), seed=5)
    for case, rank in dependent:
        assert power_independence(*case) == (False, rank)
    assert power_threshold_scan(2, 4, 1, trials=5, seed=5, find_min_power=True).min_powers == (3,) * 5
    assert power_threshold_scan(3, 5, 2, trials=5, seed=5).all_independent
    assert power_threshold_scan(2, 5, 1, trials=5, seed=5, power=2).independent == 0


def test_power_independence_refuses_primes_up_to_s_times_r():
    # The lattice of degree s*r needs p > s*r; at p = 7 quadrics reach r = 3.
    # x^2, y^2 and xy over the quadric monomials (x^2, xy, y^2).
    rows = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert power_independence(rows, 2, 2, 3, PrimeField(7)) == (True, 3)
    with pytest.raises(ValueError, match=r"F_7 needs p > s\*r = 8"):
        power_independence(rows, 2, 2, 4, PrimeField(7))


def test_power_independence_rejects_bad_instances():
    with pytest.raises(ValueError, match="power must be >= 0, got -1"):
        power_independence([[1, 0], [0, 1]], 2, 1, -1, RATIONALS)
    # A row of two coefficients is short for the three binary quadrics.
    with pytest.raises(ValueError, match="row 1 has 2 coefficients, but degree 2 in 2 variables "
                                         "has 3 monomials") as err:
        power_independence([[1, 0, 0], [0, 1]], 2, 2, 2, RATIONALS)
    assert "\n" not in str(err.value)
    assert power_independence([[1, 0], [0, 1]], 2, 1, 0, RATIONALS) == (False, 1)


@pytest.mark.parametrize(
    "nvars, count, form_degree, power, message",
    [
        (2, 0, 1, None, "count must be >= 1, got 0"),
        (1, 2, 3, None, "vars=1"),
        (3, 2, 0, None, "form degree=0"),
        (0, 2, 1, None, "nvars must be >= 1"),
        (2, 2, -1, None, "deg must be >= 0"),
        (2, 2, 1, -1, "power must be >= 0, got -1"),
    ],
)
def test_power_threshold_scan_rejects_bad_input(nvars, count, form_degree, power, message):
    with pytest.raises(ValueError, match=message):
        power_threshold_scan(nvars, count, form_degree, trials=3, seed=8, power=power)


@pytest.mark.parametrize("nvars, form_degree", [(20, 20), (10, 15), (2, 10**7), (10**7, 1),
                                                (10**6, 10**6)])
def test_power_threshold_scan_refuses_form_space_past_cap(nvars, form_degree, monkeypatch):
    # The form space is counted, not listed: the C(39, 20) ~ 6.9e10 monomials
    # of degree 20 in 20 variables would never finish enumerating.
    def unlisted(*args):
        raise AssertionError("monomials listed for a form space past the cap")

    monkeypatch.setattr(veronese_module, "monomials_of_degree", unlisted)
    with pytest.raises(AmbientTooLarge, match=f"^vars={nvars} and form degree={form_degree}: "):
        power_threshold_scan(nvars, 2, form_degree, trials=1, seed=8)


def test_power_threshold_scan_cap_counts_monomials_times_steps(monkeypatch):
    # Two linear forms in n variables: n*n steps to list their n monomials,
    # then 16*2*n draws, 4*n proportionality steps and 2*n*(2*n + 2) + 8 for
    # the certificate; 208,008 steps at n = 200 and 210,053 at n = 201.
    monkeypatch.setattr(poly_module, "WORK_CAP", 208_008)
    assert power_threshold_scan(200, 2, 1, trials=1, seed=8).all_independent
    with pytest.raises(AmbientTooLarge, match="^vars=201 and form degree=1: about 10\\^5 steps"):
        power_threshold_scan(201, 2, 1, trials=1, seed=8)


@pytest.mark.parametrize("nvars, form_degree", [(3, 20), (201, 1), (2, 200)])
def test_power_threshold_scan_accepts_form_spaces_past_ambient_cap(nvars, form_degree):
    # More monomials than a relations stage could have under its former cap of
    # 200, but cheap to list and scan, so the one work cap admits them.
    assert math.comb(nvars - 1 + form_degree, form_degree) > 200
    assert power_threshold_scan(nvars, 3, form_degree, trials=2, seed=8).all_independent


@pytest.mark.parametrize("nvars, form_degree, named", [(0, 1, "vars=0: "), (2, -1, "form degree=-1: ")])
def test_power_threshold_scan_names_bad_vars_and_form_degree(nvars, form_degree, named):
    # Checked before any monomial is listed, so the error names the input
    # as `power-indep` spells it.
    with pytest.raises(ValueError, match="^" + named):
        power_threshold_scan(nvars, 2, form_degree, trials=3, seed=8)
