"""Sparse polynomial arithmetic: pinned examples, ring-axiom properties and the
agreement of the packed (Kronecker) product with the dict loop."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from neurovar import poly as poly_module
from neurovar.domains import PrimeField, RATIONALS
from neurovar.poly import Ring, SparsePoly, count_monomials, monomials_of_degree, poly_pow
from neurovar.rank import auto_prime_field
from oracle import const, evaluate, neg, partial, sub

PRIME = PrimeField((1 << 61) - 1)
SMALL = PrimeField(7)


def test_monomials_of_degree_binary_quartics():
    monos = monomials_of_degree(2, 4)
    assert monos == [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]


def test_monomials_of_degree_linear():
    assert monomials_of_degree(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_monomials_of_degree_nonics():
    monos = monomials_of_degree(2, 9)
    assert len(monos) == 10
    assert monos[0] == (9, 0)
    assert monos[-1] == (0, 9)


@pytest.mark.parametrize("nvars,deg", [(1, 0), (2, 7), (3, 4), (4, 5), (5, 2)])
def test_monomials_of_degree_count_and_order(nvars, deg):
    monos = monomials_of_degree(nvars, deg)
    assert len(monos) == math.comb(nvars - 1 + deg, nvars - 1)
    assert monos == sorted(monos, reverse=True)
    assert all(sum(m) == deg for m in monos)


@pytest.mark.parametrize("nvars", range(1, 9))
def test_count_monomials_is_the_binomial_up_to_the_cap(nvars):
    for deg in range(13):
        total = math.comb(nvars - 1 + deg, deg)
        partials = [math.comb(nvars - 1 + deg, i) for i in range(min(nvars - 1, deg) + 1)]
        for cap in {0, total // 2, total - 1, total, total + 1, 10 * total}:
            count = count_monomials(nvars, deg, cap)
            if total <= cap:
                assert count == total
            else:
                # The first partial binomial past the cap: a lower bound.
                assert count == next(c for c in partials if c > cap)
                assert cap < count <= total


def test_poly_pow_binomial_square():
    ring = Ring(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    assert poly_pow(x + y, 2) == x * x + (x * y).scale(Fraction(2)) + y * y


def test_poly_pow_zeroth_power_is_one():
    ring = Ring(["x", "y"])
    p = ring.var("x") + const(ring, Fraction(5))
    assert poly_pow(p, 0) == ring.one()
    assert poly_pow(ring.zero(), 0) == ring.one()


def test_poly_pow_cube_of_binary_cubic_pencil():
    # (b*y^3 + x^3)^3 = x^9 + 3b x^6 y^3 + 3b^2 x^3 y^6 + b^3 y^9
    ring = Ring(["x", "y", "b"])
    x, y, b = (ring.var(n) for n in "xyb")
    cube = poly_pow(b * poly_pow(y, 3) + poly_pow(x, 3), 3)
    expected = (
        poly_pow(x, 9)
        + (b * poly_pow(x, 6) * poly_pow(y, 3)).scale(Fraction(3))
        + (b * b * poly_pow(x, 3) * poly_pow(y, 6)).scale(Fraction(3))
        + b * b * b * poly_pow(y, 9)
    )
    assert cube == expected


def test_poly_pow_pencil_sum_coordinates():
    # c*(b1 y^3+x^3)^3 + (b2 y^3+x^3)^3 has x^6y^3-coordinate 3*(c*b1 + b2).
    ring = Ring(["x", "y", "b1", "b2", "c"])
    x, y, b1, b2, c = (ring.var(n) for n in ("x", "y", "b1", "b2", "c"))
    f = c * poly_pow(b1 * poly_pow(y, 3) + poly_pow(x, 3), 3) + poly_pow(
        b2 * poly_pow(y, 3) + poly_pow(x, 3), 3
    )
    coeff = {m[:2]: c2 for m, c2 in f.terms.items() if m[0] == 6 and m[1] == 3}
    got = SparsePoly(ring, {m: c2 for m, c2 in f.terms.items() if (m[0], m[1]) == (6, 3)})
    expected = ((c * b1 + b2) * poly_pow(x, 6) * poly_pow(y, 3)).scale(Fraction(3))
    assert got == expected
    assert coeff


def test_poly_partial_power_rule():
    ring = Ring(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    assert partial(x * x * y, "x") == (x * y).scale(Fraction(2))


def test_poly_partial_constant():
    ring = Ring(["x"])
    assert partial(const(ring, Fraction(7)), "x") == ring.zero()


def test_poly_partial_three_variables():
    ring = Ring(["a", "b", "c"])
    a, b, c = (ring.var(n) for n in "abc")
    p = poly_pow(a, 4) * poly_pow(b, 2) * c
    assert partial(p, "b") == (poly_pow(a, 4) * b * c).scale(Fraction(2))


def test_poly_eval_simple():
    ring = Ring(["x", "y"])
    p = ring.var("x") * ring.var("x") + ring.var("y")
    assert evaluate(p, {"x": Fraction(2), "y": Fraction(3)}) == 7


def test_poly_eval_zero_polynomial():
    ring = Ring(["x", "y"])
    assert evaluate(ring.zero(), [Fraction(11), Fraction(-4)]) == 0


def test_poly_eval_conic_relation_on_squares():
    # z0*z2 - z1^2 vanishes on points of the form (t^2, t*s, s^2).
    ring = Ring(["z0", "z1", "z2"])
    z0, z1, z2 = (ring.var(f"z{i}") for i in range(3))
    rel = sub(z0 * z2, z1 * z1)
    rng = random.Random(42)
    for _ in range(20):
        t, s = Fraction(rng.randint(-50, 50)), Fraction(rng.randint(-50, 50))
        assert evaluate(rel, [t * t, t * s, s * s]) == 0


# -- property tests --------------------------------------------------------------


def _poly_from_spec(domain, terms):
    ring = Ring(["x", "y", "z"], domain)
    p = domain.p
    acc = {}
    for exps, coeff in terms:
        c = acc.get(exps, 0) + coeff
        if p:
            c %= p
        if c:
            acc[exps] = c
        else:
            acc.pop(exps, None)
    return SparsePoly(ring, acc)


def _canonical(poly):
    """`poly`, once every stored coefficient is checked canonical: nonzero,
    and in 1..p-1 over F_p."""
    p = poly.ring.domain.p
    assert all(0 < c < p if p else c != 0 for c in poly.terms.values()), poly.terms
    return poly


def _mod(value, p):
    return value % p if p else value


exponents = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
)
term_lists = st.lists(st.tuples(exponents, st.integers(-9, 9)), max_size=6)
# Q, a 61-bit prime field and F_7, where wraparound and cancellation are frequent.
fields = st.sampled_from([RATIONALS, PRIME, SMALL])


@settings(max_examples=150, deadline=None)
@given(term_lists, term_lists, term_lists, st.integers(-9, 9), fields)
def test_ring_axioms(ta, tb, tc, k, domain):
    a, b, c = (_poly_from_spec(domain, t) for t in (ta, tb, tc))
    ok = _canonical
    assert ok(ok(a + b) + c) == ok(a + ok(b + c))
    assert a + b == b + a
    assert ok(ok(a * b) * c) == ok(a * ok(b * c))
    assert a * b == b * a
    assert a * (b + c) == ok(a * b) + ok(a * c)
    assert ok(sub(a, b)) == a + ok(neg(b))
    assert ok(a + neg(a)) == a.ring.zero()
    assert ok(a.scale(k)) == ok(a * const(a.ring, k))
    assert ok(ok(a.scale(k)).scale(k)) == a.scale(k * k)


@settings(max_examples=90, deadline=None)
@given(term_lists, st.integers(0, 3), st.integers(0, 3), fields)
def test_pow_additivity(terms, e1, e2, domain):
    p = _poly_from_spec(domain, terms)
    e1_pow, e2_pow = _canonical(poly_pow(p, e1)), _canonical(poly_pow(p, e2))
    assert _canonical(poly_pow(p, e1 + e2)) == e1_pow * e2_pow


@settings(max_examples=120, deadline=None)
@given(
    term_lists,
    term_lists,
    st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)),
    fields,
)
def test_eval_is_ring_homomorphism(ta, tb, point, domain):
    p = domain.p
    a, b = _poly_from_spec(domain, ta), _poly_from_spec(domain, tb)
    vals = [_mod(v, p) for v in point]
    assert evaluate(_canonical(a * b), vals) == _mod(evaluate(a, vals) * evaluate(b, vals), p)
    assert evaluate(_canonical(a + b), vals) == _mod(evaluate(a, vals) + evaluate(b, vals), p)


@settings(max_examples=60, deadline=None)
@given(term_lists, st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)))
def test_reduction_compatibility(terms, point):
    # Integer-coefficient evaluation over the rationals reduces mod p to the
    # prime-field evaluation of the reduced polynomial.
    p = PRIME.p
    over_q = _poly_from_spec(RATIONALS, terms)
    over_p = _poly_from_spec(PRIME, terms)
    vals_q = [Fraction(v) for v in point]
    vals_p = [v % p for v in point]
    value = evaluate(over_q, vals_q)
    assert value.denominator == 1
    assert int(value) % p == evaluate(over_p, vals_p)


def test_partial_is_linear():
    ring = Ring(["x", "y"])
    rng = random.Random(3)
    for _ in range(20):
        a = _random_poly(ring, rng)
        b = _random_poly(ring, rng)
        assert partial(a + b, "x") == partial(a, "x") + partial(b, "x")


def _random_poly(ring, rng):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        m = tuple(rng.randint(0, 3) for _ in range(ring.nvars))
        c = Fraction(rng.randint(-9, 9))
        if c:
            terms[m] = c
    return SparsePoly(ring, terms)


# -- packed (Kronecker) products ---------------------------------------------------

PRODUCT_FIELDS = [PrimeField(2), PrimeField(3), SMALL, PrimeField(7919), PRIME,
                  auto_prime_field(1729), RATIONALS]


def _homogeneous(nvars, deg, rng, p, density=1.0, low=-9, high=9):
    """A term map over the degree-`deg` monomials: coefficients in 1..p-1 over
    F_p, in [low, high] over Q; zero coefficients are left out."""
    terms = {}
    for m in monomials_of_degree(nvars, deg):
        if rng.random() < density:
            c = rng.randrange(1, p) if p else rng.randint(low, high)
            if c:
                terms[m] = c
    return terms


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), st.integers(0, 6),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from(PRODUCT_FIELDS),
       st.integers(0, 2**32))
def test_packed_product_equals_the_dict_loop(nvars, da, db, fa, fb, domain, seed):
    # Any sizes, the zero polynomial (density 0), constants (degree 0) and
    # single terms included; over F_2 and F_3 most sums cancel.
    rng = random.Random(seed)
    p = domain.p
    a = _homogeneous(nvars, da, rng, p, fa)
    b = _homogeneous(nvars, db, rng, p, fb)
    packed = poly_module._packed_product(a, b, p)
    assert packed == poly_module._dict_product(a, b, p)
    assert all(0 < c < p if p else c != 0 for c in packed.values())
    ring = Ring([f"x{i}" for i in range(nvars)], domain)
    assert (SparsePoly(ring, a) * SparsePoly(ring, b)).terms == packed


@pytest.mark.parametrize("domain", PRODUCT_FIELDS, ids=lambda d: str(d.p))
def test_packed_product_on_both_sides_of_the_crossover(domain):
    rng = random.Random(domain.p)
    p = domain.p
    for nvars, da, db in ((2, 30, 7), (3, 4, 4), (3, 6, 6), (4, 3, 2), (4, 3, 3), (4, 12, 4)):
        a = _homogeneous(nvars, da, rng, p)
        b = _homogeneous(nvars, db, rng, p)
        product = poly_module._dict_product(a, b, p)
        assert poly_module._packed_product(a, b, p) == product
        ring = Ring([f"x{i}" for i in range(nvars)], domain)
        assert (SparsePoly(ring, a) * SparsePoly(ring, b)).terms == product
    # Wide Q coefficients: the slot width follows the largest one.
    a = _homogeneous(3, 5, rng, 0, low=-10**40, high=10**40)
    b = _homogeneous(3, 4, rng, 0, low=-10**25, high=10**25)
    assert poly_module._packed_product(a, b, 0) == poly_module._dict_product(a, b, 0)


@pytest.mark.parametrize("domain", PRODUCT_FIELDS, ids=lambda d: str(d.p))
def test_packed_product_cancels_to_two_terms(domain):
    # (x - y) * (x^200 + x^199*y + ... + y^200) = x^201 - y^201: 402 term
    # pairs, every inner sum zero.
    p = domain.p
    minus_one = -1 % p if p else -1
    ring = Ring(["x", "y"], domain)
    diff = SparsePoly(ring, {(1, 0): 1, (0, 1): minus_one})
    geometric = SparsePoly(ring, {m: 1 for m in monomials_of_degree(2, 200)})
    assert poly_module._packing_pays(diff.terms, geometric.terms)
    expected = {(201, 0): 1, (0, 201): minus_one}
    assert (diff * geometric).terms == expected
    assert poly_module._dict_product(diff.terms, geometric.terms, p) == expected


def test_deep_product_does_not_run_the_dict_loop(monkeypatch):
    # A product of the size deep-dims multiplies (455 x 35 terms of degrees 12
    # and 4 in 4 variables) must take the packed path.
    domain = auto_prime_field(1729)
    rng = random.Random(12)
    ring = Ring([f"x{i}" for i in range(4)], domain)
    a = SparsePoly(ring, _homogeneous(4, 12, rng, domain.p))
    b = SparsePoly(ring, _homogeneous(4, 4, rng, domain.p))
    assert (len(a.terms), len(b.terms)) == (455, 35)
    expected = poly_module._dict_product(a.terms, b.terms, domain.p)

    def refuse(*args):
        raise AssertionError("dict loop called on a product that should pack")

    monkeypatch.setattr(poly_module, "_dict_product", refuse)
    assert (a * b).terms == expected
    assert (b * a).terms == expected


def test_dict_loop_keeps_what_packing_cannot_or_should_not_take(monkeypatch):
    rng = random.Random(5)
    p = PRIME.p
    cases = [
        # Below the crossover: 15 x 15 = 225 pairs.
        (_homogeneous(3, 4, rng, p), _homogeneous(3, 4, rng, p), p),
        # Not homogeneous.
        ({**_homogeneous(3, 6, rng, p), (0, 0, 0): 1}, _homogeneous(3, 6, rng, p), p),
        # Fraction coefficients over Q.
        ({m: Fraction(c, 3) for m, c in _homogeneous(3, 6, rng, 0).items()},
         _homogeneous(3, 6, rng, 0), 0),
        # Six variables: the slots outnumber the pairs (14,407 slots, 3,136 pairs).
        (_homogeneous(6, 3, rng, p), _homogeneous(6, 3, rng, p), p),
    ]
    expected = [poly_module._dict_product(a, b, q) for a, b, q in cases]

    def refuse(*args):
        raise AssertionError("packed a product that should stay on the dict loop")

    monkeypatch.setattr(poly_module, "_packed_product", refuse)
    for (a, b, q), want in zip(cases, expected):
        assert not poly_module._packing_pays(a, b)
        ring = Ring([f"x{i}" for i in range(len(next(iter(a))))], PrimeField(q) if q else RATIONALS)
        assert (SparsePoly(ring, a) * SparsePoly(ring, b)).terms == want
