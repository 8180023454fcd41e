"""Coefficient fields: primality checking, characteristics, sampling ranges."""

import random
from fractions import Fraction

import pytest

from neurovar.domains import (
    PRIME_HI,
    PRIME_LO,
    PrimeField,
    RATIONALS,
    is_probable_prime,
    random_prime,
)


def test_is_probable_prime_matches_trial_division():
    for n in range(-3, 500):
        expected = n >= 2 and all(n % d for d in range(2, n))
        assert is_probable_prime(n) == expected, n
    assert is_probable_prime(2**61 - 1)  # Mersenne prime
    assert not is_probable_prime(2**61 + 1)
    assert not is_probable_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    # A strong pseudoprime to the 12 primes 2..37, caught by the witness 41.
    assert not is_probable_prime(399165290221 * 798330580441)


def test_prime_field_requires_prime_modulus():
    with pytest.raises(ValueError):
        PrimeField(15)
    with pytest.raises(ValueError):
        PrimeField(1)
    assert PrimeField(7).p == 7
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    with pytest.raises(ValueError, match="318665857834031151167461"):
        PrimeField(318665857834031151167461)
    # The witnesses 2..41 decide primality only below this composite, a strong
    # pseudoprime to all 13, so it and every larger modulus are refused.
    bound = 1287836182261 * 2575672364521
    assert bound == 3317044064679887385961981 and is_probable_prime(bound)
    for p in (bound, bound + 2):
        with pytest.raises(ValueError, match=f"modulus {p} .*below {bound}"):
            PrimeField(p)


def test_random_prime_range_and_determinism():
    p = random_prime(123)
    assert PRIME_LO <= p < PRIME_HI
    assert is_probable_prime(p)
    assert random_prime(123) == p
    assert random_prime(124) != p


def test_rational_domain_is_exact():
    # Q is the field of characteristic 0; its samples are integral Fractions,
    # never floats.
    assert RATIONALS.p == 0 and RATIONALS.kind == "rational"
    rng = random.Random(0)
    for _ in range(50):
        v = RATIONALS.sample(rng)
        assert isinstance(v, Fraction)
        assert -999 <= v <= 999
        assert v.denominator == 1


def test_prime_field_sampling_in_range():
    F = PrimeField(random_prime(9))
    rng = random.Random(1)
    for _ in range(50):
        v = F.sample(rng)
        assert 0 <= v < F.p
