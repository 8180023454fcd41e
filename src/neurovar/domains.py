"""Exact coefficient fields: arbitrary-precision rationals and large prime fields.

A field is identified by its characteristic `p`: `PrimeField(p).p` is the
modulus and `Rationals.p` is 0.  Elements are plain Python values with no
arithmetic interface of their own: a rational is an int or a
`fractions.Fraction` (`Rationals.sample` returns a Fraction, which the
reports' witness points show), and a prime-field element is an int that
callers reduce modulo p.  No floating point ever enters a computation.

Prime fields are a sampling device: evaluating a polynomial identity at a
uniform point of F_p fails with probability at most (total degree)/p, so with
p of order 2^60 a random specialization is an extremely reliable proxy for a
generic one.
"""

import random
from fractions import Fraction

# The 13 primes 2..41 as witnesses make Miller-Rabin deterministic for every
# n < _MR_BOUND, a strong pseudoprime to all 13 and far above the 2^62 moduli
# drawn here (2..37 alone pass 318665857834031151167461 = 399165290221 *
# 798330580441).  PrimeField refuses moduli at or past the bound.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981

PRIME_LO = 1 << 60
PRIME_HI = 1 << 62


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test (deterministic for n < _MR_BOUND)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(seed: int) -> int:
    """Draw a uniform-ish random prime in [PRIME_LO, PRIME_HI), deterministically from seed."""
    rng = random.Random(seed)
    while True:
        candidate = rng.randrange(PRIME_LO, PRIME_HI) | 1
        if is_probable_prime(candidate):
            return candidate


class Rationals:
    """The field Q of arbitrary-precision rationals, of characteristic 0."""

    kind = "rational"
    p = 0

    def sample(self, rng: random.Random) -> Fraction:
        # Small integers keep fraction-free elimination pivots modest.
        return Fraction(rng.randint(-999, 999))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """The field F_p for a prime modulus p; elements are ints in [0, p)."""

    kind = "prime"

    def __init__(self, p: int):
        if p >= _MR_BOUND:
            raise ValueError(f"PrimeField modulus {p} is past the proven primality range "
                             f"(below {_MR_BOUND})")
        if not is_probable_prime(p):
            raise ValueError(f"PrimeField modulus must be prime, got {p}")
        self.p = p

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, type(self)) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


RATIONALS = Rationals()
