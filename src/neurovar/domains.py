"""Exact coefficient domains: arbitrary-precision rationals and large prime fields.

All arithmetic in this package routes through one of the two domain objects
defined here, so no floating point ever enters a computation.  A rational is
a plain Python int or a `fractions.Fraction`: the field's zero, one and
integers are ints, so integer computations over Q never build a Fraction,
and only `inv` (and `sample`, for the reports' witness points) returns one.
Prime-field elements are plain ints reduced modulo p.  Both are exact,
immutable, hashable, and safe to share across threads.

Prime fields are a sampling device: evaluating a polynomial identity at a
uniform point of F_p fails with probability at most (total degree)/p, so with
p of order 2^60 a random specialization is an extremely reliable proxy for a
generic one.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Witness set that makes Miller-Rabin deterministic for every n < 3.3e24,
# far above the 2^62 moduli used here.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

PRIME_LO = 1 << 60
PRIME_HI = 1 << 62


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test (deterministic for n < 3.3e24)."""
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
    """The field of arbitrary-precision rationals: ints and Fractions."""

    kind = "rational"

    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return Fraction(1) / a

    def from_int(self, n: int) -> int:
        return n

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
        if not is_probable_prime(p):
            raise ValueError(f"PrimeField modulus must be prime, got {p}")
        self.p = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in prime field")
        return pow(a, -1, self.p)

    def from_int(self, n: int) -> int:
        return n % self.p

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


RATIONALS = Rationals()
