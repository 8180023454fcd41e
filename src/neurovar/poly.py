"""Sparse multivariate polynomial arithmetic over an exact coefficient field.

A polynomial is a map from exponent tuples to nonzero field elements:

    x0^2*x1 + 3  ->  {(2, 1): 1, (0, 0): 3}

Coefficients are plain ints (or Fractions over Q), combined with `+` and `*`
and reduced modulo the ring's characteristic p = `ring.domain.p` when p > 0,
so a stored coefficient over F_p lies in 1..p-1.  Zero coefficients are never
stored, so two polynomials are equal exactly when their term maps are equal.
Monomials are compared lexicographically on the exponent tuple (x0 before x1
before ...), which for a fixed total degree gives the order
[x^d, x^(d-1)y, ..., y^d] used everywhere in this package for coefficient
indexing.  Products and powers serve the Jacobian's forward value pass and
reverse (adjoint) pass; the Veronese lab only lists and counts monomials here,
and holds its forms as coefficient rows over `monomials_of_degree`.

A product reads each exponent tuple once as one int, its key, whose digits in
base B = deg(a) + deg(b) + 1 (x0 lowest) are its exponents.  No exponent of
the product reaches B, so keys add without carries: the pair loop adds ints,
and each monomial of the product is decoded from its key once (a factor of
one term needs no keys: it shifts the other's monomials).  When both
factors are homogeneous with int coefficients and the product has at least
PACK_FACTOR term pairs per slot, it is one big-int multiply instead (Kronecker
substitution; Dumas, Fousse and Salvy, J. Symbolic Comput. 2011).  The slot
of a monomial is its key without the x0 digit, which the degree fixes; each
factor is packed into one int, one fixed-width slot per key, C multiplies
the two ints, and every slot of the product is read back.  A slot of
w >= 2*bitlen(max |coefficient|) + bitlen(min(#terms)) + 2 bits, rounded up
to whole bytes, holds every coefficient sum with its sign, so negative
coefficients pack as a positive part minus a negative part and read back
through an offset of 2^(w-1) per slot; over F_p each slot is then reduced
mod p.  Fraction coefficients (the test oracle's symbolic map, points that
are not integral) and non-homogeneous factors stay on the pair loop.
"""

from itertools import product
from math import log10
from operator import add, mul
from typing import Sequence

from .domains import RATIONALS
from .errors import AmbientTooLarge

Monomial = tuple[int, ...]

# A product packs when it has at least PACK_FACTOR term pairs per slot.  On
# the product streams of one pass of each benchmark workload (15,519
# products; the 7,588 of two or more terms are all homogeneous with int
# coefficients and have at most 3.8 pairs per slot; p ~ 2^61 or Q, 2-core
# x86-64, Python 3.11), packing them all would lose to the key loop, 0.22
# against 0.15 s on grid-scan, 0.23 against 0.10 s on deep-dims and 0.015
# against 0.008 s on exact-lab, winning on 73 single products.  On dense
# products it broke even at 4 to 7 pairs per slot in 2 and 3 variables and
# won 1.3-4x from 8 up; in 4 variables, where the slots outnumber the
# monomials about 6-fold, it lost about 1.2x from 8 to 20 and broke even
# near 27.
PACK_FACTOR = 8


def monomials_of_degree(nvars: int, deg: int) -> list[Monomial]:
    """All exponent tuples of total degree `deg` in `nvars` variables, lex order.

    The list has length binom(nvars-1+deg, nvars-1) and starts at x0^deg,
    ending at x_{nvars-1}^deg.  Lexicographic order on exponent tuples is
    descending tuple order: (deg,0,..) first.  Each tuple follows from the
    one before in at most nvars steps: its last nonzero entry before the final
    one gives a unit to the next entry, which also takes the final entry's.
    """
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
    if deg < 0:
        raise ValueError("deg must be >= 0")
    exp, last = [deg] + [0] * (nvars - 1), nvars - 1
    out = [tuple(exp)]
    while exp[last] != deg:
        j = last - 1
        while not exp[j]:
            j -= 1
        exp[last], exp[j], exp[j + 1] = 0, exp[j] - 1, exp[last] + 1
        out.append(tuple(exp))
    return out


def count_monomials(nvars: int, deg: int, cap: int | None = None) -> int:
    """binom(nvars-1+deg, deg), the number of degree-`deg` monomials in `nvars`
    variables, if it is at most `cap` (default `WORK_CAP`); else the first
    binom(nvars-1+deg, i), i = 0, 1, ..., past `cap` (at least 2**i, so no huge
    binomial is formed)."""
    if cap is None:
        cap = WORK_CAP
    count, i = 1, 1
    while count <= cap and i <= min(nvars - 1, deg):
        count, i = count * (nvars + deg - i) // i, i + 1
    return count


# One size policy: each verb estimates its steps from its inputs alone
# (`rank.sampling_steps`, `theory.verdict_steps`, `veronese.relations_steps`
# and `power_scan_steps`, `scan.grid_architectures`), counting binomials only
# up to the cap, and refuses past it before listing or forming anything large.
# Timed near the cap (2-core x86-64, Python 3.11), a step took 50-380 ns:
# dims (6,4,3,1)/(4,4) --tries 1, 6.4e7 steps in 8-9 s; dims (2,1,1)/(130000)
# --tries 1, 7.7e7 in 8-14 s and 166 MB; power-indep, 2 forms of degree 13 in
# 10 variables, 7.5e7 in 4-6 s; relations (2; 5, 20), 1.7e7 in 6-6.5 s.  The
# largest estimate in the tests and benchmark is 5.3e7 ((4,4,4,2)/(4,4) at 10
# tries, 0.6 s); the inputs that used to run for minutes start at 6e8.  A
# `check` binomial at the cap has 10^4 bits, 3,010 digits, under the 4,300
# that Python 3.11 and later convert to decimal.
WORK_CAP = 100_000_000


def past_cap(steps: int) -> bool:
    """Whether estimated `steps` pass WORK_CAP."""
    return steps > WORK_CAP


def refuse_past_cap(what: str, steps: int) -> None:
    """Raise AmbientTooLarge, naming the inputs as `what`, when a verb's
    estimated `steps` pass WORK_CAP."""
    if past_cap(steps):
        raise AmbientTooLarge(f"{what}: about 10^{round(log10(steps))} steps of work, "
                              f"past the cap of {WORK_CAP}")


class Ring:
    """A polynomial ring with named variables over an exact field.

    Variable order is the tuple order of `names`; it fixes the exponent-tuple
    layout and therefore the lexicographic monomial order.
    """

    __slots__ = ("names", "domain", "_index")

    def __init__(self, names: Sequence[str], domain=RATIONALS):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self.domain = domain
        self._index = {n: i for i, n in enumerate(names)}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, var: str) -> int:
        return self._index[var]

    def zero(self) -> "SparsePoly":
        return SparsePoly(self, {})

    def one(self) -> "SparsePoly":
        return SparsePoly(self, {(0,) * self.nvars: 1})

    def var(self, name: str) -> "SparsePoly":
        exp = [0] * self.nvars
        exp[self._index[name]] = 1
        return SparsePoly(self, {tuple(exp): 1})

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and other.names == self.names
            and other.domain == self.domain
        )


class SparsePoly:
    """Immutable sparse polynomial; do not mutate `terms` after construction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        p = self.ring.domain.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = out[m] + c
                if p:
                    s %= p
                if s:
                    out[m] = s
                else:
                    del out[m]
            else:
                out[m] = c
        return SparsePoly(self.ring, out)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        return SparsePoly(self.ring, _product(self.terms, other.terms, self.ring.domain.p))

    def scale(self, c) -> "SparsePoly":
        """Multiply by a field scalar; over F_p an int, reduced here."""
        p = self.ring.domain.p
        if p:
            c %= p
        if not c:
            return self.ring.zero()
        if p:
            return SparsePoly(self.ring, {m: cv * c % p for m, cv in self.terms.items()})
        return SparsePoly(self.ring, {m: cv * c for m, cv in self.terms.items()})

    def __pow__(self, e: int) -> "SparsePoly":
        return poly_pow(self, e)

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and other.ring == self.ring
            and other.terms == self.terms
        )


def poly_pow(p: SparsePoly, e: int) -> SparsePoly:
    """p**e by binary exponentiation; p**0 is 1."""
    if e < 0:
        raise ValueError("exponent must be >= 0")
    result = p.ring.one()
    base = p
    while e:
        if e & 1:
            result = result * base
        if e > 1:
            base = base * base
        e >>= 1
    return result


def _product(a: dict, b: dict, p: int) -> dict:
    """The term map of the product of the term maps `a` and `b`, its
    coefficients reduced mod p when p > 0 (module docstring)."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:  # a monomial times b: no two pairs meet, nothing cancels
        (ma, ca), = a.items()
        return {tuple(map(add, ma, m)): ca * c % p if p else ca * c for m, c in b.items()}
    degrees = set(map(sum, a)), set(map(sum, b))
    base = max(degrees[0]) + max(degrees[1]) + 1
    nvars = len(next(iter(a)))
    weights = [base ** i for i in range(nvars)]
    left, right = ([(sum(map(mul, m, weights)), c) for m, c in t.items()] for t in (a, b))
    slots = (base - 1) * weights[-1] // base + 1
    if (len(degrees[0]) == len(degrees[1]) == 1 and len(a) * len(b) >= PACK_FACTOR * slots
            and {type(c) for t in (a, b) for c in t.values()} == {int}):
        return _packed(left, right, nvars, base, slots, p)
    acc: dict = {}
    get = acc.get
    for ka, ca in left:
        for kb, cb in right:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return {tuple([k // w % base for w in weights]): v
            for k, c in acc.items() if (v := c % p if p else c)}


def _packed(left: list, right: list, nvars: int, base: int, slots: int, p: int) -> dict:
    """The product of two homogeneous factors with int coefficients, given as
    (key, coefficient) lists, as one big-int multiply of `slots` slots; the
    slot of a key is the key without its x0 digit (module docstring), and
    the slots count up through the digit tuples (x_{nvars-1}, ..., x1)."""
    big = max(abs(c) for terms in (left, right) for _, c in terms)
    width = (2 * big.bit_length() + len(left).bit_length() + 2 + 7) // 8
    factors = []
    for terms in (left, right):
        pos, neg = bytearray(slots * width), bytearray(slots * width)
        for k, c in terms:
            at = k // base * width
            if c < 0:
                neg[at:at + width] = (-c).to_bytes(width, "little")
            else:
                pos[at:at + width] = c.to_bytes(width, "little")
        factors.append(int.from_bytes(pos, "little") - int.from_bytes(neg, "little"))
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    raw = (factors[0] * factors[1] + bias).to_bytes(slots * width, "little")
    out = {}
    for rest, at in zip(product(range(base), repeat=nvars - 1), range(0, slots * width, width)):
        c = int.from_bytes(raw[at:at + width], "little") - half
        if p:
            c %= p
        if c:
            out[(base - 1 - sum(rest), *rest[::-1])] = c
    return out
