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

A product is computed one of two ways, with the same term map either way.
The dict loop walks every pair of terms in Python.  Kronecker substitution
(Dumas, Fousse and Salvy, J. Symbolic Comput. 2011) packs each factor into
one int, one fixed-width slot per monomial, and lets C multiply the two ints.
The slot of a monomial of a homogeneous factor is its exponent vector
without x0 read in base B = deg(a) + deg(b) + 1; no exponent of the product
reaches B, so slot indices add without carries and the product's slot k holds
the coefficient of the degree-(deg a + deg b) monomial of index k.  A slot of
w >= 2*bitlen(max |coefficient|) + bitlen(min(#terms)) + 2 bits, rounded up
to whole bytes, holds every coefficient sum with its sign, so negative
coefficients pack as a positive part minus a negative part and read back
through an offset of 2^(w-1) per slot; over F_p each slot is then reduced
mod p.

Packing needs homogeneous factors with int coefficients; Fraction
coefficients (the test oracle's symbolic map, points that are not integral)
and non-homogeneous factors stay on the dict loop.  So do the products where
packing does not pay: those of fewer than PACK_MIN_PAIRS term pairs, and
those of so many slots S that the big-int multiply, which grows faster than
S, costs more than the loop, S*isqrt(S) > PACK_SLOT_FACTOR * pairs.  The
slots outnumber the product's monomials about (n-1)!-fold in n variables, so
in practice that is a factor of one term (a monomial shift) or 5 or more
variables.  The benchmark's deep-dims (4 inputs, output degrees 12 to 16)
packs 67 of the 204 products of a pass, 91% of their loop time, and its
products then take 0.23 s a pass instead of 0.40 s (2-core x86-64,
Python 3.11).
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt, log10
from operator import mul
from typing import Sequence

from .domains import RATIONALS
from .errors import AmbientTooLarge

Monomial = tuple[int, ...]

# Products of fewer term pairs run the dict loop.  Measured on the product
# streams of the benchmark's workloads (p ~ 2^61, 2-core x86-64, Python 3.11):
# below 64 pairs the fixed costs of packing (two buffers, every slot of the
# product read back) lose to the loop, 0.34 against 0.26 s on grid-scan's
# 14,202 such products per pass; from 64 to 255 pairs packing is about 2x
# faster (702 products, 0.13 against 0.06 s).  The crossover sits at 256 so
# that those small products of grid-scan's 459 small architectures stay on
# the loop: packing them would run that workload faster but read as more
# peak memory, since its benchmark runs keep every op of every pass (ROADMAP
# item 1).  At 256 a grid-scan pass packs 36 of its 14,940 products (4% of
# their loop time).
PACK_MIN_PAIRS = 256
# A product of S slots packs only if S*isqrt(S) <= PACK_SLOT_FACTOR * pairs.
# Measured on dense products in 3 to 6 variables, the packed path broke even
# at about 37: it won 1.4-3.3x at 13 to 28 (every shape of the benchmark's
# deep-dims, 4 variables) and lost at 49 and above (5 and 6 variables, where
# the slots outnumber the pairs).
PACK_SLOT_FACTOR = 32


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


def count_monomials(nvars: int, deg: int, cap: int) -> int:
    """binom(nvars-1+deg, deg), the number of degree-`deg` monomials in `nvars`
    variables, if it is at most `cap`; else the first binom(nvars-1+deg, i),
    i = 0, 1, ..., past `cap` (at least 2**i, so no huge binomial is formed)."""
    count, i = 1, 1
    while count <= cap and i <= min(nvars - 1, deg):
        count, i = count * (nvars + deg - i) // i, i + 1
    return count


# One size policy: each verb estimates its steps from its inputs alone
# (`rank.sampling_steps`, `theory.verdict_steps`, `veronese.relations_steps`
# and `power_scan_steps`, `scan.grid_architectures`), counting binomials only
# up to the cap, and refuses past it before listing or forming anything large.
# Timed near the cap (2-core x86-64, Python 3.11), a step took 50-300 ns:
# dims (6,4,3,1)/(4,4) --tries 1, 6.4e7 steps in 19 s; dims (2,1,1)/(130000)
# --tries 1, 7.7e7 in 10 s and 214 MB; power-indep, 2 forms of degree 13 in
# 10 variables, 7.5e7 in 4.2 s; relations (2; 5, 20), 1.7e7 in 5.1 s.  The
# largest estimate in the tests and benchmark is 5.3e7 ((4,4,4,2)/(4,4) at 10
# tries, 0.6 s); the inputs that used to run for minutes start at 6e8.  A
# `check` binomial at the cap has 10^4 bits, 3,010 digits, under the 4,300
# that Python 3.11 and later convert to decimal.
WORK_CAP = 100_000_000


def refuse_past_cap(what: str, steps: int) -> None:
    """Raise AmbientTooLarge, naming the inputs as `what`, when a verb's
    estimated `steps` pass WORK_CAP."""
    if steps > WORK_CAP:
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
        a, b = self.terms, other.terms
        p = self.ring.domain.p
        if _packing_pays(a, b):
            return SparsePoly(self.ring, _packed_product(a, b, p))
        return SparsePoly(self.ring, _dict_product(a, b, p))

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


def _dict_product(a: dict, b: dict, p: int) -> dict:
    """The term map of the product, one Python step per pair of terms."""
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(int.__add__, ma, mb))
            prev = get(m)
            out[m] = ca * cb if prev is None else prev + ca * cb
    if p:
        for m, c in out.items():
            out[m] = c % p
    for m in [m for m, c in out.items() if not c]:
        del out[m]
    return out


def _packing_pays(a: dict, b: dict) -> bool:
    """Whether `_packed_product` applies to the term maps and beats the dict
    loop (module docstring)."""
    pairs = len(a) * len(b)
    if pairs < PACK_MIN_PAIRS:
        return False
    degrees = set(map(sum, a)), set(map(sum, b))
    if len(degrees[0]) != 1 or len(degrees[1]) != 1:
        return False
    if set(map(type, a.values())) != {int} or set(map(type, b.values())) != {int}:
        return False
    nvars, deg = len(next(iter(a))), min(degrees[0]) + min(degrees[1])
    slots = deg * (deg + 1) ** (nvars - 2) + 1 if nvars > 1 else 1
    return slots * isqrt(slots) <= PACK_SLOT_FACTOR * pairs


@lru_cache(maxsize=64)
def _product_layout(nvars: int, deg: int) -> tuple[tuple[int, ...], tuple, tuple[int, ...]]:
    """The slot weights (0, 1, B, ..., B^(nvars-2)), B = deg + 1, and the
    degree-`deg` monomials with their slot indices."""
    weights = (0,) + tuple((deg + 1) ** i for i in range(nvars - 1))
    monos = tuple(monomials_of_degree(nvars, deg))
    return weights, monos, tuple(sum(map(mul, m, weights)) for m in monos)


def _pack(terms: dict, offsets: tuple[int, ...], width: int, slots: int) -> int:
    """sum of c * 2^(8*offset(m)) over the terms c*x^m, where a monomial's byte
    offset is the dot product of its exponents with `offsets`."""
    pos = bytearray(slots * width)
    neg = None
    for m, c in terms.items():
        at = sum(map(mul, m, offsets))
        if c < 0:
            if neg is None:
                neg = bytearray(len(pos))
            neg[at:at + width] = (-c).to_bytes(width, "little")
        else:
            pos[at:at + width] = c.to_bytes(width, "little")
    packed = int.from_bytes(pos, "little")
    return packed - int.from_bytes(neg, "little") if neg else packed


def _packed_product(a: dict, b: dict, p: int) -> dict:
    """The term map of the product of two homogeneous term maps with int
    coefficients, by Kronecker substitution (module docstring)."""
    if not a or not b:
        return {}
    ma, mb = next(iter(a)), next(iter(b))
    nvars, da, db = len(ma), sum(ma), sum(mb)
    weights, monos, slots = _product_layout(nvars, da + db)
    big = max(max(map(abs, a.values())), max(map(abs, b.values())))
    width = (2 * big.bit_length() + min(len(a), len(b)).bit_length() + 2 + 7) // 8
    offsets = tuple(w * width for w in weights)
    top = weights[-1]  # the slot index of x_{n-1}, 0 when n = 1
    product = (_pack(a, offsets, width, da * top + 1)
               * _pack(b, offsets, width, db * top + 1))
    size = ((da + db) * top + 1) * width
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * (size // width), "little")
    raw = (product + bias).to_bytes(size, "little")
    out = {}
    for m, k in zip(monos, slots):
        at = k * width
        c = int.from_bytes(raw[at:at + width], "little") - half
        if p:
            c %= p
        if c:
            out[m] = c
    return out
