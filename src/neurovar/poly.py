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
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Sequence

from .domains import RATIONALS

Monomial = tuple[int, ...]


def monomials_of_degree(nvars: int, deg: int) -> list[Monomial]:
    """All exponent tuples of total degree `deg` in `nvars` variables, lex order.

    The list has length binom(nvars-1+deg, nvars-1) and starts at x0^deg,
    ending at x_{nvars-1}^deg.  Lexicographic order on exponent tuples is
    descending tuple order: (deg,0,..) first.
    """
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
    if deg < 0:
        raise ValueError("deg must be >= 0")
    out = []
    for combo in combinations_with_replacement(range(nvars), deg):
        exp = [0] * nvars
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    out.sort(reverse=True)
    return out


def count_monomials(nvars: int, deg: int, cap: int) -> int:
    """binom(nvars-1+deg, deg), the number of degree-`deg` monomials in `nvars`
    variables, if it is at most `cap`; else the first binom(nvars-1+deg, i),
    i = 0, 1, ..., past `cap` (at least 2**i, so no huge binomial is formed)."""
    count, i = 1, 1
    while count <= cap and i <= min(nvars - 1, deg):
        count, i = count * (nvars + deg - i) // i, i + 1
    return count


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
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        get = out.get
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(map(int.__add__, ma, mb))
                prev = get(m)
                out[m] = ca * cb if prev is None else prev + ca * cb
        p = self.ring.domain.p
        if p:
            for m, c in out.items():
                out[m] = c % p
        for m in [m for m, c in out.items() if not c]:
            del out[m]
        return SparsePoly(self.ring, out)

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

