"""Architectures of polynomial networks and their gauged parameterization.

A network is a width vector (n_0, ..., n_L) together with activation degrees
(d_1, ..., d_{L-1}).  Layer i applies the weight matrix W_i (shape
n_i x n_{i-1}) and, except at the last layer, raises every coordinate to the
d_i-th power.  Each output is then a homogeneous polynomial of degree
D = d_1*...*d_{L-1} in the inputs, whose coefficients are polynomials in the
weight entries.  Collecting those coefficients in lexicographic monomial order
gives the coefficient map; fixing the last column of every W_i to 1 and
dividing through by a pivot coefficient gives the affine gauged map whose
Jacobian rank measures the dimension of the network's function space.

This module holds the architecture record and the gauge decision
(`GaugedMap`); `rank.jacobian_at` evaluates the gauged map's Jacobian at a
point without forming the coefficient map.  Weights are addressed by their
(layer, row, col) position (layer 1-based, row and column 0-based); no report
names them.
"""

import math
from typing import NamedTuple

from .errors import DegreeBelowTwo, LengthMismatch, WidthZero


class Architecture(NamedTuple):
    """Widths n_0..n_L and activation degrees d_1..d_{L-1}."""

    widths: tuple[int, ...]
    degrees: tuple[int, ...]

    @property
    def depth(self) -> int:
        """Number of weight layers L."""
        return len(self.widths) - 1

    @property
    def total_degree(self) -> int:
        """Output degree D = product of activation degrees (1 when L = 1)."""
        return math.prod(self.degrees)

    @property
    def n_in(self) -> int:
        return self.widths[0]

    @property
    def n_out(self) -> int:
        return self.widths[-1]

    @property
    def ambient_per_output(self) -> int:
        """Number of degree-D monomial coefficients per output."""
        return math.comb(self.n_in - 1 + self.total_degree, self.n_in - 1)

    @property
    def target_affine_dim(self) -> int:
        """Dimension of the dehomogenized target: n_L * (coefficients - 1)."""
        return self.n_out * (self.ambient_per_output - 1)

    @property
    def free_weight_count(self) -> int:
        """Free parameters under the standard gauge: sum of n_i*(n_{i-1}-1)."""
        w = self.widths
        return sum(w[i] * (w[i - 1] - 1) for i in range(1, len(w)))

    def label(self) -> str:
        n = ",".join(str(v) for v in self.widths)
        d = ",".join(str(v) for v in self.degrees)
        return f"n=({n}) d=({d})"


def validate(widths, degrees=()) -> Architecture:
    """Check the architecture invariants and return the `Architecture` record,
    an immutable `NamedTuple` (a tuple equal to `(widths, degrees)`).

    Raises WidthZero, DegreeBelowTwo, or LengthMismatch naming the offending
    index.  A two-entry width vector with no degrees is the valid L = 1
    (linear, D = 1) case.
    """
    widths = tuple(int(v) for v in widths)
    degrees = tuple(int(v) for v in degrees)
    if len(widths) < 2:
        raise LengthMismatch(len(widths), len(degrees))
    for i, w in enumerate(widths):
        if w < 1:
            raise WidthZero(i)
    if len(degrees) != len(widths) - 2:
        raise LengthMismatch(len(widths), len(degrees))
    for i, d in enumerate(degrees, start=1):
        if d < 2:
            raise DegreeBelowTwo(i)
    return Architecture(widths, degrees)


class GaugedMap(NamedTuple):
    """The affine parameterization: free weights -> non-pivot coefficient ratios.

    `free` is the gauge: it lists the (layer, row, col) positions of the free
    weights in position order (layer-major, then row-major), the order of a
    sample point's values and of the Jacobian columns, and every other
    position is fixed to 1.  `gauge_fix` builds the standard gauge; any other
    gauge is `GaugedMap(arch, free)` with its own free positions.  Per output,
    every coefficient is divided by the pivot, the coefficient of x0^D (index
    0 in lexicographic order), and the pivot coordinate itself is dropped.  Domain dimension is the free-weight count,
    target dimension n_L*(binom(n_0-1+D, n_0-1)-1).
    """

    arch: Architecture
    free: tuple[tuple[int, int, int], ...]

    @property
    def domain_dim(self) -> int:
        return len(self.free)

    @property
    def target_dim(self) -> int:
        return self.arch.target_affine_dim

    def weight_matrices(self, values, one) -> list[list[list]]:
        """Per-layer matrices W_1..W_L with values[j] at free[j] and `one` at
        every gauged position."""
        w = self.arch.widths
        mats = [[[one] * w[i - 1] for _ in range(w[i])] for i in range(1, len(w))]
        for (i, r, c), v in zip(self.free, values, strict=True):
            mats[i - 1][r][c] = v
        return mats


def gauge_fix(arch: Architecture) -> GaugedMap:
    """The standard gauge: the last column of every W_i is fixed to 1, and
    every (i, r, c) with c < n_{i-1} - 1 is free, in position order.

    The pivot of every output is index 0, the coefficient of x0^D; sampling
    resamples any point where it vanishes.
    """
    w = arch.widths
    free = tuple(
        (i, r, c) for i in range(1, len(w)) for r in range(w[i]) for c in range(w[i - 1] - 1)
    )
    return GaugedMap(arch, free)
