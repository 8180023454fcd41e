"""Arithmetic predicates for network dimensions: expected values and verdicts.

Everything here is exact integer arithmetic on the architecture data: the two
expected-dimension formulas, the per-layer room condition, the classical table
of defective Veronese secant varieties, and the combined verdict that predicts
non-defectiveness (single output) or global identifiability (multi output).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import poly
from .network import Architecture, validate

# Verdict kinds.
PREDICTED_NON_DEFECTIVE = "PredictedNonDefective"
PREDICTED_IDENTIFIABLE = "PredictedIdentifiable"
ROOM_FAILS = "RoomFails"
LAST_VERONESE_DEFECTIVE = "LastVeroneseDefective"
FILLING_CASE_UNRESOLVED = "FillingCaseUnresolved"
INCONCLUSIVE = "Inconclusive"


def expected_dim_general(arch: Architecture) -> int:
    """min(free parameter count, ambient affine dimension), any output width."""
    return min(arch.free_weight_count, arch.target_affine_dim)


def expected_dim_single_output(arch: Architecture) -> int | None:
    """Refined expected dimension for single-output networks of depth >= 2,
    None for any other architecture (n_L != 1 or L < 2).

    Adds a third bound to the general formula: parameters of the layers below
    the last Veronese plus the projective dimension of the space that
    Veronese spans, binom(n_{L-2}-1+d_{L-1}, n_{L-2}-1) - 1.  The whole
    variety sits inside a family of such spans parameterized by the lower
    layers, so this bound is attained exactly when the last secant fills its
    span; counting the span's affine dimension instead would exceed the true
    dimension by one in every filling case.
    """
    if arch.n_out != 1 or arch.depth < 2:
        return None
    n = arch.widths
    L = arch.depth
    lower = sum(n[i] * (n[i - 1] - 1) for i in range(1, L - 1))
    span = math.comb(n[L - 2] - 1 + arch.degrees[L - 2], n[L - 2] - 1)
    return min(arch.free_weight_count, lower + span - 1, arch.target_affine_dim)


def expected_dim(arch: Architecture) -> int:
    """The applicable expected dimension: refined when n_L = 1 and L >= 2."""
    refined = expected_dim_single_output(arch)
    return expected_dim_general(arch) if refined is None else refined


def dim_upper_bound(arch: Architecture) -> int:
    """The smallest proven upper bound on the dimension of the gauged image.

    `expected_dim(arch)`, lowered at every width-1 hidden layer k to the
    expected dimension of the network cut there, (n_0..n_k) with degrees
    (d_1..d_{k-1}).  Past a width-1 layer every output is a multiple
    c_l * F_k^(D/D_k) of that layer's single form F_k, D_k being the degree
    of F_k.  Dividing each output by its pivot coefficient removes c_l, so
    the gauged image is the image of the cut network's gauged image under
    [F_k] -> [F_k^(D/D_k)], which is finite-to-one; the two images have the
    same dimension, and the cut's expected dimension bounds it.  A gauge
    mask only restricts the parameters, so the bound holds under any mask.
    """
    bound = expected_dim(arch)
    for k in range(1, arch.depth):
        if arch.widths[k] == 1:
            cut = validate(arch.widths[: k + 1], arch.degrees[: k - 1])
            bound = min(bound, expected_dim(cut))
    return bound


class LevelRoom(NamedTuple):
    """One layer's room inequality n_{i-1}+n_i-1 < binom(n_{i-1}-1+d_i, n_{i-1}-1)."""

    layer: int
    lhs: int
    rhs: int
    holds: bool


def room_condition(arch: Architecture) -> tuple[LevelRoom, ...]:
    """Strict room inequalities for layers i = 1..L-1 (requires L >= 2), one
    `LevelRoom` per layer in layer order."""
    if arch.depth < 2:
        raise ValueError("room condition needs at least one hidden layer (L >= 2)")
    n = arch.widths
    levels = []
    for i in range(1, arch.depth):
        lhs = n[i - 1] + n[i] - 1
        rhs = math.comb(n[i - 1] - 1 + arch.degrees[i - 1], n[i - 1] - 1)
        levels.append(LevelRoom(i, lhs, rhs, lhs < rhs))
    return tuple(levels)


def ah_secant_defective(nvars: int, deg: int, s: int) -> bool:
    """Whether Sec_s of the degree-`deg` Veronese of P^{nvars-1} is defective.

    The complete classical list of defective cases: the quadric family
    (deg 2, nvars >= 3, 2 <= s <= nvars-1) and the four sporadic triples
    (3,4,5), (4,4,9), (5,3,7), (5,4,14), all with defect exactly 1 except
    the quadrics.  Every entry is re-derivable by exact rank sampling
    (empirical_secant_dim); the cubic sporadic case in particular sits at
    secant order 7, with order 8 already filling.  Degenerate edges (linear
    span deg = 1, a single point s = 1, or a point source nvars = 1) are
    never defective.
    """
    if nvars < 1 or deg < 1 or s < 1:
        raise ValueError("nvars, deg, s must all be >= 1")
    if nvars == 1 or deg == 1 or s == 1:
        return False
    if deg == 2:
        return nvars >= 3 and 2 <= s <= nvars - 1
    return (nvars, deg, s) in {(3, 4, 5), (4, 4, 9), (5, 3, 7), (5, 4, 14)}


def expected_secant_dim(nvars: int, deg: int, s: int) -> int:
    """Expected projective dimension of Sec_s of the Veronese: min(s*nvars, B) - 1."""
    return min(s * nvars, math.comb(nvars - 1 + deg, nvars - 1)) - 1


class Condition3(NamedTuple):
    """Identifiability condition for n_L >= 2: the single-output companion
    architecture must have expected dimension equal to its parameter count
    (`holds`)."""

    single_output_expdim: int
    parameter_count: int
    holds: bool


class Verdict(NamedTuple):
    """Outcome of the theorem predicates, with the evidence that produced it:
    `room` is `room_condition`'s tuple of levels, `failing_layer` the layer of
    the first failing level for RoomFails (else None), `ah_query` the last Veronese's
    (nvars, deg, secant order), and `condition3` the companion check for
    n_L >= 2 (None for one output and for Inconclusive)."""

    kind: str
    failing_layer: int | None
    room: tuple[LevelRoom, ...]
    ah_query: tuple[int, int, int]
    ah_defective: bool
    condition3: Condition3 | None

    def label(self) -> str:
        if self.kind == ROOM_FAILS:
            return f"RoomFails({self.failing_layer})"
        return self.kind


def theorem_verdict(arch: Architecture) -> Verdict:
    """Evaluate the non-defectiveness / identifiability conditions.

    (i) every layer satisfies the room inequality; (ii) the last Veronese
    V^{n_{L-2}-1}_{d_{L-1}} is not n_{L-1}-defective; for n_L >= 2
    additionally (iii) the single-output companion's expected dimension
    equals its parameter count.  Room failures are reported before table
    failures.  Architectures with a width-1 hidden layer are Inconclusive:
    the last-column gauge does not cut the rescaling orbit through such a
    bottleneck, so the parameter-count bound the predicates compare against
    overcounts by one and neither direction of the prediction is sound.
    """
    if arch.depth < 2:
        raise ValueError("theorem conditions need at least one hidden layer")
    room = room_condition(arch)
    n = arch.widths
    L = arch.depth
    ah_query = (n[L - 2], arch.degrees[L - 2], n[L - 1])
    ah_def = ah_secant_defective(*ah_query)
    if any(n[i] < 2 for i in range(1, L)):
        return Verdict(INCONCLUSIVE, None, room, ah_query, ah_def, None)

    cond3 = None
    if arch.n_out >= 2:
        companion = validate(n[:L] + (1,), arch.degrees)
        refined, count = expected_dim_single_output(companion), companion.free_weight_count
        cond3 = Condition3(refined, count, refined == count)

    failing = next((lv.layer for lv in room if not lv.holds), None)
    if failing is not None:
        return Verdict(ROOM_FAILS, failing, room, ah_query, ah_def, cond3)
    if ah_def:
        return Verdict(LAST_VERONESE_DEFECTIVE, None, room, ah_query, ah_def, cond3)
    if arch.n_out == 1:
        return Verdict(PREDICTED_NON_DEFECTIVE, None, room, ah_query, ah_def, cond3)
    if cond3 is not None and not cond3.holds:
        return Verdict(FILLING_CASE_UNRESOLVED, None, room, ah_query, ah_def, cond3)
    return Verdict(PREDICTED_IDENTIFIABLE, None, room, ah_query, ah_def, cond3)


def verdict_steps(arch: Architecture) -> int:
    """The estimated work of `theorem_verdict(arch)` and its report: the
    squared bit length (decimal conversion is quadratic) of each room bound
    and, for several outputs, binom(n_0-1+D, D), counted up to 2^floor(sqrt(cap))."""
    pairs = list(zip(arch.widths, arch.degrees))
    pairs += [(arch.n_in, arch.total_degree)] * (arch.n_out > 1)
    cap = (1 << int(poly.WORK_CAP ** 0.5)) - 1
    return sum(poly.count_monomials(n, d, cap).bit_length() ** 2 for n, d in pairs)


def necessity_scope(arch: Architecture) -> bool:
    """Whether the necessity direction of the theorem is asserted for `arch`.

    The direction "conditions fail => defective" is claimed for single-output
    networks whose expected dimension does not exceed the ambient; since the
    expected dimension is by definition capped by the ambient, the non-vacuous
    reading is that the parameter count itself fits in a nontrivial ambient.
    Its room-inequality part is known to be false inside this scope: the
    strict room inequality is sufficient but not necessary, and acceptance
    criterion 9 pins the in-scope RoomFails rows that attain their expected
    dimension.  The table part (LastVeroneseDefective) holds on every
    in-scope row scanned.
    """
    if arch.n_out != 1 or arch.depth < 2:
        return False
    m = arch.target_affine_dim
    return m >= 1 and arch.free_weight_count <= m
