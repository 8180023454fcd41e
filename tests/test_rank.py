"""Jacobian sampling and exact rank: paper-pinned values and engine properties."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from neurovar.domains import PrimeField, RATIONALS
from neurovar.errors import PivotVanishes, SamplingExhausted
from neurovar.network import gauge_fix, validate
from neurovar.poly import Ring, poly_pow
from oracle import (
    evaluate,
    is_zero,
    nullspace,
    partial,
    reference_echelon,
    symbolic_map,
    tangent_jacobian,
)
from support import reference_rank, tctc_gauge

import neurovar.rank as rank_module
from neurovar.rank import (
    CERTIFICATE_FIELD,
    _echelon,
    _integer_rows,
    auto_prime_field,
    block_ranks,
    derive_seed,
    exact_rank,
    generic_rank,
    jacobian_at,
    neurovariety_stats,
)
from neurovar.scan import ScanSpec, grid_architectures
from neurovar.theory import dim_upper_bound, expected_dim

PRIME = auto_prime_field(97)


# -- independent kernel oracle (reads `support.reference_rank`'s reduced rows)


def reference_kernel(reduced, ncols, p=0):
    """The free-column basis read off reduced rows: 1 at the free column f,
    0 at the other free columns, minus row r's entry f at row r's pivot."""
    pivots = [next(c for c, v in enumerate(row) if v) for row in reduced]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[f] % p if p else -row[f]
        basis.append(v)
    return basis


def guiding_example_matrix():
    """The 13x8 frame matrix of the depth-3 (2,3,2,1),(4,3) network, written on
    the adapted degree-12 frame and evaluated at a=1, b=2, b11=3, b21=5,
    b12=7, b22=11, c11=13."""
    a, b, b11, b21, b12, b22, c11 = 1, 2, 3, 5, 7, 11, 13
    z = [0] * 8
    rows = [
        [12 * b11 * c11, 0, 12 * a**3 * c11, 0, 0, 0, 0, 0],
        [12 * b21, 0, 12 * a**3, 0, 0, 0, 0, 0],
        [0, 12 * b12 * c11, 12 * b**3 * c11, 0, 0, 0, 0, 0],
        [0, 12 * b22, 12 * b**3, 0, 0, 0, 0, 0],
        [0, 0, 36 * a * b**2 * c11, 0, 0, 0, 0, 0],
        [0, 0, 36 * a**2 * b * c11, 0, 0, 0, 0, 0],
        [0, 0, 36 * a * b**2, 0, 0, 0, 0, 0],
        [0, 0, 36 * a**2 * b, 0, 0, 0, 0, 0],
        [0, 0, 0, 3 * c11, 0, 0, 0, 0],
        [0, 0, 0, 0, 3 * c11, 0, 0, 0],
        [0, 0, 0, 0, 0, 3, 0, 0],
        [0, 0, 0, 0, 0, 0, 3, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ]
    assert all(len(r) == len(z) for r in rows)
    return rows


def test_exact_rank_identity():
    rows = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert exact_rank(rows, RATIONALS) == 3


def test_exact_rank_zero_matrix():
    rows = [[Fraction(0)] * 4 for _ in range(2)]
    assert exact_rank(rows, RATIONALS) == 0
    assert exact_rank([], RATIONALS) == 0


def test_exact_rank_guiding_frame_matrix():
    rows = guiding_example_matrix()
    expected, _ = reference_rank(rows)
    assert expected == 8
    assert exact_rank([[Fraction(v) for v in r] for r in rows], RATIONALS) == 8
    p = PRIME.p
    assert exact_rank([[v % p for v in r] for r in rows], PRIME) == 8


def _rank_deficient_matrices(rng):
    """Products of two thin factors, wide and tall among them, and a matrix
    with a zero row and a zero column."""
    mats = []
    for nr, nc, k in ((5, 5, 2), (6, 6, 5), (3, 8, 2), (2, 9, 1), (8, 3, 2), (9, 2, 1)):
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(nr)]
        right = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
                 for _ in range(k)]
        mats.append([[sum(a * r[j] for a, r in zip(row, right)) for j in range(nc)]
                     for row in left])
    zeroed = [[Fraction(rng.randint(-5, 5)) for _ in range(5)] for _ in range(4)]
    zeroed[2] = [Fraction(0)] * 5
    for row in zeroed:
        row[1] = Fraction(0)
    mats.append(zeroed)
    return mats


def _certificate_prime_matrices(rng):
    """Matrices built around the certificate prime q: A + q*B with A of low
    rank, and a column of multiples of q, whose ranks modulo q are below
    their rational ranks; and a row with denominator q, which clears to
    multiples of q but for one entry."""
    q = CERTIFICATE_FIELD.p
    mats = []
    for nr, nc, k in ((3, 3, 1), (4, 4, 2), (2, 5, 1), (5, 2, 1), (4, 4, 0)):
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(nr)]
        right = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(k)]
        mats.append([[Fraction(sum(a * r[j] for a, r in zip(row, right)) + q * rng.randint(-3, 3))
                      for j in range(nc)] for row in left])
    column = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
    for row in column:
        row[0] = Fraction(q * rng.randint(1, 9))
    mats.append(column)
    mats.append([[Fraction(1, q), Fraction(2), Fraction(3)],
                 [Fraction(4), Fraction(5), Fraction(6)],
                 [Fraction(7), Fraction(8), Fraction(10)]])
    return mats


def test_exact_rank_certificate_falls_back_on_full_rank(monkeypatch):
    # [[q, 0], [0, 1]] has rank 1 modulo q and rank 2 over Q: the certificate
    # fails and elimination over Z gives the rank.  A matrix that is
    # nonsingular modulo q is answered by the certificate alone, and so is
    # one whose rank modulo q meets a bound below min(rows, cols); over F_p
    # no certificate runs.
    q = CERTIFICATE_FIELD.p
    moduli = []
    echelon = rank_module._echelon

    def recording(m, p, *args, **kwargs):
        moduli.append(p)
        return echelon(m, p, *args, **kwargs)

    monkeypatch.setattr(rank_module, "_echelon", recording)
    assert exact_rank([[Fraction(q), Fraction(0)], [Fraction(0), Fraction(1)]], RATIONALS) == 2
    assert moduli == [q, 0]
    moduli.clear()
    assert exact_rank([[Fraction(q), Fraction(2 * q)], [Fraction(1), Fraction(2)]], RATIONALS) == 1
    assert moduli == [q, 0]
    moduli.clear()
    assert exact_rank([[Fraction(1, 3), Fraction(2)], [Fraction(5), Fraction(7)]], RATIONALS) == 2
    assert moduli == [q]
    moduli.clear()
    assert exact_rank([[1, 2], [3, 4]], PRIME) == 2
    assert moduli == [PRIME.p]
    moduli.clear()
    singular = [[Fraction(v) for v in row] for row in ((1, 2, 3), (4, 5, 6), (7, 8, 9))]
    assert exact_rank(singular, RATIONALS, 2) == 2
    assert moduli == [q]
    moduli.clear()
    assert exact_rank(singular, RATIONALS) == 2
    assert moduli == [q, 0]


def test_exact_rank_matches_reference_on_random_matrices():
    rng = random.Random(17)
    mats = []
    for _ in range(30):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        mats.append([
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nc)]
            for _ in range(nr)
        ])
    mats += [[[Fraction(rng.randint(-6, 6)) for _ in range(nc)] for _ in range(nr)]
             for nr, nc in ((2, 7), (7, 2), (1, 5), (5, 1))]
    mats += _rank_deficient_matrices(rng)
    mats += _certificate_prime_matrices(rng)
    p = PRIME.p
    for rows in mats:
        expected, reduced = reference_rank(rows)
        assert exact_rank(rows, RATIONALS) == expected
        as_p = [
            [(v.numerator * pow(v.denominator, p - 2, p)) % p for v in row] for row in rows
        ]
        assert exact_rank(as_p, PRIME) == expected
        ncols = len(rows[0])
        kernel = nullspace(rows, RATIONALS)
        assert kernel == reference_kernel(reduced, ncols)
        assert len(kernel) == ncols - expected
        for v in kernel:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
        rank_p, reduced_p = reference_rank(as_p, p)
        kernel_p = nullspace(as_p, PRIME)
        assert kernel_p == reference_kernel(reduced_p, ncols, p)
        assert len(kernel_p) == ncols - rank_p
        for v in kernel_p:
            assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in as_p)


@st.composite
def kernel_inputs(draw):
    """(p, rows, bound): a product of an r x k and a k x c factor of ints, so
    of rank at most k, with some rows and columns zeroed; entries are not
    reduced mod p.  p = 0 draws up to 40 rows and factor entries of up to
    2^40 in magnitude, times a common factor of the rows, so that row
    content removal and large minors are checked against the reference."""
    p = draw(st.sampled_from((0, 2, 3, 7, 101, (1 << 61) - 1)))
    nrows, ncols = draw(st.integers(1, 8 if p else 40)), draw(st.integers(1, 8))
    k = draw(st.integers(0, min(nrows, ncols)))
    entries = st.integers(-(1 << 40), 1 << 40) if not p else st.integers(-3 * p, 3 * p)
    left = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                         min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                          min_size=k, max_size=k))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1)))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1)))
    scale = 1 if p else draw(st.integers(1, 6))
    rows = [[0 if i in zero_rows or j in zero_cols else
             scale * sum(a * r[j] for a, r in zip(left[i], right)) for j in range(ncols)]
            for i in range(nrows)]
    return p, rows, draw(st.integers(0, min(nrows, ncols)))


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_echelon_matches_reference_kernel(case):
    # Without a bound the row-by-row kernel finds the reference's pivot
    # columns; with one it stops at min(rank, bound).  In every field it
    # leaves its input as it was.
    p, rows, bound = case
    expected = reference_echelon([[v % p if p else v for v in row] for row in rows], p)
    copy = [row[:] for row in rows]
    assert _echelon(copy, p) == expected
    assert copy == rows
    assert len(_echelon(rows, p, bound)) == min(len(expected), bound)


# -- jacobian_at ----------------------------------------------------------------


def test_jacobian_depth_three_power_pencil_columns():
    """All 45 entries of the 9x5 ratio Jacobian at the pinned two-pencil point.

    First layer pinned to (y, x); the two first-layer columns carry the
    rational-normal-curve deformation weights on disjoint coefficient rows,
    the last three columns the tangent data of the second secant.  The
    entries below are the derivatives of the ratios y_m/y0.  `jacobian_at`
    returns the bordered rows B: the derivatives of y_m, then y_m itself,
    so y0*B[m][j] - y_m*B[0][j] is the entry times y0^2.
    """
    gmap = tctc_gauge()
    b1, b2, c = Fraction(2), Fraction(3), Fraction(5)
    point = (Fraction(0), Fraction(0), b1, b2, c)
    sample = jacobian_at(gmap, point, RATIONALS)
    B = sample.matrix
    assert (len(B), len(B[0])) == (10, 6)
    y0 = c + 1
    y3 = 3 * (c * b1 + b2)
    y6 = 3 * (c * b1 * b1 + b2 * b2)
    y9 = c * b1**3 + b2**3
    expected_cols = {
        0: {2: 3 * y3 / y0, 5: 6 * y6 / y0, 8: 9 * y9 / y0},         # d/da11
        1: {1: Fraction(9), 4: 6 * y3 / y0, 7: 3 * y6 / y0},          # d/da22
        2: {3: 3 * c / y0, 6: 6 * c * b1 / y0, 9: 3 * c * b1**2 / y0},
        3: {3: 3 / y0, 6: 6 * b2 / y0, 9: 3 * b2**2 / y0},
        4: {
            3: 3 * (b1 - b2) / y0**2,
            6: 3 * (b1**2 - b2**2) / y0**2,
            9: (b1**3 - b2**3) / y0**2,
        },
    }
    assert [row[5] for row in B] == [y0, 0, 0, y3, 0, 0, y6, 0, 0, y9]
    for col, entries in expected_cols.items():
        for row_m in range(1, 10):
            got = y0 * B[row_m][col] - B[row_m][5] * B[0][col]
            assert got == entries.get(row_m, Fraction(0)) * y0**2, (col, row_m)
    assert sample.rank == 5


def test_jacobian_linear_single_output():
    arch = validate((2, 1), ())
    gmap = gauge_fix(arch)
    sample = jacobian_at(gmap, (Fraction(7),), RATIONALS)
    assert sample.matrix == [[1, 7], [0, 1]]
    assert sample.rank == 1
    with pytest.raises(PivotVanishes):
        jacobian_at(gmap, (Fraction(0),), RATIONALS)


def test_jacobian_guiding_example_rank_at_integer_point():
    arch = validate((2, 3, 2, 1), (4, 3))
    gmap = gauge_fix(arch)
    point = tuple(Fraction(v) for v in (2, -3, 5, 7, -2, 4, 9, 6))
    sample = jacobian_at(gmap, point, RATIONALS)
    assert (len(sample.matrix), len(sample.matrix[0])) == (13, 9)
    assert sample.rank == 8


# -- generic_rank and stats -------------------------------------------------------


@pytest.mark.parametrize(
    "widths,degrees,expected",
    [
        ((2, 3, 2, 1), (3, 3), 7),
        ((2, 2, 2, 1), (3, 3), 5),
        ((2, 3, 2, 1), (4, 3), 8),
    ],
)
def test_generic_rank_depth_three_values(widths, degrees, expected):
    gmap = gauge_fix(validate(widths, degrees))
    rank, witness = generic_rank(gmap, tries=10, seed=1729, domain=PRIME)
    assert rank == expected
    assert witness is not None and len(witness) == gmap.domain_dim


def test_neurovariety_stats_defective_example():
    report = neurovariety_stats(validate((2, 3, 2, 1), (3, 3)), tries=10, seed=1729)
    assert report.expdim_general == 8
    assert report.dim_actual == 7
    assert report.fiber_dim == 1
    assert report.defective is True


def test_neurovariety_stats_expected_dimension_example():
    report = neurovariety_stats(validate((2, 2, 2, 1), (3, 3)), tries=10, seed=1729)
    assert report.expdim_refined == 5
    assert report.dim_actual == 5
    assert report.defective is False


def test_neurovariety_stats_two_output_example():
    # Independently confirmed by the symbolic-derivative route below before
    # trusting the adjoint Jacobian pass.
    arch = validate((2, 2, 2, 2), (3, 3))
    report = neurovariety_stats(arch, tries=10, seed=1729)
    assert report.expdim_general == 6
    assert report.expdim_refined is None
    assert report.dim_actual == 6
    assert report.defective is False
    gmap = gauge_fix(arch)
    rng = random.Random(404)
    point = tuple(Fraction(rng.randint(-9, 9)) for _ in gmap.free)
    oracle = symbolic_jacobian(gmap, point, ratio=True)
    assert reference_rank(oracle)[0] == 6


# -- proven upper bound and early stop ---------------------------------------------


def _bound_grid():
    """Depth 2-3, widths <= 3, degrees <= 3: 216 rows, 112 with a width-1
    hidden layer, 25 of which the cut bound puts below expected_dim."""
    spec = ScanSpec(depths=(2, 3), min_width=1, max_width=3, max_out_width=2,
                    min_degree=2, max_degree=3, max_ambient=30)
    return grid_architectures(spec)[0]


def test_dim_upper_bound_holds_and_cuts_are_exact():
    archs = _bound_grid()
    assert sum(dim_upper_bound(a) < expected_dim(a) for a in archs) == 25
    for arch in archs:
        report = neurovariety_stats(arch, tries=10, seed=1729, domain=PRIME)
        assert report.dim_actual <= dim_upper_bound(arch), arch
        # Past a width-1 hidden layer k the gauged image is a finite-to-one
        # image of the network cut at k, so the two ranks agree.
        for k in range(1, arch.depth):
            if arch.widths[k] == 1:
                cut = validate(arch.widths[: k + 1], arch.degrees[: k - 1])
                cut_rank, _ = generic_rank(gauge_fix(cut), tries=10, seed=1729, domain=PRIME)
                assert report.dim_actual == cut_rank, (arch, k)


def test_jacobian_rank_is_the_ratio_jacobians_rank():
    # At the same point the bordered rank of `jacobian_at` less n_out equals
    # the oracle's rank of the ratio Jacobian, over Q and over F_p, on every
    # row of the grid, the tctc-gauged (2,2,2,1)/(3,3) and a depth-4 map
    # through a width-1 layer.  Over Q at these integral points every entry
    # is an int.
    p = PRIME.p
    gmaps = [gauge_fix(arch) for arch in _bound_grid()] + [
        tctc_gauge(),
        gauge_fix(validate((2, 3, 1, 3, 1), (2, 2, 2))),
    ]
    for gmap in gmaps:
        arch = gmap.arch
        rng = random.Random(derive_seed(arch.label()))
        while True:
            point = tuple(RATIONALS.sample(rng) for _ in gmap.free)
            point_p = tuple(v.numerator % p for v in point)
            try:
                sample = jacobian_at(gmap, point, RATIONALS)
                sample_p = jacobian_at(gmap, point_p, PRIME)
                break
            except PivotVanishes:
                continue
        assert all(type(v) is int for row in sample.matrix for v in row), arch
        ratio = symbolic_jacobian(gmap, [v.numerator for v in point], ratio=True)
        assert sample.rank == reference_rank(ratio)[0], arch
        ratio_p = [[v.numerator * pow(v.denominator, -1, p) for v in row] for row in ratio]
        assert sample_p.rank == reference_rank(ratio_p, p)[0], arch


def _count_jacobians(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return jacobian_at(*args)

    monkeypatch.setattr(rank_module, "jacobian_at", counting)
    return calls


@pytest.mark.parametrize(
    "widths, degrees, p, degree",
    [((2, 2, 1), (2,), 2, 10), ((2, 2, 1), (2,), 19, 10), ((2, 3, 2, 1), (4, 3), 3, 248)],
)
def test_generic_rank_refuses_primes_too_small_to_sample_with(widths, degrees, p, degree):
    # deg_c is 3 and 16, the caps 2 and 8: a rank-cap minor has degree
    # cap * (2 * deg_c - 1), and p <= 2 * degree leaves a false-low bound of 1/2 or more.
    gmap = gauge_fix(validate(widths, degrees))
    with pytest.raises(ValueError, match=f"^modulus {p} is too small .* {degree}/{p} >= 1/2$"):
        generic_rank(gmap, tries=10, seed=1729, domain=PrimeField(p))


@pytest.mark.parametrize("widths, degrees, dim", [((2, 2, 1), (2,), 2), ((2, 3, 2, 1), (4, 3), 8)])
def test_generic_rank_samples_large_primes_as_before(widths, degrees, dim):
    gmap = gauge_fix(validate(widths, degrees))
    assert generic_rank(gmap, tries=10, seed=1729)[0] == dim
    assert generic_rank(gmap, tries=10, seed=1729, domain=CERTIFICATE_FIELD)[0] == dim


def test_generic_rank_accepts_the_first_prime_past_the_bound():
    # (2,2,1)/(2) has degree 10, so 23 is the least prime with bound below 1/2.
    generic_rank(gauge_fix(validate((2, 2, 1), (2,))), tries=1, seed=1729, domain=PrimeField(23))


@pytest.mark.parametrize(
    "widths,degrees,rank,draws",
    [
        ((4, 1, 4, 2), (3, 4), 3, 1),  # bottleneck: meets the cut bound at once
        ((2, 3, 1, 2), (2, 3), 2, 1),
        ((2, 3, 2, 1), (3, 3), 7, 10),  # defective, below the bound 8: all tries
    ],
    ids=["bottleneck-layer-1", "bottleneck-layer-2", "defective"],
)
def test_generic_rank_stops_at_upper_bound(widths, degrees, rank, draws, monkeypatch):
    gmap = gauge_fix(validate(widths, degrees))
    calls = _count_jacobians(monkeypatch)
    got = generic_rank(gmap, tries=10, seed=1729, domain=PRIME)
    assert got[0] == rank
    assert len(calls) == draws
    # Without the stop every trial is drawn and the rank and witness are the same.
    monkeypatch.setattr(rank_module, "dim_upper_bound", lambda arch: gmap.domain_dim)
    del calls[:]
    assert generic_rank(gmap, tries=10, seed=1729, domain=PRIME) == got
    assert len(calls) == 10


# -- block ranks -------------------------------------------------------------------


def test_block_ranks_power_pencil_point():
    gmap = tctc_gauge()
    point = (Fraction(0), Fraction(0), Fraction(2), Fraction(3), Fraction(5))
    report = block_ranks(gmap, point, RATIONALS)
    assert report.normal_rank == 2
    assert report.last_rank == 3
    assert report.total_rank == 5
    assert report.per_layer == ((1, 2), (2, 2), (3, 1))


def test_block_ranks_guiding_example():
    arch = validate((2, 3, 2, 1), (4, 3))
    gmap = gauge_fix(arch)
    rng = random.Random(8)
    point = tuple(Fraction(rng.randint(-9, 9)) for _ in gmap.free)
    report = block_ranks(gmap, point, RATIONALS)
    assert report.per_layer[0] == (1, 3)
    assert report.last_rank == 5
    assert report.total_rank == 8


def test_block_ranks_depth_two_has_no_normal_block():
    arch = validate((3, 2, 1), (3,))
    gmap = gauge_fix(arch)
    rng = random.Random(9)
    point = tuple(Fraction(rng.randint(-9, 9)) for _ in gmap.free)
    report = block_ranks(gmap, point, RATIONALS)
    assert report.normal_rank == 0
    assert report.total_rank == report.last_rank


# -- engine properties ---------------------------------------------------------------


def test_generic_rank_deterministic():
    arch = validate((2, 3, 2, 1), (3, 3))
    gmap = gauge_fix(arch)
    a = generic_rank(gmap, tries=6, seed=99, domain=PRIME)
    b = generic_rank(gmap, tries=6, seed=99, domain=PRIME)
    assert a == b
    r1 = neurovariety_stats(arch, tries=5, seed=7)
    r2 = neurovariety_stats(arch, tries=5, seed=7)
    assert r1 == r2


def test_generic_rank_monotone_in_tries():
    gmap = gauge_fix(validate((2, 3, 2, 1), (3, 3)))
    ranks = [
        generic_rank(gmap, tries=t, seed=5, domain=PRIME)[0] for t in (1, 2, 4, 8)
    ]
    assert ranks == sorted(ranks)


def test_dim_actual_bounded_by_expected_dimensions():
    from neurovar.theory import expected_dim_single_output

    rng = random.Random(31)
    for _ in range(12):
        L = rng.choice((2, 3))
        widths = tuple(rng.randint(1, 3) for _ in range(L)) + (rng.randint(1, 2),)
        degrees = tuple(rng.randint(2, 3) for _ in range(L - 1))
        arch = validate(widths, degrees)
        report = neurovariety_stats(arch, tries=3, seed=rng.randint(0, 10**6))
        assert report.dim_actual <= min(arch.free_weight_count, arch.target_affine_dim)
        assert report.dim_actual <= report.expdim_general
        if arch.n_out == 1 and arch.depth >= 2:
            assert report.dim_actual <= expected_dim_single_output(arch)
        assert report.fiber_dim >= 0


def symbolic_jacobian(gmap, point, ratio=False):
    """Differentiate the gauged symbolic coefficients directly.

    Independent of the value and adjoint passes: uses the oracle's symbolic
    map and formal partial derivatives.  Returns the bordered rows of
    `jacobian_at`, the derivatives of coefficient m of output l and then
    that coefficient in output l's border column, row m*n_out + l; with
    `ratio`, the Jacobian of the ratios num/den themselves, by the quotient
    rule.  `point` lists the free weights' values in the oracle ring's
    variable order.
    """
    vectors, ring = symbolic_map(gmap)
    if not ratio:
        return [[evaluate(partial(c, theta), point) for theta in ring.names]
                + [evaluate(c, point) if i == ell else 0 for i in range(len(vectors))]
                for coeffs in zip(*vectors) for ell, c in enumerate(coeffs)]
    rows = []
    for den, *nums in vectors:
        den_v = evaluate(den, point)
        for num in nums:
            num_v = evaluate(num, point)
            rows.append([Fraction(den_v * evaluate(partial(num, theta), point)
                                  - num_v * evaluate(partial(den, theta), point), den_v * den_v)
                         for theta in ring.names])
    return rows


@pytest.mark.parametrize(
    "widths,degrees,gauge",
    [
        ((2, 2, 1), (2,), None),
        ((3, 2, 1), (2,), None),
        ((2, 3, 1), (3,), None),
        ((2, 2, 2, 1), (2, 2), None),
        ((2, 2, 2, 1), (3, 3), None),
        ((2, 2, 2), (2,), None),
        ((3, 1, 2), (3,), None),
        ((2, 2, 2, 1), (3, 3), "tctc"),
    ],
)
def test_forward_tangents_match_symbolic_derivatives(widths, degrees, gauge):
    gmap = tctc_gauge() if gauge else gauge_fix(validate(widths, degrees))
    assert gmap.domain_dim <= 8
    rng = random.Random(hash((widths, degrees)) & 0xFFFF)
    for _ in range(3):
        point = tuple(Fraction(rng.randint(-9, 9)) for _ in gmap.free)
        try:
            sample = jacobian_at(gmap, point, RATIONALS)
        except PivotVanishes:
            continue
        oracle = symbolic_jacobian(gmap, point)
        assert [list(r) for r in sample.matrix] == oracle


def test_adjoint_jacobian_matches_tangent_reference():
    """The reverse pass assembles the forward-tangent matrix entry for entry,
    over a small grid of depths 2-4 (width-1 layers such as
    (2,1,2,1,2)/(2,3,2) among them), a depth-1 map and the tctc gauge, in a
    small and a large prime field and over Q; its rank, found up to
    `theory.dim_upper_bound` only, is the reference kernel's rank of the
    whole matrix."""
    bounds = dict(max_out_width=3, max_degree=3, max_free=40, max_ambient=60)
    grid = (grid_architectures(ScanSpec(depths=(2, 3), max_width=3, **bounds))[0]
            + grid_architectures(ScanSpec(depths=(4,), max_width=2, **bounds))[0])
    gmaps = [gauge_fix(arch) for arch in grid] + [
        gauge_fix(validate((2, 3), ())),
        tctc_gauge(),
    ]
    rng = random.Random(11)
    for domain in (PrimeField(7919), auto_prime_field(1729), RATIONALS):
        for gmap in gmaps:
            while True:
                # Small values keep the rational ranks inside jacobian_at cheap.
                point = tuple(domain.sample(rng) if domain.p else Fraction(rng.randint(-9, 9))
                              for _ in gmap.free)
                try:
                    sample = jacobian_at(gmap, point, domain)
                    break
                except PivotVanishes:
                    continue
            assert sample.matrix == tangent_jacobian(gmap, point, domain), gmap.arch.label()
            # The rank stopped at the proven bound is the whole bordered
            # matrix's rank less its border.
            reference = reference_echelon(*_integer_rows(sample.matrix, domain))
            assert sample.rank == len(reference) - gmap.arch.n_out, gmap.arch.label()


def test_rank_agrees_across_domains():
    rng = random.Random(12)
    flagged = []
    for _ in range(20):
        L = rng.choice((2, 3))
        widths = tuple(rng.randint(2, 3) for _ in range(L)) + (rng.randint(1, 2),)
        degrees = tuple(rng.randint(2, 3) for _ in range(L - 1))
        gmap = gauge_fix(validate(widths, degrees))
        seed = rng.randint(0, 10**6)
        rank_p, _ = generic_rank(gmap, tries=10, seed=seed, domain=PRIME)
        rank_q, _ = generic_rank(gmap, tries=10, seed=seed + 1, domain=RATIONALS)
        single_p, _ = generic_rank(gmap, tries=1, seed=seed, domain=PRIME)
        if single_p != rank_q:
            flagged.append((widths, degrees))
        assert rank_p == rank_q, (widths, degrees)
    # single-trial mismatches are tolerated, only surfaced
    if flagged:
        print(f"single-trial rank mismatches (not failures): {flagged}")


def test_direct_sum_block_structure_under_room_and_table():
    # Where the room condition holds and the last Veronese is not defective,
    # every intermediate block has full rank and the total splits as
    # normal + last.
    from neurovar.theory import PREDICTED_NON_DEFECTIVE, theorem_verdict
    from itertools import product

    checked = 0
    for widths in product((2, 3), repeat=3):
        for degrees in product((2, 3), repeat=2):
            arch = validate(widths + (1,), degrees)
            if theorem_verdict(arch).kind != PREDICTED_NON_DEFECTIVE:
                continue
            gmap = gauge_fix(arch)
            rank, witness = generic_rank(gmap, tries=5, seed=777, domain=PRIME)
            report = block_ranks(gmap, witness, PRIME)
            n = arch.widths
            for (layer, r) in report.per_layer[: arch.depth - 2]:
                assert r == n[layer] * (n[layer - 1] - 1), (arch.label(), layer)
            normal_expected = sum(
                n[j] * (n[j - 1] - 1) for j in range(1, arch.depth - 1)
            )
            assert report.normal_rank == normal_expected
            assert report.total_rank == normal_expected + report.last_rank
            checked += 1
    assert checked >= 6


def test_defect_witness_linear_relation():
    # The explicit degree-9 relation among the frame polynomials of the
    # (2,3,2,1),(3,3) network, checked as an exact polynomial identity.
    rng = random.Random(64)
    for _ in range(20):
        vals = [Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(5)]
        assert is_zero(witness_relation(*vals))


def witness_relation(a1, a2, a3, b11, b12):
    ring = Ring(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    L1 = x.scale(a1) + y
    L2 = x.scale(a2) + y
    L3 = x.scale(a3) + y
    R = poly_pow(L1, 3).scale(b11) + poly_pow(L2, 3).scale(b12) + poly_pow(L3, 3)
    R2 = R * R
    B1 = R2 * poly_pow(L1, 2) * x
    B3 = R2 * poly_pow(L2, 2) * x
    B7 = R2 * poly_pow(L1, 3)
    B9 = R2 * poly_pow(L2, 3)
    B11 = R2 * R
    A = a1 - a2
    c1 = 3 * (a1 - a3) * (a2 - a3) ** 2 * A
    c3 = 3 * (a1 - a3) ** 2 * (a2 - a3) * A
    c7 = -((a2 - a3) ** 2) * (3 * a1 - a2 - 2 * a3) - b11 * A**3
    c9 = -((a1 - a3) ** 2) * (a1 - 3 * a2 + 2 * a3) - b12 * A**3
    c11 = A**3
    return (
        B1.scale(c1) + B3.scale(c3) + B7.scale(c7) + B9.scale(c9) + B11.scale(c11)
    )


class _AlwaysZeroDomain(PrimeField):
    """Sampling stub: a prime field whose samples are always 0."""

    def sample(self, rng):
        return 0


def test_sampling_exhausted_on_degenerate_pivot():
    gmap = gauge_fix(validate((2, 1), ()))
    domain = _AlwaysZeroDomain((1 << 61) - 1)
    with pytest.raises(SamplingExhausted):
        generic_rank(gmap, tries=2, seed=3, domain=domain)


def test_derive_seed_is_stable():
    assert derive_seed(1, "trial", 0) == derive_seed(1, "trial", 0)
    assert derive_seed(1, "trial", 0) != derive_seed(1, "trial", 1)
    assert derive_seed(2, "trial", 0) != derive_seed(1, "trial", 0)
