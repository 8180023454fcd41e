"""Forward pass, coefficient maps (through the symbolic oracle), and gauge:
pinned examples and symmetries."""

import math
import random
from fractions import Fraction

import pytest

from neurovar.errors import DegreeBelowTwo, LengthMismatch, WidthZero
from neurovar.network import gauge_fix, validate
from neurovar.poly import Ring, monomials_of_degree, poly_pow
from oracle import (
    const,
    evaluate,
    forward_layers,
    is_zero,
    network_ring,
    symbolic_map,
    symbolic_weights,
    ungauged,
    weight_name,
)
from support import expected_quartic_coefficients, tctc_gauge

# -- validate -----------------------------------------------------------------


def test_validate_guiding_architecture():
    arch = validate((2, 3, 2, 1), (4, 3))
    assert arch.depth == 3
    assert arch.total_degree == 12
    assert arch.free_weight_count == 8
    # The record is immutable, prints its fields and hashes by value.
    with pytest.raises(AttributeError):
        arch.widths = (2, 2, 1)
    assert repr(validate((2, 3, 1), (2,))) == "Architecture(widths=(2, 3, 1), degrees=(2,))"
    twin = validate([2, 3, 2, 1], [4, 3])
    assert twin == arch and twin is not arch and hash(twin) == hash(arch)


def test_validate_linear_network():
    arch = validate((2, 2), ())
    assert arch.depth == 1
    assert arch.total_degree == 1


def test_validate_rejects_low_degree():
    with pytest.raises(DegreeBelowTwo) as err:
        validate((2, 2, 1), (1,))
    assert err.value.index == 1


def test_validate_rejects_zero_width():
    with pytest.raises(WidthZero) as err:
        validate((2, 0, 1), (2,))
    assert err.value.index == 1


def test_validate_rejects_length_mismatch():
    with pytest.raises(LengthMismatch):
        validate((2, 2, 1), ())
    with pytest.raises(LengthMismatch):
        validate((2, 2), (2,))


# -- forward_layers -----------------------------------------------------------


def test_forward_matches_displayed_quartic():
    arch = validate((2, 2, 2, 1), (2, 2))
    vectors, weight_ring = symbolic_map(ungauged(arch))
    expected = expected_quartic_coefficients(weight_ring)
    assert list(vectors[0]) == expected


def test_forward_linear_network_is_matrix_action():
    arch = validate((3, 2), ())
    gmap = ungauged(arch)
    ring = network_ring(gmap)
    outputs = forward_layers(arch, symbolic_weights(gmap, ring))[-1]
    xs = [ring.var(f"x{i}") for i in range(3)]
    for j in range(2):
        expected = ring.zero()
        for i in range(3):
            expected = expected + ring.var(weight_name(1, j, i)) * xs[i]
        assert outputs[j] == expected


def test_forward_power_pencil_at_gauge_point():
    # With the first layer pinned to (y, x), each output is a combination of
    # cubes from the pencil <y^3, x^3>.
    gmap = tctc_gauge()
    arch = gmap.arch
    ring = network_ring(gmap)
    at_zero = ((1, 0, 0), (1, 1, 1))
    weights = gmap.weight_matrices(
        [ring.zero() if pos in at_zero else ring.var(weight_name(*pos)) for pos in gmap.free],
        ring.one(),
    )
    out = forward_layers(arch, weights)[-1][0]
    x, y = ring.var("x0"), ring.var("x1")
    b1, b2, c = (ring.var(weight_name(*t)) for t in ((2, 0, 0), (2, 1, 0), (3, 0, 0)))
    R = b1 * poly_pow(y, 3) + poly_pow(x, 3)
    S = b2 * poly_pow(y, 3) + poly_pow(x, 3)
    assert out == c * poly_pow(R, 3) + poly_pow(S, 3)


def test_layer_degrees_follow_activations():
    arch = validate((2, 3, 2, 1), (4, 3))
    gmap = ungauged(arch)
    ring = network_ring(gmap)
    layers = forward_layers(arch, symbolic_weights(gmap, ring))
    expected_deg = [1, 4, 12]
    for k, layer in enumerate(layers):
        assert len(layer) == arch.widths[k + 1]
        for p in layer:
            assert max(m[0] + m[1] for m in p.terms) == expected_deg[k]


# -- symbolic_map -------------------------------------------------------------


def test_coefficient_map_linear_network_is_weights():
    arch = validate((2, 2), ())
    vectors, weight_ring = symbolic_map(ungauged(arch))
    assert len(vectors[0]) == 2
    for ell in range(2):
        for j in range(2):
            assert vectors[ell][j] == weight_ring.var(weight_name(1, ell, j))


def test_coefficient_map_guiding_example_shape():
    arch = validate((2, 3, 2, 1), (4, 3))
    vectors, _ = symbolic_map(ungauged(arch))
    assert len(vectors[0]) == math.comb(1 + 12, 1) == 13
    assert len(vectors) == 1
    assert not any(is_zero(s) for s in vectors[0])


def _block_indices(arch, ring, layer):
    idx = []
    for r in range(arch.widths[layer]):
        for c in range(arch.widths[layer - 1]):
            idx.append(ring.index(weight_name(layer, r, c)))
    return idx


@pytest.mark.parametrize(
    "widths,degrees",
    [((2, 2, 2, 1), (2, 2)), ((2, 3, 2, 1), (4, 3)), ((2, 2, 2), (3,)), ((3, 2, 1), (2,))],
)
def test_multi_homogeneity(widths, degrees):
    # Every coefficient is homogeneous of degree prod(d_i..d_{L-1}) in each
    # layer block (degree 1 in the last layer).
    arch = validate(widths, degrees)
    vectors, ring = symbolic_map(ungauged(arch))
    for layer in range(1, arch.depth + 1):
        block = _block_indices(arch, ring, layer)
        target = math.prod(arch.degrees[layer - 1 :]) if layer <= arch.depth - 1 else 1
        for vec in vectors:
            for s in vec:
                for mono in s.terms:
                    assert sum(mono[i] for i in block) == target


def _concrete_assignment(arch, ring, mats):
    return [[[const(ring, Fraction(v)) for v in row] for row in mat] for mat in mats]


def _random_mats(arch, rng):
    return [
        [[rng.randint(-9, 9) for _ in range(arch.widths[i - 1])] for _ in range(arch.widths[i])]
        for i in range(1, arch.depth + 1)
    ]


@pytest.mark.parametrize("widths,degrees", [((2, 3, 2, 1), (2, 2)), ((3, 2, 2), (3,))])
def test_hidden_neuron_permutation_symmetry(widths, degrees):
    arch = validate(widths, degrees)
    ring = Ring([f"x{i}" for i in range(arch.n_in)])
    rng = random.Random(11)
    for _ in range(5):
        mats = _random_mats(arch, rng)
        base = forward_layers(arch, _concrete_assignment(arch, ring, mats))[-1]
        layer = rng.randrange(1, arch.depth)  # hidden layer index i
        perm = list(range(arch.widths[layer]))
        rng.shuffle(perm)
        permuted = [ [row[:] for row in m] for m in mats ]
        permuted[layer - 1] = [mats[layer - 1][perm[r]] for r in range(len(perm))]
        for row in permuted[layer]:
            old = row[:]
            for c in range(len(perm)):
                row[c] = old[perm[c]]
        got = forward_layers(arch, _concrete_assignment(arch, ring, permuted))[-1]
        assert list(got) == list(base)


def test_scaling_symmetry_depth_two():
    # Scaling a hidden neuron's input row by t and its output column by
    # t^(-d) is invisible in the network function.
    arch = validate((3, 2, 2), (3,))
    ring = Ring([f"x{i}" for i in range(3)])
    rng = random.Random(5)
    for _ in range(5):
        mats = _random_mats(arch, rng)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        base = forward_layers(arch, _concrete_assignment(arch, ring, mats))[-1]
        r = rng.randrange(2)
        scaled = [[ [Fraction(v) for v in row] for row in m] for m in mats]
        scaled[0][r] = [lam * v for v in scaled[0][r]]
        for out_row in scaled[1]:
            out_row[r] = out_row[r] * lam ** -3
        got = forward_layers(arch, _concrete_assignment(arch, ring, scaled))[-1]
        assert list(got) == list(base)


def test_two_path_consistency():
    # Specializing the symbolic coefficient map at concrete weights agrees
    # with direct expansion of the forward pass at those weights.
    arch = validate((2, 2, 2, 1), (3, 2))
    vectors, _ = symbolic_map(ungauged(arch))
    ring = Ring([f"x{i}" for i in range(arch.n_in)])
    rng = random.Random(23)
    mats = _random_mats(arch, rng)
    values = {}
    for i in range(1, arch.depth + 1):
        for r in range(arch.widths[i]):
            for c in range(arch.widths[i - 1]):
                values[weight_name(i, r, c)] = Fraction(mats[i - 1][r][c])
    outputs = forward_layers(arch, _concrete_assignment(arch, ring, mats))[-1]
    monos = monomials_of_degree(arch.n_in, arch.total_degree)
    for ell, vec in enumerate(vectors):
        direct = [outputs[ell].terms.get(m, Fraction(0)) for m in monos]
        specialized = [evaluate(s, values) for s in vec]
        assert direct == specialized


# -- gauge_fix -----------------------------------------------------------------


def test_gauge_fix_depth_three_example():
    gmap = gauge_fix(validate((2, 2, 2, 1), (2, 2)))
    assert gmap.domain_dim == 5
    assert gmap.target_dim == 4


def test_gauge_fix_guiding_example_free_weights():
    gmap = gauge_fix(validate((2, 3, 2, 1), (4, 3)))
    assert gmap.domain_dim == 8
    assert gmap.free == (
        (1, 0, 0), (1, 1, 0), (1, 2, 0),
        (2, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1),
        (3, 0, 0),
    )


def test_gauge_fix_linear_single_output():
    gmap = gauge_fix(validate((3, 1), ()))
    assert gmap.domain_dim == 2


def test_gauge_fix_custom_mask_free_names():
    # Criterion 3's gauge is its free positions; every other one is fixed to 1.
    gmap = tctc_gauge()
    assert gmap.free == ((1, 0, 0), (1, 1, 1), (2, 0, 0), (2, 1, 0), (3, 0, 0))
    ones = gmap.weight_matrices(["w"] * gmap.domain_dim, 1)
    assert ones == [[["w", 1], [1, "w"]], [["w", 1], ["w", 1]], [["w", 1]]]


def test_default_gauge_masks_last_columns():
    # The standard gauge fixes exactly the last column of every W_i to 1.
    arch = validate((2, 3, 2, 1), (4, 3))
    gmap = gauge_fix(arch)
    mats = gmap.weight_matrices(list(gmap.free), 1)
    fixed = [(i, r, c) for i, mat in enumerate(mats, start=1)
             for r, row in enumerate(mat) for c, v in enumerate(row) if v == 1]
    assert fixed == [(1, 0, 1), (1, 1, 1), (1, 2, 1), (2, 0, 2), (2, 1, 2), (3, 0, 1)]
    assert len(gmap.free) + len(fixed) == 3 * 2 + 2 * 3 + 1 * 2
