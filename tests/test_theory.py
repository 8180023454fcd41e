"""Expected dimensions, room condition, defective-secant table, verdicts."""

import random

import pytest

from neurovar.network import validate
from neurovar.theory import (
    FILLING_CASE_UNRESOLVED,
    INCONCLUSIVE,
    LAST_VERONESE_DEFECTIVE,
    PREDICTED_IDENTIFIABLE,
    PREDICTED_NON_DEFECTIVE,
    ROOM_FAILS,
    ah_secant_defective,
    dim_upper_bound,
    expected_dim,
    expected_dim_general,
    expected_dim_single_output,
    expected_secant_dim,
    necessity_scope,
    room_condition,
    theorem_verdict,
)


@pytest.mark.parametrize(
    "widths,degrees,expected",
    [
        ((2, 3, 2, 1), (4, 3), 8),
        ((2, 3, 2, 1), (3, 3), 8),
        ((2, 2, 2, 1), (2, 2), 4),
    ],
)
def test_expected_dim_general(widths, degrees, expected):
    assert expected_dim_general(validate(widths, degrees)) == expected


def test_expected_dim_general_ambient_term():
    # N = binom(5,1) - 1 = 4 caps the parameter count 5 for the quartic net.
    arch = validate((2, 2, 2, 1), (2, 2))
    assert arch.target_affine_dim == 4


@pytest.mark.parametrize(
    "widths,degrees,expected",
    [
        ((2, 2, 2, 1), (3, 3), 5),
        ((2, 3, 2, 1), (4, 3), 8),
    ],
)
def test_expected_dim_single_output(widths, degrees, expected):
    assert expected_dim_single_output(validate(widths, degrees)) == expected


def test_expected_dim_single_output_depth_two_secant_cap():
    # Two secants of the conic fill the plane: dimension 2, matching the
    # sampled secant dimension.
    from neurovar.veronese import empirical_secant_dim

    arch = validate((2, 2, 1), (2,))
    assert expected_dim_single_output(arch) == 2
    assert empirical_secant_dim(2, 2, 2, tries=4, seed=11) == 2


def test_expected_dim_single_output_rejects_multi_output():
    # Off its domain the refined dimension is None, as every report prints it.
    assert expected_dim_single_output(validate((2, 2, 2), (2,))) is None
    assert expected_dim_single_output(validate((3, 1), ())) is None


@pytest.mark.parametrize(
    "widths,degrees,expected",
    [
        # Cut at the width-1 layer 1: the linear form's 3 and 2 coordinates.
        ((4, 1, 4, 2), (3, 4), 3),
        ((3, 1, 2, 1), (2, 2), 2),
        # Cut at layer 2: the quadric (2,3,1),(2,) fills the 2 affine
        # coordinates of binary quadrics.
        ((2, 3, 1, 2), (2, 3), 2),
        # No width-1 hidden layer: the expected dimension itself.
        ((2, 3, 2, 1), (3, 3), 8),
    ],
)
def test_dim_upper_bound_values(widths, degrees, expected):
    arch = validate(widths, degrees)
    assert dim_upper_bound(arch) == expected
    if 1 not in arch.widths[1:-1]:
        assert dim_upper_bound(arch) == expected_dim(arch)


def test_refined_never_exceeds_general():
    rng = random.Random(77)
    for _ in range(60):
        L = rng.choice((2, 3, 4))
        widths = tuple(rng.randint(1, 5) for _ in range(L)) + (1,)
        degrees = tuple(rng.randint(2, 5) for _ in range(L - 1))
        arch = validate(widths, degrees)
        assert expected_dim_single_output(arch) <= expected_dim_general(arch)


@pytest.mark.parametrize(
    "widths,degrees,layer,lhs,rhs",
    [
        ((2, 3, 2, 1), (3, 3), 1, 4, 4),
        ((2, 2, 2, 1), (2, 2), 1, 3, 3),
    ],
)
def test_room_condition_failures(widths, degrees, layer, lhs, rhs):
    arch = validate(widths, degrees)
    level = room_condition(arch)[layer - 1]
    assert (level.lhs, level.rhs, level.holds) == (lhs, rhs, False)
    assert theorem_verdict(arch).failing_layer == layer


def test_room_condition_guiding_example_holds():
    levels = room_condition(validate((2, 3, 2, 1), (4, 3)))
    assert [(lv.lhs, lv.rhs) for lv in levels] == [(4, 5), (4, 10)]
    assert all(lv.holds for lv in levels)


@pytest.mark.parametrize(
    "nvars,deg,s,expected",
    [
        (3, 4, 5, True),
        # the sporadic cubic case sits at secant order 7; order 8 fills
        (5, 3, 7, True),
        (5, 3, 8, False),
        (4, 4, 9, True),
        (5, 4, 14, True),
        (3, 3, 3, False),
        (3, 2, 2, True),
        (4, 2, 3, True),
        (4, 2, 4, False),
        (2, 2, 2, False),
        (3, 2, 1, False),
        (3, 1, 5, False),
        (1, 4, 2, False),
    ],
)
def test_ah_secant_defective_cases(nvars, deg, s, expected):
    assert ah_secant_defective(nvars, deg, s) is expected


def test_ah_secant_defective_total_on_grid():
    count = 0
    for nvars in range(1, 7):
        for deg in range(1, 6):
            for s in range(1, 11):
                if ah_secant_defective(nvars, deg, s):
                    count += 1
    # quadric family within the grid plus the three sporadic cases
    quadrics = sum(max(0, n - 2) for n in range(3, 7))
    assert count == quadrics + 3


def test_expected_secant_dim_values():
    assert expected_secant_dim(2, 3, 2) == 3
    assert expected_secant_dim(3, 4, 5) == 14
    assert expected_secant_dim(3, 2, 2) == 5


@pytest.mark.parametrize(
    "widths,degrees,kind",
    [
        ((2, 3, 2, 1), (4, 3), PREDICTED_NON_DEFECTIVE),
        ((2, 2, 2, 2), (3, 3), PREDICTED_IDENTIFIABLE),
        ((2, 2, 2, 1), (3, 3), PREDICTED_NON_DEFECTIVE),
        ((4, 3, 2, 1), (2, 2), LAST_VERONESE_DEFECTIVE),
        ((2, 3, 1, 1), (4, 2), INCONCLUSIVE),
        ((3, 1, 2, 2), (2, 2), INCONCLUSIVE),
    ],
)
def test_theorem_verdict_kinds(widths, degrees, kind):
    assert theorem_verdict(validate(widths, degrees)).kind == kind


def test_theorem_verdict_room_failure_names_layer():
    verdict = theorem_verdict(validate((2, 3, 2, 1), (3, 3)))
    assert verdict.kind == ROOM_FAILS
    assert verdict.failing_layer == 1
    assert verdict.label() == "RoomFails(1)"


def test_theorem_verdict_identifiable_has_condition3():
    verdict = theorem_verdict(validate((2, 2, 2, 2), (3, 3)))
    assert verdict.condition3 is not None
    assert verdict.condition3.single_output_expdim == 5
    assert verdict.condition3.parameter_count == 5
    assert verdict.condition3.holds


def test_theorem_verdict_filling_case():
    # Over-wide final layer: the single-output companion fills, so the
    # identifiability condition fails while room and table pass.
    verdict = theorem_verdict(validate((2, 2, 2, 2), (2, 3)))
    assert not all(lv.holds for lv in verdict.room) or verdict.kind in (
        FILLING_CASE_UNRESOLVED,
        ROOM_FAILS,
    )


def test_theorem_verdict_condition3_failure_example():
    # (3,3,3,2),(2,2): room and table hold but the companion has positive
    # fiber dimension (expected 11 < 14 parameters).
    verdict = theorem_verdict(validate((3, 3, 3, 2), (2, 2)))
    assert verdict.kind == FILLING_CASE_UNRESOLVED
    assert verdict.condition3.single_output_expdim == 11
    assert verdict.condition3.parameter_count == 14


def test_corollary_threshold_single_output():
    # Hidden widths >= 2, widths below degrees, last degree above 4: the
    # predicates always predict the expected dimension for one output.
    rng = random.Random(15)
    checked = 0
    for _ in range(200):
        L = rng.choice((2, 3, 4))
        widths = [rng.randint(2, 4)]
        for i in range(1, L):
            widths.append(rng.randint(2, 4))
        widths.append(1)
        degrees = tuple(
            rng.randint(widths[i + 1] + 1, 7) if i < L - 1 else rng.randint(5, 7)
            for i in range(L - 1)
        )
        degrees = degrees[:-1] + (max(degrees[-1], 5),)
        arch = validate(tuple(widths), degrees)
        if any(widths[i + 1] >= degrees[i] for i in range(L - 1)):
            continue
        checked += 1
        assert theorem_verdict(arch).kind == PREDICTED_NON_DEFECTIVE, arch.label()
    assert checked >= 100


def test_corollary_threshold_multi_output_room_and_table():
    # For several outputs the same hypotheses still guarantee room and a
    # non-defective last Veronese; the identifiability count can
    # legitimately fail when the last secant overfills its span, so the
    # verdict is either the full prediction or the unresolved filling case.
    rng = random.Random(16)
    seen_identifiable = 0
    for _ in range(200):
        L = rng.choice((2, 3))
        widths = [rng.randint(2, 4)]
        for i in range(1, L):
            widths.append(rng.randint(2, 4))
        widths.append(rng.randint(2, 3))
        degrees = tuple(rng.randint(5, 7) for _ in range(L - 1))
        arch = validate(tuple(widths), degrees)
        if any(widths[i + 1] >= degrees[i] for i in range(L - 1)):
            continue
        verdict = theorem_verdict(arch)
        assert verdict.kind in (PREDICTED_IDENTIFIABLE, FILLING_CASE_UNRESOLVED), arch.label()
        assert all(lv.holds for lv in verdict.room)
        assert not verdict.ah_defective
        if verdict.kind == PREDICTED_IDENTIFIABLE:
            seen_identifiable += 1
    assert seen_identifiable >= 20


def test_necessity_scope_bounds():
    assert necessity_scope(validate((2, 3, 2, 1), (3, 3)))
    # parameter count above the ambient: out of scope
    assert not necessity_scope(validate((2, 2, 2, 1), (2, 2)))
    # multi-output: out of scope
    assert not necessity_scope(validate((2, 2, 2, 2), (3, 3)))
    # trivial target: out of scope
    assert not necessity_scope(validate((1, 2, 1), (2,)))


def test_verdict_requires_hidden_layer():
    with pytest.raises(ValueError):
        theorem_verdict(validate((3, 1), ()))
    with pytest.raises(ValueError):
        room_condition(validate((3, 1), ()))


def test_ah_rejects_nonpositive():
    with pytest.raises(ValueError):
        ah_secant_defective(0, 2, 2)
    with pytest.raises(ValueError):
        ah_secant_defective(3, 2, 0)
