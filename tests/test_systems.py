import itertools
import math

import numpy as np
import pytest
import sympy as sp
from numpy.testing import assert_allclose

from gwsim.qmath import CANONICAL_LAYOUT, BasisGroup, StateVector
from gwsim.systems import (
    SUPPORT_EPS,
    LabLabel,
    SpinAxis,
    SupportEntry,
    ghz_state,
    initial_product_terms,
    initial_scenario_state,
    lab_state,
    spin_basis,
    spin_vector,
    support_table,
)

from _oracles import (
    axis_spec,
    random_orthonormal_columns,
    random_state,
    stacked_support,
    sym_ghz,
    sym_ghz_amplitudes,
    sym_spin_vector,
)

SQ2 = np.sqrt(2.0)


def expansion(state, groups) -> dict[tuple, tuple[complex, float]]:
    """(amplitude, weight) of each possible outcome tuple: ``support_table``'s
    entries."""
    entries, _ = support_table(state, groups)
    return {e.labels: (e.amplitude, abs(e.amplitude) ** 2) for e in entries}


def ghz_expansion(axes) -> dict[tuple, tuple[complex, float]]:
    return expansion(ghz_state(), axis_spec(ghz_state(), axes))


@pytest.mark.parametrize("axis", list(SpinAxis))
@pytest.mark.parametrize("sign", [+1, -1])
def test_spin_vectors_match_symbolic_conventions(axis, sign):
    expected = np.array(sym_spin_vector(axis.value, sign).evalf(), dtype=complex).ravel()
    assert_allclose(spin_vector(axis, sign), expected, atol=1e-15)


def test_spin_state_rejects_bad_sign():
    with pytest.raises(ValueError, match="sign"):
        spin_vector(SpinAxis.X, 0)


def test_spin_bases_are_orthonormal():
    for axis in SpinAxis:
        basis = spin_basis(axis)
        assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-15)


def test_x_states_in_terms_of_z():
    assert_allclose(spin_vector(SpinAxis.X, +1), [1 / SQ2, 1 / SQ2])
    assert_allclose(spin_vector(SpinAxis.X, -1), [1 / SQ2, -1 / SQ2])


def test_y_states_carry_the_flipped_sign():
    # The convention with -i on |+1_y>: this is what makes the x-round parity
    # come out negative below.
    assert_allclose(spin_vector(SpinAxis.Y, +1), [1 / SQ2, -1j / SQ2])
    assert_allclose(spin_vector(SpinAxis.Y, -1), [1 / SQ2, +1j / SQ2])


def test_ghz_state_matches_symbolic_oracle():
    expected = np.array(sym_ghz().evalf(), dtype=complex).ravel()
    assert_allclose(ghz_state().amplitudes, expected, atol=1e-15)


def test_ghz_state_is_normalized():
    assert np.linalg.norm(ghz_state().amplitudes) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "axes",
    [
        ("z", "z", "z"),
        ("x", "x", "x"),
        ("x", "z", "z"),
        ("z", "x", "z"),
        ("z", "z", "x"),
        ("y", "y", "y"),
        ("x", "y", "z"),
    ],
)
def test_expansions_match_symbolic_oracle(axes):
    entries = ghz_expansion([SpinAxis(a) for a in axes])
    exact = sym_ghz_amplitudes(axes)
    for signs in itertools.product((+1, -1), repeat=3):
        expected = complex(exact[signs].evalf())
        got = entries.get(signs, (0.0, 0.0))[0]
        assert got == pytest.approx(expected, abs=1e-12)


def test_z_expansion_has_full_support_at_one_eighth():
    entries = ghz_expansion([SpinAxis.Z] * 3)
    assert len(entries) == 8
    for _, weight in entries.values():
        assert weight == pytest.approx(0.125, abs=1e-12)


def test_x_expansion_is_the_odd_parity_quadruple():
    entries = ghz_expansion([SpinAxis.X] * 3)
    assert sorted(entries) == [
        (-1, -1, -1),
        (-1, +1, +1),
        (+1, -1, +1),
        (+1, +1, -1),
    ]
    assert all(weight == pytest.approx(0.25, abs=1e-12) for _, weight in entries.values())


@pytest.mark.parametrize("x_position", [0, 1, 2])
def test_single_x_expansions_are_even_parity(x_position):
    axes = [SpinAxis.Z] * 3
    axes[x_position] = SpinAxis.X
    entries = ghz_expansion(axes)
    assert len(entries) == 4
    assert all(math.prod(labels) == +1 for labels in entries)
    assert all(weight == pytest.approx(0.25, abs=1e-12) for _, weight in entries.values())


def test_expansion_probabilities_always_sum_to_one():
    for axes in itertools.product(list(SpinAxis), repeat=3):
        entries = ghz_expansion(axes)
        assert sum(weight for _, weight in entries.values()) == pytest.approx(1.0, abs=1e-10)


def test_axis_spec_length_check():
    with pytest.raises(ValueError, match="axes"):
        axis_spec(ghz_state(), [SpinAxis.Z, SpinAxis.Z])


def test_lab_states_are_basis_vectors():
    for label in LabLabel:
        vec = lab_state(label, "M").amplitudes
        expected = np.zeros(3)
        expected[label.value] = 1.0
        assert_allclose(vec, expected)


def test_initial_scenario_state_layout_and_content():
    state = initial_scenario_state()
    assert state.layout == CANONICAL_LAYOUT
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
    # Lab factors are all |ready>: expanding each lab in its own basis puts
    # every bit of weight on the ready label.
    groups = [
        BasisGroup((name,), (0, 1, 2), np.eye(3)) for name in ("L", "M", "N")
    ]
    entries = expansion(state, groups)
    assert list(entries) == [(0, 0, 0)]
    assert entries[(0, 0, 0)][1] == pytest.approx(1.0, abs=1e-12)


def test_product_terms_sum_to_the_initial_state():
    # The frame pass's two product terms are the dense initial state, so
    # they carry the y-sign convention the symbolic oracle pins.
    coefficients, vectors = initial_product_terms()
    terms = [c * np.kron(np.kron(v, v), v) for c, v in zip(coefficients, vectors)]
    assert_allclose(sum(terms), initial_scenario_state().amplitudes, rtol=0, atol=1e-15)


def test_product_terms_are_exact_in_binary_floating_point():
    # Python complex numbers; each repr pins every zero's sign as well.
    coefficients, vectors = initial_product_terms()
    assert all(type(x) is complex for x in (*coefficients, *vectors[0], *vectors[1]))
    assert list(map(repr, coefficients)) == ["(0.25+0j)", "(-0-0.25j)"]
    assert [list(map(repr, v)) for v in vectors] == [
        ["(1+0j)", "-1j", "0j", "0j", "0j", "0j"],
        ["(1+0j)", "1j", "0j", "0j", "0j", "0j"],
    ]


def test_weights_leave_out_what_lies_outside_the_labeled_subspace():
    # Label only the |ready> level of lab L: a recorded lab has no weight on it.
    state = lab_state(LabLabel.RECORDED_UP, "L")
    group = BasisGroup(("L",), (0,), np.eye(3)[:, :1])
    _, weights = stacked_support(StateVector(state.layout, state.amplitudes[None]), [group])
    assert weights.tolist() == [[0.0]]


def test_support_table_reports_residual_outside_labeled_subspace():
    # Label only the |ready> level of lab L: the residual is the weight on
    # the other two levels.
    state = lab_state(LabLabel.RECORDED_UP, "L")
    group = BasisGroup(("L",), (0,), np.eye(3)[:, :1])
    entries, residual = support_table(state, [group])
    assert entries == []
    assert residual == pytest.approx(1.0, abs=1e-12)


def test_support_entry_product():
    assert SupportEntry((+1, -1, -1), 0.5 + 0j).product == +1
    assert SupportEntry((-1, +1, +1), 0.5 + 0j).product == -1


def test_amplitude_is_exact_without_spectators():
    # Amplitude of |+1_z,+1_z,+1_z> is (1-i)/4 under the pinned conventions.
    amplitude, _ = ghz_expansion([SpinAxis.Z] * 3)[(+1, +1, +1)]
    assert amplitude == pytest.approx((1 - 1j) / 4, abs=1e-12)


@pytest.mark.parametrize("sites", ["A", "AB", "ABC"])
def test_stacked_support_gives_support_table_entries_bit_for_bit(sites):
    # One pair group per listed site, plus z on every other electron: the
    # full-coverage case has no spectators, the others sum over them.
    # (The analysis tests cover outcomes the cutoff drops.)
    rng = np.random.default_rng(40)
    stack = np.array([random_state(216, rng) for _ in range(6)])
    families = np.array([random_orthonormal_columns(6, 2, rng) for _ in range(6)])
    pair = {"A": ("L", "A"), "B": ("M", "B"), "C": ("N", "C")}
    groups = [BasisGroup(pair[s], (+1, -1), families) for s in sites]
    groups += [BasisGroup((s,), (+1, -1), spin_basis(SpinAxis.Z)) for s in "ABC" if s not in sites]
    amplitudes, weights = stacked_support(StateVector(CANONICAL_LAYOUT, stack), groups)
    labels = list(itertools.product(*(g.labels for g in groups)))
    for m in range(6):
        single = [
            BasisGroup(g.factors, g.labels, g.vectors[m] if g.vectors.ndim == 3 else g.vectors)
            for g in groups
        ]
        entries, _ = support_table(StateVector(CANONICAL_LAYOUT, stack[m]), single)
        kept = weights[m] > SUPPORT_EPS
        assert entries == [
            SupportEntry(l, complex(a)) for l, a, ok in zip(labels, amplitudes[m], kept) if ok
        ]
