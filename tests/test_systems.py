import itertools
import math

import numpy as np
import pytest
import sympy as sp

from gwsim.qmath import CANONICAL_LAYOUT, BasisGroup, StateVector, layout
from gwsim.systems import (
    SUPPORT_EPS,
    LabLabel,
    SupportEntry,
    initial_product_terms,
    initial_scenario_state,
    support_table,
)

from _oracles import (
    axis_spec,
    dense_ghz,
    random_orthonormal_columns,
    random_state,
    stacked_support,
    sym_ghz_amplitudes,
    sym_initial_state,
    sym_spin_vector,
)


def exact(z: complex) -> sp.Expr:
    """A double's exact value, as a sympy number."""
    return sp.Rational(z.real) + sp.I * sp.Rational(z.imag)


def expansion(state, groups) -> dict[tuple, tuple[complex, float]]:
    """(amplitude, weight) of each possible outcome tuple: ``support_table``'s
    entries."""
    entries, _ = support_table(state, groups)
    return {e.labels: (e.amplitude, abs(e.amplitude) ** 2) for e in entries}


def ghz_expansion(axes) -> dict[tuple, tuple[complex, float]]:
    return expansion(dense_ghz(), axis_spec(dense_ghz(), axes))


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
    entries = ghz_expansion(axes)
    exact = sym_ghz_amplitudes(axes)
    for signs in itertools.product((+1, -1), repeat=3):
        expected = complex(exact[signs].evalf())
        got = entries.get(signs, (0.0, 0.0))[0]
        assert got == pytest.approx(expected, abs=1e-12)


def test_z_expansion_has_full_support_at_one_eighth():
    entries = ghz_expansion("zzz")
    assert len(entries) == 8
    for _, weight in entries.values():
        assert weight == pytest.approx(0.125, abs=1e-12)


def test_x_expansion_is_the_odd_parity_quadruple():
    entries = ghz_expansion("xxx")
    assert sorted(entries) == [
        (-1, -1, -1),
        (-1, +1, +1),
        (+1, -1, +1),
        (+1, +1, -1),
    ]
    assert all(weight == pytest.approx(0.25, abs=1e-12) for _, weight in entries.values())


@pytest.mark.parametrize("x_position", [0, 1, 2])
def test_single_x_expansions_are_even_parity(x_position):
    axes = ["z"] * 3
    axes[x_position] = "x"
    entries = ghz_expansion(axes)
    assert len(entries) == 4
    assert all(math.prod(labels) == +1 for labels in entries)
    assert all(weight == pytest.approx(0.25, abs=1e-12) for _, weight in entries.values())


def test_expansion_probabilities_always_sum_to_one():
    for axes in itertools.product("xyz", repeat=3):
        entries = ghz_expansion(axes)
        assert sum(weight for _, weight in entries.values()) == pytest.approx(1.0, abs=1e-10)


def test_axis_spec_length_check():
    with pytest.raises(ValueError, match="axes"):
        axis_spec(dense_ghz(), "zz")


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


def test_initial_scenario_state_is_exact():
    # The product terms expanded: eight amplitudes ±¼ ± ¼i, each |a|² = 1/8
    # exactly, and each the double nearest the symbolic oracle's value.
    amplitudes = initial_scenario_state().amplitudes
    nonzero = amplitudes[amplitudes != 0]
    assert len(nonzero) == 8
    assert set(np.abs(nonzero.real)) == set(np.abs(nonzero.imag)) == {0.25}
    assert float(np.sum(amplitudes.real**2 + amplitudes.imag**2)) == 1.0
    expected = np.array(sym_initial_state().evalf(), dtype=complex).ravel()
    assert np.array_equal(amplitudes, expected)


def test_product_terms_sum_to_the_initial_state():
    # Entry for entry in exact arithmetic: the frame pass's two product terms
    # are the symbolic GHZ state with every lab ready, so they carry the
    # y-sign convention the oracle pins.
    coefficients, vectors = initial_product_terms()
    pairs = [sp.Matrix([exact(x) for x in v]) for v in vectors]
    terms = [exact(c) * sp.kronecker_product(v, v, v) for c, v in zip(coefficients, pairs)]
    assert [sp.expand(x) for x in terms[0] + terms[1]] == [
        sp.expand(x) for x in sym_initial_state()
    ]


@pytest.mark.parametrize("term, sign", [(0, +1), (1, -1)])
def test_each_product_term_holds_a_y_eigenvector(term, sign):
    # The flipped-sign y convention lives in the product terms: every
    # electron is √2·|+1_y> = (1, −i) in term 0 and √2·|-1_y> = (1, i) in
    # term 1, at pair entries (ready, ±1_z), and no lab is recorded.
    v = initial_product_terms()[1][term]
    electron = sp.Matrix([exact(x) for x in v[:2]])
    assert sp.simplify(electron - sp.sqrt(2) * sym_spin_vector("y", sign)) == sp.zeros(2, 1)
    assert v[2:] == (0j,) * 4


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
    state = StateVector(layout("L"), np.eye(3)[LabLabel.RECORDED_UP.value])
    _, weights = stacked_support(
        StateVector(state.layout, state.amplitudes[None]), [(("L",), np.eye(3)[:, :1])]
    )
    assert weights.tolist() == [[0.0]]


def test_support_table_reports_residual_outside_labeled_subspace():
    # Label only the |ready> level of lab L: the residual is the weight on
    # the other two levels.
    state = StateVector(layout("L"), np.eye(3)[LabLabel.RECORDED_UP.value])
    group = BasisGroup(("L",), (0,), np.eye(3)[:, :1])
    entries, residual = support_table(state, [group])
    assert entries == []
    assert residual == pytest.approx(1.0, abs=1e-12)


def test_support_entry_product():
    assert SupportEntry((+1, -1, -1), 0.5 + 0j).product == +1
    assert SupportEntry((-1, +1, +1), 0.5 + 0j).product == -1


def test_amplitude_is_exact_without_spectators():
    # Amplitude of |+1_z,+1_z,+1_z> is (1-i)/4 under the pinned conventions.
    amplitude, _ = ghz_expansion("zzz")[(+1, +1, +1)]
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
    groups = [(pair[s], families) for s in sites]
    groups += [((s,), np.eye(2)) for s in "ABC" if s not in sites]
    amplitudes, weights = stacked_support(StateVector(CANONICAL_LAYOUT, stack), groups)
    labels = list(itertools.product((+1, -1), repeat=len(groups)))
    for m in range(6):
        single = [BasisGroup(f, (+1, -1), v[m] if v.ndim == 3 else v) for f, v in groups]
        entries, _ = support_table(StateVector(CANONICAL_LAYOUT, stack[m]), single)
        kept = weights[m] > SUPPORT_EPS
        assert entries == [
            SupportEntry(l, complex(a)) for l, a, ok in zip(labels, amplitudes[m], kept) if ok
        ]
