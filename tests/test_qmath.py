import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from gwsim.cli import _build_model
from gwsim.measurement import ideal_von_neumann
from gwsim.qmath import (
    CANONICAL_LAYOUT,
    FACTOR_DIMS,
    BasisGroup,
    LayoutError,
    Operator,
    StateVector,
    apply_local,
    check_unitary,
    grouped_amplitudes,
    layout,
    permute_factors,
)

from _oracles import (
    brute_product_amplitude,
    check_unitary_reference,
    embed_operator,
    random_orthonormal_columns,
    random_state,
    random_unitary,
    stacked_amplitudes,
)


def test_canonical_layout_shape():
    assert CANONICAL_LAYOUT.names == ("L", "A", "M", "B", "N", "C")
    assert CANONICAL_LAYOUT.dims == (3, 2, 3, 2, 3, 2)
    assert CANONICAL_LAYOUT.dim == 216


def test_layout_axis_lookup():
    lay = layout("M", "B")
    assert lay.axis("B") == 1
    assert lay.axes(("B", "M")) == (1, 0)
    with pytest.raises(LayoutError, match="not in layout"):
        lay.axis("L")


def test_layout_rejects_unknown_and_duplicate_names():
    with pytest.raises(LayoutError, match="unknown factor"):
        layout("L", "Q")
    with pytest.raises(LayoutError, match="duplicate"):
        layout("L", "L")


def test_state_vector_validation():
    with pytest.raises(ValueError, match="216"):
        StateVector(CANONICAL_LAYOUT, np.zeros(8))
    with pytest.raises(ValueError, match="finite"):
        StateVector(layout("A"), np.array([np.nan, 0.0]))
    # Either part of any entry, in a stack too.
    for bad in (complex(0.0, np.nan), complex(np.inf, 0.0), complex(0.0, -np.inf)):
        amplitudes = np.zeros((2, 6), dtype=complex)
        amplitudes[1, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            StateVector(layout("L", "A"), amplitudes)


def test_state_vector_is_read_only():
    state = StateVector(layout("A"), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.5


def test_apply_local_single_factor_matches_embedding_oracle():
    rng = np.random.default_rng(12)
    state = StateVector(CANONICAL_LAYOUT, random_state(216, rng))
    u = random_unitary(3, rng)
    applied = apply_local(Operator(u), ("M",), state)
    full = embed_operator(u, (CANONICAL_LAYOUT.axis("M"),), CANONICAL_LAYOUT.dims)
    assert_allclose(applied.amplitudes, full @ state.amplitudes, atol=1e-12)


def test_apply_local_nonadjacent_pair_matches_embedding_oracle():
    rng = np.random.default_rng(13)
    state = StateVector(CANONICAL_LAYOUT, random_state(216, rng))
    u = random_unitary(6, rng)
    applied = apply_local(Operator(u), ("N", "A"), state)
    positions = (CANONICAL_LAYOUT.axis("N"), CANONICAL_LAYOUT.axis("A"))
    full = embed_operator(u, positions, CANONICAL_LAYOUT.dims)
    assert_allclose(applied.amplitudes, full @ state.amplitudes, atol=1e-12)


def test_apply_local_dimension_mismatch():
    state = StateVector(layout("L", "A"), random_state(6, np.random.default_rng(0)))
    with pytest.raises(LayoutError, match="dimension"):
        apply_local(Operator(np.eye(4)), ("L", "A"), state)


def test_apply_local_preserves_norm_for_unitaries():
    rng = np.random.default_rng(14)
    names = CANONICAL_LAYOUT.names
    for _ in range(200):
        state = StateVector(CANONICAL_LAYOUT, random_state(216, rng))
        k = rng.integers(1, 4)
        targets = tuple(rng.choice(names, size=k, replace=False))
        dim = int(np.prod([FACTOR_DIMS[t] for t in targets]))
        out = apply_local(Operator(random_unitary(dim, rng)), targets, state)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)


def test_permute_factors_round_trip():
    rng = np.random.default_rng(15)
    state = StateVector(CANONICAL_LAYOUT, random_state(216, rng))
    shuffled = permute_factors(state, ("C", "L", "B", "M", "A", "N"))
    back = permute_factors(shuffled, CANONICAL_LAYOUT.names)
    assert_allclose(back.amplitudes, state.amplitudes)


def test_permute_factors_reorders_amplitudes():
    a, b = [1.0, 0.0], [0.0, 1.0]
    ba = permute_factors(StateVector(layout("A", "B"), np.kron(a, b)), ("B", "A"))
    assert_allclose(ba.amplitudes, np.kron(b, a))


def test_permute_factors_requires_same_factor_set():
    state = StateVector(layout("A", "B"), np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(LayoutError, match="permutation"):
        permute_factors(state, ("A", "C"))


def test_check_unitary():
    assert check_unitary(Operator(np.eye(5)))
    assert check_unitary(Operator(random_unitary(7, np.random.default_rng(16))))
    assert not check_unitary(Operator(np.eye(3) * 1.5))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1.0 + 1e-9])
@pytest.mark.parametrize("stacked", [False, True])
def test_check_unitary_rejects_any_bad_entry(entry, stacked):
    # Each entry of U†U is compared on its own, so a NaN or ±inf entry fails
    # the check as an entry off by 1e-9 does. The ideal device and a completed
    # Haar device pass, alone and stacked.
    ideal = ideal_von_neumann().unitary("A").matrix
    haar = [u.matrix for u in _build_model({"model": {"kind": "random", "seed": 5}}).site_unitaries]
    devices = np.array([*haar, ideal])
    assert check_unitary(Operator(ideal)) and check_unitary(Operator(devices))
    assert all(check_unitary(Operator(u)) for u in haar)
    bad = devices.copy()
    bad[-1, 0, 2] = entry  # the ideal device's 1 taking (RecordedUp, +1) to (Ready, +1)
    # A non-finite entry fails before the matmul, whose inf·0 would warn of
    # an invalid value, an error under the suite's warning filter.
    assert not check_unitary(Operator(bad if stacked else bad[-1]))


def unitarity_test_matrices() -> list[np.ndarray]:
    """Every matrix and stack this file's ``check_unitary`` tests check."""
    ideal = ideal_von_neumann().unitary("A").matrix
    haar = [u.matrix for u in _build_model({"model": {"kind": "random", "seed": 5}}).site_unitaries]
    rng = np.random.default_rng(33)
    sixes = np.array([random_unitary(6, rng) for _ in range(3)])
    scaled = sixes.copy()
    scaled[1] *= 1.5
    matrices = [np.eye(5), random_unitary(7, np.random.default_rng(16)), np.eye(3) * 1.5]
    matrices += [ideal, *haar, np.array([*haar, ideal]), *sixes, sixes, scaled]
    for entry in (np.nan, np.inf, -np.inf, 1.0 + 1e-9):
        bad = ideal.copy()
        bad[0, 2] = entry
        matrices.append(bad)
    return matrices


def test_check_unitary_agrees_with_the_full_loop():
    # The upper triangle of U†U (with its diagonal) decides as every entry
    # does: on each matrix, and on each one-entry change above and below its
    # diagonal, by amounts inside and outside UNITARY_TOL.
    verdicts = set()
    for matrix in unitarity_test_matrices():
        assert check_unitary(Operator(matrix)) == check_unitary_reference(Operator(matrix))
        if matrix.ndim == 3:
            continue
        for i, j in itertools.product(range(len(matrix)), repeat=2):
            for delta in (5e-11, 2e-10j, 6e-11 - 6e-11j, -0.5) if i != j else ():
                changed = matrix.astype(complex)
                changed[i, j] += delta
                verdict = check_unitary(Operator(changed))
                assert verdict == check_unitary_reference(Operator(changed)), (i, j, delta)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_operator_requires_square_matrix():
    with pytest.raises(ValueError, match="square"):
        Operator(np.zeros((2, 3)))


def test_operator_and_basis_group_leave_the_callers_array_writable():
    u = np.eye(6, dtype=complex)
    op = Operator(u)
    u[0, 0] = 2
    assert op.matrix[0, 0] == 1 and not op.matrix.flags.writeable
    v = np.eye(2, dtype=complex)
    group = BasisGroup(("A",), (+1, -1), v)
    v[0, 0] = 2
    assert group.vectors[0, 0] == 1 and not group.vectors.flags.writeable


def test_state_vector_leaves_a_stacked_callers_array_writable():
    a = np.zeros((2, 216), complex)
    a[:, 0] = 1
    state = StateVector(CANONICAL_LAYOUT, a)
    a[0, 0] = 2
    assert state.amplitudes[0, 0] == 1 and not state.amplitudes.flags.writeable


def test_state_vector_does_not_alias_a_one_dimensional_callers_array():
    b = np.zeros(216, complex)
    b[0] = 1
    state = StateVector(CANONICAL_LAYOUT, b)
    b[0] = 5
    assert state.amplitudes[0] == 1 and not state.amplitudes.flags.writeable


def test_basis_group_rejects_non_orthonormal_columns():
    cols = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="orthonormal"):
        BasisGroup(("A",), (+1, -1), cols)


def test_basis_group_label_count_must_match_columns():
    with pytest.raises(LayoutError, match="shape"):
        BasisGroup(("A",), (+1,), np.eye(2))


def contract_one(stacked: bool, state: StateVector, groups) -> np.ndarray:
    """One state's joint outcome amplitudes: the package's ``grouped_amplitudes``,
    or the dense oracle's ``stacked_amplitudes`` on a stack of one."""
    if stacked:
        pairs = [(g.factors, g.vectors) for g in groups]
        return stacked_amplitudes(StateVector(state.layout, state.amplitudes[None]), pairs)[0]
    return grouped_amplitudes(state, groups)[0]


@pytest.mark.parametrize("stacked", [False, True])
def test_contractions_with_full_coverage_match_bra_oracle(stacked):
    rng = np.random.default_rng(17)
    lay = layout("L", "A", "M")
    state = StateVector(lay, random_state(18, rng))
    g_lab = BasisGroup(("L",), (0, 1, 2), random_unitary(3, rng))
    g_pair = BasisGroup(("A", "M"), ("p", "q"), random_orthonormal_columns(6, 2, rng))
    amps = contract_one(stacked, state, [g_lab, g_pair])
    assert amps.shape == (3, 2, 1)
    for i in range(3):
        for j in range(2):
            expected = brute_product_amplitude(
                state.amplitudes,
                lay.dims,
                [((0,), g_lab.vectors[:, i]), ((1, 2), g_pair.vectors[:, j])],
            )
            assert amps[i, j, 0] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("stacked", [False, True])
def test_contraction_spectator_axis_carries_leftover_weight(stacked):
    rng = np.random.default_rng(18)
    lay = layout("L", "A", "M")
    state = StateVector(lay, random_state(18, rng))
    group = BasisGroup(("A",), (+1, -1), np.eye(2))
    amps = contract_one(stacked, state, [group])
    assert amps.shape == (2, 9)
    total = float(np.sum(np.abs(amps) ** 2))
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("stacked", [False, True])
def test_contractions_reject_overlapping_groups(stacked):
    amplitudes = np.array([1, 0, 0, 0], dtype=complex)
    g = BasisGroup(("A",), (+1, -1), np.eye(2))
    with pytest.raises(LayoutError, match="overlap"):
        contract_one(stacked, StateVector(layout("A", "B"), amplitudes), [g, g])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_grouped_amplitudes_of_a_product_state_factorise(seed):
    # On a ⊗ b the amplitude of labels (i, j) is ⟨e_i|a⟩⟨f_j|b⟩, so the joint
    # weights sum to |a|²·|b|², unnormalised states included.
    rng = np.random.default_rng(seed)
    a, b = 0.5 * random_state(3, rng), 0.25 * random_state(2, rng)
    e, f = random_unitary(3, rng), random_unitary(2, rng)
    groups = [BasisGroup(("L",), (0, 1, 2), e), BasisGroup(("A",), (+1, -1), f)]
    amps, spectator_dim = grouped_amplitudes(StateVector(layout("L", "A"), np.kron(a, b)), groups)
    assert spectator_dim == 1
    assert_allclose(amps[..., 0], np.outer(e.conj().T @ a, f.conj().T @ b), rtol=0, atol=1e-15)
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(0.5**2 * 0.25**2, rel=1e-12)


def random_stack(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    return np.array([random_state(dim, rng) for _ in range(n)])


def test_state_vector_holds_a_stack_by_rows():
    stack = StateVector(CANONICAL_LAYOUT, random_stack(4, 216, np.random.default_rng(30)))
    assert stack.amplitudes.shape == (4, 216)
    assert stack.tensor_view().shape == (4, *CANONICAL_LAYOUT.dims)
    with pytest.raises(ValueError, match="216"):
        StateVector(CANONICAL_LAYOUT, np.zeros((4, 8)))


@pytest.mark.parametrize("targets", [("M",), ("N", "A"), ("L", "A"), ("C", "B", "L")])
def test_apply_local_on_a_stack_matches_each_state(targets):
    rng = np.random.default_rng(31)
    stack = StateVector(CANONICAL_LAYOUT, random_stack(5, 216, rng))
    dim = int(np.prod([FACTOR_DIMS[n] for n in targets]))
    ops = np.array([random_unitary(dim, rng) for _ in range(5)])
    stacked = apply_local(Operator(ops), targets, stack)
    shared = apply_local(Operator(ops[0]), targets, stack)
    for m in range(5):
        state = StateVector(CANONICAL_LAYOUT, stack.amplitudes[m])
        assert np.array_equal(
            stacked.amplitudes[m], apply_local(Operator(ops[m]), targets, state).amplitudes
        )
        assert np.array_equal(
            shared.amplitudes[m], apply_local(Operator(ops[0]), targets, state).amplitudes
        )


def test_stacked_amplitudes_match_grouped_amplitudes_of_each_state():
    rng = np.random.default_rng(32)
    stack = StateVector(CANONICAL_LAYOUT, random_stack(5, 216, rng))
    pairs = np.array([random_orthonormal_columns(6, 2, rng) for _ in range(5)])
    for groups in (
        [(("N", "C"), pairs), (("A",), np.eye(2))],
        [
            (("L", "A"), pairs),
            (("M", "B"), pairs[::-1]),
            (("N", "C"), random_orthonormal_columns(6, 2, rng)),
        ],
    ):
        amps = stacked_amplitudes(stack, groups)
        for m in range(5):
            state = StateVector(CANONICAL_LAYOUT, stack.amplitudes[m])
            entry = [BasisGroup(f, (+1, -1), v[m] if v.ndim == 3 else v) for f, v in groups]
            expected, spectator_dim = grouped_amplitudes(state, entry)
            assert amps.shape == (5, *expected.shape)
            assert np.array_equal(amps[m], expected)


def test_stacks_of_operators_are_checked_entry_by_entry():
    rng = np.random.default_rng(33)
    unitaries = np.array([random_unitary(6, rng) for _ in range(3)])
    assert check_unitary(Operator(unitaries.copy()))
    unitaries[1] *= 1.5
    assert not check_unitary(Operator(unitaries))
    with pytest.raises(ValueError, match="square"):
        Operator(np.zeros((2, 3, 3, 3)))


def test_basis_group_rejects_a_stack_of_families():
    # ``grouped_amplitudes`` contracts one family; a stack's ``.T`` would
    # reverse all three axes and mix the stack into the labels, silently.
    rng = np.random.default_rng(34)
    families = np.array([random_orthonormal_columns(2, 2, rng) for _ in range(3)])
    with pytest.raises(LayoutError, match="shape"):
        BasisGroup(("A",), (+1, -1), families)
