import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gwsim.measurement import (
    MeasurementModel,
    Observable,
    _door_projectors,
    _outsider_projectors,
    distinguishability_report,
    haar_random_unitary,
    haar_unitaries,
    ideal_von_neumann,
    measure,
    pair_index,
)
from gwsim.models import _haar_devices, trial_rng
from gwsim.qmath import LayoutError, Operator, StateVector, apply_local, layout, tensor
from gwsim.systems import SITE_FACTORS, LabLabel, SpinAxis, lab_state, spin_vector

from _oracles import (
    distinguish_reference,
    door_observable,
    entangled_record_state,
    outsider_observable,
    random_state,
    random_unitary,
    spin_observable,
)


def born(obs: Observable, state: StateVector) -> dict[float, float]:
    """Re⟨ψ|P ψ⟩ for each eigenvalue's projector P."""
    return {
        value: float(np.vdot(state.amplitudes, apply_local(proj, obs.targets, state).amplitudes).real)
        for value, proj in obs.eigenpairs
    }


def mixture_weights(projectors, vectors) -> list[float]:
    """½ Σ_v ‖P v‖² for each projector P, one vector at a time."""
    return [0.5 * sum(float(np.vdot(p @ v, p @ v).real) for v in vectors) for p in projectors]


def pair_state(lab: LabLabel, sign: int, lab_factor="L", elec_factor="A") -> StateVector:
    electron = StateVector(layout(elec_factor), spin_vector(SpinAxis.Z, sign))
    return tensor(lab_state(lab, lab_factor), electron)


class TestIdealModel:
    def test_ready_up_goes_to_recorded_up(self):
        model = ideal_von_neumann()
        out = model.unitary("A").matrix @ pair_state(LabLabel.READY, +1).amplitudes
        assert_allclose(out, pair_state(LabLabel.RECORDED_UP, +1).amplitudes, atol=1e-15)

    def test_ready_down_goes_to_recorded_down(self):
        model = ideal_von_neumann()
        out = model.unitary("A").matrix @ pair_state(LabLabel.READY, -1).amplitudes
        assert_allclose(out, pair_state(LabLabel.RECORDED_DOWN, -1).amplitudes, atol=1e-15)

    def test_x_up_electron_becomes_two_term_entangled_state(self):
        # ready ⊗ |+1_x> evolves to the even superposition of the two records.
        model = ideal_von_neumann()
        x_up = StateVector(layout("A"), spin_vector(SpinAxis.X, +1))
        start = tensor(lab_state(LabLabel.READY, "L"), x_up)
        out = model.unitary("A").matrix @ start.amplitudes
        expected = (
            pair_state(LabLabel.RECORDED_UP, +1).amplitudes
            + pair_state(LabLabel.RECORDED_DOWN, -1).amplitudes
        ) / np.sqrt(2)
        assert_allclose(out, expected, atol=1e-15)

    def test_is_unitary_permutation(self):
        mat = ideal_von_neumann().unitary("B").matrix
        assert_allclose(np.abs(mat), mat.real)  # permutation: entries 0/1
        assert_allclose(mat @ mat.conj().T, np.eye(6), atol=1e-15)

    def test_pair_index_is_row_major(self):
        assert pair_index(LabLabel.READY, +1) == 0
        assert pair_index(LabLabel.READY, -1) == 1
        assert pair_index(LabLabel.RECORDED_UP, +1) == 2
        assert pair_index(LabLabel.RECORDED_DOWN, -1) == 5


class TestCustomModel:
    def test_ideal_matrix_reproduces_ideal_model(self):
        ideal = ideal_von_neumann()
        rebuilt = MeasurementModel((ideal.unitary("A"),) * 3)
        for site in "ABC":
            assert_allclose(
                rebuilt.unitary(site).matrix, ideal.unitary(site).matrix, atol=1e-15
            )

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            MeasurementModel((Operator(np.eye(6) * 2.0),) * 3)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="6"):
            MeasurementModel((Operator(np.eye(4)),) * 3)

    def test_recorded_states_stay_orthonormal_for_random_devices(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            model = MeasurementModel((haar_random_unitary(6, rng),) * 3)
            plus = model.recorded_state("A", +1)
            minus = model.recorded_state("A", -1)
            assert np.vdot(plus, minus) == pytest.approx(0.0, abs=1e-10)
            assert np.linalg.norm(plus) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.norm(minus) == pytest.approx(1.0, abs=1e-10)

    def test_model_keeps_distinct_devices_per_site(self):
        rng = np.random.default_rng(22)
        unitaries = [haar_random_unitary(6, rng) for _ in range(3)]
        model = MeasurementModel(tuple(unitaries))
        for site, u in zip("ABC", unitaries):
            assert model.unitary(site) is u

    def test_model_requires_unitaries(self):
        with pytest.raises(ValueError, match="not unitary"):
            MeasurementModel((Operator(np.ones((6, 6))),) * 3)

    @pytest.mark.parametrize("shape", [(1, 6, 6), (4, 6, 6)])
    def test_a_stack_of_devices_is_no_device(self, shape):
        # A model holds one device per site; a stack of them is refused by
        # shape, before any unitarity check.
        stack = Operator(np.broadcast_to(np.eye(6), shape))
        message = f"^site A: unitary must be 6×6, got {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            MeasurementModel((stack,) * 3)

    @pytest.mark.parametrize("site", ["A", "B", "C"])
    def test_a_non_unitary_device_at_any_one_site_is_named(self, site):
        # The shared ideal device is checked once; a distinct one at any
        # site is checked too, and the error names its site.
        ideal = ideal_von_neumann().unitary("A")
        ops = tuple(Operator(np.ones((6, 6))) if s == site else ideal for s in "ABC")
        with pytest.raises(ValueError, match=f"^site {site}: matrix is not unitary"):
            MeasurementModel(ops)


class TestHaarSampling:
    def test_haar_unitary_is_unitary(self):
        rng = np.random.default_rng(23)
        for dim in (2, 3, 6):
            u = haar_random_unitary(dim, rng).matrix
            assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)

    def test_haar_unitary_is_seed_deterministic(self):
        a = haar_random_unitary(6, np.random.default_rng(5)).matrix
        b = haar_random_unitary(6, np.random.default_rng(5)).matrix
        assert_allclose(a, b)

    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_haar_unitary_matches_the_single_matrix_reference(self, dim):
        for seed in range(5):
            u = haar_random_unitary(dim, np.random.default_rng(seed)).matrix
            assert np.array_equal(u, random_unitary(dim, np.random.default_rng(seed)))

    def test_stacked_kernel_equals_per_model_single_draws(self):
        # One (3, 2, 6, 6) draw from each model's stream, one QR over the
        # stack: each model's three unitaries, bit for bit as drawn one by one.
        indices = range(1, 41)
        draws = np.array([trial_rng(3, index).normal(size=(3, 2, 6, 6)) for index in indices])
        stacked = haar_unitaries(draws)
        assert stacked.shape == (40, 3, 6, 6)
        for m, index in enumerate(indices):
            rng = trial_rng(3, index)
            for site in range(3):
                assert np.array_equal(stacked[m, site], random_unitary(6, rng))


    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_leading_columns_are_the_square_draws(self, dim):
        # k Gaussian columns give the (dim, dim) draw's first k unitary
        # columns, bit for bit, completed to a unitary.
        draws = np.random.default_rng(dim).normal(size=(40, 2, dim, dim))
        square = haar_unitaries(draws)
        for k in range(1, dim + 1):
            unitaries = haar_unitaries(draws[..., :k])
            assert unitaries.shape == (40, dim, dim)
            assert np.array_equal(unitaries[..., :k], square[..., :k])
            products = unitaries @ unitaries.conj().swapaxes(-1, -2)
            assert_allclose(products, np.broadcast_to(np.eye(dim), products.shape), atol=1e-12)


class TestObservables:
    def test_outsider_projector_ranks(self):
        projectors = _outsider_projectors(ideal_von_neumann(), "A")
        assert [int(round(np.trace(p).real)) for p in projectors] == [1, 1, 4]

    def test_outsider_observable_completeness_for_random_models(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            model = MeasurementModel((haar_random_unitary(6, rng),) * 3)
            assert_allclose(sum(_outsider_projectors(model, "C")), np.eye(6), atol=1e-10)

    def test_outsider_targets_follow_site(self):
        # The tests' observables hold the package's projectors on the site's factors.
        rng = np.random.default_rng(26)
        model = MeasurementModel(tuple(haar_random_unitary(6, rng) for _ in range(3)))
        for site in "ABC":
            outsider, door = outsider_observable(model, site), door_observable(site)
            assert outsider.targets == SITE_FACTORS[site]
            assert door.targets == SITE_FACTORS[site][:1]
            assert outsider.eigenvalues == door.eigenvalues == (+1.0, -1.0, 0.0)
            for (_, proj), expected in zip(outsider.eigenpairs, _outsider_projectors(model, site)):
                assert np.array_equal(proj.matrix, expected)
            for (_, proj), expected in zip(door.eigenpairs, _door_projectors()):
                assert np.array_equal(np.kron(proj.matrix, np.eye(2)), expected)

    def test_door_observable_reads_the_lab_register(self):
        # RecordedUp, RecordedDown, Ready: each keeps its lab level, any electron.
        projectors = _door_projectors()
        kept = [np.flatnonzero(np.diag(p)).tolist() for p in projectors]
        assert kept == [[2, 3], [4, 5], [0, 1]]
        assert np.array_equal(sum(projectors), np.eye(6))

    def test_door_on_recorded_up_with_any_electron(self):
        rng = np.random.default_rng(25)
        state = tensor(
            lab_state(LabLabel.RECORDED_UP, "L"),
            StateVector(layout("A"), random_state(2, rng)),
        )
        weights = mixture_weights(_door_projectors(), [np.sqrt(2.0) * state.amplitudes])
        assert weights == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_observable_rejects_duplicate_eigenvalues(self):
        p = np.diag([1.0, 0.0])
        q = np.diag([0.0, 1.0])
        with pytest.raises(ValueError, match="distinct"):
            Observable(("A",), ((1.0, Operator(p)), (1.0, Operator(q))))

    def test_observable_rejects_non_idempotent_projector(self):
        with pytest.raises(ValueError, match="idempotent"):
            Observable(("A",), ((1.0, Operator(np.eye(2) * 0.5)), (0.0, Operator(np.eye(2) * 0.5))))

    def test_observable_rejects_overlapping_projectors(self):
        p = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match="overlap"):
            Observable(("A",), ((1.0, Operator(p)), (-1.0, Operator(p))))

    def test_observable_rejects_incomplete_projectors(self):
        p = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match="identity"):
            Observable(("A",), ((1.0, Operator(p)),))

    def test_observable_rejects_non_hermitian_projector(self):
        m = np.array([[0.5, 0.5], [-0.5, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            Observable(("A",), ((1.0, Operator(m)), (0.0, Operator(np.eye(2) - m))))


class TestDistributions:
    def test_z_spin_on_x_up_is_even(self):
        x_up = StateVector(layout("A"), spin_vector(SpinAxis.X, +1))
        weights = born(spin_observable(SpinAxis.Z), x_up)
        assert weights == pytest.approx({+1.0: 0.5, -1.0: 0.5}, abs=1e-12)

    def test_observable_on_own_eigenstate_is_point_mass(self):
        for sign in (+1, -1):
            eigenstate = StateVector(layout("A"), spin_vector(SpinAxis.Y, sign))
            assert born(spin_observable(SpinAxis.Y), eigenstate)[sign] == pytest.approx(1.0, abs=1e-12)

    def test_pair_observable_on_unitary_record_state(self):
        model = ideal_von_neumann()
        vector = np.sqrt(2.0) * entangled_record_state(model).amplitudes
        weights = mixture_weights(_outsider_projectors(model, "A"), [vector])
        assert weights == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_pair_observable_on_collapsed_mixture(self):
        model = ideal_von_neumann()
        vectors = [model.recorded_state("A", sign) for sign in (+1, -1)]
        weights = mixture_weights(_outsider_projectors(model, "A"), vectors)
        assert weights == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)

    def test_distribution_requires_target_factors_in_state(self):
        z_up = StateVector(layout("A"), spin_vector(SpinAxis.Z, +1))
        with pytest.raises(LayoutError, match="not in layout"):
            measure(spin_observable(SpinAxis.Z, "B"), z_up, np.random.default_rng(0))


class TestMeasure:
    def test_eigenstate_measurement_is_deterministic(self):
        rng = np.random.default_rng(26)
        state = StateVector(layout("A"), spin_vector(SpinAxis.Y, -1))
        for _ in range(20):
            outcome, post = measure(spin_observable(SpinAxis.Y), state, rng)
            assert outcome == -1.0
            assert_allclose(post.amplitudes, state.amplitudes, atol=1e-12)

    def test_repeated_measurement_is_stable(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            state = StateVector(layout("L", "A"), random_state(6, rng))
            model = MeasurementModel((haar_random_unitary(6, rng),) * 3)
            obs = outsider_observable(model)
            v1, post1 = measure(obs, state, rng)
            v2, post2 = measure(obs, post1, rng)
            assert v1 == v2
            assert_allclose(post2.amplitudes, post1.amplitudes, atol=1e-10)

    def test_collapse_renormalizes(self):
        rng = np.random.default_rng(28)
        state = StateVector(layout("A"), spin_vector(SpinAxis.X, +1))
        _, post = measure(spin_observable(SpinAxis.Z), state, rng)
        assert np.linalg.norm(post.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_sampling_soundness_within_binomial_band(self):
        rng = np.random.default_rng(29)
        n = 4000
        x_up = StateVector(layout("A"), spin_vector(SpinAxis.X, +1))
        ups = sum(
            measure(spin_observable(SpinAxis.Z), x_up, rng)[0] == 1.0
            for _ in range(n)
        )
        band = 4 * np.sqrt(0.25 / n)
        assert abs(ups / n - 0.5) <= band

    def test_pair_measurement_of_recorded_up_state_reaches_recorded_down(self):
        # Measuring the pair observable on a definite record leaves the lab
        # in a superposition that includes the opposite record.
        model = ideal_von_neumann()
        state = pair_state(LabLabel.RECORDED_UP, +1)
        rng = np.random.default_rng(30)
        _, post = measure(outsider_observable(model), state, rng)
        down_index = pair_index(LabLabel.RECORDED_DOWN, -1)
        assert abs(post.amplitudes[down_index]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_sampling_an_impossible_outcome_is_an_error(self):
        class RiggedRNG:
            def choice(self, n, p):
                return len(p) - 1  # force the zero-probability eigenvalue

        model = ideal_von_neumann()
        state = entangled_record_state(model)  # no weight outside the X plane
        with pytest.raises(RuntimeError, match="corrupt"):
            measure(outsider_observable(model), state, RiggedRNG())


class TestDistinguishabilityReport:
    def test_table_shape(self):
        report = distinguishability_report()
        assert report["observables"] == ["door", "pair_x"]
        assert report["states"] == ["unitary_record", "collapsed_record"]

    def test_door_rows_are_identical(self):
        table = distinguishability_report()["distributions"]["door"]
        for value in (+1.0, -1.0, 0.0):
            assert table["unitary_record"][value] == pytest.approx(
                table["collapsed_record"][value], abs=1e-12
            )

    def test_pair_row_separates_the_descriptions(self):
        table = distinguishability_report()["distributions"]["pair_x"]
        assert table["unitary_record"][+1.0] == pytest.approx(1.0, abs=1e-12)
        assert table["collapsed_record"][+1.0] == pytest.approx(0.5, abs=1e-12)
        assert table["collapsed_record"][-1.0] == pytest.approx(0.5, abs=1e-12)

    def test_ideal_table_is_exact(self):
        table = distinguishability_report()["distributions"]
        half = {+1.0: 0.5, -1.0: 0.5, 0.0: 0.0}
        assert table["door"] == {"unitary_record": half, "collapsed_record": half}
        assert table["pair_x"] == {
            "unitary_record": {+1.0: 1.0, -1.0: 0.0, 0.0: 0.0},
            "collapsed_record": half,
        }

    def test_report_is_deterministic(self):
        a = distinguishability_report()
        b = distinguishability_report()
        assert a["distributions"].keys() == b["distributions"].keys()
        for obs in a["observables"]:
            for state in a["states"]:
                assert a["distributions"][obs][state] == b["distributions"][obs][state]

    def test_report_accepts_custom_model(self):
        model = MeasurementModel((haar_random_unitary(6, np.random.default_rng(31)),) * 3)
        table = distinguishability_report(model)["distributions"]
        assert table["pair_x"]["unitary_record"][+1.0] == pytest.approx(1.0, abs=1e-10)

    def test_ideal_table_equals_the_dense_reference_exactly(self):
        model = ideal_von_neumann()
        assert distinguishability_report(model)["distributions"] == distinguish_reference(model)

    def test_haar_tables_match_the_dense_reference(self):
        # ‖P v‖² and ⟨v|P v⟩ differ by rounding only where U is not exactly unitary.
        for devices in _haar_devices(12, range(20)):
            model = MeasurementModel(tuple(map(Operator, devices)))
            table = distinguishability_report(model)["distributions"]
            reference = distinguish_reference(model)
            for name, rows in reference.items():
                for state, expected in rows.items():
                    assert table[name][state].keys() == expected.keys()
                    for value, weight in expected.items():
                        assert abs(table[name][state][value] - weight) <= 1e-15
