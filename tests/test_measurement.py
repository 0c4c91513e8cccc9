import numpy as np
import pytest
from numpy.testing import assert_allclose

from gwsim.measurement import (
    MeasurementModel,
    Observable,
    OutcomeDistribution,
    collapsed_record_mixture,
    distinguishability_report,
    distribution,
    door_observable,
    haar_random_unitary,
    haar_unitaries,
    ideal_von_neumann,
    measure,
    outsider_observable,
    pair_index,
)
from gwsim.models import trial_rng
from gwsim.qmath import LayoutError, Operator, StateVector, layout, tensor
from gwsim.systems import LabLabel, SpinAxis, lab_state, spin_vector

from _oracles import entangled_record_state, random_state, random_unitary, spin_observable


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


class TestObservables:
    def test_outsider_projector_ranks(self):
        obs = outsider_observable(ideal_von_neumann())
        ranks = [int(round(np.trace(p.matrix).real)) for _, p in obs.eigenpairs]
        assert obs.eigenvalues == (+1.0, -1.0, 0.0)
        assert ranks == [1, 1, 4]

    def test_outsider_observable_completeness_for_random_models(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            model = MeasurementModel((haar_random_unitary(6, rng),) * 3)
            obs = outsider_observable(model, "C")
            total = sum(p.matrix for _, p in obs.eigenpairs)
            assert_allclose(total, np.eye(6), atol=1e-10)

    def test_outsider_targets_follow_site(self):
        model = ideal_von_neumann()
        assert outsider_observable(model, "A").targets == ("L", "A")
        assert outsider_observable(model, "B").targets == ("M", "B")
        assert outsider_observable(model, "C").targets == ("N", "C")

    def test_door_observable_reads_the_lab_register(self):
        obs = door_observable("B")
        assert obs.targets == ("M",)
        up = lab_state(LabLabel.RECORDED_UP, "M")
        assert distribution(obs, up).probability(+1.0) == pytest.approx(1.0)

    def test_door_on_recorded_up_with_any_electron(self):
        obs = door_observable()
        rng = np.random.default_rng(25)
        state = tensor(
            lab_state(LabLabel.RECORDED_UP, "L"),
            StateVector(layout("A"), random_state(2, rng)),
        )
        dist = distribution(obs, state)
        assert dist.probability(+1.0) == pytest.approx(1.0, abs=1e-12)

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
        dist = distribution(spin_observable(SpinAxis.Z), x_up)
        assert dist.probability(+1.0) == pytest.approx(0.5, abs=1e-12)
        assert dist.probability(-1.0) == pytest.approx(0.5, abs=1e-12)

    def test_observable_on_own_eigenstate_is_point_mass(self):
        for sign in (+1, -1):
            eigenstate = StateVector(layout("A"), spin_vector(SpinAxis.Y, sign))
            dist = distribution(spin_observable(SpinAxis.Y), eigenstate)
            assert dist.probability(float(sign)) == pytest.approx(1.0, abs=1e-12)

    def test_pair_observable_on_unitary_record_state(self):
        model = ideal_von_neumann()
        dist = distribution(outsider_observable(model), entangled_record_state(model))
        assert dist.probability(+1.0) == pytest.approx(1.0, abs=1e-12)

    def test_pair_observable_on_collapsed_mixture(self):
        model = ideal_von_neumann()
        dist = distribution(outsider_observable(model), collapsed_record_mixture(model))
        assert dist.probability(+1.0) == pytest.approx(0.5, abs=1e-12)
        assert dist.probability(-1.0) == pytest.approx(0.5, abs=1e-12)

    def test_distribution_requires_target_factors_in_state(self):
        z_up = StateVector(layout("A"), spin_vector(SpinAxis.Z, +1))
        with pytest.raises(LayoutError, match="not in layout"):
            distribution(spin_observable(SpinAxis.Z, "B"), z_up)

    def test_outcome_distribution_validates_total(self):
        with pytest.raises(ValueError, match="sum"):
            OutcomeDistribution(((1.0, 0.7), (-1.0, 0.7)))
        with pytest.raises(ValueError, match="range"):
            OutcomeDistribution(((1.0, 1.3), (-1.0, -0.3)))

    def test_unknown_eigenvalue_lookup_raises(self):
        z_up = StateVector(layout("A"), spin_vector(SpinAxis.Z, +1))
        dist = distribution(spin_observable(SpinAxis.Z), z_up)
        with pytest.raises(KeyError):
            dist.probability(2.0)


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
        assert post.norm() == pytest.approx(1.0, abs=1e-12)

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
