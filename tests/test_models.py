import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gwsim.cli
import gwsim.measurement
import gwsim.models
import gwsim.scenario
import gwsim.spacetime
import gwsim.systems
from _oracles import (
    box_muller_normals,
    collapse_branches_reference,
    door_observable,
    entangled_record_state,
    outcome_indices,
    outsider_observable,
    random_state,
    sample_round_born,
    sample_sequential_collapse,
    spin_observable,
    spin_vector,
    sweep_failures,
    sweep_reference,
    sweep_reference_model,
    sweep_rows,
    sym_erasure_table,
)
from gwsim.cli import _build_model
from gwsim.measurement import (
    SAMPLE_FLOOR,
    MeasurementModel,
    distinguishability_report,
    door_weights,
    haar_random_unitary,
    haar_unitaries,
    ideal_von_neumann,
    outsider_parts,
    pair_index,
)
from gwsim.models import (
    MAX_TRIALS,
    MODES,
    QUARTER_TOL,
    READY_GRAM_TOL,
    InterpretationModel,
    _signed_outcomes,
    born_violation_check,
    erasure_experiment,
    nonideal_sweep,
    quarter_support,
    round_born_distribution,
    run_model,
    sequential_collapse_distribution,
    trial_rng,
)
from gwsim.qmath import CANONICAL_LAYOUT, Operator, StateVector, apply_local, layout
from gwsim.scenario import (
    CANONICAL_SLOTS,
    FRAME_NAMES,
    OUTCOME_SIGNS,
    ParityConstraint,
    build_schedule,
    collect_constraints,
    enumerate_assignments,
    order_events,
    violation_mask,
)
from gwsim.systems import (
    SUPPORT_EPS,
    LabLabel,
    initial_product_terms,
    initial_scenario_state,
)

TRIALS = 2000
IDEAL = ideal_von_neumann()
# The outcome rows as a (64, 6) array, for column arithmetic on tallies.
SIGNS = np.array(OUTCOME_SIGNS)


def four_sigma_band(p: float, n: int) -> float:
    return 4.0 * np.sqrt(p * (1.0 - p) / n)


def column(slot: str) -> int:
    return CANONICAL_SLOTS.index(slot)


@pytest.fixture(scope="module")
def schedule():
    return build_schedule(10.0, 1.0)


@pytest.fixture(scope="module")
def born_sigma_report(schedule):
    m = InterpretationModel("round_born", "sigma")
    return run_model(schedule, IDEAL, m, TRIALS, seed=11)


class TestInterpretationModel:
    def test_valid_modes(self):
        for mode in ("round_born", "sequential_collapse"):
            assert InterpretationModel(mode, "sigma").mode == mode

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            InterpretationModel("copenhagen", "sigma")

    def test_rejects_an_unknown_frame_name(self):
        for preferred in ("sigma_pppp", "", None):
            with pytest.raises(ValueError, match=re.escape(str(FRAME_NAMES))):
                InterpretationModel("round_born", preferred)


class TestTrialRng:
    def test_same_seed_and_trial_reproduce(self):
        a = trial_rng(42, 7).random(5)
        b = trial_rng(42, 7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_trials_decorrelate(self):
        a = trial_rng(42, 0).random(5)
        b = trial_rng(42, 1).random(5)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_decorrelate(self):
        a = trial_rng(1, 0).random(5)
        b = trial_rng(2, 0).random(5)
        assert not np.array_equal(a, b)


class TestViolationMask:
    def test_columns_follow_constraint_order(self):
        constraints = [
            ParityConstraint(("x_A", "x_B"), +1),
            ParityConstraint(("x_A", "x_B"), -1),
        ]
        mask = violation_mask(constraints)
        # Sign rows in CANONICAL_SLOTS order: z_A, z_B, z_C, x_A, x_B, x_C.
        rows = [(-1, -1, -1, +1, +1, -1), (+1, +1, +1, +1, -1, +1)]
        assert [mask[i] for i in outcome_indices(rows)] == [(False, True), (True, False)]

    def test_agrees_with_the_per_row_check_on_every_row(self, schedule):
        constraints = list(collect_constraints(schedule, IDEAL)[1])
        mask = violation_mask(constraints)
        for index, signs in enumerate(OUTCOME_SIGNS):
            assert born_violation_check(signs, constraints) == tuple(mask[index])


class TestRoundBorn:
    def test_rejects_negative_trials(self, schedule):
        m = InterpretationModel("round_born", "sigma")
        with pytest.raises(ValueError, match="trials"):
            run_model(schedule, IDEAL, m, -1, seed=0)

    def test_zero_trials_gives_empty_report(self, schedule):
        m = InterpretationModel("round_born", "sigma")
        report = run_model(schedule, IDEAL, m, 0, seed=0)
        assert report.counts == (0,) * 64
        assert report.violation_counts == (0,) * len(report.constraints)
        assert report.trials_violating_nonpreferred == 0

    def test_reports_the_four_constraints(self, born_sigma_report):
        keys = {(c.slots, c.required_product) for c in born_sigma_report.constraints}
        assert keys == {
            (("x_A", "x_B", "x_C"), -1),
            (("x_A", "z_B", "z_C"), +1),
            (("z_A", "x_B", "z_C"), +1),
            (("z_A", "z_B", "x_C"), +1),
        }

    def test_preferred_mask_marks_exactly_the_rest_frame_constraint(
        self, born_sigma_report
    ):
        assert sum(born_sigma_report.preferred_mask) == 1
        (index,) = [i for i, p in enumerate(born_sigma_report.preferred_mask) if p]
        assert born_sigma_report.constraints[index].slots == ("x_A", "x_B", "x_C")

    def test_assignments_cover_all_six_slots(self, born_sigma_report):
        counts = np.asarray(born_sigma_report.counts)
        assert counts.shape == (64,)
        assert counts.sum() == TRIALS
        for col in range(len(CANONICAL_SLOTS)):
            assert 0 < counts @ (SIGNS[:, col] == +1) < TRIALS

    def test_preferred_constraint_never_violated(self, born_sigma_report):
        (index,) = [i for i, p in enumerate(born_sigma_report.preferred_mask) if p]
        assert born_sigma_report.violation_counts[index] == 0

    def test_nonpreferred_constraints_violated_half_the_time(self, born_sigma_report):
        band = four_sigma_band(0.5, TRIALS)
        assert sum(born_sigma_report.counts) == TRIALS
        for i, preferred in enumerate(born_sigma_report.preferred_mask):
            if preferred:
                continue
            rate = born_sigma_report.violation_counts[i] / TRIALS
            assert rate == pytest.approx(0.5, abs=band)

    def test_every_trial_violates_some_nonpreferred_constraint(self, born_sigma_report):
        assert born_sigma_report.trials_violating_nonpreferred == TRIALS

    def test_tilted_preferred_frame_swaps_the_protected_constraint(self, schedule):
        m = InterpretationModel("round_born", "sigma_p")
        report = run_model(schedule, IDEAL, m, 400, seed=3)
        (index,) = [i for i, p in enumerate(report.preferred_mask) if p]
        assert report.constraints[index].slots == ("x_A", "z_B", "z_C")
        assert report.violation_counts[index] == 0
        assert report.trials_violating_nonpreferred == 400

    def test_same_seed_reproduces_assignments(self, schedule, born_sigma_report):
        m = InterpretationModel("round_born", "sigma")
        again = run_model(schedule, IDEAL, m, TRIALS, seed=11)
        assert np.array_equal(again.counts, born_sigma_report.counts)
        assert again.violation_counts == born_sigma_report.violation_counts

    def test_different_seed_changes_assignments(self, schedule, born_sigma_report):
        m = InterpretationModel("round_born", "sigma")
        other = run_model(schedule, IDEAL, m, TRIALS, seed=12)
        assert sum(other.counts) == TRIALS
        assert not np.array_equal(other.counts, born_sigma_report.counts)


@pytest.fixture(scope="module")
def collapse_report(schedule):
    m = InterpretationModel("sequential_collapse", "sigma")
    return run_model(schedule, IDEAL, m, TRIALS, seed=19)


class TestSequentialCollapse:
    def test_assignments_cover_all_six_slots(self, collapse_report):
        counts = np.asarray(collapse_report.counts)
        assert counts.shape == (64,)
        assert counts.sum() == TRIALS
        for col in range(len(CANONICAL_SLOTS)):
            assert 0 < counts @ (SIGNS[:, col] == +1) < TRIALS

    def test_even_the_preferred_constraint_fails_half_the_time(self, collapse_report):
        # Collapse after the friends' round kills the three-way coherence, so
        # the outsiders' odd-parity rule holds only by chance.
        (index,) = [i for i, p in enumerate(collapse_report.preferred_mask) if p]
        band = four_sigma_band(0.5, TRIALS)
        assert sum(collapse_report.counts) == TRIALS
        rate = collapse_report.violation_counts[index] / TRIALS
        assert rate == pytest.approx(0.5, abs=band)

    def test_outsider_outcomes_are_individually_unbiased(self, collapse_report):
        band = four_sigma_band(0.5, TRIALS)
        for slot in ("x_A", "x_B", "x_C"):
            ups = np.asarray(collapse_report.counts) @ (SIGNS[:, column(slot)] == +1)
            assert ups / TRIALS == pytest.approx(0.5, abs=band)

    def test_friend_records_match_z_statistics(self, collapse_report):
        band = four_sigma_band(0.5, TRIALS)
        for slot in ("z_A", "z_B", "z_C"):
            ups = np.asarray(collapse_report.counts) @ (SIGNS[:, column(slot)] == +1)
            assert ups / TRIALS == pytest.approx(0.5, abs=band)

    def test_same_seed_reproduces(self, schedule, collapse_report):
        m = InterpretationModel("sequential_collapse", "sigma")
        again = run_model(schedule, IDEAL, m, TRIALS, seed=19)
        assert np.array_equal(again.counts, collapse_report.counts)


class TestErasure:
    def test_exact_down_probability_is_half(self):
        report = erasure_experiment(50, seed=1, skip_pair_x=False)
        assert report.exact_down_probability == pytest.approx(0.5, abs=1e-12)

    def test_down_frequency_tracks_the_exact_value(self):
        report = erasure_experiment(TRIALS, seed=5, skip_pair_x=False)
        band = four_sigma_band(0.5, TRIALS)
        assert report.down_frequency == pytest.approx(0.5, abs=band)

    def test_counts_are_consistent(self):
        report = erasure_experiment(500, seed=5, skip_pair_x=False)
        assert report.door_counts[+1] + report.door_counts[-1] == 500
        assert report.door_counts[0] == 0
        assert report.pair_x_counts[+1] + report.pair_x_counts[-1] == 500

    def test_pair_x_outcomes_are_balanced(self):
        report = erasure_experiment(TRIALS, seed=5, skip_pair_x=False)
        band = four_sigma_band(0.5, TRIALS)
        assert report.pair_x_counts[+1] / TRIALS == pytest.approx(0.5, abs=band)

    def test_skipping_the_outsider_leaves_the_record_intact(self):
        report = erasure_experiment(500, seed=1, skip_pair_x=True)
        assert report.exact_down_probability == 0.0
        assert report.door_counts == {+1: 500, -1: 0, 0: 0}
        assert report.pair_x_counts == {+1: 0, -1: 0}
        assert report.down_frequency == 0.0

    def test_zero_trials(self):
        report = erasure_experiment(0, seed=1, skip_pair_x=False)
        assert report.down_frequency == 0.0
        assert report.exact_down_probability == pytest.approx(0.5, abs=1e-12)

    def test_same_seed_reproduces_counts(self):
        a = erasure_experiment(300, seed=8, skip_pair_x=False)
        b = erasure_experiment(300, seed=8, skip_pair_x=False)
        assert a.door_counts == b.door_counts
        assert a.pair_x_counts == b.pair_x_counts


def completed_model(ready: np.ndarray) -> MeasurementModel:
    """Three devices from their (3, 6, 2) Ready columns, each completed by the
    last four columns of their complete QR, as ``haar_model`` completes them."""
    rest = np.linalg.qr(ready, mode="complete")[0][..., 2:]
    return MeasurementModel(tuple(map(Operator, np.concatenate([ready, rest], axis=-1))))


def sweep_model(index: int, seed: int) -> MeasurementModel:
    """Model ``index`` of a sweep, on the sweep's own devices."""
    if index == 0:
        return ideal_von_neumann()
    return completed_model(gwsim.models._haar_devices(seed, [index])[0])


class TestNonidealSweep:
    def test_single_model_is_the_ideal_baseline(self, monkeypatch):
        reference = sweep_reference(1, 0)

        def refuse(seed, indices):
            raise AssertionError(f"Haar devices drawn for models {list(indices)}")

        # A block holding no Haar model draws no devices.
        monkeypatch.setattr(gwsim.models, "_haar_devices", refuse)
        report = nonideal_sweep(1, seed=0, side=10.0, tau=1.0)
        assert sweep_rows(report) == reference == [(True, 0, True)]
        assert report.support_ok == [True]
        assert type(report.support_ok[0]) is bool
        assert sweep_failures(report) == []

    def test_random_models_reproduce_the_contradiction(self):
        report = nonideal_sweep(4, seed=21, side=10.0, tau=1.0)
        assert report.constraints_match is True
        assert report.satisfying_count == 0
        assert report.support_ok == [True] * 4
        assert all(type(ok) is bool for ok in report.support_ok)
        assert sweep_failures(report) == []

    @pytest.mark.parametrize("seed", [3, 7, 21])
    def test_matches_the_model_by_model_reference(self, seed):
        assert sweep_rows(nonideal_sweep(30, seed, 10.0, 1.0)) == sweep_reference(30, seed)

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError, match="at least one"):
            nonideal_sweep(0, seed=0, side=10.0, tau=1.0)

    def test_same_seed_reproduces(self):
        a = nonideal_sweep(3, seed=9, side=10.0, tau=1.0)
        b = nonideal_sweep(3, seed=9, side=10.0, tau=1.0)
        assert a == b

    @pytest.mark.parametrize("n_models", [1, 5])
    def test_orderings_and_boosts_are_built_once_per_sweep(self, monkeypatch, n_models):
        counts = {"order_events": 0, "boost_for_simultaneity": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(gwsim.scenario, "order_events")
        counted(gwsim.spacetime, "boost_for_simultaneity")
        report = nonideal_sweep(n_models, seed=3, side=10.0, tau=1.0)
        assert len(report.support_ok) == n_models and sweep_failures(report) == []
        assert counts == {"order_events": 4, "boost_for_simultaneity": 3}

    def test_blocks_match_the_model_by_model_reference(self, monkeypatch):
        # Models 0-3 (the ideal one first), 4-7 and 8-10: two block boundaries.
        monkeypatch.setattr(gwsim.models, "SWEEP_BLOCK", 4)
        assert sweep_rows(nonideal_sweep(11, 3, 10.0, 1.0)) == sweep_reference(11, 3)

    def test_blocks_report_the_reference_failures(self, monkeypatch):
        # Below the rounding of some Haar draws' R†R, the sweep fails exactly
        # the models whose max |G − I| exceeds the tolerance, whatever the
        # block size, with the reference's verdict otherwise. G is computed
        # here one model and one site at a time, from the model's own draw.
        # Its Gram–Schmidt columns round to |G − I| of 2.2e-16 to 4.4e-16 on
        # models 1-10, so the tolerance sits between those.
        tol = 3e-16
        monkeypatch.setattr(gwsim.models, "READY_GRAM_TOL", tol)
        errors = {}
        for index in range(1, 11):
            ready = [u.matrix[:, :2] for u in sweep_model(index, 3).site_unitaries]
            errors[index] = max(np.abs(r.conj().T @ r - np.eye(2)).max() for r in ready)
        failing = {index for index, error in errors.items() if error > tol}
        assert 0 < len(failing) < 10
        reports = []
        for block in (1, 4, 128):
            monkeypatch.setattr(gwsim.models, "SWEEP_BLOCK", block)
            reports.append(nonideal_sweep(11, 3, 10.0, 1.0))
        assert reports[0] == reports[1] == reports[2]
        report = reports[0]
        assert set(sweep_failures(report)) == failing
        reference = sweep_reference(11, 3)
        rows = sweep_rows(report)
        for index, (mine, (match, count, _)) in enumerate(zip(rows, reference, strict=True)):
            assert mine == (match, count, index not in failing)

    def test_no_lapack_qr_in_the_sweep(self, monkeypatch):
        # The Ready columns come from Gram–Schmidt, across block boundaries.
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.qr called")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        monkeypatch.setattr(gwsim.models, "SWEEP_BLOCK", 4)
        assert sweep_rows(nonideal_sweep(11, 3, 10.0, 1.0)) == sweep_reference(11, 3)

    @pytest.mark.parametrize(
        "n_models, block, drawn",
        [(1, 4, []), (2, 1, [1]), (11, 4, [4, 4, 2]), (300, 128, [128, 128, 43])],
    )
    def test_one_ideal_pass_and_one_draw_per_block(self, monkeypatch, n_models, block, drawn):
        monkeypatch.setattr(gwsim.models, "SWEEP_BLOCK", block)
        calls = {"analyze_stack": [], "haar_unitaries": [], "check_unitary": []}

        def recorded(module, name, shape_of):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name].append(shape_of(*args))
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        recorded(gwsim.scenario, "analyze_stack", lambda model, orderings: model)
        recorded(gwsim.models, "haar_unitaries", np.shape)
        recorded(gwsim.measurement, "check_unitary", lambda op: op.matrix.shape)
        report = nonideal_sweep(n_models, 3, 10.0, 1.0)
        assert len(report.support_ok) == n_models and sweep_failures(report) == []
        # One pass, on the ideal device, whose one shared Operator is
        # checked once; no Haar device becomes a model or is checked.
        [model] = calls["analyze_stack"]
        assert len(set(map(id, model.site_unitaries))) == 1
        assert np.array_equal(model.unitary("A").matrix, IDEAL.unitary("A").matrix)
        assert calls["check_unitary"] == [(6, 6)]
        # Models 1 to n − 1 in blocks, each one draw of the Ready columns.
        assert calls["haar_unitaries"] == [(n, 3, 2, 6, 2) for n in drawn]

    def test_a_gram_within_the_tolerance_moves_no_verdict(self, schedule):
        # Each site's Ready columns R → R·S with S = (I + Δ)^½, Hermitian Δ,
        # so G = R†R → I + Δ, with max |Δ| just inside READY_GRAM_TOL. The
        # pass must give the ideal device's constraints and 1/4 support, and
        # move no weight by more than 12·READY_GRAM_TOL (the bound derived in
        # ``nonideal_sweep``), which sits inside QUARTER_TOL and SUPPORT_EPS.
        bound = 12 * READY_GRAM_TOL
        assert bound < QUARTER_TOL / 5 and bound < SUPPORT_EPS / 50
        ideal_tables, ideal_found = collect_constraints(schedule, IDEAL)
        rng = np.random.default_rng(26)
        bases = [IDEAL, _build_model({"model": {"kind": "random", "seed": 5}})]
        corners = [np.array([[1, 1], [1, 1]]), np.array([[1, -1j], [1j, -1]]), -np.eye(2)]
        moved = 0.0
        for trial in range(40):
            sites = []
            for site in range(3):
                if trial < len(corners):
                    delta = corners[trial].astype(complex)
                else:
                    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                    delta = z + z.conj().T
                delta *= 0.99 * READY_GRAM_TOL / np.abs(delta).max()
                values, vectors = np.linalg.eigh(np.eye(2) + delta)
                root = (vectors * np.sqrt(values)) @ vectors.conj().T
                matrix = bases[trial % 2].site_unitaries[site].matrix.copy()
                matrix[:, :2] = matrix[:, :2] @ root
                ready = matrix[:, :2]
                assert np.abs(ready.conj().T @ ready - np.eye(2)).max() <= READY_GRAM_TOL
                sites.append(Operator(matrix))
            model = MeasurementModel(tuple(sites))
            tables, found = collect_constraints(schedule, model)
            assert list(found) == list(ideal_found)
            assert quarter_support(tables)
            for table, exact in zip(tables, ideal_tables, strict=True):
                assert table.product == exact.product
                error = np.abs(np.subtract(table.weights, exact.weights)).max()
                assert error <= bound
                moved = max(moved, error)
        # The perturbation reaches the weights: the pass reads G.
        assert moved > READY_GRAM_TOL / 10

    def test_a_model_outside_the_gram_tolerance_fails_alone(self, monkeypatch, capsys):
        # Model 3's site B Ready columns scaled by 1 + 1e-11: its G is
        # (1 + 1e-11)²·I, outside READY_GRAM_TOL, though the device is
        # unitary within UNITARY_TOL and its own weights are within
        # QUARTER_TOL of the ideal ones.
        draw = gwsim.models._haar_devices

        def scaled(seed, indices):
            devices = draw(seed, indices)
            for row, index in enumerate(indices):
                if index == 3:
                    devices[row, 1, :, :2] *= 1 + 1e-11
            return devices

        monkeypatch.setattr(gwsim.models, "_haar_devices", scaled)
        model = sweep_model(3, 0)
        tables, _ = collect_constraints(build_schedule(10.0, 1.0), model)
        assert quarter_support(tables)
        report = nonideal_sweep(6, 0, 10.0, 1.0)
        assert sweep_failures(report) == [3]
        assert sweep_rows(report)[3] == (True, 0, False)
        assert gwsim.cli.main(["sweep", "--models", "6"]) == 1
        assert '"n_passed": 5' in capsys.readouterr().out

    def test_memory_stays_flat_across_blocks(self, monkeypatch):
        monkeypatch.setattr(gwsim.models, "SWEEP_BLOCK", 4)
        nonideal_sweep(200, 3, 10.0, 1.0)  # fills the interpreter's and numpy's caches
        peaks = {}
        for n_models in (8, 200):
            tracemalloc.start()
            try:
                nonideal_sweep(n_models, 3, 10.0, 1.0)
                peaks[n_models] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # Only the per-model flags accumulate, well under 1 KB a model; one
        # pass over all 200 models would hold about 25 KB a model.
        assert (peaks[200] - peaks[8]) / 192 < 1000


def test_run_model_analyses_once(schedule, monkeypatch):
    calls = []
    original = gwsim.scenario.analyze_stack

    def counting(model, orderings):
        calls.append((model, list(orderings)))
        return original(model, orderings)

    monkeypatch.setattr(gwsim.scenario, "analyze_stack", counting)
    for mode in MODES:
        report = run_model(schedule, IDEAL, InterpretationModel(mode, "sigma_p"), 10, seed=1)
        assert report.preferred_mask == (False, True, False, False)
    # One pass per run over the four named frames, with the given model
    # rather than a restacked copy.
    assert calls == [(IDEAL, list(FRAME_NAMES))] * len(MODES)
    assert all(model is IDEAL for model, _ in calls)


# ---------------------------------------------------------------------------
# Exact outcome tables against the per-trial reference samplers


def chi_square(counts: np.ndarray, probabilities: np.ndarray) -> tuple[float, int]:
    """Pearson statistic over the table's support, and its degrees of freedom."""
    support = probabilities > 0
    expected = counts.sum() * probabilities[support]
    stat = float(((counts[support] - expected) ** 2 / expected).sum())
    return stat, int(support.sum()) - 1


def chi_square_bound(dof: int) -> float:
    """Mean plus four standard deviations of the χ² distribution."""
    return dof + 4.0 * np.sqrt(2.0 * dof)


TABLE_MODELS = {"ideal": {"kind": "ideal", "seed": 0}, "random:5": {"kind": "random", "seed": 5}}
ORACLE_CASES = [("ideal", frame) for frame in FRAME_NAMES] + [("random:5", "sigma_pp")]


def one_frame(name):
    """The standard schedule with only the named frame."""
    s = build_schedule(10.0, 1.0)
    return s._replace(frames={name: s.frames[name]})


def preferred_rounds(model, name):
    """The named frame's round tables, round_born's input."""
    return collect_constraints(one_frame(name), model)[0]


SAMPLERS = {
    "round_born": (
        lambda model, name: round_born_distribution(preferred_rounds(model, name)),
        sample_round_born,
        2000,
    ),
    "sequential_collapse": (
        lambda model, name: sequential_collapse_distribution(model),
        sample_sequential_collapse,
        400,
    ),
}


@pytest.fixture(scope="module")
def table_models():
    return {spec: _build_model({"model": model}) for spec, model in TABLE_MODELS.items()}


@pytest.mark.parametrize("frame", FRAME_NAMES)
@pytest.mark.parametrize("spec", sorted(TABLE_MODELS))
class TestExactTables:
    def _table(self, table_models, spec, frame, mode):
        return SAMPLERS[mode][0](table_models[spec], frame)

    @pytest.mark.parametrize("mode, support", [("round_born", 32), ("sequential_collapse", 64)])
    def test_table_is_a_distribution_with_the_expected_support(
        self, table_models, spec, frame, mode, support
    ):
        probabilities, pruned = self._table(table_models, spec, frame, mode)
        assert isinstance(probabilities, tuple)
        probabilities = np.asarray(probabilities)
        assert probabilities.shape == (64,)
        assert probabilities.min() >= 0.0
        assert abs(probabilities.sum() - 1.0) <= 1e-12
        assert np.count_nonzero(probabilities) == support
        assert 0.0 <= pruned <= 1e-12

    def test_round_born_puts_no_mass_on_preferred_violations(
        self, table_models, spec, frame
    ):
        preferred = list(collect_constraints(one_frame(frame), table_models[spec])[1])
        assert preferred
        probabilities, _ = self._table(table_models, spec, frame, "round_born")
        for index, signs in enumerate(OUTCOME_SIGNS):
            if any(born_violation_check(signs, preferred)):
                assert probabilities[index] == 0.0


def test_outcome_signs_follow_enumeration_order():
    rows = list(itertools.product((+1, -1), repeat=len(CANONICAL_SLOTS)))
    assert OUTCOME_SIGNS == tuple(rows)
    assert enumerate_assignments([]) == OUTCOME_SIGNS
    np.testing.assert_array_equal(outcome_indices(OUTCOME_SIGNS), np.arange(64))


@pytest.mark.parametrize("mode", sorted(SAMPLERS))
@pytest.mark.parametrize("spec, frame", ORACLE_CASES)
def test_reference_sampler_matches_the_exact_table(schedule, table_models, spec, frame, mode):
    build, sample, trials = SAMPLERS[mode]
    model = table_models[spec]
    probabilities = np.asarray(build(model, frame)[0])
    indices = outcome_indices(sample(schedule, model, schedule.frames[frame], trials, seed=23))
    assert np.all(probabilities[indices] > 0), "reference sample outside the exact support"
    stat, dof = chi_square(np.bincount(indices, minlength=64), probabilities)
    assert stat <= chi_square_bound(dof), (stat, dof)


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**128, 2**128 + 5, 10**400]


class TestPhilox:
    """The integer-arithmetic Philox4x64-10 against numpy's own."""

    def test_a_negative_seed_is_rejected(self):
        # As numpy's SeedSequence rejects it.
        with pytest.raises(ValueError, match="non-negative"):
            erasure_experiment(10, seed=-1, skip_pair_x=False)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_key_is_the_seed_sequence_state(self, seed):
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        assert np.array_equal(np.array(gwsim.models._philox_key(seed), dtype=np.uint64), key)

    @pytest.mark.parametrize("seed", [0, 2**32, 2**128 + 5, 10**400])
    def test_key_words_are_python_ints_without_a_spawn_array(self, seed):
        # The scalar stream (``_uniform_stream``) must never meet numpy scalars.
        assert [type(word) for word in gwsim.models._philox_key(seed)] == [int, int]
        words = gwsim.models._philox_key(seed, np.array([], dtype=np.uint64))
        assert [(w.dtype, w.shape) for w in words] == [(np.dtype(np.uint64), (0,))] * 2

    @pytest.mark.parametrize("seed", [0, 2**32, 2**128 + 5, 10**400])
    def test_an_int_spawn_gives_the_spawned_state_in_python_ints(self, seed):
        indices = [0, 1, 2**32 - 1]
        rows = gwsim.models._philox_key(seed, np.array(indices, dtype=np.uint64))
        for j, index in enumerate(indices):
            key = gwsim.models._philox_key(seed, index)
            assert [type(word) for word in key] == [int, int]
            state = np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(2, np.uint64)
            assert list(key) == state.tolist() == [int(words[j]) for words in rows]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "start, n",
        # The last range crosses the first block boundary.
        [(0, 0), (0, 1), (0, 5), (3, 10), (65533, 7), (65530, 13)],
    )
    def test_uniforms_are_numpys_stream(self, seed, start, n):
        # Uniforms start … start + n − 1 lie in counters ⌊start/4⌋ + 1 … ⌈(start + n)/4⌉.
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        counters = np.arange(start // 4 + 1, (start + n + 3) // 4 + 1, dtype=np.uint64)
        expected = rng.random(4 * (start // 4 + len(counters)))[4 * (start // 4) :]
        key = np.array(gwsim.models._philox_key(seed), dtype=np.uint64).reshape(2, 1, 1)
        uniforms = gwsim.models._philox_uniforms(key, counters)
        assert uniforms.shape == (1, len(counters), 4)
        assert np.array_equal(uniforms.ravel(), expected)


class TestSweepNormals:
    """The devices' Box–Muller normals against a reference on numpy's own
    Philox uniforms."""

    SHAPE = (3, 2, 6, 6)
    INDICES = [0, 1, 127, 128, 2**32 - 1]

    @pytest.mark.parametrize("seed", [0, 1, 3, 2**32, 2**63 - 1, 2**128 + 5, 10**400])
    def test_spawn_keys_are_the_seed_sequence_states(self, seed):
        k0, k1 = gwsim.models._philox_key(seed, np.array(self.INDICES, dtype=np.uint64))
        for index, key in zip(self.INDICES, np.stack([k0, k1], axis=1)):
            state = np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(2, np.uint64)
            assert np.array_equal(key, state), index

    @staticmethod
    def draws(monkeypatch, seed, indices):
        """``_haar_devices(seed, indices)``, with the counters it reads, their
        uniforms, and the normals it draws from them."""
        seen = {}
        uniforms_of, unitaries_of = gwsim.models._philox_uniforms, gwsim.models.haar_unitaries

        def uniforms(key, counters):
            seen["counters"], seen["uniforms"] = counters, uniforms_of(key, counters)
            return seen["uniforms"]

        def unitaries(normals):
            seen["normals"] = normals
            return unitaries_of(normals)

        monkeypatch.setattr(gwsim.models, "_philox_uniforms", uniforms)
        monkeypatch.setattr(gwsim.models, "haar_unitaries", unitaries)
        devices = gwsim.models._haar_devices(seed, indices)
        return devices, seen["counters"], seen["uniforms"], seen["normals"]

    @pytest.mark.parametrize("seed", [0, 3, 2**63 - 1, 10**400])
    def test_uniforms_are_numpys_and_normals_the_reference(self, monkeypatch, seed):
        devices, counters, uniforms, normals = self.draws(monkeypatch, seed, self.INDICES)
        assert devices.shape == (len(self.INDICES), 3, 6, 2)
        assert normals.shape == (len(self.INDICES), 3, 2, 6, 2)
        # Normal j of the full (3, 2, 6, 6) draw reads uniform j, which is
        # word j mod 4 of counter ⌊j/4⌋ + 1; the Ready columns are j mod 6 < 2.
        full = np.array([trial_rng(seed, index).random(216) for index in self.INDICES])
        read = 4 * (counters.astype(int)[:, None] - 1) + np.arange(4)
        assert np.array_equal(uniforms, full[:, read])
        ready = np.flatnonzero(np.arange(216) % 6 < 2)
        assert set(ready) <= set(read.ravel())
        # numpy's SIMD ufuncs may round log1p, cos and sin differently from libm.
        reference = [box_muller_normals(seed, index, self.SHAPE) for index in self.INDICES]
        np.testing.assert_array_max_ulp(normals, np.array(reference)[..., :2], maxulp=8)
        # The Ready columns are those of the full draw's unitaries, bit for bit.
        radii = np.sqrt(-2.0 * np.log1p(-full[:, 0::2]))
        angles = 2.0 * math.pi * full[:, 1::2]
        draw = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=-1)
        unitaries = haar_unitaries(draw.reshape(len(self.INDICES), *self.SHAPE))
        assert np.array_equal(devices, unitaries[..., :2])

    def test_a_model_evaluates_36_counters(self, monkeypatch):
        counted = []
        words_of = gwsim.models._philox_words

        def words(key, counters):
            counted.append((len(key[0]), counters.tolist()))
            return words_of(key, counters)

        monkeypatch.setattr(gwsim.models, "_philox_words", words)
        gwsim.models._haar_devices(3, range(1, 6))
        ready = sorted(3 * t + c for t in range(18) for c in (1, 2))
        assert counted == [(5, ready)]

    def test_normals_have_the_standard_moments(self, monkeypatch):
        # 432000 normals: each bound is over four standard errors wide.
        _, _, _, normals = self.draws(monkeypatch, 3, range(1, 6001))
        x = normals.ravel()
        assert x.size == 432000
        mean, var = x.mean(), x.var()
        kurtosis = np.mean((x - mean) ** 4) / var**2
        assert abs(mean) < 0.01 and abs(var - 1.0) < 0.01 and abs(kurtosis - 3.0) < 0.05

    def test_random_model_devices_are_spawn_zero_of_its_seed(self):
        # The Ready columns are the draw's, bit for bit; the four columns
        # ``haar_model`` appends complete each device to a unitary.
        for seed in (0, 5, 2**63 - 1, *range(100, 140)):
            model = _build_model({"model": {"kind": "random", "seed": seed}})
            devices = np.stack([u.matrix for u in model.site_unitaries])
            assert np.array_equal(devices[..., :2], gwsim.models._haar_devices(seed, [0])[0])
            products = devices.conj().swapaxes(-1, -2) @ devices
            assert np.abs(products - np.eye(6)).max() < 2e-15

    def test_no_model_draws_an_empty_stack(self):
        assert gwsim.models._haar_devices(3, []).shape == (0, 3, 6, 2)


def numpy_counts(probabilities, trials: int, seed: int) -> np.ndarray:
    """numpy's own ``multinomial`` on the table's nonzero entries, scattered
    back into the table."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    counts = np.zeros(len(probabilities), dtype=np.int64)
    counts[probabilities > 0] = rng.multinomial(trials, probabilities[probabilities > 0])
    return counts


# Every trial count the binomials treat apart: none, inversion around n·p = 30
# for the small entries, BTPE beyond it, and the most an int64 count holds.
DRAW_SIZES = [0, 1, 30, 31, 600, 10**4, 10**12, MAX_TRIALS]


def zero_gapped_table() -> np.ndarray:
    """A 64-entry table whose zero entries sit between nonzero ones."""
    probabilities = np.random.default_rng(2).dirichlet(np.ones(64))
    probabilities[::5] = 0.0
    return probabilities


class TestDraw:
    """The count draw against numpy's ``Generator.multinomial``, bit for bit."""

    @pytest.fixture(scope="class")
    def tables(self, schedule):
        haar = _build_model({"model": {"kind": "random", "seed": 5}})
        born = run_model(schedule, IDEAL, InterpretationModel("round_born", "sigma"), 0, 0)
        collapse = sequential_collapse_distribution(IDEAL)[0]
        erasure = np.array([p for _, p in erasure_reference(False)[0]])
        return {
            "round_born": np.asarray(born.probabilities),
            "collapse": np.asarray(collapse),
            "erasure": erasure,
            "collapse random:5": np.asarray(sequential_collapse_distribution(haar)[0]),
            "zero gaps": zero_gapped_table(),
            # Sums to 1, yet 1 − 0.3 rounds below the middle entry, so its
            # binomial's p passes 1 and it takes every trial.
            "rounded remainder": np.array([0.3, math.nextafter(0.7, 1.0), 1e-20]),
        }

    @pytest.mark.parametrize("trials", DRAW_SIZES)
    @pytest.mark.parametrize(
        "name",
        ["round_born", "collapse", "erasure", "collapse random:5", "zero gaps", "rounded remainder"],
    )
    def test_counts_are_numpys_multinomial(self, tables, name, trials):
        probabilities = tables[name]
        for seed in (4, 2**63 - 1):
            counts = np.asarray(gwsim.models._draw(probabilities.tolist(), trials, seed))
            assert counts.dtype == np.int64 and counts.shape == probabilities.shape
            assert np.array_equal(counts, numpy_counts(probabilities, trials, seed))
            assert counts.sum() == trials
            assert not counts[probabilities == 0].any()

    @pytest.mark.parametrize("trials", DRAW_SIZES)
    @pytest.mark.parametrize("mode", MODES)
    def test_run_counts_are_numpys_multinomial(self, schedule, mode, trials):
        report = run_model(schedule, IDEAL, InterpretationModel(mode, "sigma_pp"), trials, 4)
        expected = numpy_counts(np.asarray(report.probabilities), trials, 4)
        assert report.counts == tuple(expected.tolist())

    @pytest.mark.parametrize("trials", DRAW_SIZES)
    @pytest.mark.parametrize("skip_pair_x", [False, True])
    def test_erasure_counts_are_numpys_multinomial(self, monkeypatch, trials, skip_pair_x):
        # The (pair-x, door) table erasure draws from is the reference's
        # branch table up to rounding, which 2⁶³ − 1 trials would see, so the
        # counts are checked on the table the draw is given.
        tables = []
        draw = gwsim.models._draw

        def recorded(probabilities, n, seed):
            tables.append(probabilities)
            return draw(probabilities, n, seed)

        monkeypatch.setattr(gwsim.models, "_draw", recorded)
        report = erasure_experiment(trials, 6, skip_pair_x=skip_pair_x)
        (table,) = tables
        table = np.asarray(table)
        branches, _ = erasure_reference(skip_pair_x)
        nonzero = table > 0  # the reference lists no branch of weight 0
        np.testing.assert_allclose(table[nonzero], [p for _, p in branches], rtol=0, atol=1e-15)
        door = {+1: 0, -1: 0, 0: 0}
        pair_x = {+1: 0, -1: 0}
        for (signs, _), n in zip(branches, numpy_counts(table, trials, 6)[nonzero].tolist()):
            door[signs[-1]] += n
            if not skip_pair_x:
                pair_x[signs[0]] += n
        assert (report.door_counts, report.pair_x_counts) == (door, pair_x)

    @pytest.mark.parametrize(
        "trials, p",
        # n + 1 and −k·k overflow numpy's int64 at the largest n. Below
        # p ≈ 1e-16, 1 − p rounds to 1, so inversion needs numpy's log1p(−p),
        # and BTPE's Stirling bound turns on how n − m + 1 and n − y + 1 round.
        [(MAX_TRIALS, 100 / MAX_TRIALS), (MAX_TRIALS, 0.5), (MAX_TRIALS, 0.3),
         (2**62, 1.2e-18), (9223311546057693780, 1.0066447009423966e-17),
         (2**62 + 12345, 3e-17), (10**17, 0.999), (10**6, 1e-5), (40, 0.9)],
    )
    def test_binomials_are_numpys(self, trials, p):
        for seed in range(60):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
            expected = rng.binomial(trials, p, size=4).tolist()
            uniform = gwsim.models._uniform_stream(gwsim.models._philox_key(seed)).__next__
            assert [gwsim.models._binomial(uniform, trials, p) for _ in range(4)] == expected

    def test_blocks_read_do_not_grow_with_the_trial_count(self, tables, monkeypatch):
        # 63 binomials on the 64-entry collapse table; each reads a few uniforms.
        calls = []
        block = gwsim.models._philox_block

        def counting(key, counter):
            calls.append(counter)
            return block(key, counter)

        monkeypatch.setattr(gwsim.models, "_philox_block", counting)
        read = {}
        for trials in (10**4, MAX_TRIALS):
            calls.clear()
            gwsim.models._draw(tables["collapse"], trials, seed=1)
            read[trials] = len(calls)
            assert calls == list(range(1, len(calls) + 1))
        assert all(0 < n <= 64 for n in read.values()), read

    def test_the_round_keys_are_derived_once_per_draw(self, tables, monkeypatch):
        # However many blocks a draw reads, its ten round keys come from one call.
        derived, blocks = [], []
        round_keys, block = gwsim.models._philox_round_keys, gwsim.models._philox_block

        def deriving(key):
            derived.append(key)
            return round_keys(key)

        def counting(keys, counter):
            blocks.append(counter)
            return block(keys, counter)

        monkeypatch.setattr(gwsim.models, "_philox_round_keys", deriving)
        monkeypatch.setattr(gwsim.models, "_philox_block", counting)
        gwsim.models._draw(tables["collapse"], MAX_TRIALS, seed=1)
        assert derived == [gwsim.models._philox_key(1)] and len(blocks) > 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scalar_block_is_the_vector_philox(self, seed):
        key = gwsim.models._philox_key(seed)
        counters = [0, 1, 2, 3, 255, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        rows = np.array(key, dtype=np.uint64).reshape(2, 1, 1)
        words = gwsim.models._philox_words(rows, np.array(counters, dtype=np.uint64))
        round_keys = gwsim.models._philox_round_keys(key)
        blocks = [list(gwsim.models._philox_block(round_keys, c)) for c in counters]
        assert blocks == words[0].tolist()


def test_sampling_imports_no_numpy_random():
    # The streams are computed in integer arithmetic, so no command loads
    # numpy.random or the hashlib it pulls in, with ideal or random devices;
    # frames builds no device at all, and takes no --model. The flag table reads the command line,
    # help and usage errors included, without argparse and its gettext and
    # locale.
    src = str(Path(gwsim.models.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, sys, gwsim.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert gwsim.cli.main(['-h']) == gwsim.cli.main(['run', '--help']) == 0\n"
        "    assert gwsim.cli.main(['run', '--trials', 'x']) == gwsim.cli.main(['run', '--m']) == 2\n"
        "    for model in ('ideal', 'random:5'):\n"
        "        for mode in ('round_born', 'sequential_collapse'):\n"
        "            assert gwsim.cli.main(['run', '--model', model, '--mode', mode]) == 0\n"
        "        assert gwsim.cli.main(['ghz-nogo', '--model', model]) == 0\n"
        "    assert gwsim.cli.main(['distinguish']) == 0\n"
        "    assert gwsim.cli.main(['distinguish', '--model', 'random:5']) == 1\n"
        "    assert gwsim.cli.main(['erasure']) == 0\n"
        "    assert gwsim.cli.main(['sweep', '--models', '130']) == 0\n"
        "    assert gwsim.cli.main(['frames']) == 0\n"
        "    assert gwsim.cli.main(['frames', '--model', 'random:5']) == 2\n"
        "banned = {'numpy.random', 'hashlib', 'argparse', 'gettext', 'locale'}\n"
        "sys.exit(', '.join(sorted(banned & set(sys.modules))) or None)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


class TestExactRates:
    def test_round_born_exact_rates(self, born_sigma_report):
        for i, preferred in enumerate(born_sigma_report.preferred_mask):
            expected = 0.0 if preferred else 0.5
            assert born_sigma_report.exact_rates[i] == pytest.approx(expected, abs=1e-12)
        assert born_sigma_report.exact_nonpreferred_probability == pytest.approx(1.0, abs=1e-12)

    def test_collapse_exact_rates_are_half(self, collapse_report):
        assert collapse_report.exact_rates == pytest.approx((0.5,) * 4, abs=1e-12)

    def test_counts_follow_the_violation_mask(self, collapse_report):
        # Each outcome's trials count once for every constraint it violates.
        expected = [0] * len(collapse_report.constraints)
        for signs, n in zip(OUTCOME_SIGNS, collapse_report.counts):
            for i, violated in enumerate(born_violation_check(signs, collapse_report.constraints)):
                expected[i] += n * violated
        assert collapse_report.violation_counts == tuple(expected)

    def test_pruned_weight_is_negligible(self, born_sigma_report, collapse_report):
        assert 0.0 <= born_sigma_report.pruned_weight <= 1e-12
        assert 0.0 <= collapse_report.pruned_weight <= 1e-12


# ---------------------------------------------------------------------------
# The collapse and erasure tables on the product form, against the per-path
# dense reference


def collapse_reference(model, rounds, state=None):
    """The collapse table by ``collapse_branches_reference``, every event
    measured on the dense ``state`` (default: the initial scenario state) in
    the order of ``rounds``."""
    events = [ev for rnd in rounds for ev in rnd]
    steps = [
        (spin_observable("z", ev.targets[1]), (model.unitary(ev.site), ev.targets))
        if ev.kind == "friend_z"
        else (outsider_observable(model, ev.site), None)
        for ev in events
    ]
    branches, pruned = collapse_branches_reference(state or initial_scenario_state(), steps)
    probabilities = np.zeros(len(OUTCOME_SIGNS))
    for signs, p in branches:
        values = dict(zip((ev.slot for ev in events), signs))
        probabilities[outcome_indices([[values[slot] for slot in CANONICAL_SLOTS]])[0]] = p
    return probabilities, pruned


def erasure_reference(skip_pair_x):
    """The erasure branches by ``collapse_branches_reference``: (pair-x, door)
    signs per path, or the door's alone when the pair is not measured."""
    model = ideal_von_neumann()
    start = StateVector(
        layout("L", "A"), np.kron(np.eye(3)[LabLabel.READY.value], spin_vector("z", +1))
    )
    recorded = apply_local(model.unitary("A"), ("L", "A"), start)
    steps = [] if skip_pair_x else [(outsider_observable(model), None)]
    return collapse_branches_reference(recorded, steps + [(door_observable(), None)])


COLLAPSE_MODELS = {
    "ideal": ideal_von_neumann,
    **{
        f"random:{seed}": lambda seed=seed: _build_model({"model": {"kind": "random", "seed": seed}})
        for seed in (5, 7, 11)
    },
    # A small stack of Haar devices, drawn as a sweep draws its models 1-3.
    **{f"haar:{index}": lambda index=index: sweep_reference_model(index, 3) for index in (1, 2, 3)},
}


@pytest.fixture(scope="module")
def collapse_tables():
    """Each model's collapse table, built once: it is the same in every frame."""
    tables = {}
    for spec, build in COLLAPSE_MODELS.items():
        model = build()
        tables[spec] = (model, *sequential_collapse_distribution(model))
    return tables


class TestCollapseTable:
    @pytest.mark.parametrize("frame", FRAME_NAMES)
    @pytest.mark.parametrize("spec", sorted(COLLAPSE_MODELS))
    def test_collapse_table_matches_the_per_path_reference(self, collapse_tables, spec, frame):
        model, probabilities, pruned = collapse_tables[spec]
        probabilities = np.asarray(probabilities)
        s = build_schedule(10.0, 1.0)
        rounds = order_events(s, s.frames[frame])
        expected, expected_pruned = collapse_reference(model, rounds)
        assert np.abs(probabilities - expected).max() <= 1e-15
        assert np.array_equal(probabilities > SAMPLE_FLOOR, expected > SAMPLE_FLOOR)
        assert abs(pruned - expected_pruned) <= 1e-15

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_state_off_the_ghz_form_matches_the_per_path_reference(self, monkeypatch, seed):
        # Every device gives the GHZ state the uniform table, so a random
        # two-term state also checks which slot each weight lands in.
        rng = np.random.default_rng(seed)
        ready = np.eye(3)[LabLabel.READY.value]
        pair = np.stack([np.kron(ready, random_state(2, rng)) for _ in range(2)])
        coefficients = rng.normal(size=2) + 1j * rng.normal(size=2)
        dense = sum(c * np.kron(np.kron(v, v), v) for c, v in zip(coefficients, pair))
        coefficients /= np.linalg.norm(dense)
        monkeypatch.setattr(gwsim.models, "initial_product_terms", lambda: (coefficients, pair))
        model = COLLAPSE_MODELS["random:5"]()
        probabilities, pruned = sequential_collapse_distribution(model)
        probabilities = np.asarray(probabilities)
        assert np.ptp(probabilities) > 1e-3
        state = StateVector(CANONICAL_LAYOUT, dense / np.linalg.norm(dense))
        s = build_schedule(10.0, 1.0)
        for frame in s.frames.values():
            expected, expected_pruned = collapse_reference(model, order_events(s, frame), state)
            assert np.abs(probabilities - expected).max() <= 1e-15
            assert abs(pruned - expected_pruned) <= 1e-15

    def test_ideal_collapse_table_is_exact(self, collapse_tables):
        _, probabilities, pruned = collapse_tables["ideal"]
        assert probabilities == (1 / 64,) * 64
        assert pruned == 0.0

    def test_collapse_table_runs_no_state_simulation(self, monkeypatch):
        # Three site Gram factors on the two product terms: no dense state,
        # and no ``apply_local`` at all.
        def refuse(*args):
            raise AssertionError("state simulation in the collapse table")

        for module in (gwsim.models, gwsim.scenario):
            monkeypatch.setattr(module, "apply_local", refuse)
        for module in (gwsim.systems, gwsim.scenario):
            monkeypatch.setattr(module, "initial_scenario_state", refuse)
        probabilities, pruned = sequential_collapse_distribution(ideal_von_neumann())
        assert probabilities == (1 / 64,) * 64

    def test_a_rest_outcome_above_the_floor_raises(self, monkeypatch):
        # An outsider whose ±1 plane misses the recorded states (here spanned
        # by the device's columns past the Ready ones) finds every record on
        # its rest outcome.
        def misplaced_sum(self, site, sign):
            device = self.unitary(site).matrix
            return (device[:, 2] + sign * device[:, 3]).tolist()

        monkeypatch.setattr(MeasurementModel, "recorded_sum", misplaced_sum)
        with pytest.raises(ValueError, match="only ±1 outcomes"):
            sequential_collapse_distribution(ideal_von_neumann())

    def test_the_friends_table_of_the_ghz_terms_is_exact(self, monkeypatch):
        # An outsider that leaves every record on its +1 outcome shows the
        # friends' table alone: the GHZ terms' ready entries are ±1 or ±i and
        # their coefficients ¼ and −¼i, so each z tuple weighs 1/8 exactly.
        monkeypatch.setattr(
            gwsim.models, "outsider_parts", lambda model, site, r: [r, [0j] * 6, [0j] * 6]
        )
        probabilities, pruned = sequential_collapse_distribution(ideal_von_neumann())
        probabilities = np.asarray(probabilities)
        x_plus = (SIGNS[:, 3:] == 1).all(axis=1)
        assert probabilities[x_plus].tolist() == [1 / 8] * 8
        assert not probabilities[~x_plus].any() and pruned == 0.0

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_the_ideal_site_table_is_exact(self, monkeypatch, sign):
        # One term with every electron at z = sign: that z tuple's outcomes
        # weigh the product of the three sites' rows, each [½, ½, 0] over the
        # outsider's +1, −1 and 0, so 1/8 on every ±1 tuple and 0 on the rest.
        parts, original = [], gwsim.models.outsider_parts
        monkeypatch.setattr(
            gwsim.models, "outsider_parts", lambda *a: parts.append(q := original(*a)) or q
        )
        pair = np.kron(np.eye(3)[LabLabel.READY.value], spin_vector("z", sign))
        monkeypatch.setattr(
            gwsim.models, "initial_product_terms", lambda: (np.array([1.0, 0.0]), np.stack([pair] * 2))
        )
        probabilities, pruned = sequential_collapse_distribution(ideal_von_neumann())
        probabilities = np.asarray(probabilities)
        table = [[sum(door_weights(q)) for q in row] for row in parts]
        assert table == [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]
        z = (SIGNS[:, :3] == sign).all(axis=1)
        assert probabilities[z].tolist() == [1 / 8] * 8
        assert not probabilities[~z].any() and pruned == 0.0

    def test_pruning_reads_the_joint_weight(self, monkeypatch):
        # One product term whose electrons are −z with probability t each: an
        # outcome with one −z record weighs about t, above SAMPLE_FLOOR, and
        # is kept; two or three −z records weigh t² or t³ jointly, below it,
        # and are pruned although each record's conditional probability is t.
        t = 1e-7
        electron = np.array([np.sqrt(1.0 - t), np.sqrt(t)])
        pair = np.kron(np.eye(3)[LabLabel.READY.value], electron)
        monkeypatch.setattr(
            gwsim.models, "initial_product_terms", lambda: (np.array([1.0, 0.0]), np.stack([pair] * 2))
        )
        probabilities, pruned = sequential_collapse_distribution(ideal_von_neumann())
        probabilities = np.asarray(probabilities)
        downs = (SIGNS[:, :3] == -1).sum(axis=1)
        assert np.all(probabilities[downs <= 1] > SAMPLE_FLOOR)
        assert not probabilities[downs >= 2].any()
        assert pruned == pytest.approx(3 * t**2 * (1 - t) + t**3, rel=1e-9)
        assert probabilities.sum() + pruned == pytest.approx(1.0, abs=1e-15)


class TestErasureTable:
    @pytest.mark.parametrize("skip_pair_x", [False, True])
    def test_erasure_matches_the_per_path_reference(self, monkeypatch, skip_pair_x):
        # Every entry of the ideal device's table is 0, ¼ or ½ (1 without the
        # outsider), so the table read off the recorded column is the per-path
        # rule's in exact arithmetic, entry by entry in (pair-x, door) order.
        # The float reference normalises each collapsed path by √p, which
        # rounds ¼ to its neighbour below.
        tables, draw = [], gwsim.models._draw
        monkeypatch.setattr(
            gwsim.models, "_draw", lambda p, n, seed: tables.append(p) or draw(p, n, seed)
        )
        report = erasure_experiment(0, seed=1, skip_pair_x=skip_pair_x)
        (table,) = tables
        table = np.asarray(table)
        exact = sym_erasure_table(skip_pair_x)
        assert table.tolist() == [float(w) for w in exact]
        assert report.exact_down_probability == float(sum(exact[1::2]))
        assert report.pruned_weight == 0.0
        branches, pruned = erasure_reference(skip_pair_x)
        expected = np.zeros((2,) * (1 if skip_pair_x else 2))
        for signs, p in branches:
            expected[tuple((1 - sign) // 2 for sign in signs)] = p
        np.testing.assert_allclose(table, expected.ravel(), rtol=0, atol=1e-16)
        assert pruned == 0.0

    @pytest.mark.parametrize("skip", [[], ["--skip-j"]])
    def test_the_table_builds_no_projector(self, capsys, monkeypatch, skip):
        # The table is read off the one recorded column: no Kronecker product,
        # and one device run on the pair. After that run, the table, its
        # pruning and the draw take no array op. The collapse table and
        # ``distinguish`` read the recorded columns the same way: no outer
        # product, stack or frame-pass Gram factor either.
        def refuse(*args, **kwargs):
            raise AssertionError("dense projector built or array op taken")

        applied, apply = [], gwsim.models.apply_local

        def counted(op, targets, state):
            applied.append((tuple(targets), state.dim))
            return apply(op, targets, state)

        haar = _build_model({"model": {"kind": "random", "seed": 5}})
        for name in ("kron", "stack", "vdot", "abs", "flatnonzero", "outer"):
            monkeypatch.setattr(np, name, refuse)
        monkeypatch.setattr(gwsim.scenario, "_site_factor", refuse)
        monkeypatch.setattr(gwsim.models, "apply_local", counted)
        assert gwsim.cli.main(["erasure", "--trials", "200", *skip]) == 0
        assert '"passed": true' in capsys.readouterr().out
        assert applied == [(("L", "A"), 6)]
        assert gwsim.cli.main(["distinguish"]) == 0
        assert '"passed": true' in capsys.readouterr().out
        for model in (IDEAL, haar):
            probabilities, _ = sequential_collapse_distribution(model)
            assert sum(probabilities) == pytest.approx(1.0, abs=1e-12)
            table = distinguishability_report(model)["distributions"]
            assert table["pair_x"]["unitary_record"][+1.0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("skip_pair_x, down", [(False, 0.5), (True, 0.0)])
    def test_ideal_erasure_is_exact(self, skip_pair_x, down):
        report = erasure_experiment(10, seed=1, skip_pair_x=skip_pair_x)
        assert report.exact_down_probability == down
        assert report.pruned_weight == 0.0

    @pytest.mark.parametrize("skip_pair_x", [False, True])
    def test_a_pair_off_the_recorded_subspace_raises(self, monkeypatch, skip_pair_x):
        # Without its device step the pair stays |ready> ⊗ |+1_z>: all its
        # weight is on the outsider's rest outcome, or on the door's Ready.
        monkeypatch.setattr(gwsim.models, "apply_local", lambda op, targets, state: state)
        with pytest.raises(ValueError, match="only ±1 outcomes"):
            erasure_experiment(10, seed=1, skip_pair_x=skip_pair_x)

    def test_light_outcomes_are_pruned_and_weighed(self, monkeypatch):
        tiny = 1e-14
        leaked = np.zeros(6, dtype=complex)
        leaked[pair_index(LabLabel.RECORDED_UP, +1)] = np.sqrt(1.0 - tiny)
        leaked[pair_index(LabLabel.RECORDED_DOWN, -1)] = np.sqrt(tiny)
        monkeypatch.setattr(
            gwsim.models, "apply_local", lambda op, targets, state: StateVector(state.layout, leaked)
        )
        report = erasure_experiment(100, seed=1, skip_pair_x=True)
        assert report.door_counts == {+1: 100, -1: 0, 0: 0}
        assert report.exact_down_probability == 0.0
        assert report.pruned_weight == pytest.approx(tiny, rel=1e-6)


class TestSiteOutcomes:
    """Outcome weights on one pair, through the tables' own helpers."""

    def test_a_repeated_measurement_repeats_its_outcome(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            model = MeasurementModel((haar_random_unitary(6, rng),) * 3)
            q = [p.matrix for _, p in outsider_observable(model).eigenpairs]
            psi = (q[0] + q[1]) @ random_state(6, rng)
            psi /= np.linalg.norm(psi)
            weights = [
                sum(door_weights(twice))
                for once in outsider_parts(model, "A", psi.tolist())
                for twice in outsider_parts(model, "A", once)
            ]
            kept, light = _signed_outcomes(weights, (3, 3))
            born = [np.vdot(psi, qa @ psi).real for qa in q[:2]]
            assert np.reshape(kept, (2, 2)) == pytest.approx(np.diag(born), abs=1e-12)
            assert np.count_nonzero(kept) == 2
            assert sum(light) < SAMPLE_FLOOR

    def test_an_outcome_below_the_floor_is_pruned_not_taken(self):
        # The unitary record lies in the pair observable's ±1 plane: its −1
        # and 0 outcomes carry no weight, so only +1 survives.
        model = ideal_von_neumann()
        state = entangled_record_state(model)
        parts = outsider_parts(model, "A", state.amplitudes.tolist())
        kept, light = _signed_outcomes([sum(door_weights(q)) for q in parts], (3,))
        assert kept == [pytest.approx(1.0, abs=1e-15), 0.0]
        assert sum(light) < SAMPLE_FLOOR


class TestCollapseReference:
    """The per-path reference the tables are checked against."""

    def test_branch_probabilities_follow_born(self):
        state = StateVector(layout("A"), spin_vector("x", +1))
        branches, pruned = collapse_branches_reference(state, [(spin_observable("z"), None)])
        assert [signs for signs, _ in branches] == [(+1,), (-1,)]
        assert [p for _, p in branches] == pytest.approx([0.5, 0.5], abs=1e-15)
        assert pruned == 0.0

    def test_an_eigenstate_has_a_single_branch(self):
        state = StateVector(layout("A"), spin_vector("y", -1))
        branches, pruned = collapse_branches_reference(state, [(spin_observable("y"), None)])
        assert [signs for signs, _ in branches] == [(-1,)]
        assert branches[0][1] == pytest.approx(1.0, abs=1e-12)
        assert pruned < SAMPLE_FLOOR

    def test_each_branch_is_renormalized_before_the_next_step(self):
        state = StateVector(layout("A"), spin_vector("x", +1))
        steps = [(spin_observable("z"), None), (spin_observable("x"), None)]
        branches, _ = collapse_branches_reference(state, steps)
        assert [signs for signs, _ in branches] == [(+1, +1), (+1, -1), (-1, +1), (-1, -1)]
        assert [p for _, p in branches] == pytest.approx([0.25] * 4, abs=1e-15)

    def test_every_branch_pruned_leaves_no_paths(self):
        zero = StateVector(layout("A"), np.zeros(2))
        steps = [(spin_observable("z"), None), (spin_observable("x"), None)]
        assert collapse_branches_reference(zero, steps) == ([], 0.0)


class TestRoundBornPrunedWeight:
    def test_the_ideal_device_drops_nothing(self):
        for name in FRAME_NAMES:
            _, pruned = round_born_distribution(preferred_rounds(IDEAL, name))
            assert pruned == 0.0 and math.copysign(1.0, pruned) == 1.0

    # Devices whose pass leaves some impossible tuple a rounding weight above 0.
    @pytest.mark.parametrize("spec", ["random:4", "random:11"])
    def test_pruned_weight_is_the_dropped_weight(self, spec):
        seed = int(spec.split(":")[1])
        model = _build_model({"model": {"kind": "random", "seed": seed}})
        drops = []
        for name in FRAME_NAMES:
            rounds = preferred_rounds(model, name)
            _, pruned = round_born_distribution(rounds)
            dropped = sum(w for r in rounds for w, p in zip(r.weights, r.possible) if not p)
            assert pruned == pytest.approx(dropped, rel=1e-9, abs=0.0)
            drops.append(dropped)
        assert max(drops) > 0.0, "no frame drops a weight, so the check compares 0 with 0"

    def test_random_11_frames_that_drop_nothing_report_no_rounding_drift(self):
        # Where every tuple below the cutoff weighs exactly 0, the pruned
        # weight is exactly 0, though 1 − Π_r Σ kept weights drifts there.
        model = _build_model({"model": {"kind": "random", "seed": 11}})
        clean = 0
        for name in FRAME_NAMES:
            rounds = preferred_rounds(model, name)
            if any(w for r in rounds for w, p in zip(r.weights, r.possible) if not p):
                continue
            clean += 1
            _, pruned = round_born_distribution(rounds)
            assert pruned == 0.0
            assert math.prod(sum(itertools.compress(r.weights, r.possible)) for r in rounds) != 1.0
        assert clean
