import itertools
import tracemalloc

import numpy as np
import pytest

import _oracles
import gwsim.measurement
import gwsim.models
import gwsim.scenario
from _oracles import (
    outcome_indices,
    sample_round_born,
    sample_sequential_collapse,
    sweep_reference,
)
from gwsim.cli import _build_model
from gwsim.measurement import ideal_von_neumann, outsider_observable, spin_observable
from gwsim.models import (
    MODES,
    OUTCOME_SIGNS,
    InterpretationModel,
    _collapse_branches,
    born_violation_check,
    erasure_experiment,
    nonideal_sweep,
    round_born_distribution,
    run_model,
    sequential_collapse_distribution,
    trial_rng,
)
from gwsim.qmath import StateVector, layout
from gwsim.scenario import (
    CANONICAL_SLOTS,
    FRAME_NAMES,
    ParityConstraint,
    analyze_stack,
    build_schedule,
    collect_constraints,
    enumerate_assignments,
    order_events,
    standard_frames,
    violation_mask,
)
from gwsim.spacetime import Frame
from gwsim.systems import LabLabel, SpinAxis, lab_vector, spin_vector

TRIALS = 2000


def four_sigma_band(p: float, n: int) -> float:
    return 4.0 * np.sqrt(p * (1.0 - p) / n)


def column(slot: str) -> int:
    return CANONICAL_SLOTS.index(slot)


@pytest.fixture(scope="module")
def schedule():
    return build_schedule(10.0, 1.0, ideal_von_neumann())


@pytest.fixture(scope="module")
def frames(schedule):
    return standard_frames(schedule.geometry)


@pytest.fixture(scope="module")
def born_sigma_report(schedule, frames):
    m = InterpretationModel("round_born", frames["sigma"])
    return run_model(schedule, m, TRIALS, seed=11)


class TestInterpretationModel:
    def test_valid_modes(self, frames):
        for mode in ("round_born", "sequential_collapse"):
            assert InterpretationModel(mode, frames["sigma"]).mode == mode

    def test_rejects_unknown_mode(self, frames):
        with pytest.raises(ValueError, match="mode"):
            InterpretationModel("copenhagen", frames["sigma"])


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


class TestBornViolationCheck:
    def test_flags_follow_constraint_order(self):
        constraints = [
            ParityConstraint(("x_A", "x_B"), +1),
            ParityConstraint(("x_A", "x_B"), -1),
        ]
        # Sign rows in CANONICAL_SLOTS order: z_A, z_B, z_C, x_A, x_B, x_C.
        assert born_violation_check((-1, -1, -1, +1, +1, -1), constraints) == (False, True)
        assert born_violation_check((+1, +1, +1, +1, -1, +1), constraints) == (True, False)

    def test_agrees_with_the_violation_mask_on_every_row(self, schedule, frames):
        constraints = collect_constraints(schedule, frames)
        mask = violation_mask(constraints)
        for index, signs in enumerate(OUTCOME_SIGNS):
            assert born_violation_check(signs, constraints) == tuple(mask[index])


class TestRoundBorn:
    def test_rejects_negative_trials(self, schedule, frames):
        m = InterpretationModel("round_born", frames["sigma"])
        with pytest.raises(ValueError, match="trials"):
            run_model(schedule, m, -1, seed=0)

    def test_zero_trials_gives_empty_report(self, schedule, frames):
        m = InterpretationModel("round_born", frames["sigma"])
        report = run_model(schedule, m, 0, seed=0)
        assert report.assignments.shape == (0, 6)
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
        assert born_sigma_report.assignments.shape == (TRIALS, len(CANONICAL_SLOTS))
        assert set(np.unique(born_sigma_report.assignments)) == {-1, +1}

    def test_preferred_constraint_never_violated(self, born_sigma_report):
        (index,) = [i for i, p in enumerate(born_sigma_report.preferred_mask) if p]
        assert born_sigma_report.violation_counts[index] == 0

    def test_nonpreferred_constraints_violated_half_the_time(self, born_sigma_report):
        band = four_sigma_band(0.5, TRIALS)
        for i, preferred in enumerate(born_sigma_report.preferred_mask):
            if preferred:
                continue
            rate = born_sigma_report.violation_counts[i] / born_sigma_report.trials
            assert rate == pytest.approx(0.5, abs=band)

    def test_every_trial_violates_some_nonpreferred_constraint(self, born_sigma_report):
        assert born_sigma_report.trials_violating_nonpreferred == TRIALS

    def test_tilted_preferred_frame_swaps_the_protected_constraint(self, schedule, frames):
        m = InterpretationModel("round_born", frames["sigma_p"])
        report = run_model(schedule, m, 400, seed=3)
        (index,) = [i for i, p in enumerate(report.preferred_mask) if p]
        assert report.constraints[index].slots == ("x_A", "z_B", "z_C")
        assert report.violation_counts[index] == 0
        assert report.trials_violating_nonpreferred == 400

    def test_same_seed_reproduces_assignments(self, schedule, frames, born_sigma_report):
        m = InterpretationModel("round_born", frames["sigma"])
        again = run_model(schedule, m, TRIALS, seed=11)
        np.testing.assert_array_equal(again.assignments, born_sigma_report.assignments)
        assert again.violation_counts == born_sigma_report.violation_counts

    def test_different_seed_changes_assignments(self, schedule, frames, born_sigma_report):
        m = InterpretationModel("round_born", frames["sigma"])
        other = run_model(schedule, m, TRIALS, seed=12)
        assert not np.array_equal(other.assignments, born_sigma_report.assignments)


@pytest.fixture(scope="module")
def collapse_report(schedule, frames):
    m = InterpretationModel("sequential_collapse", frames["sigma"])
    return run_model(schedule, m, TRIALS, seed=19)


class TestSequentialCollapse:
    def test_assignments_cover_all_six_slots(self, collapse_report):
        assert collapse_report.assignments.shape == (TRIALS, len(CANONICAL_SLOTS))
        assert set(np.unique(collapse_report.assignments)) == {-1, +1}

    def test_even_the_preferred_constraint_fails_half_the_time(self, collapse_report):
        # Collapse after the friends' round kills the three-way coherence, so
        # the outsiders' odd-parity rule holds only by chance.
        (index,) = [i for i, p in enumerate(collapse_report.preferred_mask) if p]
        band = four_sigma_band(0.5, TRIALS)
        rate = collapse_report.violation_counts[index] / collapse_report.trials
        assert rate == pytest.approx(0.5, abs=band)

    def test_outsider_outcomes_are_individually_unbiased(self, collapse_report):
        band = four_sigma_band(0.5, TRIALS)
        for slot in ("x_A", "x_B", "x_C"):
            ups = np.count_nonzero(collapse_report.assignments[:, column(slot)] == +1)
            assert ups / TRIALS == pytest.approx(0.5, abs=band)

    def test_friend_records_match_z_statistics(self, collapse_report):
        band = four_sigma_band(0.5, TRIALS)
        for slot in ("z_A", "z_B", "z_C"):
            ups = np.count_nonzero(collapse_report.assignments[:, column(slot)] == +1)
            assert ups / TRIALS == pytest.approx(0.5, abs=band)

    def test_same_seed_reproduces(self, schedule, frames, collapse_report):
        m = InterpretationModel("sequential_collapse", frames["sigma"])
        again = run_model(schedule, m, TRIALS, seed=19)
        np.testing.assert_array_equal(again.assignments, collapse_report.assignments)


class TestErasure:
    def test_exact_down_probability_is_half(self):
        report = erasure_experiment(50, seed=1)
        assert report.exact_down_probability == pytest.approx(0.5, abs=1e-12)

    def test_down_frequency_tracks_the_exact_value(self):
        report = erasure_experiment(TRIALS, seed=5)
        band = four_sigma_band(0.5, TRIALS)
        assert report.down_frequency == pytest.approx(0.5, abs=band)

    def test_counts_are_consistent(self):
        report = erasure_experiment(500, seed=5)
        assert report.door_counts[+1] + report.door_counts[-1] == 500
        assert report.door_counts[0] == 0
        assert report.pair_x_counts[+1] + report.pair_x_counts[-1] == 500

    def test_pair_x_outcomes_are_balanced(self):
        report = erasure_experiment(TRIALS, seed=5)
        band = four_sigma_band(0.5, TRIALS)
        assert report.pair_x_counts[+1] / TRIALS == pytest.approx(0.5, abs=band)

    def test_skipping_the_outsider_leaves_the_record_intact(self):
        report = erasure_experiment(500, seed=1, skip_pair_x=True)
        assert report.exact_down_probability == 0.0
        assert report.door_counts == {+1: 500, -1: 0, 0: 0}
        assert report.pair_x_counts == {+1: 0, -1: 0}
        assert report.down_frequency == 0.0

    def test_zero_trials(self):
        report = erasure_experiment(0, seed=1)
        assert report.down_frequency == 0.0
        assert report.exact_down_probability == pytest.approx(0.5, abs=1e-12)

    def test_same_seed_reproduces_counts(self):
        a = erasure_experiment(300, seed=8)
        b = erasure_experiment(300, seed=8)
        assert a.door_counts == b.door_counts
        assert a.pair_x_counts == b.pair_x_counts


class TestNonidealSweep:
    def test_single_model_is_the_ideal_baseline(self):
        report = nonideal_sweep(1, seed=0)
        assert report.n_models == 1
        assert report.results[0].kind == "ideal"
        assert report.results[0].passed
        assert report.all_passed

    def test_random_models_reproduce_the_contradiction(self):
        report = nonideal_sweep(4, seed=21)
        assert [r.kind for r in report.results] == ["ideal", "haar", "haar", "haar"]
        for result in report.results:
            assert result.constraints_match
            assert result.satisfying_count == 0
            assert result.support_ok
        assert report.n_passed == 4
        assert report.all_passed

    @pytest.mark.parametrize("seed", [3, 7, 21])
    def test_matches_the_model_by_model_reference(self, seed):
        assert nonideal_sweep(30, seed) == sweep_reference(30, seed)

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError, match="at least one"):
            nonideal_sweep(0, seed=0)

    def test_same_seed_reproduces(self):
        a = nonideal_sweep(3, seed=9)
        b = nonideal_sweep(3, seed=9)
        assert a.results == b.results

    @pytest.mark.parametrize("n_models", [1, 5])
    def test_orderings_and_boosts_are_built_once_per_sweep(self, monkeypatch, n_models):
        counts = {"order_events": 0, "boost_for_simultaneity": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(gwsim.models, "order_events")
        counted(gwsim.scenario, "boost_for_simultaneity")
        report = nonideal_sweep(n_models, seed=3)
        assert report.all_passed
        assert counts == {"order_events": 4, "boost_for_simultaneity": 3}

    def test_blocks_match_the_model_by_model_reference(self, monkeypatch):
        # Models 0-3 (the ideal one first), 4-7 and 8-10: two block boundaries.
        monkeypatch.setattr(gwsim.models, "SWEEP_BLOCK", 4)
        assert nonideal_sweep(11, 3) == sweep_reference(11, 3)

    def test_blocks_report_the_reference_failures(self, monkeypatch):
        # Below the rounding of some 1/4 weights, some models fail the
        # support check; the blocked sweep must fail the same ones.
        monkeypatch.setattr(gwsim.models, "SWEEP_BLOCK", 4)
        monkeypatch.setattr(gwsim.models, "QUARTER_TOL", 3e-16)
        monkeypatch.setattr(_oracles, "QUARTER_TOL", 3e-16)
        report = nonideal_sweep(11, 3)
        assert not report.all_passed
        assert report == sweep_reference(11, 3)

    def test_one_qr_and_one_unitarity_check_per_site_stack_per_block(self, monkeypatch):
        monkeypatch.setattr(gwsim.models, "SWEEP_BLOCK", 4)
        shapes = {"haar_unitaries": [], "check_unitary": []}

        def recorded(module, name, shape_of):
            original = getattr(module, name)

            def wrapper(arg):
                shapes[name].append(shape_of(arg))
                return original(arg)

            monkeypatch.setattr(module, name, wrapper)

        recorded(gwsim.models, "haar_unitaries", np.shape)
        recorded(gwsim.measurement, "check_unitary", lambda op: op.matrix.shape)
        assert nonideal_sweep(11, 3).all_passed
        assert shapes["haar_unitaries"] == [(3, 3, 2, 6, 6), (4, 3, 2, 6, 6), (3, 3, 2, 6, 6)]
        # The schedule's ideal model, then three site stacks per block and no
        # per-model device.
        assert shapes["check_unitary"] == [(6, 6)] * 3 + [(4, 6, 6)] * 6 + [(3, 6, 6)] * 3

    def test_memory_stays_flat_across_blocks(self, monkeypatch):
        monkeypatch.setattr(gwsim.models, "SWEEP_BLOCK", 4)
        nonideal_sweep(200, 3)  # fills the interpreter's and numpy's caches
        peaks = {}
        for n_models in (8, 200):
            tracemalloc.start()
            try:
                nonideal_sweep(n_models, 3)
                peaks[n_models] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # Only the result records accumulate, well under 1 KB a model; one
        # pass over all 200 models would hold about 25 KB a model.
        assert (peaks[200] - peaks[8]) / 192 < 1000


def test_run_model_analyses_once(schedule, frames, monkeypatch):
    calls = []
    original = gwsim.models.analyze_stack

    def counting(model, orderings):
        calls.append((model, list(orderings)))
        return original(model, orderings)

    monkeypatch.setattr(gwsim.models, "analyze_stack", counting)
    for mode in MODES:
        report = run_model(schedule, InterpretationModel(mode, frames["sigma_p"]), 10, seed=1)
        assert report.preferred_mask == (False, True, False, False)
    # One pass per run, over the schedule's own model rather than a restacked copy.
    assert calls == [(schedule.model, list(frames.values()))] * len(MODES)
    assert all(model is schedule.model for model, _ in calls)


def test_run_model_accepts_a_nonstandard_preferred_frame(schedule, frames):
    # A generic frame has singleton rounds: it adds no constraint of its own.
    generic = Frame((0.3, -0.2))
    report = run_model(schedule, InterpretationModel("round_born", generic), 10, seed=1)
    assert report.constraints == tuple(collect_constraints(schedule, frames))
    assert report.preferred_mask == (False,) * 4
    assert abs(report.probabilities.sum() - 1.0) <= 1e-12


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


def preferred_rounds(s, preferred):
    """The preferred frame's round tables, round_born's input."""
    return analyze_stack(s.model, {preferred: order_events(s, preferred)})


SAMPLERS = {
    "round_born": (
        lambda s, preferred: round_born_distribution(preferred_rounds(s, preferred)),
        sample_round_born,
        2000,
    ),
    "sequential_collapse": (
        lambda s, preferred: sequential_collapse_distribution(
            s.model, order_events(s, preferred)
        ),
        sample_sequential_collapse,
        400,
    ),
}


@pytest.fixture(scope="module")
def table_schedules():
    return {
        spec: build_schedule(10.0, 1.0, _build_model({"model": model}))
        for spec, model in TABLE_MODELS.items()
    }


@pytest.mark.parametrize("frame", FRAME_NAMES)
@pytest.mark.parametrize("spec", sorted(TABLE_MODELS))
class TestExactTables:
    def _table(self, table_schedules, spec, frame, mode):
        s = table_schedules[spec]
        return SAMPLERS[mode][0](s, standard_frames(s.geometry)[frame])

    @pytest.mark.parametrize("mode, support", [("round_born", 32), ("sequential_collapse", 64)])
    def test_table_is_a_distribution_with_the_expected_support(
        self, table_schedules, spec, frame, mode, support
    ):
        probabilities, pruned = self._table(table_schedules, spec, frame, mode)
        assert probabilities.shape == (64,)
        assert probabilities.min() >= 0.0
        assert abs(probabilities.sum() - 1.0) <= 1e-12
        assert np.count_nonzero(probabilities) == support
        assert 0.0 <= pruned <= 1e-12

    def test_round_born_puts_no_mass_on_preferred_violations(
        self, table_schedules, spec, frame
    ):
        s = table_schedules[spec]
        preferred = collect_constraints(s, [standard_frames(s.geometry)[frame]])
        assert preferred
        probabilities, _ = self._table(table_schedules, spec, frame, "round_born")
        for index, signs in enumerate(OUTCOME_SIGNS):
            if any(born_violation_check(signs, preferred)):
                assert probabilities[index] == 0.0


def test_outcome_signs_follow_enumeration_order():
    rows = list(itertools.product((+1, -1), repeat=len(CANONICAL_SLOTS)))
    np.testing.assert_array_equal(OUTCOME_SIGNS, rows)
    np.testing.assert_array_equal(enumerate_assignments([]), OUTCOME_SIGNS)
    np.testing.assert_array_equal(outcome_indices(OUTCOME_SIGNS), np.arange(64))


@pytest.mark.parametrize("mode", sorted(SAMPLERS))
@pytest.mark.parametrize("spec, frame", ORACLE_CASES)
def test_reference_sampler_matches_the_exact_table(table_schedules, spec, frame, mode):
    build, sample, trials = SAMPLERS[mode]
    s = table_schedules[spec]
    preferred = standard_frames(s.geometry)[frame]
    probabilities, _ = build(s, preferred)
    indices = outcome_indices(sample(s, preferred, trials, seed=23))
    assert np.all(probabilities[indices] > 0), "reference sample outside the exact support"
    stat, dof = chi_square(np.bincount(indices, minlength=64), probabilities)
    assert stat <= chi_square_bound(dof), (stat, dof)


@pytest.mark.parametrize("mode", MODES)
def test_run_is_a_prefix_of_a_longer_run(schedule, frames, mode):
    m = InterpretationModel(mode, frames["sigma_p"])
    long = run_model(schedule, m, 500, seed=31)
    short = run_model(schedule, m, 137, seed=31)
    np.testing.assert_array_equal(short.assignments, long.assignments[:137])
    np.testing.assert_array_equal(
        short.nonpreferred_violated_flags, long.nonpreferred_violated_flags[:137]
    )


def test_erasure_counts_grow_with_the_prefix():
    full = erasure_experiment(400, seed=31)
    for k in (1, 57, 399):
        part = erasure_experiment(k, seed=31)
        for sign in (+1, -1):
            assert part.door_counts[sign] <= full.door_counts[sign]
            assert part.pair_x_counts[sign] <= full.pair_x_counts[sign]


class TestExactRates:
    def test_round_born_exact_rates(self, born_sigma_report):
        for i, preferred in enumerate(born_sigma_report.preferred_mask):
            expected = 0.0 if preferred else 0.5
            assert born_sigma_report.exact_rates[i] == pytest.approx(expected, abs=1e-12)
        assert born_sigma_report.exact_nonpreferred_probability == pytest.approx(1.0, abs=1e-12)

    def test_collapse_exact_rates_are_half(self, collapse_report):
        assert collapse_report.exact_rates == pytest.approx((0.5,) * 4, abs=1e-12)

    def test_counts_follow_the_violation_mask(self, collapse_report):
        rows = outcome_indices(collapse_report.assignments)
        expected = collapse_report.violation_mask[rows].sum(axis=0)
        assert collapse_report.violation_counts == tuple(int(n) for n in expected)

    def test_pruned_weight_is_negligible(self, born_sigma_report, collapse_report):
        assert 0.0 <= born_sigma_report.pruned_weight <= 1e-12
        assert 0.0 <= collapse_report.pruned_weight <= 1e-12


class TestCollapseBranches:
    def test_branch_probabilities_follow_born(self):
        lay = layout("A")
        state = StateVector(lay, spin_vector(SpinAxis.X, +1))
        branches, pruned = _collapse_branches(state, [(spin_observable(SpinAxis.Z), None)])
        assert [signs for signs, _ in branches] == [(+1,), (-1,)]
        assert [p for _, p in branches] == pytest.approx([0.5, 0.5], abs=1e-15)
        assert pruned == 0.0

    def test_improbable_outcomes_are_pruned_and_weighed(self):
        tiny = 1e-14
        state = StateVector(layout("A"), np.array([np.sqrt(1.0 - tiny), np.sqrt(tiny)]))
        branches, pruned = _collapse_branches(state, [(spin_observable(SpinAxis.Z), None)])
        assert [signs for signs, _ in branches] == [(+1,)]
        assert branches[0][1] == pytest.approx(1.0 - tiny, abs=1e-15)
        assert pruned == pytest.approx(tiny, rel=1e-6)

    def test_surviving_outcome_other_than_plus_minus_one_raises(self):
        # Before the device runs, the pair sits outside the recorded subspace:
        # the outsider observable's 0 eigenvalue carries all the weight.
        model = ideal_von_neumann()
        unrecorded = StateVector(
            layout("L", "A"),
            np.kron(lab_vector(LabLabel.READY), spin_vector(SpinAxis.Z, +1)),
        )
        with pytest.raises(ValueError, match="only ±1 outcomes"):
            _collapse_branches(unrecorded, [(outsider_observable(model), None)])

    def test_erasure_reports_the_pruned_weight(self):
        report = erasure_experiment(10, seed=1)
        assert 0.0 <= report.pruned_weight <= 1e-12
