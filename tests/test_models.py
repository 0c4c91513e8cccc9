import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import _oracles
import gwsim.measurement
import gwsim.models
import gwsim.scenario
import gwsim.spacetime
import gwsim.systems
from _oracles import (
    box_muller_normals,
    collapse_branches_reference,
    draw_reference,
    entangled_record_state,
    outcome_indices,
    random_state,
    sample_round_born,
    sample_sequential_collapse,
    spin_observable,
    sweep_reference,
    sweep_reference_model,
)
from gwsim.cli import _build_model
from gwsim.measurement import (
    SAMPLE_FLOOR,
    MeasurementModel,
    door_observable,
    haar_random_unitary,
    ideal_von_neumann,
    outsider_observable,
    pair_index,
)
from gwsim.models import (
    MODES,
    InterpretationModel,
    _outsider_projectors,
    _signed_outcomes,
    born_violation_check,
    erasure_experiment,
    nonideal_sweep,
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
    _site_gram,
    analyze_stack,
    build_schedule,
    collect_constraints,
    enumerate_assignments,
    evolve_to,
    order_events,
    support_constraint,
    violation_mask,
)
from gwsim.spacetime import Frame
from gwsim.systems import (
    LabLabel,
    SpinAxis,
    initial_product_terms,
    initial_scenario_state,
    lab_vector,
    spin_vector,
)

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
    return schedule.frames


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


class TestViolationMask:
    def test_columns_follow_constraint_order(self):
        constraints = [
            ParityConstraint(("x_A", "x_B"), +1),
            ParityConstraint(("x_A", "x_B"), -1),
        ]
        mask = violation_mask(constraints)
        # Sign rows in CANONICAL_SLOTS order: z_A, z_B, z_C, x_A, x_B, x_C.
        rows = [(-1, -1, -1, +1, +1, -1), (+1, +1, +1, +1, -1, +1)]
        assert mask[outcome_indices(rows)].tolist() == [[False, True], [True, False]]

    def test_agrees_with_the_per_row_check_on_every_row(self, schedule, frames):
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
        assert report.counts.shape == (64,)
        assert report.counts.sum() == 0
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
        counts = born_sigma_report.counts
        assert counts.shape == (64,)
        assert counts.sum() == TRIALS
        for col in range(len(CANONICAL_SLOTS)):
            assert 0 < counts @ (OUTCOME_SIGNS[:, col] == +1) < TRIALS

    def test_preferred_constraint_never_violated(self, born_sigma_report):
        (index,) = [i for i, p in enumerate(born_sigma_report.preferred_mask) if p]
        assert born_sigma_report.violation_counts[index] == 0

    def test_nonpreferred_constraints_violated_half_the_time(self, born_sigma_report):
        band = four_sigma_band(0.5, TRIALS)
        assert born_sigma_report.counts.sum() == TRIALS
        for i, preferred in enumerate(born_sigma_report.preferred_mask):
            if preferred:
                continue
            rate = born_sigma_report.violation_counts[i] / TRIALS
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
        assert np.array_equal(again.counts, born_sigma_report.counts)
        assert again.violation_counts == born_sigma_report.violation_counts

    def test_different_seed_changes_assignments(self, schedule, frames, born_sigma_report):
        m = InterpretationModel("round_born", frames["sigma"])
        other = run_model(schedule, m, TRIALS, seed=12)
        assert other.counts.sum() == TRIALS
        assert not np.array_equal(other.counts, born_sigma_report.counts)


@pytest.fixture(scope="module")
def collapse_report(schedule, frames):
    m = InterpretationModel("sequential_collapse", frames["sigma"])
    return run_model(schedule, m, TRIALS, seed=19)


class TestSequentialCollapse:
    def test_assignments_cover_all_six_slots(self, collapse_report):
        counts = collapse_report.counts
        assert counts.shape == (64,)
        assert counts.sum() == TRIALS
        for col in range(len(CANONICAL_SLOTS)):
            assert 0 < counts @ (OUTCOME_SIGNS[:, col] == +1) < TRIALS

    def test_even_the_preferred_constraint_fails_half_the_time(self, collapse_report):
        # Collapse after the friends' round kills the three-way coherence, so
        # the outsiders' odd-parity rule holds only by chance.
        (index,) = [i for i, p in enumerate(collapse_report.preferred_mask) if p]
        band = four_sigma_band(0.5, TRIALS)
        assert collapse_report.counts.sum() == TRIALS
        rate = collapse_report.violation_counts[index] / TRIALS
        assert rate == pytest.approx(0.5, abs=band)

    def test_outsider_outcomes_are_individually_unbiased(self, collapse_report):
        band = four_sigma_band(0.5, TRIALS)
        for slot in ("x_A", "x_B", "x_C"):
            ups = collapse_report.counts @ (OUTCOME_SIGNS[:, column(slot)] == +1)
            assert ups / TRIALS == pytest.approx(0.5, abs=band)

    def test_friend_records_match_z_statistics(self, collapse_report):
        band = four_sigma_band(0.5, TRIALS)
        for slot in ("z_A", "z_B", "z_C"):
            ups = collapse_report.counts @ (OUTCOME_SIGNS[:, column(slot)] == +1)
            assert ups / TRIALS == pytest.approx(0.5, abs=band)

    def test_same_seed_reproduces(self, schedule, frames, collapse_report):
        m = InterpretationModel("sequential_collapse", frames["sigma"])
        again = run_model(schedule, m, TRIALS, seed=19)
        assert np.array_equal(again.counts, collapse_report.counts)


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


def quarter_weight_pairs(model) -> list[tuple[float, float]]:
    """(product-form weight, dense weight) of every possible tuple of every
    constraint-bearing round of the standard frames, for one device model."""
    s = build_schedule(10.0, 1.0, model)
    frames = s.frames
    orderings = {name: order_events(s, f) for name, f in frames.items()}
    tables = iter(analyze_stack(model, orderings))
    pairs = []
    for name, rounds in orderings.items():
        for k, rnd in enumerate(rounds, start=1):
            table = next(tables)
            entries, constraint = support_constraint(evolve_to(s, frames[name], k), rnd, model)
            if constraint is not None:
                weights = dict(zip(table.labels, table.weights[0]))
                pairs += [(weights[e.labels], e.probability) for e in entries]
    return pairs


def sweep_model(index: int, seed: int) -> MeasurementModel:
    """Model ``index`` of a sweep, on the sweep's own devices."""
    if index == 0:
        return ideal_von_neumann()
    return MeasurementModel(tuple(map(Operator, gwsim.models._haar_devices(seed, [index])[0])))


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
        counted(gwsim.spacetime, "boost_for_simultaneity")
        report = nonideal_sweep(n_models, seed=3)
        assert report.all_passed
        assert counts == {"order_events": 4, "boost_for_simultaneity": 3}

    def test_blocks_match_the_model_by_model_reference(self, monkeypatch):
        # Models 0-3 (the ideal one first), 4-7 and 8-10: two block boundaries.
        monkeypatch.setattr(gwsim.models, "SWEEP_BLOCK", 4)
        assert nonideal_sweep(11, 3) == sweep_reference(11, 3)

    def test_blocks_report_the_reference_failures(self, monkeypatch):
        # Below the rounding of some 1/4 weights, some models fail the
        # support check. The blocked sweep must fail the same ones as a pass
        # per model, and as the dense reference but where a 1/4 weight falls
        # on the other side of the tolerance in the dense sum; those weights
        # must still agree within 1e-14. The reference takes the sweep's own
        # devices, so only the sums differ: its libm normals may round
        # differently, which a tolerance this tight would see as well.
        tol = 3e-16
        monkeypatch.setattr(gwsim.models, "QUARTER_TOL", tol)
        monkeypatch.setattr(_oracles, "QUARTER_TOL", tol)
        monkeypatch.setattr(gwsim.models, "SWEEP_BLOCK", 1)
        one_by_one = nonideal_sweep(11, 3)
        monkeypatch.setattr(gwsim.models, "SWEEP_BLOCK", 4)
        report = nonideal_sweep(11, 3)
        assert not report.all_passed
        assert report == one_by_one
        monkeypatch.setattr(_oracles, "sweep_reference_model", sweep_model)
        reference = sweep_reference(11, 3)
        assert (report.n_models, report.seed) == (reference.n_models, reference.seed)
        verdicts_agree = 0
        for mine, dense in zip(report.results, reference.results, strict=True):
            assert mine._replace(support_ok=dense.support_ok) == dense
            if mine.support_ok == dense.support_ok:
                verdicts_agree += 1
                continue
            pairs = quarter_weight_pairs(sweep_model(mine.index, 3))
            assert max(abs(a - b) for a, b in pairs) <= 1e-14
            assert any((abs(a - 0.25) <= tol) != (abs(b - 0.25) <= tol) for a, b in pairs)
        assert verdicts_agree >= 8

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
        lambda s, preferred: sequential_collapse_distribution(s.model),
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
        return SAMPLERS[mode][0](s, s.frames[frame])

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
        preferred = collect_constraints(s, [s.frames[frame]])
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
    preferred = s.frames[frame]
    probabilities, _ = build(s, preferred)
    indices = outcome_indices(sample(s, preferred, trials, seed=23))
    assert np.all(probabilities[indices] > 0), "reference sample outside the exact support"
    stat, dof = chi_square(np.bincount(indices, minlength=64), probabilities)
    assert stat <= chi_square_bound(dof), (stat, dof)


def reference_counts(probabilities, trials, seed, first=None):
    """Counts of the first ``first`` (default: all) of ``trials`` one-shot draws."""
    indices = draw_reference(probabilities, trials, seed)[:first]
    return np.bincount(indices, minlength=len(probabilities))


@pytest.mark.parametrize("mode", MODES)
def test_run_is_a_prefix_of_a_longer_run(schedule, frames, mode, monkeypatch):
    monkeypatch.setattr(gwsim.models, "DRAW_BLOCK", 64)
    m = InterpretationModel(mode, frames["sigma_p"])
    long = run_model(schedule, m, 500, seed=31)
    short = run_model(schedule, m, 137, seed=31)
    assert np.array_equal(long.counts, reference_counts(long.probabilities, 500, 31))
    assert np.array_equal(short.counts, reference_counts(long.probabilities, 500, 31, 137))
    assert np.all(short.counts <= long.counts)


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**128, 10**400]


class TestPhilox:
    """The integer-arithmetic Philox4x64-10 against numpy's own."""

    def test_a_negative_seed_is_rejected(self):
        # As numpy's SeedSequence rejects it.
        with pytest.raises(ValueError, match="non-negative"):
            erasure_experiment(10, seed=-1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_key_is_the_seed_sequence_state(self, seed):
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        assert np.array_equal(np.array(gwsim.models._philox_key(seed), dtype=np.uint64), key)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "start, n",
        # The last range crosses the first block boundary.
        [(0, 0), (0, 1), (0, 5), (3, 10), (65533, 7), (gwsim.models.DRAW_BLOCK - 6, 13)],
    )
    def test_uniforms_are_numpys_stream(self, seed, start, n):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        expected = rng.random(start + n)[start:]
        uniforms = gwsim.models._philox_uniforms(gwsim.models._philox_key(seed), start, n)
        assert np.array_equal(uniforms, expected)


class TestSweepNormals:
    """The devices' Box–Muller normals against a reference on numpy's own
    Philox uniforms."""

    SHAPE = (3, 2, 6, 6)
    INDICES = [0, 1, 127, 128, 2**32 - 1]

    @pytest.mark.parametrize("seed", [0, 1, 3, 2**32, 2**63 - 1, 10**400])
    def test_spawn_keys_are_the_seed_sequence_states(self, seed):
        k0, k1 = gwsim.models._philox_key(seed, np.array(self.INDICES, dtype=np.uint64))
        for index, key in zip(self.INDICES, np.stack([k0, k1], axis=1)):
            state = np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(2, np.uint64)
            assert np.array_equal(key, state), index

    @staticmethod
    def draws(monkeypatch, seed, indices):
        """``_haar_devices(seed, indices)``, with the uniforms and the normals
        it draws them from."""
        seen = {}
        uniforms_of, unitaries_of = gwsim.models._philox_uniforms, gwsim.models.haar_unitaries

        def uniforms(*args):
            seen["uniforms"] = uniforms_of(*args)
            return seen["uniforms"]

        def unitaries(normals):
            seen["normals"] = normals
            return unitaries_of(normals)

        monkeypatch.setattr(gwsim.models, "_philox_uniforms", uniforms)
        monkeypatch.setattr(gwsim.models, "haar_unitaries", unitaries)
        return gwsim.models._haar_devices(seed, indices), seen["uniforms"], seen["normals"]

    @pytest.mark.parametrize("seed", [0, 3, 2**63 - 1, 10**400])
    def test_uniforms_are_numpys_and_normals_the_reference(self, monkeypatch, seed):
        devices, uniforms, normals = self.draws(monkeypatch, seed, self.INDICES)
        assert devices.shape == (len(self.INDICES), 3, 6, 6)
        expected = [trial_rng(seed, index).random(216) for index in self.INDICES]
        assert np.array_equal(uniforms, expected)
        # numpy's SIMD ufuncs may round log1p, cos and sin differently from libm.
        reference = [box_muller_normals(seed, index, self.SHAPE) for index in self.INDICES]
        np.testing.assert_array_max_ulp(normals, np.array(reference), maxulp=8)

    def test_normals_have_the_standard_moments(self, monkeypatch):
        # 432000 normals: each bound is over four standard errors wide.
        _, _, normals = self.draws(monkeypatch, 3, range(1, 2001))
        x = normals.ravel()
        mean, var = x.mean(), x.var()
        kurtosis = np.mean((x - mean) ** 4) / var**2
        assert abs(mean) < 0.01 and abs(var - 1.0) < 0.01 and abs(kurtosis - 3.0) < 0.05

    def test_random_model_devices_are_spawn_zero_of_its_seed(self):
        for seed in (0, 5, 2**63 - 1):
            model = _build_model({"model": {"kind": "random", "seed": seed}})
            devices = gwsim.models._haar_devices(seed, [0])[0]
            assert np.array_equal(np.stack([u.matrix for u in model.site_unitaries]), devices)

    def test_no_model_draws_an_empty_stack(self):
        assert gwsim.models._haar_devices(3, []).shape == (0, 3, 6, 6)


class TestDraw:
    """The blocked sampler against one-shot draws of the same stream."""

    SIZES = [0, 1, 63, 64, 65, 1000]
    BLOCKS = [7, 64]

    @pytest.mark.parametrize("trials", SIZES)
    @pytest.mark.parametrize("block", BLOCKS)
    def test_counts_match_the_one_shot_reference(self, monkeypatch, trials, block):
        monkeypatch.setattr(gwsim.models, "DRAW_BLOCK", block)
        probabilities = np.random.default_rng(2).dirichlet(np.ones(64))
        probabilities[::5] = 0.0  # zero entries never occur
        counts = gwsim.models._draw(probabilities, trials, seed=9)
        assert counts.dtype == np.int64
        assert counts.shape == (64,)
        assert np.array_equal(counts, reference_counts(probabilities, trials, 9))
        assert not counts[::5].any()

    @pytest.mark.parametrize("trials", SIZES)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("block", BLOCKS)
    def test_run_counts_match_the_one_shot_reference(
        self, schedule, frames, monkeypatch, mode, trials, block
    ):
        monkeypatch.setattr(gwsim.models, "DRAW_BLOCK", block)
        report = run_model(schedule, InterpretationModel(mode, frames["sigma_pp"]), trials, 4)
        assert np.array_equal(report.counts, reference_counts(report.probabilities, trials, 4))

    @pytest.mark.parametrize("trials", SIZES)
    @pytest.mark.parametrize("skip_pair_x", [False, True])
    @pytest.mark.parametrize("block", BLOCKS)
    def test_erasure_counts_match_the_one_shot_reference(
        self, monkeypatch, trials, skip_pair_x, block
    ):
        monkeypatch.setattr(gwsim.models, "DRAW_BLOCK", block)
        branches, _ = erasure_reference(skip_pair_x)
        counts = reference_counts(np.array([p for _, p in branches]), trials, 6)
        door = {+1: 0, -1: 0, 0: 0}
        pair_x = {+1: 0, -1: 0}
        for (signs, _), n in zip(branches, counts.tolist()):
            door[signs[-1]] += n
            if not skip_pair_x:
                pair_x[signs[0]] += n
        report = erasure_experiment(trials, 6, skip_pair_x=skip_pair_x)
        assert (report.door_counts, report.pair_x_counts) == (door, pair_x)

    def test_memory_stays_within_a_few_blocks(self, monkeypatch):
        block = 4096
        monkeypatch.setattr(gwsim.models, "DRAW_BLOCK", block)
        probabilities = np.full(64, 1 / 64)
        gwsim.models._draw(probabilities, 2 * block, seed=1)  # warms numpy's caches
        tracemalloc.start()
        try:
            counts = gwsim.models._draw(probabilities, 20 * block, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() == 20 * block
        # One block holds its uniforms and their indices, 16 B a trial; a
        # one-shot draw of all 20 blocks would hold 20 times that.
        assert peak < 3 * 16 * block


def test_sampling_imports_no_numpy_random():
    # The streams are computed in integer arithmetic, so no command loads
    # numpy.random or the hashlib it pulls in, with ideal or random devices;
    # frames builds no device at all. The flag table reads the command line,
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
        "    assert gwsim.cli.main(['frames', '--model', 'random:5']) == 0\n"
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
        # Each outcome's trials count once for every constraint it violates.
        expected = [0] * len(collapse_report.constraints)
        for signs, n in zip(OUTCOME_SIGNS, collapse_report.counts.tolist()):
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
        (spin_observable(SpinAxis.Z, ev.targets[1]), (model.unitary(ev.site), ev.targets))
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
        layout("L", "A"), np.kron(lab_vector(LabLabel.READY), spin_vector(SpinAxis.Z, +1))
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
        s = build_schedule(10.0, 1.0, model)
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
        ready = lab_vector(LabLabel.READY)
        pair = np.stack([np.kron(ready, random_state(2, rng)) for _ in range(2)])
        coefficients = rng.normal(size=2) + 1j * rng.normal(size=2)
        dense = sum(c * np.kron(np.kron(v, v), v) for c, v in zip(coefficients, pair))
        coefficients /= np.linalg.norm(dense)
        monkeypatch.setattr(gwsim.models, "initial_product_terms", lambda: (coefficients, pair))
        model = COLLAPSE_MODELS["random:5"]()
        probabilities, pruned = sequential_collapse_distribution(model)
        assert np.ptp(probabilities) > 1e-3
        state = StateVector(CANONICAL_LAYOUT, dense / np.linalg.norm(dense))
        s = build_schedule(10.0, 1.0, model)
        for frame in s.frames.values():
            expected, expected_pruned = collapse_reference(model, order_events(s, frame), state)
            assert np.abs(probabilities - expected).max() <= 1e-15
            assert abs(pruned - expected_pruned) <= 1e-15

    def test_ideal_collapse_table_is_exact(self, collapse_tables):
        _, probabilities, pruned = collapse_tables["ideal"]
        assert probabilities.tolist() == [1 / 64] * 64
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
        assert probabilities.tolist() == [1 / 64] * 64

    def test_a_rest_outcome_above_the_floor_raises(self, monkeypatch):
        # Labs holding a record before their friends measure: the ideal device
        # moves such a pair out of the recorded subspace, onto the outsider's
        # rest outcome.
        coefficients, pair = initial_product_terms()
        # v[:2] is the electron beside the ready register.
        moved = np.stack([np.kron(lab_vector(LabLabel.RECORDED_UP), v[:2]) for v in pair])
        monkeypatch.setattr(gwsim.models, "initial_product_terms", lambda: (coefficients, moved))
        with pytest.raises(ValueError, match="only ±1 outcomes"):
            sequential_collapse_distribution(ideal_von_neumann())

    def test_pruning_reads_the_joint_weight(self, monkeypatch):
        # One product term whose electrons are −z with probability t each: an
        # outcome with one −z record weighs about t, above SAMPLE_FLOOR, and
        # is kept; two or three −z records weigh t² or t³ jointly, below it,
        # and are pruned although each record's conditional probability is t.
        t = 1e-7
        electron = np.array([np.sqrt(1.0 - t), np.sqrt(t)])
        pair = np.kron(lab_vector(LabLabel.READY), electron)
        monkeypatch.setattr(
            gwsim.models, "initial_product_terms", lambda: (np.array([1.0, 0.0]), np.stack([pair] * 2))
        )
        probabilities, pruned = sequential_collapse_distribution(ideal_von_neumann())
        downs = (OUTCOME_SIGNS[:, :3] == -1).sum(axis=1)
        assert np.all(probabilities[downs <= 1] > SAMPLE_FLOOR)
        assert not probabilities[downs >= 2].any()
        assert pruned == pytest.approx(3 * t**2 * (1 - t) + t**3, rel=1e-9)
        assert probabilities.sum() + pruned == pytest.approx(1.0, abs=1e-15)


class TestErasureTable:
    @pytest.mark.parametrize("skip_pair_x", [False, True])
    def test_erasure_matches_the_per_path_reference(self, skip_pair_x):
        branches, pruned = erasure_reference(skip_pair_x)
        report = erasure_experiment(0, seed=1, skip_pair_x=skip_pair_x)
        down = sum(p for signs, p in branches if signs[-1] == -1)
        assert abs(report.exact_down_probability - down) <= 1e-15
        assert abs(report.pruned_weight - pruned) <= 1e-15

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
    """Outcome operators on one pair, through the tables' own helpers."""

    def test_a_repeated_measurement_repeats_its_outcome(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            model = MeasurementModel((haar_random_unitary(6, rng),) * 3)
            q = _outsider_projectors(model, "A")
            psi = (q[0] + q[1]) @ random_state(6, rng)
            psi /= np.linalg.norm(psi)
            operators = np.stack([qb @ qa for qa in q for qb in q])[..., None]
            weights = _site_gram(psi[None, :, None], operators)[0, :, 0].real.reshape(3, 3)
            kept, pruned = _signed_outcomes(weights)
            born = [np.vdot(psi, qa @ psi).real for qa in q[:2]]
            assert kept == pytest.approx(np.diag(born), abs=1e-12)
            assert np.count_nonzero(kept) == 2
            assert pruned < SAMPLE_FLOOR

    def test_an_outcome_below_the_floor_is_pruned_not_taken(self):
        # The unitary record lies in the pair observable's ±1 plane: its −1
        # and 0 outcomes carry no weight, so only +1 survives.
        model = ideal_von_neumann()
        state = entangled_record_state(model)
        operators = np.stack(_outsider_projectors(model, "A"))[..., None]
        weights = _site_gram(state.amplitudes[None, :, None], operators)[0, :, 0].real
        kept, pruned = _signed_outcomes(weights)
        assert kept.tolist() == [pytest.approx(1.0, abs=1e-15), 0.0]
        assert pruned < SAMPLE_FLOOR


class TestCollapseReference:
    """The per-path reference the tables are checked against."""

    def test_branch_probabilities_follow_born(self):
        state = StateVector(layout("A"), spin_vector(SpinAxis.X, +1))
        branches, pruned = collapse_branches_reference(state, [(spin_observable(SpinAxis.Z), None)])
        assert [signs for signs, _ in branches] == [(+1,), (-1,)]
        assert [p for _, p in branches] == pytest.approx([0.5, 0.5], abs=1e-15)
        assert pruned == 0.0

    def test_an_eigenstate_has_a_single_branch(self):
        state = StateVector(layout("A"), spin_vector(SpinAxis.Y, -1))
        branches, pruned = collapse_branches_reference(state, [(spin_observable(SpinAxis.Y), None)])
        assert [signs for signs, _ in branches] == [(-1,)]
        assert branches[0][1] == pytest.approx(1.0, abs=1e-12)
        assert pruned < SAMPLE_FLOOR

    def test_each_branch_is_renormalized_before_the_next_step(self):
        state = StateVector(layout("A"), spin_vector(SpinAxis.X, +1))
        steps = [(spin_observable(SpinAxis.Z), None), (spin_observable(SpinAxis.X), None)]
        branches, _ = collapse_branches_reference(state, steps)
        assert [signs for signs, _ in branches] == [(+1, +1), (+1, -1), (-1, +1), (-1, -1)]
        assert [p for _, p in branches] == pytest.approx([0.25] * 4, abs=1e-15)

    def test_every_branch_pruned_leaves_no_paths(self):
        zero = StateVector(layout("A"), np.zeros(2))
        steps = [(spin_observable(SpinAxis.Z), None), (spin_observable(SpinAxis.X), None)]
        assert collapse_branches_reference(zero, steps) == ([], 0.0)


class TestRoundBornPrunedWeight:
    def test_the_ideal_device_drops_nothing(self, schedule, frames):
        for frame in frames.values():
            _, pruned = round_born_distribution(preferred_rounds(schedule, frame))
            assert pruned == 0.0 and math.copysign(1.0, pruned) == 1.0

    @pytest.mark.parametrize("spec", ["random:5", "random:11"])
    def test_pruned_weight_is_the_dropped_weight(self, spec):
        seed = int(spec.split(":")[1])
        s = build_schedule(10.0, 1.0, _build_model({"model": {"kind": "random", "seed": seed}}))
        drops = []
        for frame in s.frames.values():
            rounds = preferred_rounds(s, frame)
            _, pruned = round_born_distribution(rounds)
            dropped = sum(float(r.weights[0][~r.possible[0]].sum()) for r in rounds)
            assert pruned == pytest.approx(dropped, rel=1e-9, abs=0.0)
            drops.append(dropped)
        assert max(drops) > 0.0, "no frame drops a weight, so the check compares 0 with 0"

    def test_random_11_frames_that_drop_nothing_report_no_rounding_drift(self):
        # Where every tuple below the cutoff weighs exactly 0, the pruned
        # weight is exactly 0, though 1 − Π_r Σ kept weights drifts there.
        s = build_schedule(10.0, 1.0, _build_model({"model": {"kind": "random", "seed": 11}}))
        clean = 0
        for frame in s.frames.values():
            rounds = preferred_rounds(s, frame)
            if any(r.weights[0][~r.possible[0]].any() for r in rounds):
                continue
            clean += 1
            _, pruned = round_born_distribution(rounds)
            assert pruned == 0.0
            assert math.prod(float(r.weights[0][r.possible[0]].sum()) for r in rounds) != 1.0
        assert clean
