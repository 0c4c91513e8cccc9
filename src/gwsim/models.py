"""Single-outcome interpretation models as exact distributions, then sampled.

The frame analysis shows no assignment of definite outcomes satisfies all
four parity constraints. These models make that concrete: each posits a
preferred frame in which outcomes actually happen. That fixes a probability
for each of the 64 complete outcome assignments, and the constraints are
tallied both exactly over that distribution and over assignments drawn from
it.

* ``round_born`` — each round's joint outcome tuple follows the Born weights
  of the unitarily evolved pre-round state in the preferred frame; rounds are
  independent, so the distribution is the product of the round tables. The
  preferred frame's own constraints then hold with certainty, and the price
  is paid elsewhere: each constraint belonging to another frame is violated
  with probability 1/2.
* ``sequential_collapse`` — textbook projective collapse applied event by
  event in the preferred frame's order; the distribution comes from
  branching once over every event's projectors. Collapse after the friends'
  round destroys the three-way coherence, so even the preferred frame's
  outsider parity fails with probability 1/2.

A distribution is a 64-entry vector indexed in ``CANONICAL_SLOTS`` bit order
(row *i* of ``OUTCOME_SIGNS`` holds the ±1 values of index *i*). Monte Carlo
is then one inverse-CDF draw: trial *i* takes the *i*-th uniform of a single
counter-based Philox stream keyed by the master seed, so reports are
reproducible and the first *k* trials of any run are the *k*-trial run.

Also here: the single-lab erasure experiment (an outsider's measurement can
flip what the lab's record says afterwards), computed and sampled the same
way, and the sweep re-deriving the contradiction under random non-ideal
measurement devices, each drawn from its own ``trial_rng`` stream, in fixed
blocks of one stacked Haar draw and one stacked pass each.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .measurement import (
    SAMPLE_FLOOR,
    MeasurementModel,
    haar_unitaries,
    ideal_von_neumann,
    door_observable,
    outsider_observable,
    spin_observable,
)
from .qmath import Operator, StateVector, apply_local, layout
from .scenario import (
    CANONICAL_SLOTS,
    OUTCOME_SIGNS,
    ParityConstraint,
    RoundTable,
    Schedule,
    analyze_stack,
    build_schedule,
    distinct_constraints,
    enumerate_assignments,
    order_events,
    round_slots,
    standard_frames,
    violation_mask,
)
from .spacetime import Frame
from .systems import LabLabel, SpinAxis, initial_scenario_state, lab_vector, spin_vector

MODES = ("round_born", "sequential_collapse")


@dataclass(frozen=True)
class InterpretationModel:
    """How single outcomes are supposed to come about: sampling mode plus the
    frame whose ordering is taken as the real one."""

    mode: str
    preferred: Frame

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial, split off the master seed."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    )


def _draw(probabilities: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Table indices of ``trials`` inverse-CDF draws; zero entries never occur.

    Trial i takes the i-th uniform of one Philox stream keyed by ``seed``.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    cdf = np.cumsum(probabilities)
    return np.searchsorted(cdf / cdf[-1], rng.random(trials), side="right")


@dataclass(frozen=True)
class RunReport:
    """Exact outcome distribution, sampled assignments and constraint tallies
    for one model run."""

    mode: str
    trials: int
    seed: int
    constraints: tuple[ParityConstraint, ...]
    preferred_mask: tuple[bool, ...]  # True where the constraint is the preferred frame's
    probabilities: np.ndarray  # (64,) exact distribution, OUTCOME_SIGNS row order
    pruned_weight: float  # outcome weight the distribution leaves out
    violation_mask: np.ndarray  # (64, constraints) bool: outcome violates constraint
    assignments: np.ndarray  # (trials, 6) int8: ±1 in CANONICAL_SLOTS column order
    violation_counts: tuple[int, ...]
    nonpreferred_violated_flags: np.ndarray  # (trials,) bool: ≥1 non-preferred violated

    @property
    def trials_violating_nonpreferred(self) -> int:
        return int(np.count_nonzero(self.nonpreferred_violated_flags))

    @property
    def exact_rates(self) -> tuple[float, ...]:
        """Per constraint: the probability that an assignment violates it."""
        return tuple(float(p) for p in self.probabilities @ self.violation_mask)

    @property
    def exact_nonpreferred_probability(self) -> float:
        """Probability that an assignment violates ≥1 non-preferred constraint."""
        nonpreferred = _any_nonpreferred(self.violation_mask, self.preferred_mask)
        return float(self.probabilities @ nonpreferred)


def born_violation_check(signs, constraints) -> tuple[bool, ...]:
    """Per-constraint flag: True where the sign row (±1 per slot, in
    ``CANONICAL_SLOTS`` order) violates it."""
    return tuple(
        math.prod(int(signs[CANONICAL_SLOTS.index(slot)]) for slot in c.slots)
        != c.required_product
        for c in constraints
    )


def _any_nonpreferred(mask: np.ndarray, preferred_mask) -> np.ndarray:
    return mask[:, ~np.array(preferred_mask, dtype=bool)].any(axis=1)


def _outcome_index(slots, signs) -> int:
    """Table index of the outcome giving ``signs`` to ``slots``, +1 elsewhere."""
    return sum(
        1 << (len(CANONICAL_SLOTS) - 1 - CANONICAL_SLOTS.index(slot))
        for slot, sign in zip(slots, signs)
        if sign == -1
    )


def _collapse_branches(state: StateVector, steps):
    """Every outcome sequence of measuring ``steps`` in turn, with collapse.

    Each step is an observable plus an optional ``(unitary, targets)`` run on
    the post-measurement state. Returns ``(signs, probability)`` per surviving
    sequence, and the total weight of outcomes dropped because their
    conditional probability fell below SAMPLE_FLOOR. A surviving outcome must
    be ±1; any other eigenvalue means the state left the recorded subspace.
    """
    paths = [((), 1.0, state)]
    pruned = 0.0
    for obs, device in steps:
        grown = []
        for signs, weight, psi in paths:
            for value, proj in obs.eigenpairs:
                projected = apply_local(proj, obs.targets, psi)
                p = float(np.vdot(projected.amplitudes, projected.amplitudes).real)
                if p < SAMPLE_FLOOR:
                    pruned += weight * p
                    continue
                if value not in (+1.0, -1.0):
                    raise ValueError(
                        f"outcome {value:g} on {'/'.join(obs.targets)} has probability "
                        f"{p:.3g}; only ±1 outcomes may occur"
                    )
                post = StateVector(psi.layout, projected.amplitudes / np.sqrt(p))
                if device is not None:
                    post = apply_local(device[0], device[1], post)
                grown.append((signs + (int(value),), weight * p, post))
        paths = grown
    return [(signs, weight) for signs, weight, _ in paths], pruned


def round_born_distribution(rounds: list[RoundTable]) -> tuple[np.ndarray, float]:
    """The round_born model's 64-entry distribution, and the weight it leaves out.

    ``rounds`` is the preferred frame's tables from ``analyze_stack``, read at
    model 0. Rounds are independent, so an assignment's probability is the
    product of its rounds' Born weights. Outcome tuples below the support
    cutoff are left out; their weight is the pruned weight.
    """
    tables = [
        [
            (_outcome_index(round_slots(r.events), labels), p)
            for labels, p, ok in zip(r.labels, r.probabilities[0].tolist(), r.possible[0])
            if ok
        ]
        for r in rounds
    ]
    probabilities = np.zeros(len(OUTCOME_SIGNS))
    for combo in itertools.product(*tables):
        probabilities[sum(i for i, _ in combo)] = math.prod(p for _, p in combo)
    kept = math.prod(sum(p for _, p in entries) for entries in tables)
    return probabilities, max(0.0, 1.0 - kept)


def sequential_collapse_distribution(model: MeasurementModel, rounds) -> tuple[np.ndarray, float]:
    """The sequential_collapse model's 64-entry distribution, and the pruned weight.

    ``rounds`` is the preferred frame's ordering from ``order_events``;
    branching starts from the initial scenario state, every frame's first
    pre-round state, and runs over every event's projectors in the frame's
    order. A friend's device unitary runs after its z projector.
    """
    events = [ev for rnd in rounds for ev in rnd]
    steps = [
        (spin_observable(SpinAxis.Z, ev.targets[1]), (model.unitary(ev.site), ev.targets))
        if ev.kind == "friend_z"
        else (outsider_observable(model, ev.site), None)
        for ev in events
    ]
    branches, pruned = _collapse_branches(initial_scenario_state(), steps)
    slots = [ev.slot for ev in events]
    probabilities = np.zeros(len(OUTCOME_SIGNS))
    for signs, p in branches:
        probabilities[_outcome_index(slots, signs)] = p
    return probabilities, pruned


def run_model(s: Schedule, m: InterpretationModel, trials: int, seed: int) -> RunReport:
    """Draw ``trials`` complete outcome assignments and tally violations.

    One ``analyze_stack`` pass over ``s.model`` covers the four standard
    frames and ``m.preferred``. Constraints are those the standard frames
    yield; the preferred mask marks the ones ``m.preferred``'s own rounds
    yield.
    """
    if trials < 0:
        raise ValueError(f"trials must be ≥ 0, got {trials}")
    standard = list(standard_frames(s.geometry).values())
    orderings = {f: order_events(s, f) for f in dict.fromkeys(standard + [m.preferred])}
    tables = analyze_stack(s.model, orderings)
    constraints = tuple(distinct_constraints(t for t in tables if t.frame in standard))
    preferred_tables = [t for t in tables if t.frame == m.preferred]
    preferred = set(distinct_constraints(preferred_tables))
    preferred_mask = tuple(c in preferred for c in constraints)

    if m.mode == "round_born":
        probabilities, pruned = round_born_distribution(preferred_tables)
    else:
        probabilities, pruned = sequential_collapse_distribution(
            s.model, orderings[m.preferred]
        )

    mask = violation_mask(constraints)
    outcomes = _draw(probabilities, trials, seed)
    counts = np.bincount(outcomes, minlength=len(probabilities))
    return RunReport(
        mode=m.mode,
        trials=trials,
        seed=seed,
        constraints=constraints,
        preferred_mask=preferred_mask,
        probabilities=probabilities,
        pruned_weight=pruned,
        violation_mask=mask,
        assignments=OUTCOME_SIGNS[outcomes],
        violation_counts=tuple(int(n) for n in counts @ mask),
        nonpreferred_violated_flags=_any_nonpreferred(mask, preferred_mask)[outcomes],
    )


@dataclass(frozen=True)
class ErasureReport:
    """Single-lab run: record a z-up electron, let an outsider measure the
    pair, then open the door and read the record."""

    trials: int
    seed: int
    skip_pair_x: bool
    pair_x_counts: dict
    door_counts: dict
    down_frequency: float
    exact_down_probability: float
    pruned_weight: float


def erasure_experiment(trials: int, seed: int, skip_pair_x: bool = False) -> ErasureReport:
    """The record is RecordedUp with certainty — until the outsider measures.

    The electron starts in |+1_z>, so the lab's record after the device runs
    is deterministically RecordedUp. An outsider X-measurement of the pair
    collapses it onto (|+1Z> ± |-1Z>)/√2, either of which shows RecordedDown
    behind the door half the time: the outsider has erased the record.

    The (pair-x, door) outcome table comes from branching over both
    observables' projectors; trials are drawn from it as in ``run_model``.
    """
    model = ideal_von_neumann()
    start = StateVector(
        layout("L", "A"),
        np.kron(lab_vector(LabLabel.READY), spin_vector(SpinAxis.Z, +1)),
    )
    recorded = apply_local(model.unitary("A"), ("L", "A"), start)
    steps = [] if skip_pair_x else [(outsider_observable(model), None)]
    branches, pruned = _collapse_branches(recorded, steps + [(door_observable(), None)])

    outcomes = _draw(np.array([p for _, p in branches]), trials, seed)
    pair_x_counts = {+1: 0, -1: 0}
    door_counts = {+1: 0, -1: 0, 0: 0}
    for (signs, _), n in zip(branches, np.bincount(outcomes, minlength=len(branches))):
        if not skip_pair_x:
            pair_x_counts[signs[0]] += int(n)
        door_counts[signs[-1]] += int(n)

    return ErasureReport(
        trials=trials,
        seed=seed,
        skip_pair_x=skip_pair_x,
        pair_x_counts=pair_x_counts,
        door_counts=door_counts,
        down_frequency=door_counts[-1] / trials if trials else 0.0,
        exact_down_probability=float(sum(p for signs, p in branches if signs[-1] == -1)),
        pruned_weight=pruned,
    )


# A constraint-bearing round's possible outcome tuples have weight 1/4 within this.
QUARTER_TOL = 1e-10
# Device models per stacked sweep pass: enough to amortise the pass's fixed
# cost, few enough that a sweep's memory stays flat in its model count.
SWEEP_BLOCK = 128

CANONICAL_CONSTRAINT_KEYS = frozenset(
    {
        (("x_A", "x_B", "x_C"), -1),
        (("x_A", "z_B", "z_C"), +1),
        (("z_A", "x_B", "z_C"), +1),
        (("z_A", "z_B", "x_C"), +1),
    }
)


@dataclass(frozen=True, slots=True)
class SweepModelResult:
    index: int
    kind: str  # "ideal" | "haar"
    constraints_match: bool
    satisfying_count: int
    support_ok: bool

    @property
    def passed(self) -> bool:
        return self.constraints_match and self.satisfying_count == 0 and self.support_ok


@dataclass(frozen=True)
class SweepReport:
    n_models: int
    seed: int
    results: tuple[SweepModelResult, ...]

    @property
    def n_passed(self) -> int:
        return sum(r.passed for r in self.results)

    @property
    def all_passed(self) -> bool:
        return self.n_passed == self.n_models


def nonideal_sweep(
    n_models: int, seed: int, side: float = 10.0, tau: float = 1.0
) -> SweepReport:
    """Re-derive the contradiction under imperfect measurement devices.

    Model 0 is the ideal device; model i ≥ 1 takes its three Haar-random lab
    unitaries from one (3, 2, 6, 6) normal draw of its own ``trial_rng``
    stream, so its devices do not depend on ``n_models``. Each block of
    ``SWEEP_BLOCK`` models is one stacked QR, one stacked model (unitarity
    checked once per site) and one ``analyze_stack`` pass, so memory stays
    flat in ``n_models`` but for the results. Each model must yield the four
    constraints, no satisfying assignment, and constraint-bearing rounds of
    tuples weighing 1/4 within QUARTER_TOL.
    """
    if n_models < 1:
        raise ValueError(f"need at least one model, got {n_models}")
    schedule = build_schedule(side, tau, ideal_von_neumann())
    frames = standard_frames(schedule.geometry)
    orderings = {name: order_events(schedule, frame) for name, frame in frames.items()}
    ideal = np.stack([u.matrix for u in schedule.model.site_unitaries])[None]
    outcomes: dict[bytes, tuple[bool, int]] = {}  # per distinct row of round products
    results = []
    for start in range(0, n_models, SWEEP_BLOCK):
        indices = range(max(start, 1), min(start + SWEEP_BLOCK, n_models))
        draws = [trial_rng(seed, index).normal(size=(3, 2, 6, 6)) for index in indices]
        unitaries = haar_unitaries(np.reshape(draws, (-1, 3, 2, 6, 6)))
        if start == 0:
            unitaries = np.concatenate([ideal, unitaries])
        stacked = MeasurementModel(tuple(Operator(unitaries[:, k]) for k in range(3)))
        tables = analyze_stack(stacked, orderings)
        products = np.stack([table.products for table in tables], axis=1)
        off_quarter = [t.possible & (np.abs(t.probabilities - 0.25) > QUARTER_TOL) for t in tables]
        bad = (products != 0) & np.stack([off.any(axis=1) for off in off_quarter], axis=1)
        for index, (row, ok) in enumerate(zip(products, ~bad.any(axis=1)), start):
            if (key := row.tobytes()) not in outcomes:
                found = {(round_slots(t.events), int(p)) for t, p in zip(tables, row) if p}
                satisfying = enumerate_assignments([ParityConstraint(*c) for c in found])
                outcomes[key] = (found == CANONICAL_CONSTRAINT_KEYS, len(satisfying))
            kind = "haar" if index else "ideal"
            results.append(SweepModelResult(index, kind, *outcomes[key], bool(ok)))
    return SweepReport(n_models=n_models, seed=seed, results=tuple(results))
