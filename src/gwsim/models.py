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
measurement devices, each drawn from its own ``trial_rng`` stream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .measurement import (
    SAMPLE_FLOOR,
    haar_random_unitary,
    ideal_von_neumann,
    door_observable,
    outsider_observable,
    per_site_model,
    spin_observable,
)
from .qmath import StateVector, apply_local, layout
from .scenario import (
    CANONICAL_SLOTS,
    OutcomeAssignment,
    ParityConstraint,
    Schedule,
    build_schedule,
    collect_constraints,
    enumerate_assignments,
    evolve_to,
    order_events,
    round_slots,
    standard_frames,
    support_constraint,
)
from .spacetime import Frame
from .systems import LabLabel, SpinAxis, lab_vector, spin_vector

MODES = ("round_born", "sequential_collapse")

# Index i gives slot j the value −1 iff bit (5 − j) of i is set: the first
# slot is the most significant bit, matching enumerate_assignments' order.
_N_SLOTS = len(CANONICAL_SLOTS)
OUTCOME_SIGNS = (
    1 - 2 * ((np.arange(2**_N_SLOTS)[:, None] >> np.arange(_N_SLOTS - 1, -1, -1)) & 1)
).astype(np.int8)


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

    def violation_rate(self, index: int) -> float:
        return self.violation_counts[index] / self.trials if self.trials else 0.0

    @property
    def exact_rates(self) -> tuple[float, ...]:
        """Per constraint: the probability that an assignment violates it."""
        return tuple(float(p) for p in self.probabilities @ self.violation_mask)

    @property
    def exact_nonpreferred_probability(self) -> float:
        """Probability that an assignment violates ≥1 non-preferred constraint."""
        nonpreferred = _any_nonpreferred(self.violation_mask, self.preferred_mask)
        return float(self.probabilities @ nonpreferred)


def born_violation_check(assignment: OutcomeAssignment, constraints) -> tuple[bool, ...]:
    """Per-constraint flag: True where the assignment violates it."""
    return tuple(not c.satisfied_by(assignment) for c in constraints)


def _violation_mask(constraints) -> np.ndarray:
    """(64, constraints) bool: where each outcome index violates each constraint."""
    mask = np.empty((len(OUTCOME_SIGNS), len(constraints)), dtype=bool)
    for i, c in enumerate(constraints):
        columns = [CANONICAL_SLOTS.index(slot) for slot in c.slots]
        mask[:, i] = OUTCOME_SIGNS[:, columns].prod(axis=1) != c.required_product
    return mask


def _any_nonpreferred(mask: np.ndarray, preferred_mask) -> np.ndarray:
    return mask[:, ~np.array(preferred_mask, dtype=bool)].any(axis=1)


def _outcome_index(slots, signs) -> int:
    """Table index of the outcome giving ``signs`` to ``slots``, +1 elsewhere."""
    return sum(
        1 << (_N_SLOTS - 1 - CANONICAL_SLOTS.index(slot))
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


def round_born_distribution(s: Schedule, preferred: Frame) -> tuple[np.ndarray, float]:
    """The round_born model's 64-entry distribution, and the weight it leaves out.

    Rounds are independent, so an assignment's probability is the product of
    its rounds' Born weights in the preferred frame. Outcome tuples below the
    support cutoff are missing from the round tables; their weight is the
    pruned weight.
    """
    rounds = []
    for k, rnd in enumerate(order_events(s, preferred), start=1):
        entries, _ = support_constraint(evolve_to(s, preferred, k), rnd, s.model)
        slots = round_slots(rnd)
        rounds.append([(_outcome_index(slots, e.labels), e.probability) for e in entries])
    probabilities = np.zeros(len(OUTCOME_SIGNS))
    for combo in itertools.product(*rounds):
        probabilities[sum(i for i, _ in combo)] = math.prod(p for _, p in combo)
    kept = math.prod(sum(p for _, p in entries) for entries in rounds)
    return probabilities, max(0.0, 1.0 - kept)


def sequential_collapse_distribution(
    s: Schedule, preferred: Frame
) -> tuple[np.ndarray, float]:
    """The sequential_collapse model's 64-entry distribution, and the pruned weight.

    Branches once over every event's projectors in the preferred frame's
    order; a friend's device unitary runs after its z projector.
    """
    slots, steps = [], []
    for rnd in order_events(s, preferred):
        for ev in rnd:
            slots.append(ev.slot)
            if ev.kind == "friend_z":
                steps.append(
                    (
                        spin_observable(SpinAxis.Z, ev.targets[1]),
                        (s.model.unitary(ev.site), ev.targets),
                    )
                )
            else:
                steps.append((outsider_observable(s.model, ev.site), None))
    branches, pruned = _collapse_branches(evolve_to(s, preferred, 1), steps)
    probabilities = np.zeros(len(OUTCOME_SIGNS))
    for signs, p in branches:
        probabilities[_outcome_index(slots, signs)] = p
    return probabilities, pruned


def run_model(s: Schedule, m: InterpretationModel, trials: int, seed: int) -> RunReport:
    """Draw ``trials`` complete outcome assignments and tally violations.

    Constraints are those visible from all four standard frames; the
    preferred mask marks the ones derivable in ``m.preferred`` alone.
    """
    if trials < 0:
        raise ValueError(f"trials must be ≥ 0, got {trials}")
    frames = standard_frames(s.geometry)
    constraints = tuple(collect_constraints(s, frames))
    preferred_keys = {
        (c.slots, c.required_product) for c in collect_constraints(s, [m.preferred])
    }
    preferred_mask = tuple(
        (c.slots, c.required_product) in preferred_keys for c in constraints
    )

    if m.mode == "round_born":
        probabilities, pruned = round_born_distribution(s, m.preferred)
    else:
        probabilities, pruned = sequential_collapse_distribution(s, m.preferred)

    mask = _violation_mask(constraints)
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
    branches, pruned = _collapse_branches(recorded, steps + [(door_observable(model), None)])

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


CANONICAL_CONSTRAINT_KEYS = frozenset(
    {
        (("x_A", "x_B", "x_C"), -1),
        (("x_A", "z_B", "z_C"), +1),
        (("z_A", "x_B", "z_C"), +1),
        (("z_A", "z_B", "x_C"), +1),
    }
)


@dataclass(frozen=True)
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

    Model 0 is the ideal baseline; each further model draws an independent
    Haar-random 6-dim unitary per lab. For every model the four collected
    constraints, the empty satisfying set, and the 1/4 support magnitudes of
    each constraint-bearing round must all come out unchanged.
    """
    if n_models < 1:
        raise ValueError(f"need at least one model, got {n_models}")
    results = []
    for index in range(n_models):
        if index == 0:
            model, kind = ideal_von_neumann(), "ideal"
        else:
            rng = trial_rng(seed, index)
            model = per_site_model(*(haar_random_unitary(6, rng) for _ in range(3)))
            kind = "haar"
        schedule = build_schedule(side, tau, model)
        frames = standard_frames(schedule.geometry)

        support_ok = True
        keys = set()
        for frame in frames.values():
            rounds = order_events(schedule, frame)
            for k, rnd in enumerate(rounds, start=1):
                state = evolve_to(schedule, frame, k)
                entries, constraint = support_constraint(state, rnd, schedule.model)
                if constraint is None:
                    continue
                keys.add((constraint.slots, constraint.required_product))
                if any(abs(e.probability - 0.25) > 1e-9 for e in entries):
                    support_ok = False

        constraints_match = keys == set(CANONICAL_CONSTRAINT_KEYS)
        constraints = [ParityConstraint(slots, par) for slots, par in sorted(keys)]
        satisfying = len(enumerate_assignments(constraints)) if constraints else 64
        results.append(
            SweepModelResult(index, kind, constraints_match, satisfying, support_ok)
        )
    return SweepReport(n_models=n_models, seed=seed, results=tuple(results))
