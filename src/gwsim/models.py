"""Single-outcome interpretation models as exact distributions, then sampled.

The frame analysis shows no assignment of definite outcomes satisfies all
four parity constraints. These models make that concrete: each posits a
preferred frame in which outcomes actually happen. That fixes a probability
for each of the 64 complete outcome assignments, and the constraints are
tallied both exactly over that distribution and over a sample of it, kept as
one count per assignment.

* ``round_born`` — each round's joint outcome tuple follows the Born weights
  of the unitarily evolved pre-round state in the preferred frame; rounds are
  independent, so the distribution is the product of the round tables. The
  preferred frame's own constraints then hold with certainty, and the price
  is paid elsewhere: each constraint belonging to another frame is violated
  with probability 1/2.
* ``sequential_collapse`` — textbook projective collapse applied event by
  event; each outcome's weight is read off the initial state's two product
  terms by the frame pass's Gram rule, and is the same in every frame.
  Collapse after the friends' round destroys the three-way coherence, so
  even the preferred frame's outsider parity fails with probability 1/2.

A distribution is a 64-entry vector indexed in ``CANONICAL_SLOTS`` bit order
(row *i* of ``OUTCOME_SIGNS`` holds the ±1 values of index *i*). Monte Carlo
is then one inverse-CDF draw per trial: trial *i* takes the *i*-th uniform of
one counter-based Philox stream keyed by the master seed, read in blocks and
kept as counts, so reports are reproducible, memory is flat in the trial
count, and the first *k* trials of any run are the *k*-trial run.

Also here: the single-lab erasure experiment (an outsider's measurement can
flip what the lab's record says afterwards), computed and sampled the same
way, and the sweep re-deriving the contradiction under random non-ideal
measurement devices, each drawn from its own ``trial_rng`` stream, in fixed
blocks of one stacked Haar draw and one stacked pass each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurement import (
    PAIR_DIM,
    SAMPLE_FLOOR,
    SITES,
    MeasurementModel,
    haar_unitaries,
    ideal_von_neumann,
)
from .qmath import Operator, StateVector, apply_local, layout
from .scenario import (
    CANONICAL_SLOTS,
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
    _born_weights,
    _site_gram,
)
from .spacetime import Frame
from .systems import LabLabel, SpinAxis, initial_product_terms, lab_vector, spin_vector

MODES = ("round_born", "sequential_collapse")
# Uniforms per sampling block, so a run's memory stays flat in its trial count.
DRAW_BLOCK = 1 << 16
# The most trials an int64 outcome count holds.
MAX_TRIALS = 2**63 - 1


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
    """Per-entry counts of ``trials`` inverse-CDF draws; zero entries never occur.

    Trial i takes the i-th uniform of one Philox stream keyed by ``seed``,
    read DRAW_BLOCK at a time: the stream is counter-based, so blocks change
    no count.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    cdf = np.cumsum(probabilities)
    cdf /= cdf[-1]
    counts = np.zeros(len(cdf), dtype=np.int64)
    for start in range(0, trials, DRAW_BLOCK):
        uniforms = rng.random(min(DRAW_BLOCK, trials - start))
        counts += np.bincount(np.searchsorted(cdf, uniforms, side="right"), minlength=len(cdf))
    return counts


@dataclass(frozen=True)
class RunReport:
    """Exact outcome distribution, sampled outcome counts and constraint
    tallies for one model run; no field grows with the trial count."""

    constraints: tuple[ParityConstraint, ...]
    preferred_mask: tuple[bool, ...]  # True where the constraint is the preferred frame's
    probabilities: np.ndarray  # (64,) exact distribution, OUTCOME_SIGNS row order
    pruned_weight: float  # outcome weight the distribution leaves out
    violation_mask: np.ndarray  # (64, constraints) bool: outcome violates constraint
    counts: np.ndarray  # (64,) int64: trials drawing each outcome, OUTCOME_SIGNS row order

    @property
    def violation_counts(self) -> tuple[int, ...]:
        return tuple(int(n) for n in self.counts @ self.violation_mask)

    @property
    def trials_violating_nonpreferred(self) -> int:
        return int(self.counts @ _any_nonpreferred(self.violation_mask, self.preferred_mask))

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


def _signed_outcomes(weights: np.ndarray) -> tuple[np.ndarray, float]:
    """The ±1 block of an outcome table, and the weight pruned from the table.

    Each axis of ``weights`` runs over one measurement's values (+1, −1, 0),
    the 0 absent where it cannot occur. Outcomes whose joint weight (not
    their weight given the earlier outcomes) is below SAMPLE_FLOOR are
    pruned; a 0 outcome above it means a pair left the recorded subspace, so
    it raises ``ValueError``.
    """
    light = weights < SAMPLE_FLOOR
    kept = np.where(light, 0.0, weights)
    signed = (slice(0, 2),) * weights.ndim
    rest = kept.copy()
    rest[signed] = 0.0
    if rest.any():
        raise ValueError(f"a 0 outcome weighs {rest.max():.3g}; only ±1 outcomes may occur")
    return kept[signed], float(weights[light].sum())


def _outsider_projectors(model: MeasurementModel, site: str) -> list[np.ndarray]:
    """Q_+, Q_−, Q_0 of the outsider's measurement at ``site``: ½ b_± b_±† for
    b_± = |+1Z> ± |-1Z>, then the rest projector."""
    q = [0.5 * np.outer(b, b.conj()) for b in (model.recorded_sum(site, s) for s in (+1, -1))]
    return [*q, np.eye(PAIR_DIM) - q[0] - q[1]]


def _in_slot_order(weights: np.ndarray, slots) -> np.ndarray:
    """A (2,)*6 outcome tensor, axis i for ``slots[i]`` (+1 first), as the
    64-entry table in ``OUTCOME_SIGNS`` row order."""
    return weights.transpose([slots.index(slot) for slot in CANONICAL_SLOTS]).reshape(-1)


def round_born_distribution(rounds: list[RoundTable]) -> tuple[np.ndarray, float]:
    """The round_born model's 64-entry distribution, and the weight it leaves out.

    ``rounds`` is the preferred frame's tables from ``analyze_stack``, read at
    model 0. Rounds are independent, so an assignment's probability is the
    product of its rounds' Born weights. Outcome tuples below the support
    cutoff are left out, and the pruned weight is 1 − Π_r (1 − d_r) for
    round r's left-out weight d_r.
    """
    weights, slots, dropped = np.ones(()), [], []
    for r in rounds:
        kept = np.where(r.possible[0], r.weights[0], 0.0).reshape((2,) * len(r.events))
        weights = np.multiply.outer(weights, kept)
        slots += round_slots(r.events)
        dropped.append(float(r.weights[0][~r.possible[0]].sum()))
    # max() turns the −0.0 of no dropped weight into 0.0.
    pruned = max(0.0, -math.expm1(math.fsum(math.log1p(-d) for d in dropped)))
    return _in_slot_order(weights, slots), pruned


def sequential_collapse_distribution(model: MeasurementModel) -> tuple[np.ndarray, float]:
    """The sequential_collapse model's 64-entry distribution, and the pruned weight.

    Site outcome (z, x) applies K = Q_x U P_z to the site's pair: the friend's
    z projector, the device, then the outsider's projector. An outcome's
    probability is ‖Π_site K_site ψ‖² on the initial product form, one
    ``_site_gram`` per site. Operators at different sites commute and each
    site's friend event precedes its outsider event in every frame, so the
    table does not depend on the preferred frame. ``_signed_outcomes``
    prunes it.
    """
    coefficients, pair = initial_product_terms()
    terms = np.outer(coefficients, coefficients.conj()).reshape(4, 1, 1, 1, 1)
    z_projectors = [np.kron(np.eye(3), np.diag(spin_vector(SpinAxis.Z, s))) for s in (+1, -1)]
    factors = []
    for site in SITES:
        u = model.unitary(site).matrix
        operators = [q @ u @ p for p in z_projectors for q in _outsider_projectors(model, site)]
        factors.append(_site_gram(pair[:, :, None], np.stack(operators)[..., None]))
    # Axes (z_A, x_A, z_B, x_B, z_C, x_C); clamped at 0 as in the frame pass.
    weights = np.maximum(_born_weights(terms, factors), 0.0).reshape((2, 3) * 3)
    kept, pruned = _signed_outcomes(weights)
    return _in_slot_order(kept, ["z_A", "x_A", "z_B", "x_B", "z_C", "x_C"]), pruned


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
        probabilities, pruned = sequential_collapse_distribution(s.model)

    return RunReport(
        constraints=constraints,
        preferred_mask=preferred_mask,
        probabilities=probabilities,
        pruned_weight=pruned,
        violation_mask=violation_mask(constraints),
        counts=_draw(probabilities, trials, seed),
    )


@dataclass(frozen=True)
class ErasureReport:
    """Single-lab run: record a z-up electron, let an outsider measure the
    pair, then open the door and read the record."""

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

    The (pair-x, door) outcome table is the collapse rule's one-site,
    one-term case: outcome (x, d) weighs ‖D_d Q_x ψ‖² for the door projector
    D_d. Trials are counted from it as in ``run_model``.
    """
    model = ideal_von_neumann()
    start = np.kron(lab_vector(LabLabel.READY), spin_vector(SpinAxis.Z, +1))
    recorded = apply_local(model.unitary("A"), ("L", "A"), StateVector(layout("L", "A"), start))
    labels = (LabLabel.RECORDED_UP, LabLabel.RECORDED_DOWN, LabLabel.READY)
    door = [np.kron(np.diag(lab_vector(label)), np.eye(2)) for label in labels]
    pair_x = [np.eye(PAIR_DIM)] if skip_pair_x else _outsider_projectors(model, "A")
    operators = np.stack([d @ q for q in pair_x for d in door])[..., None]
    gram = _site_gram(recorded.amplitudes[None, :, None], operators)
    kept, pruned = _signed_outcomes(gram.real.reshape(len(pair_x), len(door)))

    counts = _draw(kept.ravel(), trials, seed).reshape(kept.shape)
    up, down = counts.sum(axis=0).tolist()
    pair_x_counts = dict(zip((+1, -1), [0, 0] if skip_pair_x else counts.sum(axis=1).tolist()))
    door_counts = {+1: up, -1: down, 0: 0}

    return ErasureReport(
        pair_x_counts=pair_x_counts,
        door_counts=door_counts,
        down_frequency=door_counts[-1] / trials if trials else 0.0,
        exact_down_probability=float(kept[:, 1].sum()),
        pruned_weight=pruned,
    )


# A constraint-bearing round's possible outcome tuples have weight 1/4 within this.
QUARTER_TOL = 1e-10
# Device models per stacked sweep pass: enough to amortise the pass's fixed
# cost, few enough that a sweep's memory stays flat in its model count.
SWEEP_BLOCK = 128
# The most models one sweep takes: its report lists every model.
MAX_MODELS = 10**6

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
        off_quarter = [t.possible & (np.abs(t.weights - 0.25) > QUARTER_TOL) for t in tables]
        bad = (products != 0) & np.stack([off.any(axis=1) for off in off_quarter], axis=1)
        for index, (row, ok) in enumerate(zip(products, ~bad.any(axis=1)), start):
            if (key := row.tobytes()) not in outcomes:
                found = {(round_slots(t.events), int(p)) for t, p in zip(tables, row) if p}
                satisfying = enumerate_assignments([ParityConstraint(*c) for c in found])
                outcomes[key] = (found == CANONICAL_CONSTRAINT_KEYS, len(satisfying))
            kind = "haar" if index else "ideal"
            results.append(SweepModelResult(index, kind, *outcomes[key], bool(ok)))
    return SweepReport(n_models=n_models, seed=seed, results=tuple(results))
