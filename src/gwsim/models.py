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
numpy's counter-based Philox4x64-10 stream keyed by ``SeedSequence(seed)``,
computed here in numpy integer arithmetic (so ``numpy.random`` is never
imported) and read in blocks, each counted by sorting it. Reports are
reproducible, memory is flat in the trial count, and the first *k* trials of
any run are the *k*-trial run.

Also here: the single-lab erasure experiment (an outsider's measurement can
flip what the lab's record says afterwards), computed and sampled the same
way, and the sweep re-deriving the contradiction under random non-ideal
measurement devices, in fixed blocks of one stacked Haar draw and one
stacked pass each. Model i's devices come from the normals of its own
Philox stream, keyed by ``SeedSequence(seed, spawn_key=(i,))``, drawn with
numpy's ziggurat, again in numpy arithmetic and bit for bit numpy's own.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .measurement import (
    PAIR_DIM,
    SAMPLE_FLOOR,
    SITES,
    MeasurementModel,
    _outsider_projectors,
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
# Philox4x64-10 (Salmon et al., SC'11): round multipliers and key increments.
PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_KEY_STEPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
MASK32, MASK64 = 2**32 - 1, 2**64 - 1


class InterpretationModel(namedtuple("InterpretationModel", "mode preferred")):
    """How single outcomes are supposed to come about: sampling mode plus the
    frame whose ordering is taken as the real one."""

    __slots__ = ()

    def __new__(cls, mode: str, preferred: Frame):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        return super().__new__(cls, mode, preferred)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """numpy's own stream for sweep model ``trial``, split off the master
    seed: what ``_standard_normals`` computes without ``numpy.random``."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    )


def _philox_key(seed: int, spawn: np.ndarray | None = None):
    """``SeedSequence(seed).generate_state(2, np.uint64)`` in Python ints: the
    seed's 32-bit words hashed into a pool of four, mixed, then hashed out.

    With ``spawn``, a uint64 array of indices below 2³², the key words are two
    uint64 arrays, entry j that of ``SeedSequence(seed, spawn_key=(spawn[j],))``:
    the seed's pool is the same for every index, so only the spawn word's
    mixing stage and the output hash run on the array, in 32-bit masks.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed >> shift & MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value, mult: int = 0x931E8875):
        nonlocal const
        const, value = const * mult & MASK32, value ^ const
        value = value * const & MASK32
        return value ^ value >> 16

    def mix(x, y):
        x = (0xCA01F9DD * x - 0x4973F715 * y) & MASK32
        return x ^ x >> 16

    pool = [hashmix(word) for word in (words + [0] * 3)[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # A spawn key follows the seed's words, padded to the pool's four.
    for word in words[4:] + ([] if spawn is None else [spawn]):
        pool = [mix(p, hashmix(word)) for p in pool]
    const = 0x8B51F9DD
    halves = [hashmix(p, 0x58F38DED) for p in pool]
    return halves[0] | halves[1] << 32, halves[2] | halves[3] << 32


def _mulhi(x: np.ndarray, m: int) -> np.ndarray:
    """High words of the 128-bit products x·m (x uint64), from 32-bit halves."""
    lo, hi = x & MASK32, x >> 32
    mid = lo * (m >> 32)
    lo *= m & MASK32
    lo >>= 32
    mid += lo  # < 2**64: the middle partial product plus the carry from below
    lo = (mid & MASK32) + hi * (m & MASK32)
    hi *= m >> 32
    hi += mid >> 32
    hi += lo >> 32
    return hi


def _philox_words(key, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10's output words for the counters (c, 0, 0, 0), c in
    ``counters`` (uint64), shape counters.shape + (4,). The key is two ints,
    or two (M, 1) uint64 arrays for one key per row, shape (M, len, 4).

    Rounds three to ten run in place on every counter at once. Rounds one and
    two skip what is still zero or a key word: round one's x1 = x2 = x3 = 0,
    so hi(M1·x2) = lo(M1·x2) = 0, and round two's x0 is the key word k0.
    """
    (m0, m1), (k0, k1), (s0, s1) = PHILOX_MULTIPLIERS, key, PHILOX_KEY_STEPS
    # (x0, x1, x2, x3) → (hi(M1·x2) ⊕ x1 ⊕ k0, lo(M1·x2), hi(M0·x0) ⊕ x3 ⊕ k1, lo(M0·x0))
    x0, x2, x3 = k0, _mulhi(counters, m0) ^ k1, counters * m0  # round one; x1 = 0
    k0, k1 = (k0 + s0) & MASK64, (k1 + s1) & MASK64
    y0 = _mulhi(x2, m1)  # round two
    y0 ^= k0
    x2 *= m1
    x0, x1, x2, x3 = y0, x2, x3 ^ (_mulhi(x0, m0) ^ k1), x0 * m0 & MASK64
    k0, k1 = (k0 + s0) & MASK64, (k1 + s1) & MASK64
    for _ in range(8):
        y0 = _mulhi(x2, m1)
        y0 ^= x1
        y0 ^= k0
        y2 = _mulhi(x0, m0)
        y2 ^= x3
        y2 ^= k1
        x0 *= m0
        x2 *= m1
        x0, x1, x2, x3 = y0, x2, y2, x0
        k0, k1 = (k0 + s0) & MASK64, (k1 + s1) & MASK64
    return np.stack([x0, x1, x2, x3], axis=-1)


def _philox_uniforms(key: tuple[int, int], start: int, n: int) -> np.ndarray:
    """Uniforms ``start`` … ``start + n − 1`` of numpy's Philox4x64-10 stream
    under ``key``, as ``Generator.random`` draws them: uniform i is
    (w >> 11)·2⁻⁵³ for word i mod 4 of counter ⌊i/4⌋ + 1."""
    first = start // 4
    counters = np.arange(first + 1, (start + n + 3) // 4 + 1, dtype=np.uint64)
    words = _philox_words(key, counters).reshape(-1)[start - 4 * first :][:n]
    words >>= 11
    uniforms = words.astype(np.float64)
    uniforms *= 2.0**-53
    return uniforms


def _draw(probabilities: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Per-entry counts of ``trials`` inverse-CDF draws; zero entries never occur.

    Trial i takes the i-th uniform of numpy's Philox4x64-10 stream keyed by
    ``SeedSequence(seed)``, computed in numpy integer arithmetic DRAW_BLOCK at
    a time: the stream is counter-based, so blocks change no count. A block
    is counted by sorting it: its uniforms below cdf[j] draw entries 0 … j.
    """
    key = _philox_key(seed)
    cdf = np.cumsum(probabilities)
    cdf /= cdf[-1]
    counts = np.zeros(len(cdf), dtype=np.int64)
    for start in range(0, trials, DRAW_BLOCK):
        uniforms = _philox_uniforms(key, start, min(DRAW_BLOCK, trials - start))
        uniforms.sort()
        counts += np.diff(np.searchsorted(uniforms, cdf), prepend=0)
    return counts


class RunReport(NamedTuple):
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
    standard = list(s.frames.values())
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


class ErasureReport(NamedTuple):
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


# Philox counters a sweep model's normals read at first: 240 words for its 216
# normals. About one word in 70 takes the ziggurat's slow path, which reads
# one more word as a uniform (or, in the tail, two or more).
NORMAL_COUNTERS = 60
# numpy's ziggurat for the standard normal: the base strip's edge r and 1/r.
ZIGGURAT_R = 3.6541528853610087963519472518
ZIGGURAT_INV_R = 0.27366123732975827203338247596


def _ziggurat(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``random_standard_normal`` run along each row of ``words``
    (uint64, (M, W)): per word, a value and whether the value is a draw.

    Word w picks layer i = w & 0xFF and sign bit 8; its candidate ±rabs·wi[i],
    rabs = (w >> 9) & (2⁵² − 1), is a draw at once where rabs < ki[i], for
    all words together. Each slow word that starts a draw (not read as a
    uniform before it) reads U = (next word >> 11)·2⁻⁵³ as numpy does. In the
    tail (i = 0) it draws xx = −log1p(−U)/r and yy = −log1p(−U) until
    2yy > xx², giving ±(r + xx) by bit 8 of rabs. In a wedge the candidate is
    a draw if (fi[i−1] − fi[i])·U + fi[i] < exp(−x²/2), and the next word
    starts anew either way. ``math`` is libm, as numpy's C code calls it;
    numpy's SIMD ufuncs may round differently. Words read as uniforms are no
    draws, nor is any word of a row from a draw that runs out of words.
    """
    low = (words & 0x1FF).view(np.int64)  # layer and sign
    rabs = words >> 9
    rabs &= 2**52 - 1
    values = rabs.astype(np.float64)
    values *= _WI[low]
    drawn = rabs < _KI[low]
    # Every slow word's wedge test, as if it started a draw; a row's last word has no U.
    rows, cols = np.nonzero(~drawn)
    after = cols + 1 < words.shape[1]
    uniforms = (words[rows, np.where(after, cols + 1, cols)] >> 11) * 2.0**-53
    slow, x = low[rows, cols] & 0xFF, values[rows, cols]
    wedge = (_FI[slow - 1] - _FI[slow]) * uniforms + _FI[slow]
    wedge = after & (wedge < [math.exp(v) for v in (-0.5 * x * x).tolist()])
    # Which slow words start a draw, in row order; walk the tail's.
    starts, free = np.zeros(len(rows), dtype=bool), [0] * len(words)
    for i, (row, col, layer) in enumerate(zip(rows.tolist(), cols.tolist(), slow.tolist())):
        if col < free[row]:
            continue  # read as a uniform
        starts[i], free[row] = layer, col + 2
        if layer == 0:
            line, pos = words[row].tolist(), col + 1
            try:
                while True:
                    xx = -ZIGGURAT_INV_R * math.log1p(-(line[pos] >> 11) * 2.0**-53)
                    yy = -math.log1p(-(line[pos + 1] >> 11) * 2.0**-53)
                    pos += 2
                    if yy + yy > xx * xx:
                        break
                values[row, col] = -(ZIGGURAT_R + xx) if rabs[row, col] >> 8 & 1 else ZIGGURAT_R + xx
                drawn[row, col], drawn[row, col + 1 : pos] = True, False
            except IndexError:
                pos = len(line)
                drawn[row, col:] = False
            free[row] = pos
    drawn[rows[starts], cols[starts]] = wedge[starts]
    read = starts & after
    drawn[rows[read], cols[read] + 1] = False
    values += 0.0  # as loc + scale·x, so −0.0 becomes 0.0
    return values, drawn


def _standard_normals(seed: int, indices, shape: tuple[int, ...]) -> np.ndarray:
    """``trial_rng(seed, i).normal(size=shape)`` for every i in ``indices``,
    bit for bit, stacked: numpy's 256-layer ziggurat (Marsaglia & Tsang,
    J. Stat. Softw. 5(8), 2000) on each model's spawn-keyed Philox stream.

    Every model reads its first NORMAL_COUNTERS counters at once; a model
    whose words run out before its last normal reads twice as many again.
    """
    count = math.prod(shape)
    k0, k1 = _philox_key(seed, np.asarray(indices, dtype=np.uint64))
    normals = np.zeros((len(k0), count))
    rows, counters = np.arange(len(k0)), NORMAL_COUNTERS
    while len(rows):
        key = (k0[rows, None], k1[rows, None])
        words = _philox_words(key, np.arange(1, counters + 1, dtype=np.uint64))
        values, drawn = _ziggurat(words.reshape(len(rows), 4 * counters))
        drawn &= np.cumsum(drawn, axis=1, dtype=np.int32) <= count
        done = np.count_nonzero(drawn, axis=1) == count
        normals[rows[done]] = values[done][drawn[done]].reshape(-1, count)
        rows, counters = rows[~done], 2 * counters
    return normals.reshape(len(k0), *shape)


class SweepModelResult(NamedTuple):
    index: int
    kind: str  # "ideal" | "haar"
    constraints_match: bool
    satisfying_count: int
    support_ok: bool

    @property
    def passed(self) -> bool:
        return self.constraints_match and self.satisfying_count == 0 and self.support_ok


class SweepReport(NamedTuple):
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
    unitaries from one (3, 2, 6, 6) normal draw of its own spawn-keyed Philox
    stream (``trial_rng(seed, i).normal``, bit for bit, from
    ``_standard_normals``), so its devices do not depend on ``n_models``. Each
    block of ``SWEEP_BLOCK`` models is one stacked draw, one stacked QR, one
    stacked model (unitarity checked once per site) and one ``analyze_stack``
    pass, so memory stays flat in ``n_models`` but for the results. Each
    model must yield the four constraints, no satisfying assignment, and
    constraint-bearing rounds of tuples weighing 1/4 within QUARTER_TOL.
    """
    if n_models < 1:
        raise ValueError(f"need at least one model, got {n_models}")
    schedule = build_schedule(side, tau, ideal_von_neumann())
    orderings = {name: order_events(schedule, frame) for name, frame in schedule.frames.items()}
    ideal = np.stack([u.matrix for u in schedule.model.site_unitaries])[None]
    outcomes: dict[bytes, tuple[bool, int]] = {}  # per distinct row of round products
    results = []
    for start in range(0, n_models, SWEEP_BLOCK):
        indices = range(max(start, 1), min(start + SWEEP_BLOCK, n_models))
        unitaries = haar_unitaries(_standard_normals(seed, indices, (3, 2, PAIR_DIM, PAIR_DIM)))
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


# numpy's ziggurat tables (``ziggurat_constants.h``) as little-endian bytes:
# fi and wi (float64), then ki (uint64), 256 entries each. They are not
# recomputable bit for bit in float64.
_ZIGGURAT_TABLES = bytes.fromhex(
    """
    000000000000f03f87f079c96a44ef3f15a96c5b54b7ee3f77f027e0113fee3f95de04a76fd3ed3ff2bc57069270ed3f
    dc19a1784914ed3feb2da7a833bdec3f7f78a9ce5e6aec3feabaeed91c1bec3f82dce14eebceeb3f52f58f3a6585eb3f
    10dd34823a3eeb3fa2e86c3f2af9ea3f04257af1feb5ea3fe1c950d58b74ea3f0faff5fdaa34ea3fd81f65ee3bf6e93f
    8106248d22b9e93fc17a6157467de93f477a1bc29142e93f4f7131bdf108e93fa80ae64f55d0e83f02dfba48ad98e83f
    acbc37fceb61e83f6ecf560f052ce83fcbe2204bedf6e73f58689c779ac2e73fd5b0a03c038fe73f56d870071f5ce73f
    126d3ff4e529e73fee7aeaba50f8e63f895a639e58c7e63f2a3b515ef796e63f23e3922a2767e63f180c5598e237e63f
    652680982409e63f6aff4a6fe8dae53f895cc8ac29ade53f8f8d4c26e47fe53f469e8df01353e53fd56c655ab526e53f
    67b620e8c4fae43fc04e494f3fcfe43f7852dc7221a4e43f1250df5f6879e43f7936494a114fe43fe35f358a1925e43f
    825b58997efbe33fa331af103ed2e33f0ecd62a655a9e33fd500da2bc380e33fe950f58b8458e33f353a70c99730e33f
    ef3864fdfa08e33fee3bea55ace1e23f4a95d714aabae23f15cd938ef293e23fed040529846de23f84db905a5d47e23f
    f2f72fa97c21e23f209692a9e0fbe13f699954fe87d6e13f11d13f5771b1e13f503c9b709b8ce13fda3986120568e13f
    9ca95e10ad43e13f381f3148921fe13f135932a2b3fbe03fa042411010d8e03faed9708da6b4e03f815d991d7691e03f
    363cf0cc7d6ee03f2e3fa6afbc4be03f2a828be13129e03fc4cab885dc06e03fa1bd7b8c77c9df3fca00a9a79d85df3f
    f37a2fcb2942df3f958f7e711affde3f541fbd206ebcde3fc5c34e6a237ade3f859b5fea3838de3f093a7647adf6dd3f
    b1560b327fb5dd3f33de2664ad74dd3f801002a13634dd3f6d5baeb419f4dc3f48a8c07355b4dc3fc7d700bbe874dc3f
    b82c1d6fd235dc3f176a617c11f7db3f916d71d6a4b8db3f1b1307788b7adb3fca31b362c43cdb3f5285a19e4effda3f
    9e5a5f3a29c2da3f80d8a44a5385da3f4dc020eacb48da3f3e844639920cda3fdf931e5ea5d0d93fc6c018840495d93f
    939fe0dbae59d93f17cb339ba31ed93f15f1b9fce1e3d83f8891de3f69a9d83fb65aaca8386fd83fd90daa7f4f35d83f
    11d9b811adfbd73fb014f4af50c2d73feb5292af3989d73fedb1c7696750d73f4c61a93bd917d73faa4c12868edfd63f
    21de88ad86a7d63fe2cb251ac16fd63f15e57b373d38d63fc8d28074fa00d63f44c27643f8c9d53fbeeed6193693d53f
    00013d70b35cd53fed3b53c26f26d53f926dbf8e6af0d43fa29c1057a3bad43fd46aad9f1985d43ffe24c3efcc4fd43f
    197a35d1bc1ad43fdbd28ed0e8e5d33fae43f17c50b1d33f79130868f37cd33f9ed1f925d148d33f2ff65a4de914d33f
    660721773be1d23fdd3f963ec7add23f1eb14d418c7ad23f89de171f8a47d23f9eccf779c014d23f168118f62ee2d13f
    50f0c239d5afd13fe85454edb27dd13f67ee34bbc74bd13f2324cf4f131ad13fc409875995e8d03fda42b2884db7d03f
    3643908f3b86d03fd9e942225f55d03f7e74c7f6b724d03fc593df898be8cf3f3532b88c1088cf3fd298e96cfe27cf3f
    449cc9a454c8ce3fdd3c28b21269ce3f84714516380ace3f0a90c755c4abcd3f4f51b2f8b64dcd3fcc6f5e8a0ff0cc3f
    53df7199cd92cc3f479dd8b7f035cc3fa118be7a78d9cb3faa31877a647dcb3f3ad1cc52b421cb3f071857a267c6ca3f
    7e26190b7e6bca3f3d7e2d32f710ca3f5afed2bfd2b6c93f277c6a5f105dc93f69fa74bfaf03c93f5b819291b0aac83f
    389a818a1252c83f75711f62d5f9c73f23a368d3f8a1c73fa6b57a9c7c4ac73f1647967e60f3c63f5cf2213ea49cc63f
    9cf1ada24746c63ff983f8764af0c53f6c1df388ac9ac53f3568c8a96d45c53fc11fe3ad8df0c43f2dcef56c0c9cc43f
    d57503c2e947c43fae31698b25f4c33feed7e8aabfa0c33f88abb405b84dc33f652a7c840efbc23f1a077a13c3a8c23f
    b75e83a2d556c23f343c18254605c23f427d759214b4c13f632da8e54063c13fb96ea21dcb12c13fba09523db3c2c03f
    85bfb84bf972c03f2a7d06549d23c03f2c226bcb3ea9bf3f1c0e5229ff0bbf3f4ba59af27b6fbe3f8fe87661b5d3bd3f
    e591bdb9ab38bd3f0a743b495f9ebc3f15100b68d004bc3f33e2f278ff6bbb3f33f6cae9ecd3ba3f8662ea33993cba3f
    195b9ddc04a6b93faba0a4753010b93f5228bf9d1c7bb83fd6ef3e01cae6b73f7611aa5a3953b73f4c4a69736bc0b63f
    184d8524612eb63fa46674571b9db53fae2bfa069b0cb53f13221b40e17cb43f869a2623efedb33f703ed9e4c55fb33f
    11319bcf66d2b23f910ddd44d345b23f7d8997be0cbab13f9d17f2d0142fb13f2596152ceda4b03f97e4309e971bb03f
    356e6c2b2c26af3f8151b247d516ae3f62f1adfe2e09ad3f2c2a280f3efdab3f705f389007f3aa3f635529f990eaa93f
    abb5682ae0e3a83f1e27af77fbdea73f64d098b3e9dba63fd4adf23cb2daa53f5d27110e5ddba43fcbee98cef2dda33f
    97f43de87ce2a23fbc6a1f9f05e9a13f1180962e98f1a03fc4a518d781f89f3f758c82db1a129e3f1a09cd8319309c3f
    f8eb224e9f529a3f0ac100b6d179983f82bf0bf4daa5963f64b0fbf2ead6943f135eab8d380d933f123060340349913f
    49dd724f2a158f3fac8f4f278da48b3f78a48d0d0441883fe0cf1a4296eb843f922f952992a5813f3768ecf860e17c3f
    5db80cd9a89e763ffdb1b0031f8a703f67b0c1439f5f653f0ff7b9b605a6543f79d915783b49cf3cc6f6fde30b8d8b3c
    b45b2c3caf50923c613b4438b97c953c0ca72fe8fc01983cbcd04c2e0c239a3cf761382f4d009c3c7472745a2fac9d3c
    c3d54c2d48329f3cadbb8e27324da03c435d023b05f5a03c77364197a692a13cf51a7a8fa227a23c80d863382eb5a23c
    f59157c03f3ca33c2fb1a2c19ebda33c559bff8def39a43ca7fe3d36bbb1a43c74d31a627525a53c96ce07a78095a53c
    ea7ed9cf3102a63c3d7ca361d26ba63c70050092a2d2a63ca6f846d3da36a73c772ab310ad98a73c43f546ad45f8a73c
    770a4353cc55a83c9a767b9e64b1a83c98cf4ea92e0ba93cea1e2c824763a93c46c5388ec9b9a93c2ca7a4dccc0eaa3c
    59cd776d6762aa3c3016106eadb4aa3c9c6c136db105ab3c297a42878455ab3c3a9f528e36a4ab3c3282bf2ad6f1ab3c
    f34e59f9703eac3c613b32a5138aac3c8b2672fec9d4ac3c48b7800e9f1ead3c101fe4299d67ad3cc3b82300ceafad3c
    5376f1a93af7ad3cfeedd2b5eb3dae3c006f7a33e983ae3cce82f9bd3ac9ae3c2662f084e70daf3c88f6d854f651af3c
    aed7879e6d95af3cac2efa7d53d8af3cec3442e0560db03c9a8f39f5402eb03cfca5169eea4eb03c10a0725b566fb03c
    0bf47190868fb03c1361bc847dafb03c7fcc4b663dcfb03c6b08164bc8eeb03cee159532200eb13cbe0f3107472db13c
    41918e9f3e4cb13c1e20c4bf086bb13c34da781aa789b13c886dee511ba8b13ccb2af8f866c6b13c2ed4e0938be4b13c
    9fa040998a02b23ce9c6c4726520b23c1fc3e97d1d3eb23cfb6ba90cb45bb23c7fd31d662a79b23c1bd719c78196b23c
    da2eb862bbb3b23c53b8e162d8d0b23c8ea9cbe8d9edb23cd7486e0dc10ab33c30b9f4e18e27b33ca15e26704444b33c
    d552cabae260b33c6a5805be6a7db33c64b2b26fdd99b33c033db8bf3bb6b33ce01d569886d2b33c835a72debeeeb33c
    749ee071e50ab43c5d74a62dfb26b43ca4303ce80043b43c5dc7ca73f75eb43c36c3669edf7ab43c2f8f4832ba96b43c
    5d4102f687b2b43cdc11b3ac49ceb43c05a6381600eab43c62555eefab05b53c5a8b0af24d21b53c4f666ad5e63cb53c
    c8b21b4e7758b53c785f550e0074b53c14850ec6818fb53c591b2423fdaab53c3d737dd172c6b53cd38c2f7be3e1b53c
    385e9fc84ffdb53cc31fa360b818b63ca2b0a2e81d34b63c0b26b704814fb63c7296c957e26ab63c3731b1834286b63c
    b1b25029a2a1b63cbb43b3e801bdb63c52d3286162d8b63c54f86131c4f3b63ceb688bf7270fb73cc61469518e2ab73c
    dcee70dcf745b73c1f73e5356561b73c49f4effad67cb73c93bdbac84d98b73c09148b3ccab3b73cfb22dbf34ccfb73c
    e7de738cd6eab73c1fea86a46706b83c7686c8da0022b83c159f89cea23db83cbdf5d11f4e59b83cc57e7a6f0375b83c
    2df7475fc390b83c43c005928eacb83c9c0ca1ab65c8b83c276a445149e4b83c8fb573293a00b93c478328dc381cb93c
    fc0aef124638b93c8aa203796254b93ceed570bb8e70b93c312a2e89cb8cb93cbf993f9319a9b93c2cd9d58c79c5b93c
    11746f2bece1b93c4ad2fa2672feb93c9236f9390c1bba3c5bc8a221bb37ba3c88bb0b9e7f54ba3ca4a94a725a71ba3c
    3d31a0644c8eba3c08f19f3e56abba3ccef55acd78c8ba3c36b38be1b4e5ba3c1aa1c34f0b03bb3c5b989af07c20bb3c
    000ce0a00a3ebb3c033dce41b55bbb3c27893fb97d79bb3c3cf7e5f16497bb3c6e2585db6bb5bb3ca2c02e6b93d3bb3c
    83ae819bdcf1bb3ca016ec6c4810bc3c2d7af0e5d72ebc3c1c0d6e138c4dbc3c0587ec08666cbc3c17a6ebe0668bbc3c
    aba236bd8faabc3c90d63bc7e1c9bc3c37e068305ee9bc3c6e8f8b320609bd3c20ef3710db28bd3c47c63315de48bd3c
    23f1e7961069bd3ca5fbd7f47389bd3c706e209909aabd3c0e49fcf8d2cabd3c372e5295d1ebbd3c1cd249fb060dbe3c
    f646eac4742ebe3c88d1c1991c50be3c25fe972f0072be3c0abf2a4b2194be3c086ff7c081b6be3c3aa7107623d9be3c
    a9ec016108fcbe3c2153c28a321fbf3c6d4db70fa442bf3c6801c9205f66bf3c82978904668abf3cbf227118bbaebf3c
    85e72fd260d3bf3c0bf618c159f8bf3c75a0d347d40ec03c47c98f02a821c03cab02a983a934c03cc7f53e4eda47c03c
    7eb3adf63b5bc03c6826a723d06ec03c172e638f9882c03c54a2e8089796c03cc4c07175cdaac03c48d4eed13dbfc03c
    303daa34ead3c03c936511cfd4e8c03cb69fa6effffdc03c417020046e13c13c355dbb9b2129c13c6d09c4691d3fc13c
    3b2e60486455c13cf3ee9d3bf96bc13c6112d274df82c13caceb4e561a9ac13c8e2f7f77adb1c13c94a671a99cc9c13c
    39aee4fbebe1c13c01d9e2c29ffac13c81cc049dbc13c23ceed36f7a472dc23c249caca44547c23ce05876c7bc61c23c
    2e59a8fab27cc23c780e77cd2e98c23c520a2a5337b4c23c97db9631d4d0c23cf578a9b10deec23ceeae56d2ec0bc33c
    a3a4685e7b2ac33ca312ae05c449c33c40a8337ad269c33c0a415692b38ac33cfa88ae7075acc33ca60417b327cfc33c
    75f460aadbf2c33cdae5b99ca417c43c945e5415983dc43c153aa744ce64c43cbc439c75628dc43c275a6b9d73b7c43c
    0289cd0d25e3c43c41ace9539f10c53c427e3a521140c53c1be44aa9b171c53cd98d718bc0a5c53cfed03a248adcc53c
    4c1e86cf6916c63cea6a007bce53c63cc3e59fbe4095c63c32e2098d6bdbc63c347a5ff02827c73c730609569579c73c
    8cced6f42dd4c73c34f229050339c83c147caabf0fabc83c96446f94e02ec93cab574001eecbc93c5a779478dc8fca3c
    b1fd78381f98cb3c33ad0982b43bcd3c6aef25803df30e000000000000000000a8c6fb98be080c004281bdfa54a30d00
    eaeec17ef6510e007ef7d3e955b20e00b9ca7e814bef0e00aa44fa0a47190f0018cbff61ed370f005c256195464f0f00
    96a31be4a5610f00a49653757a700f009a4428ecb27c0f00d357630cf1860f00de258357a68f0f00dad04dc724970f00
    09f5db07a99d0f0074fa81f560a30f00f84b5bde6fa80f00dc54d360f1ac0f000fb91867fbb00f00c674538d9fb40f00
    77fe6623ecb70f000ee5a1e9ecba0f00ed0b049dabbd0f00576cff6030c00f0048a2371082c20f00d15be27aa6c40f00
    31ee7a97a2c60f00a49628a97ac80f0085de4b5e32ca0f001a2302e9cccb0f00c439f8124dcd0f0099ec8f4db5ce0f00
    30c91dbf07d00f00e6c4d64d46d10f0050f4e2a872d20f001ec9f04f8ed30f0078b490999ad40f00530f92b898d50f00
    ec998ec089d60f0032e8c8a96ed70f00e8087b5448d80f008c2cad8b17d90f00d2ada707ddd90f008c5e107099da0f00
    202ec05d4ddb0f00d0fc5b5cf9db0f007d9ab9eb9ddc0f009d7218813bdd0f00902f3488d2dd0f00649f366463de0f00
    4e518d70eede0f002eb4a60174df0f0040ed9965f4df0f00f224bce46fe00f0058a225c2e6e00f004cb8283c59e10f00
    993fbc8cc7e10f00aa1cdbe931e20f00911bda8598e20f008641b58ffbe20f004a8d55335be30f002a00d099b7e30f00
    7fad9ee910e40f003477d44667e40f005c094cd3bae40f002495d2ae0be50f0078bc4ef759e50f001212e4c8a5e50f00
    8986133eefe50f007810d96f36e60f0078d5c6757be60f00aa111e66bee60f00f2f4e555ffe60f0002a700593ee70f00
    399e3e827be70f00a27070e3b6e70f004342778df0e70f008cf0539028e80f003a1735fb5ee80f00640884dc93e80f00
    bccef041c7e80f00f64e7d38f9e80f001d9b87cc29e90f00ea88d30959e90f00a29a93fb86e90f00664871acb3e90f00
    d5b69426dfe90f007ce6ab7309ea0f00a466f19c32ea0f002c9532ab5aea0f001a74d5a681ea0f00f01cde97a7ea0f00
    20d9f385ccea0f003ce66578f0ea0f0013ec2f7613eb0f004a2afe8535eb0f00b46231ae56eb0f00fa84e2f476eb0f00
    1420e65f96eb0f007c9dcff4b4eb0f00d049f4b8d2eb0f003e2e6eb1efeb0f00e8bd1ee30bec0f00155ab15227ec0f00
    d3af9d0442ec0f0096f129fd5bec0f00f4ee6c4075ec0f00b40c50d28dec0f00121f91b6a5ec0f00fe27c4f0bcec0f00
    15fb5484d3ec0f00b3c88874e9ec0f00b7917fc4feec0f002885357713ed0f000349848f27ed0f004c2f24103bed0f00
    6e58adfb4ded0f00ddc3985460ed0f00e84f411d72ed0f0082a9e45783ed0f00c82ca40694ed0f0004b7852ba4ed0f00
    b46a74c8b3ed0f00526641dfc2ed0f00526ea471d1ed0f00d38a3c81dfed0f008099900feded0f0014d40f1efaed0f00
    c44b12ae06ee0f00065ad9c012ee0f00e00690571eee0f0024654b7329ee0f00bce40a1534ee0f003c9bb83d3eee0f00
    f48229ee47ee0f0086b01d2751ee0f00417f40e959ee0f002eb4283562ee0f00f197580b6aee0f007a073e6c71ee0f00
    827b325878ee0f00ba067bcf7eee0f00b24a48d284ee0f004363b6608aee0f0051c8cc7a8fee0f00da257e2094ee0f00
    ea29a85198ee0f005c48130e9cee0f00f47372559fee0f00aecc6227a2ee0f00ac426b83a4ee0f00712dfc68a6ee0f00
    fad66ed7a7ee0f000afa04cea8ee0f003b33e84ba9ee0f0010642950a9ee0f005e07c0d9a8ee0f00547689e7a7ee0f00
    241d4878a6ee0f00839ea28aa4ee0f00dae4221da2ee0f002420352e9fee0f002eaf26bc9bee0f00e4f224c597ee0f00
    3a0a3c4793ee0f00167555408eee0f007a9c36ae88ee0f00fd3d7f8e82ee0f0088b8a7de7bee0f00ff37ff9b74ee0f00
    5ebda9c36cee0f007e009e5264ee0f008828a3455bee0f00b6574e9951ee0f00cf06004a47ee0f00502ce1533cee0f00
    d82ae0b230ee0f000582ad6224ee0f005a3cb85e17ee0f0047142aa209ee0f00cc49e327fbed0f006c2176eaebed0f00
    7e0422e4dbed0f00d339ce0ecbed0f00f42c0464b9ed0f00c938e9dca6ed0f008de9377293ed0f0036a8381c7fed0f00
    2bc0b9d269ed0f0000ae068d53ed0f0022a4de413ced0f00d82f6ae723ed0f0044e62f730aed0f0034fe07daefec0f00
    b8b70e10d4ec0f00b46e9508b7ec0f00c13012b698ec0f0078a90d0a79ec0f00fe310ff557ec0f0062c9866635ec0f00
    35b3b44c11ec0f00d06f8e94ebeb0f0092b6a029c4eb0f00dc0ceef59aeb0f004285c9e16feb0f009e1fadd342eb0f00
    4b2d0bb013eb0f00e9021a59e2ea0f00572299aeaeea0f0026e38e8d78ea0f00e573fdcf3fea0f00f6d98d4c04ea0f00
    3b562fd6c5e90f00a447a93b84e90f0028471d473fe90f00d6c576bdf6e80f00e6e8c45daae80f00eab17ae059e80f00
    40a990f604e80f00c0338248abe70f00a56a1f754ce70f0002a22a10e8e60f00d8abb6a07de60f007e30389f0ce60f00
    42f7387394e50f008072977014e50f0058f436d48be40f00371efdbff9e30f009cb1ee355de30f00fee42f12b5e20f00
    5755990300e20f00148378823ce10f00b067eec468e00f00aa712bb082df0f00aafe7ec587de0f00fd3bc60975dd0f00
    13bf29e546dc0f0082022ef8f8da0f0075bab2e185d90f0004cf48efe6d70f000b65bdad13d60f0012f0e24901d40f00
    acc7b4a7a1d10f009e1f7604e2ce0f00b2115ed8a8cb0f00222dcd6ed2c70f00ed221e2f2bc30f003ab8c08165bd0f00
    345400c406b60f0074282a5840ac0f009845011e979e0f00fc1da448fa890f002c30f0f7c5660f004a1c334b5a1a0f00
    """
)
_FI = np.frombuffer(_ZIGGURAT_TABLES, "<f8", 256)
# wi and ki indexed by a word's low nine bits, layer then sign: ±wi folds the sign in.
_WI = np.frombuffer(_ZIGGURAT_TABLES, "<f8", 256, 2048)
_WI = np.concatenate([_WI, -_WI])
_KI = np.tile(np.frombuffer(_ZIGGURAT_TABLES, "<u8", 256, 4096), 2)
