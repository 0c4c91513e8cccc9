"""Single-outcome interpretation models as exact distributions, then sampled.

The frame analysis shows no assignment of definite outcomes satisfies all
four parity constraints. These models make that concrete: each posits a
preferred frame, named by one of ``FRAME_NAMES``, in which outcomes actually
happen. ``run_model(s, model, m, trials, seed)`` runs one on the device-free
schedule ``s`` with the device ``model``. That fixes a probability for each
of the 64 complete outcome assignments, and the constraints are tallied both
exactly over that distribution and over a sample of it, kept as one count
per assignment.

* ``round_born`` — each round's joint outcome tuple follows the Born weights
  of the unitarily evolved pre-round state in the preferred frame; rounds are
  independent, so the distribution is the product of the round tables. The
  preferred frame's own constraints then hold with certainty, and the price
  is paid elsewhere: each constraint belonging to another frame is violated
  with probability 1/2.
* ``sequential_collapse`` — textbook projective collapse applied event by
  event; each outcome's weight is the friends' z table (``born_weights`` on
  the initial state's two product terms) times each site's outsider table,
  read off its device's recorded columns, the same in every frame. Collapse
  after the friends' round destroys the three-way coherence, so even the
  preferred frame's outsider parity fails with probability 1/2.

A distribution is a 64-entry tuple of Python floats indexed in
``CANONICAL_SLOTS`` bit order (row *i* of ``OUTCOME_SIGNS``), and the
violation mask and every tally are Python numbers too, exact for the ideal
device. A run keeps one count per outcome, so Monte
Carlo draws the count vector at once, as numpy's ``Generator.multinomial``
does on Philox4x64-10 keyed by ``SeedSequence(seed)``: one binomial per
nonzero entry, each reading a few uniforms whatever the trial count. It takes
Python floats and gives Python ints, stream and binomials computed bit for
bit as numpy's, so ``numpy.random`` is never imported.

Also here: the single-lab erasure experiment (an outsider's measurement can
flip what the lab's record says afterwards), read off its one recorded
column as the collapse table reads a device and sampled the same way, and
the sweep re-deriving the contradiction under random non-ideal devices: one
pass on the ideal device, and blocks of Haar-random Ready columns, checked
orthonormal (``READY_GRAM_TOL``). ``_haar_devices`` draws model i's on its own
Philox stream, by Gram–Schmidt with no LAPACK call; ``--model random:N`` takes
spawn 0 of seed N, which no sweep model draws, and ``cli._build_model``
completes it.
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
    _door_weights,
    _outsider_parts,
    haar_unitaries,
    ideal_von_neumann,
    pair_index,
)
from .qmath import StateVector, apply_local, layout
from .scenario import (
    CANONICAL_SLOTS,
    FRAME_NAMES,
    ParityConstraint,
    RoundTable,
    Schedule,
    born_weights,
    build_schedule,
    collect_constraints,
    enumerate_assignments,
    round_slots,
    violation_mask,
)
from .systems import LabLabel, initial_product_terms

MODES = ("round_born", "sequential_collapse")
# The most trials an int64 outcome count holds.
MAX_TRIALS = 2**63 - 1
# Philox4x64-10 (Salmon et al., SC'11): round multipliers and key increments.
PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_KEY_STEPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
MASK32, MASK64 = 2**32 - 1, 2**64 - 1


class InterpretationModel(namedtuple("InterpretationModel", "mode preferred")):
    """How single outcomes are supposed to come about: sampling mode plus the
    name, one of ``FRAME_NAMES``, of the frame whose ordering is taken as the
    real one."""

    __slots__ = ()

    def __new__(cls, mode: str, preferred: str):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if preferred not in FRAME_NAMES:
            raise ValueError(f"preferred frame must be one of {FRAME_NAMES}, got {preferred!r}")
        return super().__new__(cls, mode, preferred)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """numpy's own Philox stream for spawn ``trial`` of ``seed``: its
    ``random`` uniforms are those ``_haar_devices`` computes without
    ``numpy.random``."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    )


def _philox_key(seed: int, spawn: np.ndarray | None = None):
    """``SeedSequence(seed).generate_state(2, np.uint64)`` in Python ints: the
    seed's 32-bit words hashed into a pool of four, mixed, then hashed out.

    With ``spawn``, a uint64 array of indices below 2³², the key words are two
    uint64 arrays, entry j that of ``SeedSequence(seed, spawn_key=(spawn[j],))``:
    the seed's pool is the same for every index, so only the spawn word's
    mixing into the four entries and the output hash run on the array, each
    as one (4, M) pass, in 32-bit masks.

    Each hash step XORs the value with the hash constant, steps the constant
    (c ← c·mult), multiplies by it and XOR-shifts; a mix of y into x is
    x·0xCA01F9DD − y·0x4973F715, XOR-shifted; all mod 2³².
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed >> shift & MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const, pool = 0x43B0D7E5, []
    for word in (words + [0, 0, 0])[:4]:
        value = (word ^ const) * (const := const * 0x931E8875 & MASK32) & MASK32
        pool.append(value ^ value >> 16)
    # Entry j mixed into every other entry, then each later seed word (the
    # seed's words padded to four) into every entry; a spawn word comes last.
    for j, word in enumerate([None] * 4 + words[4:]):
        for dst in range(4):
            if dst != j:
                value = pool[j] if word is None else word
                value = (value ^ const) * (const := const * 0x931E8875 & MASK32) & MASK32
                mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * (value ^ value >> 16) & MASK32
                pool[dst] = mixed ^ mixed >> 16
    if spawn is None:
        const, key = 0x8B51F9DD, []
        for value in pool:
            value = (value ^ const) * (const := const * 0x58F38DED & MASK32) & MASK32
            key.append(value ^ value >> 16)
        return key[0] | key[1] << 32, key[2] | key[3] << 32
    # Row d is pool entry d, hashed with the constants it steps through.
    mix = [const] + [const := const * 0x931E8875 & MASK32 for _ in range(4)]
    out = [const := 0x8B51F9DD] + [const := const * 0x58F38DED & MASK32 for _ in range(4)]
    mix, out, pool = (np.array(v, dtype=np.uint64)[:, None] for v in (mix, out, pool))
    value = (spawn ^ mix[:4]) * mix[1:] & MASK32
    mixed = pool * 0xCA01F9DD - (value ^ value >> 16) * 0x4973F715 & MASK32
    value = (mixed ^ mixed >> 16 ^ out[:4]) * out[1:] & MASK32
    key = value ^ value >> 16
    return key[0] | key[1] << 32, key[2] | key[3] << 32


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


def _philox_round_keys(key) -> list:
    """Philox4x64-10's round keys (k0 + r·s0, k1 + r·s1) mod 2⁶⁴, r < 10, of two ints or arrays."""
    (k0, k1), (s0, s1) = key, PHILOX_KEY_STEPS
    return [(k0 + (r * s0 & MASK64) & MASK64, k1 + (r * s1 & MASK64) & MASK64) for r in range(10)]


def _philox_words(key, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10's output words for the counters (c, 0, 0, 0), c in
    ``counters`` (uint64), shape counters.shape + (4,). The key is two ints,
    or two (M, 1) uint64 arrays for one key per row, shape (M, len, 4), whose
    round keys are each key word plus (r·s mod 2⁶⁴, r < 10) in one broadcast
    add, as uint64 arithmetic wraps.

    Rounds three to ten run in place on every counter at once. Rounds one and
    two skip what is still zero or a key word: round one's x1 = x2 = x3 = 0,
    so hi(M1·x2) = lo(M1·x2) = 0, and round two's x0 is the key word k0.
    """
    if isinstance(key[0], int):
        round_keys = _philox_round_keys(key)
    else:
        steps = np.arange(10, dtype=np.uint64)[:, None, None]
        round_keys = zip(*(k + steps * s for k, s in zip(key, PHILOX_KEY_STEPS)))
    (m0, m1), ((k0, k1), (j0, j1), *later) = PHILOX_MULTIPLIERS, round_keys
    # (x0, x1, x2, x3) → (hi(M1·x2) ⊕ x1 ⊕ k0, lo(M1·x2), hi(M0·x0) ⊕ x3 ⊕ k1, lo(M0·x0))
    x0, x2, x3 = k0, _mulhi(counters, m0) ^ k1, counters * m0  # round one; x1 = 0
    y0 = _mulhi(x2, m1)  # round two
    y0 ^= j0
    x2 *= m1
    x0, x1, x2, x3 = y0, x2, x3 ^ (_mulhi(x0, m0) ^ j1), x0 * m0 & MASK64
    for k0, k1 in later:
        y0 = _mulhi(x2, m1)
        y0 ^= x1
        y0 ^= k0
        y2 = _mulhi(x0, m0)
        y2 ^= x3
        y2 ^= k1
        x0 *= m0
        x2 *= m1
        x0, x1, x2, x3 = y0, x2, y2, x0
    return np.stack([x0, x1, x2, x3], axis=-1)


def _philox_uniforms(key, counters: np.ndarray) -> np.ndarray:
    """The uniforms of numpy's Philox4x64-10 stream under ``key`` at the
    ``counters`` (uint64), shape counters.shape + (4,): as ``Generator.random``
    draws them, uniform 4(c − 1) + i is (w >> 11)·2⁻⁵³ for word i of counter c.
    With one key per row, as ``_philox_words`` takes it, each row holds its
    key's uniforms."""
    words = _philox_words(key, counters)
    words >>= 11
    uniforms = words.astype(np.float64)
    uniforms *= 2.0**-53
    return uniforms


def _philox_block(round_keys, counter: int) -> tuple[int, int, int, int]:
    """``_philox_words`` for the counter (counter, 0, 0, 0) under ``round_keys``, in Python ints."""
    m0, m1 = PHILOX_MULTIPLIERS
    x0, x1, x2, x3 = counter, 0, 0, 0
    for k0, k1 in round_keys:
        p0, p2 = x0 * m0, x2 * m1
        x0, x1, x2, x3 = (p2 >> 64) ^ x1 ^ k0, p2 & MASK64, (p0 >> 64) ^ x3 ^ k1, p0 & MASK64
    return x0, x1, x2, x3


def _uniform_stream(key):
    """numpy's ``Generator.random`` draws under ``key``, one at a time."""
    round_keys = _philox_round_keys(key)
    for counter in itertools.count(1):
        for word in _philox_block(round_keys, counter):
            yield (word >> 11) * 2.0**-53


def _binomial_inversion(uniform, n: int, p: float) -> int:
    """numpy's Bin(n, p) draw for p ≤ 1/2 and n·p ≤ 30: walk the pmf up from
    0, starting over past its mean plus ten deviations."""
    q, mean = 1.0 - p, n * p
    qn, bound = math.exp(n * math.log1p(-p)), min(n, int(mean + 10.0 * math.sqrt(mean * q + 1)))
    x, px, u = 0, qn, uniform()
    while u > px:
        x += 1
        if x > bound:
            x, px, u = 0, qn, uniform()
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def _binomial_btpe(uniform, n: int, p: float) -> int:
    """numpy's Bin(n, p) draw for p ≤ 1/2 and n·p > 30: BTPE (Kachitvichyanukul &
    Schmeiser, CACM 31, 216 (1988)), step for step. Every float operation is
    numpy's, in its order, and so are the two places its int64 arithmetic wraps."""
    q, fm, nrq = 1.0 - p, n * p + p, n * p * (1.0 - p)
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(nrq) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr, c = xm - p1, xm + p1, 0.134 + 20.5 / (15.3 + m)
    al, ar = (fm - xl) / (fm - xl * p), (xr - fm) / (xr * q)
    laml, lamr = al * (1.0 + al / 2.0), ar * (1.0 + ar / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3, p4 = p2 + c / laml, p2 + c / laml + c / lamr
    while True:
        u, v = uniform() * p4, uniform()
        if u <= p1:  # the triangle: accepted outright
            return math.floor(xm - p1 * v + u)
        if u <= p2:  # the parallelograms
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = math.floor(x)
        elif u <= p3:  # the left tail
            if v == 0.0 or (y := math.floor(xl + math.log(v) / laml)) < 0:
                continue
            v = v * (u - p2) * laml
        else:  # the right tail
            if v == 0.0 or (y := math.floor(xr - math.log(v) / lamr)) > n:
                continue
            v = v * (u - p3) * lamr
        k = abs(y - m)
        if k <= 20 or k >= nrq / 2.0 - 1:  # f(y)/f(m) by its recursion
            s = p / q
            a, f = s * (n + 1 if n < MAX_TRIALS else -(2**63)), 1.0  # int64 n + 1
            for i in range(m + 1, y + 1):
                f *= a / i - s
            for i in range(y + 1, m + 1):
                f /= a / i - s
            if v <= f:
                return y
            continue
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.1666666666666) / nrq + 0.5)
        t = ((2**63 - k * k) % 2**64 - 2**63) / (2 * nrq)  # int64 −k·k
        log_v = math.log(v) if v > 0.0 else -math.inf
        if log_v < t - rho:
            return y
        if log_v > t + rho:
            continue
        x1, f1, z, w = float(y + 1), float(m + 1), float(n) + 1 - m, float(n) - y + 1
        bound = xm * math.log(f1 / x1) + (n - m + 0.5) * math.log(z / w)
        bound += (y - m) * math.log(w * p / (x1 * q))
        for g in (f1, x1, z, w):
            g2 = g * g
            bound += (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / g2) / g2) / g2) / g2) / g / 166320.0
        if log_v <= bound:
            return y


def _binomial(uniform, n: int, p: float) -> int:
    """numpy's ``random_binomial``: Bin(n, min(p, 1 − p)), reflected."""
    if n == 0 or p == 0.0:
        return 0
    r = min(p, 1.0 - p)
    y = (_binomial_inversion if r * n <= 30.0 else _binomial_btpe)(uniform, n, r)
    return y if p <= 0.5 else n - y


def _draw(probabilities, trials: int, seed: int) -> list[int]:
    """Per-entry counts (a list of ints) of ``trials`` draws from the table (floats),
    bit for bit numpy's ``Generator(Philox(SeedSequence(seed))).multinomial(trials, p)``
    on its nonzero entries p, in table order, so zero entries never occur. Entry j
    takes Bin(trials left, p_j / p left) and the last what is left; a binomial
    reads a few uniforms whatever its n, so every trial count costs the same."""
    uniform = _uniform_stream(_philox_key(seed)).__next__
    counts, left, remaining = [0] * len(probabilities), trials, 1.0
    *entries, (last, _) = [(j, p) for j, p in enumerate(probabilities) if p]
    for j, p in entries:
        # p_j / p_left passes 1 only by rounding, and numpy then draws all n.
        counts[j] = drawn = _binomial(uniform, left, min(p / remaining, 1.0))
        left, remaining = left - drawn, remaining - p
        if left <= 0:
            return counts
    counts[last] = left
    return counts


class RunReport(NamedTuple):
    """Exact outcome distribution, sampled outcome counts and constraint
    tallies for one model run, all tuples of Python numbers; no field grows
    with the trial count."""

    constraints: tuple[ParityConstraint, ...]
    preferred_mask: tuple[bool, ...]  # True where the constraint is the preferred frame's
    probabilities: tuple[float, ...]  # exact distribution, OUTCOME_SIGNS row order
    pruned_weight: float  # outcome weight the distribution leaves out
    violation_mask: tuple[tuple[bool, ...], ...]  # per outcome, per constraint: violated
    counts: tuple[int, ...]  # trials drawing each outcome, OUTCOME_SIGNS row order
    violation_counts: tuple[int, ...]  # per constraint: trials violating it
    trials_violating_nonpreferred: int  # trials violating ≥1 non-preferred constraint
    exact_rates: tuple[float, ...]  # per constraint: probability of violating it
    exact_nonpreferred_probability: float  # of violating ≥1 non-preferred constraint


def born_violation_check(signs, constraints) -> tuple[bool, ...]:
    """Per-constraint flag: True where the sign row (±1 per slot, in
    ``CANONICAL_SLOTS`` order) violates it."""
    return tuple(
        math.prod(int(signs[CANONICAL_SLOTS.index(slot)]) for slot in c.slots)
        != c.required_product
        for c in constraints
    )


def _signed_outcomes(weights: list[float], shape) -> tuple[list[float], list[float]]:
    """The ±1 block of an outcome table, and the weights pruned from it.

    ``weights`` is the table flat, row-major over ``shape``, in Python floats;
    each axis runs over one measurement's values (+1, −1, 0), the 0 absent
    where it cannot occur. Outcomes whose joint weight (not their weight given
    the earlier outcomes) is below SAMPLE_FLOOR read 0 in the block (flat,
    row-major) and their weights come back, in table order, for the caller to
    sum; a 0 outcome above it means a pair left the recorded subspace, so it
    raises ``ValueError``.
    """
    block = [0]  # the block's flat indices into the table
    for n in shape:
        block = [i * n + s for i in block for s in (0, 1)]
    light = [w for w in weights if w < SAMPLE_FLOOR]
    kept = [0.0 if w < SAMPLE_FLOOR else w for w in map(weights.__getitem__, block)]
    if len(weights) - len(light) > len(kept) - kept.count(0.0):  # a 0 outcome is heavy
        rest = max(weights[i] for i in set(range(len(weights))).difference(block))
        raise ValueError(f"a 0 outcome weighs {rest:.3g}; only ±1 outcomes may occur")
    return kept, light


def _slot_order(slots) -> list[int]:
    """Per ``OUTCOME_SIGNS`` row, its flat index in a row-major (2,)*6 outcome
    table whose axis a is ``slots[a]`` (+1 first): the rows' bits, slot by
    slot in ``CANONICAL_SLOTS`` order, each moved to its axis's place."""
    order = [0]
    for slot in CANONICAL_SLOTS:
        step = 1 << 5 - slots.index(slot)
        order = [i + bit for i in order for bit in (0, step)]
    return order


def round_born_distribution(rounds: list[RoundTable]) -> tuple[tuple[float, ...], float]:
    """The round_born model's 64-entry distribution, and the weight it leaves out.

    ``rounds`` is the preferred frame's tables from ``analyze_stack``.
    Rounds are independent, so an assignment's probability is the
    product of its rounds' Born weights. Outcome tuples below the support
    cutoff are left out, and the pruned weight is 1 − Π_r (1 − d_r) for
    round r's left-out weight d_r.
    """
    weights, slots, dropped = [1.0], [], []
    for r in rounds:
        possible = r.possible
        kept = [w if p else 0.0 for w, p in zip(r.weights, possible)]
        weights = [x * w for x in weights for w in kept]  # row-major, this round's slots last
        slots += round_slots(r.events)
        dropped.append(sum(w for w, p in zip(r.weights, possible) if not p))
    # max() turns the −0.0 of no dropped weight into 0.0.
    pruned = max(0.0, -math.expm1(math.fsum(math.log1p(-d) for d in dropped)))
    return tuple(weights[i] for i in _slot_order(slots)), pruned


def sequential_collapse_distribution(model: MeasurementModel) -> tuple[tuple[float, ...], float]:
    """The sequential_collapse model's 64-entry distribution, and the pruned weight.

    Site outcome (z, x) applies K = Q_x U P_z to the site's pair: the friend's
    z projector, the device, then the outsider's projector. Each pair of the
    initial product form Σ_k c_k v_k^⊗3 starts ready, so K v_k is
    v_k[ready, z]·Q_x R_z for the recorded state R_z (v_k[ready, z] is entry z
    of v_k), and an outcome weighs the friends' table, ``born_weights`` of the
    z factor v_k[ready, z]·v̄_j[ready, z] at every site, times Π_site ‖Q_x R_z‖²,
    each site's table read off its device's recorded columns (``_outsider_parts``)
    once per distinct ``Operator``. Operators at different sites commute and each
    site's friend event precedes its outsider event in every frame, so the
    table does not depend on the preferred frame. ``_signed_outcomes`` prunes it.
    """
    coefficients, pair = initial_product_terms()
    friend = tuple(tuple(vk[z] * vj[z].conjugate() for vk in pair for vj in pair) for z in range(2))
    friends = born_weights(coefficients, [friend] * 3)  # indexed 4·z_A + 2·z_B + z_C
    sites = {}  # id(device) -> its (z, ‖Q_x R_z‖²) pairs, z-major, x in (+1, −1, 0) order
    for site, device in zip(SITES, model.site_unitaries):
        if id(device) not in sites:
            sites[id(device)] = [
                (z, sum(_door_weights(q)))
                for z, sign in enumerate((+1, -1))
                for q in _outsider_parts(model, site, model.recorded_state(site, sign).tolist())
            ]
    # Row-major over (z_A, x_A, z_B, x_B, z_C, x_C).
    tables = itertools.product(*(sites[id(device)] for device in model.site_unitaries))
    weights = [friends[4 * za + 2 * zb + zc] * a * b * c for (za, a), (zb, b), (zc, c) in tables]
    kept, light = _signed_outcomes(weights, (2, 3) * 3)
    order = _slot_order(["z_A", "x_A", "z_B", "x_B", "z_C", "x_C"])
    return tuple(kept[i] for i in order), sum(light, 0.0)


def run_model(
    s: Schedule, model: MeasurementModel, m: InterpretationModel, trials: int, seed: int
) -> RunReport:
    """Draw ``trials`` complete outcome assignments of device ``model`` and
    tally violations, each tally computed once.

    One ``collect_constraints`` pass gives the schedule's constraints and,
    by ``m.preferred``'s name, the preferred frame's tables. The preferred
    mask marks the constraints that frame's own rounds yield. Tallies are
    Python sums in ``OUTCOME_SIGNS`` row order: the counts' exactly, the
    probabilities' exactly for the ideal device's dyadic table.
    """
    if trials < 0:
        raise ValueError(f"trials must be ≥ 0, got {trials}")
    tables, found = collect_constraints(s, model)
    constraints = tuple(found)
    preferred_tables = [t for t in tables if t.frame == m.preferred]
    preferred = {t.constraint() for t in preferred_tables}
    preferred_mask = tuple(c in preferred for c in constraints)

    if m.mode == "round_born":
        probabilities, pruned = round_born_distribution(preferred_tables)
    else:
        probabilities, pruned = sequential_collapse_distribution(model)

    mask = violation_mask(constraints)
    columns = list(zip(*mask))  # per constraint: each outcome's flag
    nonpreferred = list(map(any, zip(*(c for c, p in zip(columns, preferred_mask) if not p))))
    counts = tuple(_draw(probabilities, trials, seed))
    return RunReport(
        constraints=constraints,
        preferred_mask=preferred_mask,
        probabilities=probabilities,
        pruned_weight=pruned,
        violation_mask=mask,
        counts=counts,
        violation_counts=tuple(sum(itertools.compress(counts, c)) for c in columns),
        trials_violating_nonpreferred=sum(itertools.compress(counts, nonpreferred)),
        exact_rates=tuple(sum(itertools.compress(probabilities, c), 0.0) for c in columns),
        exact_nonpreferred_probability=sum(itertools.compress(probabilities, nonpreferred), 0.0),
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

    The (pair-x, door) table is read off the recorded column r = U|ready, +1_z>:
    outcome (x, d) weighs ‖D_d Q_x r‖², the door's weights (``_door_weights``)
    of the outsider's part Q_x r (``_outsider_parts``; ``skip_pair_x``: Q_x r
    is r), in Python numbers after the one device run. Trials are counted as
    in ``run_model``.
    """
    model = ideal_von_neumann()
    start = np.eye(PAIR_DIM, dtype=complex)[pair_index(LabLabel.READY, +1)]
    state = apply_local(model.unitary("A"), ("L", "A"), StateVector(layout("L", "A"), start))
    r = state.amplitudes.tolist()
    parts = [r] if skip_pair_x else _outsider_parts(model, "A", r)
    table = [w for part in parts for w in _door_weights(part)]
    kept, light = _signed_outcomes(table, (3,) if skip_pair_x else (3, 3))

    counts = _draw(kept, trials, seed)  # (pair-x, door) order: up, down for each pair-x
    pair_x_counts = {+1: 0, -1: 0} if skip_pair_x else {+1: sum(counts[:2]), -1: sum(counts[2:])}
    door_counts = {+1: sum(counts[0::2]), -1: sum(counts[1::2]), 0: 0}

    return ErasureReport(
        pair_x_counts=pair_x_counts,
        door_counts=door_counts,
        down_frequency=door_counts[-1] / trials if trials else 0.0,
        exact_down_probability=sum(kept[1::2]),
        pruned_weight=sum(light, 0.0),
    )


# A constraint-bearing round's possible outcome tuples have weight 1/4 within this.
QUARTER_TOL = 1e-10
# A sweep device's largest |R†R − I| over its Ready columns R (``nonideal_sweep``).
READY_GRAM_TOL = 1e-12
# Haar models per stacked draw: enough to amortise the draw's fixed cost,
# few enough that a sweep's memory stays flat in its model count.
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


def quarter_support(tables) -> bool:
    """Whether every round that yields a constraint gives each of its
    possible tuples weight 1/4 within QUARTER_TOL."""
    return not any(
        abs(w - 0.25) > QUARTER_TOL
        for t in tables
        if t.product
        for w, p in zip(t.weights, t.possible)
        if p
    )


def _haar_devices(seed: int, indices) -> np.ndarray:
    """The Ready columns of the three Haar-random device unitaries of each
    model i in ``indices``, shape (M, 3, 6, 2), from its own Philox stream,
    keyed by ``SeedSequence(seed, spawn_key=(i,))``.

    The full draw is 216 normals, per site real then imaginary parts, as
    Box–Muller pairs (Box & Muller, Ann. Math. Stat. 29, 610, 1958) of the
    stream's uniforms u: normals 2j and 2j + 1 are r·cos θ and r·sin θ, with
    r = √(−2·log1p(−u₂ⱼ)) and θ = 2π·u₂ⱼ₊₁, in 54 counters. Only the Ready
    columns 0–1 are read (``MeasurementModel.recorded_state``), so only their
    72 normals are drawn, from 36 counters: rows 2r and 2r + 1 of the 6×6
    draw d are words 0–1 of counter 3t + 1 and 2–3 of 3t + 2, t = 3d + r.
    ``haar_unitaries`` gives the full draw's Ready columns, bit for bit.
    """
    k0, k1 = _philox_key(seed, np.asarray(indices, dtype=np.uint64))
    counters = np.arange(1, 55, dtype=np.uint64).reshape(18, 3)[:, :2]
    uniforms = _philox_uniforms((k0[:, None], k1[:, None]), counters.ravel())
    uniforms = uniforms.reshape(len(k0), 18, 2, 2, 2).diagonal(axis1=2, axis2=3)
    radii = np.sqrt(-2.0 * np.log1p(-uniforms[:, :, 0]))
    angles = 2.0 * math.pi * uniforms[:, :, 1]
    normals = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=-1)
    return haar_unitaries(normals.reshape(len(k0), 3, 2, PAIR_DIM, 2))


class SweepReport(NamedTuple):
    """The ideal-device pass's verdict, which every model shares, and one
    flag per model: model i passes iff the constraints match, none is
    satisfied and ``support_ok[i]``."""

    constraints_match: bool  # the four canonical constraints, no others
    satisfying_count: int  # assignments satisfying them all
    support_ok: list[bool]  # per model: 1/4 support and its Gram check


def nonideal_sweep(
    n_models: int, seed: int, side: float = 10.0, tau: float = 1.0
) -> SweepReport:
    """Re-derive the contradiction under imperfect measurement devices.

    Model 0 is the ideal device; model i ≥ 1 takes its three Haar-random lab
    unitaries from ``_haar_devices`` (its own spawn-keyed Philox stream, so
    its devices do not depend on ``n_models``), drawn ``SWEEP_BLOCK`` models
    at a time, so memory stays flat but for one bool per model. Each model
    must yield the four constraints, no satisfying assignment, and
    ``quarter_support``. One ``collect_constraints`` pass, on the ideal
    device, decides that for every model, and model i's flag holds iff that
    pass's support does and each site's Ready columns R = U[:, :2] have
    max |R†R − I| ≤ ``READY_GRAM_TOL``.

    That suffices, as the pass reads a device only through G = R†R. In the
    recorded states, a weight is ⟨Ψ|A_A ⊗ A_B ⊗ A_C|Ψ⟩ for the ideal device's
    unit pre-round state Ψ, with A = G P G where a recorded site's outsider
    measures (P = ½ e e†, e = (1, ±1)), G at a recorded spectator, and the
    device-free projector or 1 elsewhere. With δ = max |G − I|, the 2×2 norms
    are ‖G − I‖ ≤ 2δ and ‖G P G − P‖ ≤ ε = 4δ + 4δ², so putting the ideal
    operators in one site at a time moves a weight by at most
    (1 + ε)³ − 1 = 12δ + O(δ²): 1.2e-11 at ``READY_GRAM_TOL``, inside
    ``QUARTER_TOL`` and ``SUPPORT_EPS``. Haar draws round to δ under 2e-15.
    """
    if n_models < 1:
        raise ValueError(f"need at least one model, got {n_models}")
    tables, found = collect_constraints(build_schedule(side, tau), ideal_von_neumann())
    verdict = set(found) == CANONICAL_CONSTRAINT_KEYS, len(enumerate_assignments(found))
    flags = [support_ok := quarter_support(tables)]
    for start in range(1, n_models, SWEEP_BLOCK):
        ready = _haar_devices(seed, range(start, min(start + SWEEP_BLOCK, n_models)))
        errors = np.abs(ready.conj().swapaxes(-1, -2) @ ready - np.eye(2)).max(axis=(1, 2, 3))
        flags += ((errors <= READY_GRAM_TOL) & support_ok).tolist()
    return SweepReport(*verdict, flags)
