"""The six-event schedule and its frame-by-frame analysis.

Three sealed labs (A, B, C) each measure their electron's z-spin at time t1;
an outsider then measures each whole lab+electron pair in the recorded-X
basis at t2. Cross-lab events are spacelike separated, so inertial frames
disagree on their order. For a given frame, events group into *rounds* of
simultaneous measurements, which depend on the geometry alone. One pass
(``analyze_stack``) walks every round of every frame once, for one device
model or a whole stack of them, evolving each pre-round state from the
previous one, and expands it in that round's outcome basis. Its
``RoundTable``s, the one form an analysed round takes, tell us which outcome
tuples are possible at all (have nonzero Born weight).

Whenever every possible tuple of a round shares a single product parity, the
round yields a ParityConstraint. Collecting these over the rest frame and the
three tilted frames yields four constraints over the six outcome slots that
no assignment of ±1 values satisfies — the frame-by-frame form of the GHZ
contradiction, obtained here by brute force over ``OUTCOME_SIGNS``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .measurement import MeasurementModel
from .qmath import CANONICAL_LAYOUT, BasisGroup, StateVector, apply_local
from .spacetime import (
    Frame,
    GeometrySpec,
    REST_FRAME,
    SpacetimePoint,
    boost_for_simultaneity,
    frame_time,
    point,
    standard_geometry,
    tilted_frame_events,
    validate_geometry,
)
from .systems import (
    SITE_FACTORS,
    SUPPORT_EPS,
    SpinAxis,
    SupportEntry,
    abs_squared,
    initial_scenario_state,
    spin_basis,
    stacked_support,
    support_table,
)

import numpy as np

# Frame times closer than this, scaled by the frame's largest |t|, fall in the same round.
ROUND_TOL = 1e-9

# One outcome slot per event: the friend's z-record and the outsider's
# X-outcome at each site.
CANONICAL_SLOTS = ("z_A", "z_B", "z_C", "x_A", "x_B", "x_C")

# Row i gives slot j the value −1 iff bit (5 − j) of i is set: the first slot
# is the most significant bit, so the 64 rows run in the order of
# itertools.product((+1, -1), repeat=6).
OUTCOME_SIGNS = (1 - 2 * ((np.arange(64)[:, None] >> np.arange(5, -1, -1)) & 1)).astype(np.int8)

FRAME_NAMES = ("sigma", "sigma_p", "sigma_pp", "sigma_ppp")


@dataclass(frozen=True)
class MeasurementEvent:
    """One measurement: a friend's z-spin recording or an outsider's
    whole-pair X measurement."""

    id: str
    site: str
    kind: str  # "friend_z" | "outsider_x"
    location: SpacetimePoint

    @property
    def targets(self) -> tuple[str, str]:
        """Factors the event acts on (the lab register and its electron)."""
        return SITE_FACTORS[self.site]

    @property
    def slot(self) -> str:
        prefix = "z" if self.kind == "friend_z" else "x"
        return f"{prefix}_{self.site}"


@dataclass(frozen=True)
class Schedule:
    geometry: GeometrySpec
    events: tuple[MeasurementEvent, ...]
    model: MeasurementModel


def build_schedule(side: float, tau: float, model: MeasurementModel) -> Schedule:
    """Standard arrangement: friends stamped at t1, outsiders at t2.

    The events really occupy the intervals (t0,t1) and (t1,t2); only their
    completion order matters for pre-measurement states, so completion times
    serve as the event times.
    """
    geometry = standard_geometry(side, tau)
    failed = [r.name for r in validate_geometry(geometry) if not r.passed]
    if failed:
        raise ValueError(f"geometry checks failed: {', '.join(failed)}")
    events = []
    for site in "ABC":
        pos = tuple(geometry.position(site))
        events.append(
            MeasurementEvent(f"friend_{site}", site, "friend_z", point(geometry.t1, pos))
        )
        events.append(
            MeasurementEvent(f"outsider_{site}", site, "outsider_x", point(geometry.t2, pos))
        )
    return Schedule(geometry, tuple(events), model)


def standard_frames(geometry: GeometrySpec) -> dict[str, Frame]:
    """The rest frame plus the three frames tilting one lab's inside
    measurement into simultaneity with the start of the other two."""
    tilted = [boost_for_simultaneity(*events) for events in tilted_frame_events(geometry)]
    return dict(zip(FRAME_NAMES, [REST_FRAME, *tilted]))


def order_events(s: Schedule, f: Frame) -> list[tuple[MeasurementEvent, ...]]:
    """Rounds of simultaneous events, ordered by the frame's time coordinate.

    Within a round, events are sorted by id for determinism; a round whose
    events touched overlapping factors would be ill-defined, which valid
    schedules rule out (defensively checked).
    """
    timed = sorted(
        ((frame_time(f, ev.location), ev) for ev in s.events),
        key=lambda te: (te[0], te[1].id),
    )
    tol = ROUND_TOL * max(abs(t) for t, _ in timed)
    rounds: list[list[MeasurementEvent]] = []
    last_t = None
    for t, ev in timed:
        if last_t is not None and abs(t - last_t) <= tol:
            rounds[-1].append(ev)
        else:
            rounds.append([ev])
        last_t = t
    out = []
    for group in rounds:
        used: set[str] = set()
        for ev in group:
            if used & set(ev.targets):
                raise ValueError(
                    f"simultaneous events overlap on factors: {[e.id for e in group]}"
                )
            used |= set(ev.targets)
        out.append(tuple(sorted(group, key=lambda e: e.id)))
    return out


def evolve_to(s: Schedule, f: Frame, round_index: int) -> StateVector:
    """State just before the given (1-based) round in the frame's ordering.

    Purely unitary: friend events of strictly earlier rounds contribute their
    lab-pair unitaries; outsider events contribute nothing (they are the
    measurements whose pre-state this is). Frame changes act as identity on
    amplitudes — the tilted frames can be made arbitrarily slow, and state
    supports are frame-transport invariant either way.
    """
    rounds = order_events(s, f)
    if not 1 <= round_index <= len(rounds):
        raise ValueError(f"round index must be in 1..{len(rounds)}, got {round_index}")
    state = initial_scenario_state()
    for rnd in rounds[: round_index - 1]:
        for ev in rnd:
            if ev.kind == "friend_z":
                state = apply_local(s.model.unitary(ev.site), ev.targets, state)
    return state


@dataclass(frozen=True)
class ParityConstraint:
    """The product of the named slots' outcomes must equal required_product."""

    slots: tuple[str, ...]
    required_product: int

    def __post_init__(self):
        if not self.slots:
            raise ValueError("constraint needs at least one slot")
        if self.required_product not in (+1, -1):
            raise ValueError(f"required product must be ±1, got {self.required_product}")
        object.__setattr__(self, "slots", tuple(sorted(self.slots, key=_slot_key)))


def _slot_key(slot: str) -> tuple[str, str]:
    kind, site = slot.split("_")
    return (site, kind)


def round_slots(round_events) -> tuple[str, ...]:
    """Outcome slots of a round, in the order support entries label them."""
    return tuple(sorted((ev.slot for ev in round_events), key=_slot_key))


def _event_basis_group(ev: MeasurementEvent, model: MeasurementModel) -> BasisGroup:
    if ev.kind == "friend_z":
        # The friend's record mirrors the electron's z-spin; before the pair
        # unitary runs, that outcome is just the electron's z value.
        return BasisGroup((ev.targets[1],), (+1, -1), spin_basis(SpinAxis.Z))
    if ev.kind == "outsider_x":
        # One (6, 2) family per model: a stacked model gives a stack of them.
        vectors = np.stack(
            [model.pair_x_state(ev.site, +1), model.pair_x_state(ev.site, -1)], axis=-1
        )
        return BasisGroup(ev.targets, (+1, -1), vectors)
    raise ValueError(f"unknown event kind {ev.kind!r}")


def support_constraint(
    state: StateVector, round_events, model: MeasurementModel
) -> tuple[list[SupportEntry], ParityConstraint | None]:
    """Possible outcome tuples of a round, and their shared parity if any.

    An outcome tuple is possible iff its term in the round's eigenbasis
    expansion of ``state`` has |coefficient|² above SUPPORT_EPS. Factors no event
    of the round touches are spectators, summed over. When every surviving
    tuple has the same product of outcomes, that parity is a constraint any
    single-outcome account of the round must obey.
    """
    events = sorted(round_events, key=lambda ev: _slot_key(ev.slot))
    groups = [_event_basis_group(ev, model) for ev in events]
    entries, _residual = support_table(state, groups)
    slots = tuple(ev.slot for ev in events)
    parities = {entry.product for entry in entries}
    constraint = None
    if entries and len(parities) == 1:
        constraint = ParityConstraint(slots, parities.pop())
    return entries, constraint


@dataclass(frozen=True)
class RoundTable:
    """One round of one frame for a stack of M device models, as arrays.

    Column j of ``amplitudes`` and ``weights`` is the joint outcome
    ``labels[j]`` of the round's slots (``round_slots`` order); model m's row
    is what ``support_table`` computes for that tuple before the cutoff.
    """

    frame: object  # the frame's key in the orderings given to ``analyze_stack``
    events: tuple[MeasurementEvent, ...]
    labels: tuple[tuple[int, ...], ...]
    amplitudes: np.ndarray  # (M, K) each tuple's SupportEntry amplitude
    weights: np.ndarray  # (M, K) each tuple's Born weight

    @property
    def possible(self) -> np.ndarray:
        """(M, K) bool: the tuples whose weight clears the support cutoff."""
        return self.weights > SUPPORT_EPS

    @property
    def probabilities(self) -> np.ndarray:
        """(M, K): each tuple's ``SupportEntry.probability``."""
        return abs_squared(self.amplitudes)

    @property
    def products(self) -> np.ndarray:
        """(M,) int: the outcome product every possible tuple shares, or 0."""
        parity = np.prod(self.labels, axis=1)
        plus = (self.possible & (parity == 1)).any(axis=1)
        minus = (self.possible & (parity == -1)).any(axis=1)
        return np.where(plus == minus, 0, np.where(plus, 1, -1))

    def support(self, m: int) -> tuple[list[SupportEntry], ParityConstraint | None]:
        """Model m's ``support_constraint`` result."""
        entries = [
            SupportEntry(labels, complex(amplitude))
            for labels, amplitude, ok in zip(self.labels, self.amplitudes[m], self.possible[m])
            if ok
        ]
        product = int(self.products[m])
        return entries, ParityConstraint(round_slots(self.events), product) if product else None


def analyze_stack(model: MeasurementModel, orderings) -> list[RoundTable]:
    """Every round of every frame for M device models, in one pass.

    ``model``'s site unitaries are (6, 6), read as a stack of one, or
    (M, 6, 6). ``orderings`` maps a key per frame to its rounds from
    ``order_events``; tables come frame by frame, in round order, and
    ``table.support(m)`` is ``support_constraint`` of device m's pre-round
    state, bit for bit.

    Each pre-round state stack is the previous one with that round's friend
    unitaries applied, as ``evolve_to`` replays them: one stacked
    ``apply_local`` per distinct sequence of friend events, whatever M, and
    one stacked contraction per round against outcome bases built once.
    Each stack is dropped after its last use; none outlives the pass.
    """
    plan = []  # (frame key, round, friend events applied before it)
    for key, rounds in orderings.items():
        applied: tuple[MeasurementEvent, ...] = ()
        for rnd in rounds:
            plan.append((key, rnd, applied))
            applied += tuple(ev for ev in rnd if ev.kind == "friend_z")
    # The last round that needs each state stack: for its own analysis, or
    # to build a longer sequence from it.
    last: dict[tuple, int] = {}
    for i, (_, _, applied) in enumerate(plan):
        for n in range(len(applied)):
            if applied[: n + 1] not in last:
                last[applied[:n]] = i
        last[applied] = i

    events = dict.fromkeys(ev for _, rnd, _ in plan for ev in rnd)
    groups = {ev: _event_basis_group(ev, model) for ev in events}
    size = int(np.prod(model.unitary("A").matrix.shape[:-2]))
    initial = np.broadcast_to(initial_scenario_state().amplitudes, (size, CANONICAL_LAYOUT.dim))
    states = {(): StateVector(CANONICAL_LAYOUT, initial)}
    tables = []
    for i, (key, rnd, applied) in enumerate(plan):
        n = len(applied)
        while applied[:n] not in states:
            n -= 1
        for ev in applied[n:]:
            states[applied[: n + 1]] = apply_local(
                model.unitary(ev.site), ev.targets, states[applied[:n]]
            )
            n += 1
        round_groups = [groups[ev] for ev in sorted(rnd, key=lambda ev: _slot_key(ev.slot))]
        amps, weights = stacked_support(states[applied], round_groups)
        labels = tuple(itertools.product(*(g.labels for g in round_groups)))
        tables.append(RoundTable(key, rnd, labels, amps, weights))
        for seq in [seq for seq in states if last[seq] == i]:
            del states[seq]
    return tables


def distinct_constraints(tables) -> list[ParityConstraint]:
    """Model 0's constraints over the analysed rounds, each once, in the order
    first found."""
    found = (table.support(0)[1] for table in tables)
    return list(dict.fromkeys(c for c in found if c is not None))


def collect_constraints(s: Schedule, frames) -> list[ParityConstraint]:
    """Parity constraints from every round of every frame, deduplicated.

    Pass the four standard frames to reproduce the full contradiction; any
    subset yields the constraints visible from those frames alone.
    """
    if isinstance(frames, dict):
        frames = list(frames.values())
    return distinct_constraints(
        analyze_stack(s.model, {i: order_events(s, f) for i, f in enumerate(frames)})
    )


def violation_mask(constraints) -> np.ndarray:
    """(64, constraints) bool: where each ``OUTCOME_SIGNS`` row violates each
    constraint."""
    mask = np.empty((len(OUTCOME_SIGNS), len(constraints)), dtype=bool)
    for i, c in enumerate(constraints):
        columns = [CANONICAL_SLOTS.index(slot) for slot in c.slots]
        mask[:, i] = OUTCOME_SIGNS[:, columns].prod(axis=1) != c.required_product
    return mask


def enumerate_assignments(constraints) -> np.ndarray:
    """The ``OUTCOME_SIGNS`` rows satisfying every constraint: a (k, 6) int8
    array of ±1 in ``CANONICAL_SLOTS`` column order, in row order."""
    satisfying = ~violation_mask(list(constraints)).any(axis=1)
    return OUTCOME_SIGNS[satisfying]
