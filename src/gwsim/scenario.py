"""The six-event schedule and its frame-by-frame analysis.

Three sealed labs (A, B, C) each measure their electron's z-spin at time t1;
an outsider then measures each whole lab+electron pair in the recorded-X
basis at t2. Cross-lab events are spacelike separated, so inertial frames
disagree on their order. For a given frame, events group into *rounds* of
simultaneous measurements, which depend on the geometry alone. One pass
(``analyze_stack``) walks every round of every frame once, for one device
model, and gives each outcome tuple of the round its Born weight in the
pre-round state. That state is always a sum of two product states (the GHZ
state's two terms, each site's pair evolved only by its own device), so the
pass never builds the 216-dim vector, and after each device's one run on
the pair it works in Python numbers. Its ``RoundTable``s, the one form an
analysed round takes, tell us which outcome tuples are possible at all (have
nonzero Born weight).

A schedule holds the geometry, the events and the four named frames; it
holds no device. Whenever every possible tuple of a round shares a single
product parity, the round yields a ParityConstraint. ``collect_constraints``,
the one analysis that ``ghz-nogo``, ``run`` and ``sweep`` read, runs one pass
of a given device over the rest frame and the three tilted frames and
finds four that no assignment of ±1 values to the six outcome slots
satisfies: the frame-by-frame GHZ contradiction, found by brute force over
``OUTCOME_SIGNS``.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import mul
from typing import NamedTuple

from .measurement import SITES, MeasurementModel
from .qmath import BasisGroup, StateVector, apply_local, layout
from .spacetime import (
    CheckResult,
    Frame,
    GeometrySpec,
    REST_FRAME,
    SpacetimePoint,
    frame_time,
    point,
    standard_geometry,
    tilted_frame_events,
    tilted_frames,
    validate_geometry,
)
from .systems import (
    SITE_FACTORS,
    SUPPORT_EPS,
    SpinAxis,
    SupportEntry,
    initial_product_terms,
    initial_scenario_state,
    spin_basis,
    support_table,
)

import numpy as np

# Frame times closer than this, scaled by the frame's largest |t|, fall in the same round.
ROUND_TOL = 1e-9

# One outcome slot per event: the friend's z-record and the outsider's
# X-outcome at each site.
CANONICAL_SLOTS = ("z_A", "z_B", "z_C", "x_A", "x_B", "x_C")

# The 64 rows of ±1 values: row i gives slot j the value −1 iff bit (5 − j)
# of i is set, the first slot being the most significant bit.
OUTCOME_SIGNS = tuple(itertools.product((+1, -1), repeat=6))

FRAME_NAMES = ("sigma", "sigma_p", "sigma_pp", "sigma_ppp")


class MeasurementEvent(NamedTuple):
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


class Schedule(NamedTuple):
    geometry: GeometrySpec
    events: tuple[MeasurementEvent, ...]
    frames: dict[str, Frame]  # FRAME_NAMES: the rest frame, then each lab's tilted frame


def checked_schedule(geometry: GeometrySpec) -> tuple[list[CheckResult], Schedule | None]:
    """The geometry's checks, and its schedule where all of them pass.

    Friends are stamped at t1, outsiders at t2. The events really occupy the
    intervals (t0,t1) and (t1,t2); only their completion order matters for
    pre-measurement states, so completion times serve as the event times.
    """
    tilted_events = tilted_frame_events(geometry)
    tilted = tilted_frames(geometry, tilted_events)
    checks = validate_geometry(geometry, (tilted_events, tilted))
    if not all(r.passed for r in checks):
        return checks, None
    events = []
    for site in "ABC":
        pos = geometry.position(site)
        events.append(
            MeasurementEvent(f"friend_{site}", site, "friend_z", point(geometry.t1, pos))
        )
        events.append(
            MeasurementEvent(f"outsider_{site}", site, "outsider_x", point(geometry.t2, pos))
        )
    frames = dict(zip(FRAME_NAMES, [REST_FRAME, *tilted]))
    return checks, Schedule(geometry, tuple(events), frames)


def build_schedule(side: float, tau: float) -> Schedule:
    """The standard arrangement's schedule; raises naming the checks that fail."""
    checks, schedule = checked_schedule(standard_geometry(side, tau))
    if schedule is None:
        failed = [r.name for r in checks if not r.passed]
        raise ValueError(f"geometry checks failed: {', '.join(failed)}")
    return schedule


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
            if not used.isdisjoint(ev.targets):
                raise ValueError(
                    f"simultaneous events overlap on factors: {[e.id for e in group]}"
                )
            used.update(ev.targets)
        out.append(tuple(sorted(group, key=lambda e: e.id)))
    return out


def evolve_to(s: Schedule, f: Frame, round_index: int, model: MeasurementModel) -> StateVector:
    """State just before the given (1-based) round in the frame's ordering.

    Purely unitary: friend events of strictly earlier rounds contribute their
    ``model`` lab-pair unitaries; outsider events contribute nothing (they are
    the measurements whose pre-state this is). Frame changes act as identity
    on amplitudes — the tilted frames can be made arbitrarily slow, and state
    supports are frame-transport invariant either way.
    """
    rounds = order_events(s, f)
    if not 1 <= round_index <= len(rounds):
        raise ValueError(f"round index must be in 1..{len(rounds)}, got {round_index}")
    state = initial_scenario_state()
    for rnd in rounds[: round_index - 1]:
        for ev in rnd:
            if ev.kind == "friend_z":
                state = apply_local(model.unitary(ev.site), ev.targets, state)
    return state


class ParityConstraint(namedtuple("ParityConstraint", "slots required_product")):
    """The product of the named slots' outcomes must equal required_product."""

    __slots__ = ()

    def __new__(cls, slots: tuple[str, ...], required_product: int):
        if not slots:
            raise ValueError("constraint needs at least one slot")
        if required_product not in (+1, -1):
            raise ValueError(f"required product must be ±1, got {required_product}")
        return super().__new__(cls, tuple(sorted(slots, key=_slot_key)), required_product)


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


class RoundTable(NamedTuple):
    """One round of one frame, analysed for one device model.

    Entry j of ``weights`` is the Born weight, a Python float, of the joint
    outcome ``labels[j]`` of the round's slots (``round_slots`` order) in the
    pre-round state, before the support cutoff. ``product`` is the outcome
    product every possible tuple shares, or 0 where they share none.
    """

    frame: str  # the frame's key in the orderings given to ``analyze_stack``: its name
    events: tuple[MeasurementEvent, ...]
    labels: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]  # each tuple's Born weight, never negative
    product: int  # the possible tuples' shared product, or 0

    @property
    def possible(self) -> tuple[bool, ...]:
        """The tuples whose weight clears the support cutoff."""
        return tuple(w > SUPPORT_EPS for w in self.weights)

    def constraint(self) -> ParityConstraint | None:
        """The round's constraint: the product its possible tuples share, if any."""
        return ParityConstraint(round_slots(self.events), self.product) if self.product else None


def _site_factor(vectors, ev: MeasurementEvent | None, model) -> tuple[tuple[complex, ...], ...]:
    """One site's Gram factor in a round: per outcome l of its event (one
    entry for a spectator), the four entries ⟨K_l v_j|K_l v_k⟩, kj = 00, 01,
    10, 11, of the site's pair vectors v_k (Python complex numbers) in each
    product term, for the outcome's operator K_l (the identity for a spectator).
    """
    scale = 1.0
    if ev is None:
        parts = [vectors]
    elif ev.kind == "friend_z":
        # The z-record keeps the pair entries with that electron spin: every
        # other one, as ``pair_index`` interleaves the spins.
        parts = [[v[spin::2] for v in vectors] for spin in (0, 1)]
    else:
        # K_± = ⟨b_±| for b_± = √2·|±1X>; the √½ enters each Gram entry squared, as ½.
        bras = [[b.conjugate() for b in model.recorded_sum(ev.site, sign)] for sign in (+1, -1)]
        parts = [[[sum(map(mul, bra, v))] for v in vectors] for bra in bras]
        scale = 0.5
    conjugates = [[[y.conjugate() for y in v] for v in p] for p in parts]  # each v̄_j once
    return tuple(
        tuple(scale * sum(map(mul, vk, vj)) for vk in p for vj in bars)
        for p, bars in zip(parts, conjugates)
    )


def born_weights(coefficients, site_factors) -> tuple[float, ...]:
    """Per joint outcome of three sites, row-major, Re Σ_kj c_k c̄_j a_kj·b_kj·c_kj:
    its Born weight in Σ_k c_k v_Ak ⊗ v_Bk ⊗ v_Ck (k = 0, 1), for each site's Gram
    entries per outcome in ``_site_factor``'s kj = 00, 01, 10, 11 order. Each term
    is ((c_k c̄_j·a)·b)·c, its partial product taken once per (a, b), and the four
    real parts add left to right from 0.0, as ``sum`` adds them. Rounding leaves
    impossible outcomes about ±1e-17, so weights are clamped at 0."""
    terms = [ck * cj.conjugate() for ck in coefficients for cj in coefficients]  # c_k c̄_j
    weights, (first, second, third) = [], site_factors
    for a in first:
        partial = [t * x for t, x in zip(terms, a)]
        for b in second:
            p0, p1, p2, p3 = map(mul, partial, b)
            for z0, z1, z2, z3 in third:
                w = 0.0 + (p0 * z0).real + (p1 * z1).real + (p2 * z2).real + (p3 * z3).real
                weights.append(max(w, 0.0))
    return tuple(weights)


def analyze_stack(model: MeasurementModel, orderings) -> list[RoundTable]:
    """Every round of every frame for one device model, in one pass.

    ``orderings`` maps a key per frame to its rounds from ``order_events``;
    tables come frame by frame, in round order.

    The pre-round state is Σ_k c_k v_Ak ⊗ v_Bk ⊗ v_Ck (``initial_product_terms``),
    where a site's v_k has its device applied iff its friend's event fell in
    an earlier round, as ``evolve_to`` replays it (by ``apply_local`` on the
    6-dim pair). A round's weights are ``born_weights`` of the 2×2 Gram
    factors of the three sites (``_site_factor``), each a form in the Gram
    R†R of the device's Ready columns (``models.nonideal_sweep``). Everything
    after the device runs is Python numbers: the ideal device's are exact
    dyadic fractions. Each factor is built once per pass, when a round first
    needs it, and device-dependent work is done once per distinct device,
    keyed by its ``Operator``'s identity: its U v_k, and the factor of a site
    that has run it or whose outsider measures. A site whose device has not
    run reads only the shared v_k, so that factor serves every site. Labels
    are built once per round size, and label i's product is −1 iff i has an
    odd number of bits set, so a round's product is read off its indices.
    """
    coefficients, pair = initial_product_terms()
    recorded_terms = {}  # id(device) -> U v_k for each term k
    for site, targets in SITE_FACTORS.items():
        device = model.unitary(site)
        if id(device) not in recorded_terms:
            terms_state = StateVector(layout(*targets), pair)  # a stack: one row per term
            recorded_terms[id(device)] = apply_local(device, targets, terms_state).amplitudes.tolist()
    devices = [(site, id(model.unitary(site))) for site in SITES]
    labels = [tuple(itertools.product((+1, -1), repeat=n)) for n in range(len(SITES) + 1)]
    factors: dict[tuple, tuple] = {}
    tables = []
    for key, frame_rounds in orderings.items():
        recorded: set[str] = set()  # sites whose friend's device has run
        for rnd in frame_rounds:
            events = {ev.site: ev for ev in rnd}
            round_factors = []
            for site, device in devices:
                ev = events.get(site)
                reads_device = site in recorded or (ev and ev.kind == "outsider_x")
                index = (device if reads_device else None, site in recorded, ev and ev.kind)
                if index not in factors:
                    vectors = recorded_terms[device] if site in recorded else pair
                    factors[index] = _site_factor(vectors, ev, model)
                round_factors.append(factors[index])
            weights = born_weights(coefficients, round_factors)
            parities = {i.bit_count() & 1 for i, w in enumerate(weights) if w > SUPPORT_EPS}
            product = (1 - 2 * parities.pop()) if len(parities) == 1 else 0
            tables.append(RoundTable(key, rnd, labels[len(rnd)], weights, product))
            recorded |= {ev.site for ev in rnd if ev.kind == "friend_z"}
    return tables


def collect_constraints(s: Schedule, model: MeasurementModel) -> tuple[list[RoundTable], dict]:
    """The one analysis of a schedule's frames: every table of one
    ``analyze_stack`` pass over ``model`` on ``s.frames``, keyed by name, and
    the distinct constraints, in the order first found, each mapped to the
    table that first yields it; that table's ``.frame`` and ``.events`` name
    the frame and the round.
    """
    tables = analyze_stack(model, {name: order_events(s, f) for name, f in s.frames.items()})
    found: dict[ParityConstraint, RoundTable] = {}
    for table in tables:
        constraint = table.constraint()
        if constraint is not None:
            found.setdefault(constraint, table)
    return tables, found


def violation_mask(constraints) -> tuple[tuple[bool, ...], ...]:
    """Per ``OUTCOME_SIGNS`` row, whether it violates each constraint. A
    row's product over some slots is −1 iff an odd number of their bits is
    set in the row's index."""
    columns = []
    for c in constraints:
        bits = sum(1 << 5 - CANONICAL_SLOTS.index(slot) for slot in c.slots)
        odd_violates = c.required_product == +1  # an odd count is a product of −1
        columns.append([((i & bits).bit_count() & 1) == odd_violates for i in range(64)])
    return tuple(zip(*columns)) or ((),) * len(OUTCOME_SIGNS)


def enumerate_assignments(constraints) -> tuple[tuple[int, ...], ...]:
    """The ``OUTCOME_SIGNS`` rows satisfying every constraint, in row order:
    ±1 per slot, in ``CANONICAL_SLOTS`` order."""
    mask = violation_mask(list(constraints))
    return tuple(signs for signs, row in zip(OUTCOME_SIGNS, mask) if not any(row))
