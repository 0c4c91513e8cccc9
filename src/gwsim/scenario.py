"""The six-event schedule and its frame-by-frame analysis.

Three sealed labs (A, B, C) each measure their electron's z-spin at time t1;
an outsider then measures each whole lab+electron pair in the recorded-X
basis at t2. Cross-lab events are spacelike separated, so inertial frames
disagree on their order. For a given frame, events group into *rounds* of
simultaneous measurements, which depend on the geometry alone. One pass
(``analyze_stack``) walks every round of every frame once, for one device
model or a whole stack of them, and gives each outcome tuple of the round its
Born weight in the pre-round state. That state is always a sum of two
product states (the GHZ state's two terms, each site's pair evolved only by
its own device), so the pass never builds the 216-dim vector. Its
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

from .measurement import PAIR_DIM, SITES, MeasurementModel, pair_index
from .qmath import BasisGroup, StateVector, apply_local, layout
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
    LabLabel,
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

    Column j of ``weights`` is the joint outcome ``labels[j]`` of the round's
    slots (``round_slots`` order); model m's row holds each tuple's Born
    weight in model m's pre-round state, before the support cutoff.
    """

    frame: object  # the frame's key in the orderings given to ``analyze_stack``
    events: tuple[MeasurementEvent, ...]
    labels: tuple[tuple[int, ...], ...]
    weights: np.ndarray  # (M, K) each tuple's Born weight, never negative

    @property
    def possible(self) -> np.ndarray:
        """(M, K) bool: the tuples whose weight clears the support cutoff."""
        return self.weights > SUPPORT_EPS

    @property
    def products(self) -> np.ndarray:
        """(M,) int: the outcome product every possible tuple shares, or 0."""
        parity = np.prod(self.labels, axis=1)
        plus = (self.possible & (parity == 1)).any(axis=1)
        minus = (self.possible & (parity == -1)).any(axis=1)
        return np.where(plus == minus, 0, np.where(plus, 1, -1))

    def constraint(self, m: int) -> ParityConstraint | None:
        """Model m's constraint: the product its possible tuples share, if any."""
        product = int(self.products[m])
        return ParityConstraint(round_slots(self.events), product) if product else None


def _site_gram(vectors: np.ndarray, operators, scale: float = 1.0) -> np.ndarray:
    """One site's Gram factor per outcome operator: (terms², labels, M).

    ``vectors`` (terms, d, M) are the site's vectors in each product term,
    ``operators`` (labels, rows, d, M) one operator K_l per outcome, or None
    for the identity; M = 1 where every model shares them. Entry
    [terms·k + j, l, m] is scale·⟨K_l v_j|K_l v_k⟩. Models run along the last
    axis, so every loop is long.
    """
    if operators is None:
        parts = vectors[:, None]
    else:
        parts = (operators * vectors[:, None, None]).sum(axis=3)
    gram = scale * (parts[:, None] * parts[None].conj()).sum(axis=3)
    return gram.reshape(-1, *gram.shape[2:])


def _event_operators(ev: MeasurementEvent | None, model) -> tuple[np.ndarray | None, float]:
    """The outcome operators of a round's event at one site (None: a spectator
    site), and their Gram scale."""
    if ev is None:
        return None, 1.0
    if ev.kind == "friend_z":
        # The z-record keeps the pair entries with that electron spin.
        rows = [[pair_index(lab, sign) for lab in LabLabel] for sign in (+1, -1)]
        return np.eye(PAIR_DIM)[rows][..., None], 1.0
    # ⟨b_±| for b_± = √2·|±1X>; the √½ enters the Gram squared, as 1/2.
    bras = [np.reshape(model.recorded_sum(ev.site, sign), (-1, PAIR_DIM)).T for sign in (+1, -1)]
    return np.stack(bras).conj()[:, None], 0.5


def _born_weights(terms: np.ndarray, factors) -> np.ndarray:
    """Σ_{k,j} c_k c̄_j Π_site g_site[k, j] for ``terms`` c_k c̄_j and one
    ``_site_gram`` per site: (labels_A, labels_B, labels_C, M)."""
    a, b, c = factors
    product = terms * a[:, :, None, None] * b[:, None, :, None] * c[:, None, None]
    return product.sum(axis=0).real


def analyze_stack(model: MeasurementModel, orderings) -> list[RoundTable]:
    """Every round of every frame for M device models, in one pass.

    ``model``'s site unitaries are (6, 6), read as a stack of one, or
    (M, 6, 6). ``orderings`` maps a key per frame to its rounds from
    ``order_events``; tables come frame by frame, in round order, and
    ``table.constraint(m)`` is device m's constraint.

    The pre-round state is Σ_k c_k v_Ak ⊗ v_Bk ⊗ v_Ck (``initial_product_terms``),
    where a site's v_k has its device applied iff its friend's event fell in
    an earlier round, as ``evolve_to`` replays it (once per site and term,
    by ``apply_local`` on the 6-dim pair). A tuple's Born weight is then
    Σ_{k,j} c_k c̄_j Π_site g_site[k, j], from one 2×2 Gram factor per site
    (``_site_gram``), each built once per pass. Rounding leaves impossible
    tuples about ±1e-17, so weights are clamped at 0.
    """
    coefficients, pair = initial_product_terms()
    terms = np.outer(coefficients, coefficients.conj()).reshape(4, 1, 1, 1, 1)  # c_k c̄_j
    size = int(np.prod(model.unitary("A").matrix.shape[:-2]))
    recorded_terms = {}  # site -> (2, 6, M): U v_k for each term k and model
    for site, targets in SITE_FACTORS.items():
        copies = [StateVector(layout(*targets), np.broadcast_to(v, (size, 6))) for v in pair]
        evolved = [apply_local(model.unitary(site), targets, state) for state in copies]
        recorded_terms[site] = np.stack([state.amplitudes.T for state in evolved])
    grams: dict[tuple, np.ndarray] = {}
    tables = []
    for key, rounds in orderings.items():
        recorded: set[str] = set()  # sites whose friend's device has run
        for rnd in rounds:
            events = {ev.site: ev for ev in rnd}
            factors = []
            for site in SITES:
                ev = events.get(site)
                index = (site, site in recorded, ev and ev.kind)
                if index not in grams:
                    vectors = recorded_terms[site] if site in recorded else pair[:, :, None]
                    grams[index] = _site_gram(vectors, *_event_operators(ev, model))
                factors.append(grams[index])
            weights = _born_weights(terms, factors)
            weights = weights.reshape(-1, weights.shape[-1]).T
            labels = tuple(itertools.product(*[(+1, -1)] * len(rnd)))
            weights = np.maximum(np.broadcast_to(weights, (size, len(labels))), 0.0)
            tables.append(RoundTable(key, rnd, labels, weights))
            recorded |= {ev.site for ev in rnd if ev.kind == "friend_z"}
    return tables


def distinct_constraints(tables) -> list[ParityConstraint]:
    """Model 0's constraints over the analysed rounds, each once, in the order
    first found."""
    found = (table.constraint(0) for table in tables)
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
