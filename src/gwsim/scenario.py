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
pass never builds the 216-dim vector. Its ``RoundTable``s, the one form an
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
from typing import NamedTuple

from .measurement import PAIR_DIM, SITES, MeasurementModel, pair_index
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
    tilted_frames,
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
    tilted = tilted_frames(geometry)
    checks = validate_geometry(geometry, tilted)
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
            if used & set(ev.targets):
                raise ValueError(
                    f"simultaneous events overlap on factors: {[e.id for e in group]}"
                )
            used |= set(ev.targets)
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

    Entry j of ``weights`` is the Born weight of the joint outcome
    ``labels[j]`` of the round's slots (``round_slots`` order) in the
    pre-round state, before the support cutoff. ``product`` is the outcome
    product every possible tuple shares, or 0 where they share none
    (``_shared_parity``).
    """

    frame: str  # the frame's key in the orderings given to ``analyze_stack``: its name
    events: tuple[MeasurementEvent, ...]
    labels: tuple[tuple[int, ...], ...]
    weights: np.ndarray  # (K,) each tuple's Born weight, never negative
    product: int  # the possible tuples' shared product, or 0

    @property
    def possible(self) -> np.ndarray:
        """(K,) bool: the tuples whose weight clears the support cutoff."""
        return self.weights > SUPPORT_EPS

    def constraint(self) -> ParityConstraint | None:
        """The round's constraint: the product its possible tuples share, if any."""
        return ParityConstraint(round_slots(self.events), self.product) if self.product else None


def _shared_parity(possible: np.ndarray, parity: np.ndarray, axis) -> np.ndarray:
    """+1 or −1 where every possible tuple, reduced over ``axis``, has that
    outcome product, else 0; a parity of 0 marks an entry that is no tuple."""
    plus = (possible & (parity == 1)).any(axis=axis)
    minus = (possible & (parity == -1)).any(axis=axis)
    return np.where(plus == minus, 0, np.where(plus, 1, -1))


def _site_gram(vectors: np.ndarray, operators, scale: float = 1.0) -> np.ndarray:
    """One site's Gram factor per outcome operator: (terms², labels).

    ``vectors`` (terms, d) are the site's vectors in each product term,
    ``operators`` (labels, rows, d) one operator K_l per outcome, or None for
    the identity. Entry [terms·k + j, l] is scale·⟨K_l v_j|K_l v_k⟩.
    """
    if operators is None:
        parts = vectors[:, None]
    else:
        parts = (operators * vectors[:, None, None]).sum(axis=3)
    gram = scale * (parts[:, None] * parts[None].conj()).sum(axis=3)
    return gram.reshape(-1, gram.shape[2])


def _event_operators(ev: MeasurementEvent | None, model) -> tuple[np.ndarray | None, float]:
    """The outcome operators of a round's event at one site (None: a spectator
    site), and their Gram scale."""
    if ev is None:
        return None, 1.0
    if ev.kind == "friend_z":
        # The z-record keeps the pair entries with that electron spin.
        rows = [[pair_index(lab, sign) for lab in LabLabel] for sign in (+1, -1)]
        return np.eye(PAIR_DIM)[rows], 1.0
    # ⟨b_±| for b_± = √2·|±1X>; the √½ enters the Gram squared, as 1/2.
    bras = [model.recorded_sum(ev.site, sign) for sign in (+1, -1)]
    return np.stack(bras).conj()[:, None], 0.5


def analyze_stack(model: MeasurementModel, orderings) -> list[RoundTable]:
    """Every round of every frame for one device model, in one pass.

    ``orderings`` maps a key per frame to its rounds from ``order_events``;
    tables come frame by frame, in round order.

    The pre-round state is Σ_k c_k v_Ak ⊗ v_Bk ⊗ v_Ck (``initial_product_terms``),
    where a site's v_k has its device applied iff its friend's event fell in
    an earlier round, as ``evolve_to`` replays it (by ``apply_local`` on the
    6-dim pair). A tuple's Born weight is then Σ_{k,j} c_k c̄_j Π_site
    g_site[k, j], from 2×2 Gram factors (``_site_gram``), each built once per
    pass, when a round first needs it, and each a form in the Gram R†R of the
    device's Ready columns (``models.nonideal_sweep``). Device-dependent work
    is done once per distinct device, keyed by its ``Operator``'s identity:
    its U v_k, and the factor of a site that has run it or whose outsider
    measures. A site whose device has not run reads only the shared v_k, so
    that factor serves every site. Every round's weights come from one
    product over all rounds, in which a spectator site's factor is broadcast
    to both labels and then indexed out; the rounds' parity rows come from
    the same array. Rounding leaves impossible tuples about ±1e-17, so
    weights are clamped at 0.
    """
    coefficients, pair = initial_product_terms()
    terms = np.outer(coefficients, coefficients.conj()).reshape(4, 1, 1, 1)  # c_k c̄_j
    recorded_terms = {}  # id(device) -> (2, 6): U v_k for each term k
    for site, targets in SITE_FACTORS.items():
        device = model.unitary(site)
        if id(device) not in recorded_terms:
            terms_state = StateVector(layout(*targets), pair)  # a stack: one row per term
            recorded_terms[id(device)] = apply_local(device, targets, terms_state).amplitudes
    rounds = [(key, rnd) for key, frame_rounds in orderings.items() for rnd in frame_rounds]
    factors = np.empty((len(SITES), len(rounds), 4, 2), dtype=complex)
    active = []  # per round: whether each site has an event in it
    grams: dict[tuple, np.ndarray] = {}
    for key, frame_rounds in orderings.items():
        recorded: set[str] = set()  # sites whose friend's device has run
        for rnd in frame_rounds:
            events = {ev.site: ev for ev in rnd}
            for i, site in enumerate(SITES):
                ev, device = events.get(site), id(model.unitary(site))
                reads_device = site in recorded or (ev and ev.kind == "outsider_x")
                index = (device if reads_device else None, site in recorded, ev and ev.kind)
                if index not in grams:
                    vectors = recorded_terms[device] if site in recorded else pair
                    grams[index] = _site_gram(vectors, *_event_operators(ev, model))
                factors[i, len(active)] = grams[index]
            active.append([site in events for site in SITES])
            recorded |= {ev.site for ev in rnd if ev.kind == "friend_z"}
    a, b, c = factors  # Σ_{k,j} c_k c̄_j Π_site g_site[k, j], as (rounds, 2, 2, 2)
    product = terms * a[..., None, None] * b[..., None, :, None] * c[..., None, None, :]
    weights = np.maximum(product.sum(axis=-4).real, 0.0)
    # A spectator's second label is no tuple: its sign 0 gives it parity 0.
    active = np.array(active, dtype=bool).reshape(len(rounds), len(SITES))
    a, b, c = np.where(active[..., None], (1, -1), (1, 0)).transpose(1, 0, 2)
    parity = a[:, :, None, None] * b[:, None, :, None] * c[:, None, None, :]
    products = _shared_parity(weights > SUPPORT_EPS, parity, axis=(1, 2, 3)).tolist()
    tables = []
    for r, (key, rnd) in enumerate(rounds):
        round_weights = weights[r][tuple(slice(None) if on else 0 for on in active[r])]
        labels = tuple(itertools.product(*[(+1, -1)] * len(rnd)))
        tables.append(RoundTable(key, rnd, labels, round_weights.reshape(-1), products[r]))
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
