"""Independent reference implementations the test suite checks against.

Everything here is deliberately built from different primitives than the
package: exact symbolic algebra (sympy) for the three-electron expansions,
plain index arithmetic over raveled kron indices for operator embedding and
support extraction, the dense 216-dim state contracted against basis groups
for the frame pass's product form, the array formulation the scalar pass
replaced (each round's Gram factors as numpy arrays, one product per round),
the generator form of the Born weights and the full U†U loop of the
unitarity check, as they were before their loop invariants were hoisted,
the least-squares simultaneity solve, per-trial simulation with ``measure``
for the interpretation models' outcome tables, one dense state per collapse path
for the product-form collapse and erasure tables, the dense ensemble rule
the ``distinguish`` table replaced, one-shot draws of every
trial's uniform for the blocked sampler, and a model-by-model replay of the
device sweep, its normals computed one by one in libm from numpy's own
Philox uniforms, the Gram–Schmidt Haar columns one matrix at a time in
Python floats, LAPACK's phase-fixed QR as an independent check on them, the
argparse front end the CLI's flag table replaced, and the stdlib's
indenting JSON encoder the report writer replaced.
Slow and obvious on purpose.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import math
from operator import add, mul

import numpy as np
import sympy as sp

from gwsim.cli import _parse_model_spec, _validate_config, load_config
from gwsim.measurement import (
    PAIR_DIM,
    SAMPLE_FLOOR,
    MeasurementModel,
    Observable,
    ideal_von_neumann,
    measure,
    pair_index,
)
from gwsim.models import (
    CANONICAL_CONSTRAINT_KEYS,
    MODES,
    QUARTER_TOL,
    SweepReport,
    trial_rng,
)
from gwsim.qmath import (
    FACTOR_DIMS,
    UNITARY_TOL,
    BasisGroup,
    LayoutError,
    Operator,
    StateVector,
    apply_local,
    layout,
)
from gwsim.scenario import (
    CANONICAL_SLOTS,
    FRAME_NAMES,
    build_schedule,
    enumerate_assignments,
    evolve_to,
    order_events,
    round_slots,
    support_constraint,
)
from gwsim.spacetime import GEOMETRY_TOL, SpacetimePoint
from gwsim.systems import (
    SITE_FACTORS,
    SUPPORT_EPS,
    LabLabel,
    SpinAxis,
    initial_product_terms,
    lab_vector,
    spin_basis,
    spin_vector,
)

I2 = sp.I
HALF = sp.Rational(1, 2)


def sym_spin_vector(axis: str, sign: int) -> sp.Matrix:
    """Exact spin eigenvectors under the package's pinned conventions."""
    s = sp.Integer(sign)
    if axis == "z":
        return sp.Matrix([1, 0]) if sign == +1 else sp.Matrix([0, 1])
    if axis == "x":
        return sp.Matrix([1, s]) / sp.sqrt(2)
    if axis == "y":
        return sp.Matrix([1, -s * I2]) / sp.sqrt(2)
    raise ValueError(axis)


def sym_ghz() -> sp.Matrix:
    yp = sym_spin_vector("y", +1)
    ym = sym_spin_vector("y", -1)
    plus = sp.kronecker_product(yp, yp, yp)
    minus = sp.kronecker_product(ym, ym, ym)
    return (plus - I2 * minus) / sp.sqrt(2)


def sym_ghz_amplitudes(axes: tuple[str, str, str]) -> dict[tuple[int, int, int], sp.Expr]:
    """Exact amplitude of every outcome tuple of a product-basis expansion."""
    ghz = sym_ghz()
    out = {}
    for signs in itertools.product((+1, -1), repeat=3):
        bra = sp.kronecker_product(
            *(sym_spin_vector(ax, s) for ax, s in zip(axes, signs))
        )
        amp = (bra.H * ghz)[0, 0]
        out[signs] = sp.simplify(amp)
    return out


def sym_erasure_table(skip_pair_x: bool) -> list[sp.Expr]:
    """The ideal device's erasure table in exact arithmetic, by the per-path
    rule: the outsider's ±1 outcome x projects r = U|ready, +1_z> onto b_x
    (b_± = |+1Z> ± |-1Z>) and normalises it, then the door reads
    RecordedUp, RecordedDown off that state. Entries in (x, door) order;
    ``skip_pair_x`` reads r alone."""
    u = sp.Matrix(ideal_von_neumann().unitary("A").matrix.real.astype(int))
    r, r_down = (u[:, pair_index(LabLabel.READY, sign)] for sign in (+1, -1))
    paths = [(1, r)]
    if not skip_pair_x:
        paths = []
        for b in (r + r_down, r - r_down):
            projected = b * (b.H * r) / 2
            p = (projected.H * projected)[0]
            paths.append((p, projected / sp.sqrt(p)))
    labs = (LabLabel.RECORDED_UP, LabLabel.RECORDED_DOWN)
    return [
        p * sum(abs(post[pair_index(lab, sign)]) ** 2 for sign in (+1, -1))
        for p, post in paths
        for lab in labs
    ]


# ---------------------------------------------------------------------------
# Brute-force numeric oracles over raveled kron indices


def embed_operator(op: np.ndarray, positions: tuple[int, ...], dims: tuple[int, ...]) -> np.ndarray:
    """Lift an operator on the given factor positions to the full space,
    entry by entry (identity on the other factors)."""
    total = math.prod(dims)
    sub_dims = [dims[p] for p in positions]
    full = np.zeros((total, total), dtype=complex)
    for row in range(total):
        ridx = np.unravel_index(row, dims)
        for col in range(total):
            cidx = np.unravel_index(col, dims)
            if any(
                ridx[k] != cidx[k] for k in range(len(dims)) if k not in positions
            ):
                continue
            r_sub = np.ravel_multi_index([ridx[p] for p in positions], sub_dims)
            c_sub = np.ravel_multi_index([cidx[p] for p in positions], sub_dims)
            full[row, col] = op[r_sub, c_sub]
    return full


def brute_support(
    psi: np.ndarray,
    dims: tuple[int, ...],
    groups: list[tuple[tuple[int, ...], list[np.ndarray]]],
) -> dict[tuple[int, ...], float]:
    """Probability of each joint outcome tuple, via full-space projectors.

    ``groups`` pairs factor positions with the list of basis vectors labeling
    that group's outcomes; spectator factors are traced out implicitly by the
    projector expectation values.
    """
    probs = {}
    for choice in itertools.product(*(range(len(vecs)) for _, vecs in groups)):
        projector = np.eye(math.prod(dims), dtype=complex)
        for (positions, vecs), j in zip(groups, choice):
            v = vecs[j]
            projector = projector @ embed_operator(np.outer(v, v.conj()), positions, dims)
        probs[choice] = float(np.real(np.vdot(psi, projector @ psi)))
    return probs


def brute_product_amplitude(
    psi: np.ndarray,
    dims: tuple[int, ...],
    groups: list[tuple[tuple[int, ...], np.ndarray]],
) -> complex:
    """⟨(product of group vectors)|ψ⟩ when the groups cover every factor,
    assembled entry by entry from raveled indices."""
    total = math.prod(dims)
    bra = np.empty(total, dtype=complex)
    for i in range(total):
        idx = np.unravel_index(i, dims)
        val = 1.0 + 0.0j
        for positions, vec in groups:
            sub_dims = [dims[p] for p in positions]
            sub = np.ravel_multi_index([idx[p] for p in positions], sub_dims)
            val *= vec[sub]
        bra[i] = val
    return complex(np.vdot(bra, psi))


def spin_observable(axis: SpinAxis, factor: str = "A") -> Observable:
    """±1 spin component of one electron along the given axis."""
    basis = spin_basis(axis)
    return Observable(
        (factor,),
        tuple(
            (value, Operator(np.outer(basis[:, i], basis[:, i].conj())))
            for i, value in enumerate((+1.0, -1.0))
        ),
    )


def outsider_observable(model: MeasurementModel, site: str = "A") -> Observable:
    """The outsider's measurement of the whole lab+electron pair: ±1 on the
    recorded-basis superpositions |±1X> = b_±/√2 for b_± = ``recorded_sum``,
    0 on the 4-dim rest of the pair space."""
    sums = [np.array(model.recorded_sum(site, sign)) for sign in (+1, -1)]
    plus, minus = (0.5 * np.outer(b, b.conj()) for b in sums)
    projectors = map(Operator, (plus, minus, np.eye(6) - plus - minus))
    return Observable(SITE_FACTORS[site], tuple(zip((+1.0, -1.0, 0.0), projectors)))


def door_observable(site: str = "A") -> Observable:
    """Ask the lab for its record: +1 RecordedUp, −1 RecordedDown, 0 Ready,
    on the lab register alone."""
    labels = (LabLabel.RECORDED_UP, LabLabel.RECORDED_DOWN, LabLabel.READY)
    projectors = [Operator(np.diag(lab_vector(label))) for label in labels]
    return Observable(SITE_FACTORS[site][:1], tuple(zip((+1.0, -1.0, 0.0), projectors)))


def distinguish_reference(model: MeasurementModel) -> dict:
    """``distinguishability_report``'s table by the dense rule it replaced:
    eigenvalue v of an observable weighs Σ_w w·Re⟨ψ|P_v ψ⟩ on the ensemble
    Σ_w w|ψ><ψ|, each P_v|ψ> by ``apply_local`` on the observable's factors.
    The unitary record is ½ on b_+ = ``recorded_sum("A", +1)``, the collapsed
    record ½ on each ``recorded_state("A", ±1)``."""
    pair = layout(*SITE_FACTORS["A"])
    ensembles = {
        "unitary_record": [(0.5, np.array(model.recorded_sum("A", +1)))],
        "collapsed_record": [(0.5, model.recorded_state("A", sign)) for sign in (+1, -1)],
    }
    table = {}
    for name, obs in (("door", door_observable()), ("pair_x", outsider_observable(model))):
        table[name] = {}
        for state, ensemble in ensembles.items():
            probs = np.zeros(len(obs.eigenpairs))
            for weight, amplitudes in ensemble:
                psi = StateVector(pair, amplitudes)
                for i, (_, proj) in enumerate(obs.eigenpairs):
                    projected = apply_local(proj, obs.targets, psi).amplitudes
                    probs[i] += weight * max(0.0, float(np.vdot(psi.amplitudes, projected).real))
            table[name][state] = dict(zip((+1.0, -1.0, 0.0), probs.tolist()))
    return table


def entangled_record_state(model: MeasurementModel, site: str = "A") -> StateVector:
    """Unitary description of a completed measurement on an x-up electron.

    The pair starts in |ready> ⊗ |+1_x> and the device unitary is applied;
    the result is (|+1Z> + |-1Z>)/√2 — a single superposed pure state.
    """
    start = np.kron(lab_vector(LabLabel.READY), spin_vector(SpinAxis.X, +1))
    return StateVector(layout(*SITE_FACTORS[site]), model.unitary(site).matrix @ start)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def phase_fixed_q(z: np.ndarray) -> np.ndarray:
    """The Haar unitary of one complex Gaussian matrix the LAPACK way: one
    QR, each column's phase fixed by R's diagonal (Mezzadri, Notices AMS 54,
    2007). It equals ``gram_schmidt_q`` up to rounding."""
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def gram_schmidt_q(z: np.ndarray) -> np.ndarray:
    """The Haar unitary's columns of one complex Gaussian matrix by modified
    Gram–Schmidt, one column at a time, in Python floats: the column less its
    projection c·q on each finished column q in turn, c = q†v split into real
    and imaginary parts, then divided by its norm. Each sum runs down the rows
    in order, as numpy sums a row axis shorter than eight, so for up to seven
    rows this is ``haar_unitaries`` bit for bit."""
    columns = []
    for column in z.T.tolist():
        re, im = [x.real for x in column], [x.imag for x in column]
        for qr, qi in columns:
            cr = ci = 0.0
            for a, b, x, y in zip(qr, qi, re, im):
                cr += a * x + b * y
                ci += a * y - b * x
            re = [x - (cr * a - ci * b) for a, b, x in zip(qr, qi, re)]
            im = [y - (cr * b + ci * a) for a, b, y in zip(qr, qi, im)]
        square = 0.0
        for x, y in zip(re, im):
            square += x * x + y * y
        norm = math.sqrt(square)
        columns.append(([x / norm for x in re], [y / norm for y in im]))
    return np.array([[complex(qr[row], qi[row]) for qr, qi in columns] for row in range(len(z))])


def gaussian_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A (dim, dim) normal draw for the real part plus i times another for
    the imaginary part, as ``haar_random_unitary`` draws them."""
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """``phase_fixed_q`` of a ``gaussian_matrix``."""
    return phase_fixed_q(gaussian_matrix(dim, rng))


def random_orthonormal_columns(dim: int, k: int, rng: np.random.Generator) -> np.ndarray:
    return random_unitary(dim, rng)[:, :k]


def boost_point(f, p):
    """Full Lorentz boost of the event into the frame."""
    v = np.array(f.velocity)
    speed2 = float(v @ v)
    if speed2 == 0.0:
        return p
    x = np.array(p.x)
    v_dot_x = float(v @ x)
    gamma = f.gamma
    x_new = x + ((gamma - 1.0) / speed2) * v_dot_x * v - gamma * p.t * v
    return SpacetimePoint(gamma * (p.t - v_dot_x), (float(x_new[0]), float(x_new[1])))


def lstsq_velocity(p: SpacetimePoint, q: SpacetimePoint, r: SpacetimePoint):
    """The simultaneity velocity by least squares, accepted by ``np.allclose``:
    the solve ``spacetime._simultaneity_velocity`` replaced. Extreme
    geometries overflow quietly, as the package's solve does."""
    x = {event: np.array(event.x) for event in (p, q, r)}
    dx = np.array([x[p] - x[q], x[p] - x[r]])
    dt = np.array([p.t - q.t, p.t - r.t])
    with np.errstate(all="ignore"):
        v, *_ = np.linalg.lstsq(dx, dt, rcond=None)
        if not np.isfinite(v).all():
            return None
        solved = np.allclose(dx @ v, dt, atol=GEOMETRY_TOL * float(np.max(np.abs(dt))))
    return (float(v[0]), float(v[1])) if solved else None


def axis_spec(state, axes) -> list[BasisGroup]:
    """One ±1 spin-axis basis group per factor, in the state's factor order."""
    axes = list(axes)
    if len(axes) != len(state.layout.names):
        raise ValueError(f"need {len(state.layout.names)} axes, got {len(axes)}")
    return [
        BasisGroup((name,), (+1, -1), spin_basis(axis))
        for name, axis in zip(state.layout.names, axes)
    ]


# ---------------------------------------------------------------------------
# The dense 216-dim contraction the frame pass's product form replaced


def stacked_amplitudes(state: StateVector, groups) -> np.ndarray:
    """Each group's labeled vectors contracted against every state of a stack.

    ``state`` is a stack of M states; each group's vectors are one family
    shared by the stack or a stack of M. Returns the (M, labels...,
    spectator) array of joint outcome amplitudes, the spectator axis
    collecting every factor no group covers, one matmul per group for the
    whole stack.
    """
    groups = list(groups)
    covered = [n for g in groups for n in g.factors]
    if len(set(covered)) != len(covered):
        raise LayoutError("basis groups overlap on factors")
    spectators = [n for n in state.layout.names if n not in covered]
    perm = [0] + [1 + a for a in state.layout.axes(covered + spectators)]
    spec_dim = math.prod(FACTOR_DIMS[n] for n in spectators)
    group_dims = [math.prod(FACTOR_DIMS[n] for n in g.factors) for g in groups]
    n = len(state.amplitudes)
    psi = np.transpose(state.tensor_view(), perm).reshape((n, *group_dims, spec_dim))
    for i, g in enumerate(groups):
        moved = np.moveaxis(psi, i + 1, 1)
        bra = g.vectors.conj().swapaxes(-1, -2)
        psi = bra @ moved.reshape(n, group_dims[i], -1)
        psi = np.moveaxis(psi.reshape((n, len(g.labels)) + moved.shape[2:]), 1, i + 1)
    return psi


def abs_squared(amplitudes: np.ndarray) -> np.ndarray:
    """Python's ``abs(a) ** 2`` of every amplitude, bit for bit (numpy's own
    ``abs`` and ``** 2`` round differently), as a ``SupportEntry``'s weight
    is read from its amplitude."""
    return np.float_power(np.hypot(amplitudes.real, amplitudes.imag), 2.0)


def stacked_support(state: StateVector, groups) -> tuple[np.ndarray, np.ndarray]:
    """``support_table`` for a stack of M states, before the cutoff.

    Returns the (M, K) stored amplitude and Born weight of each of the K joint
    outcome tuples, in ``support_table``'s order. A tuple is possible iff its
    weight exceeds SUPPORT_EPS, and then ``SupportEntry(labels, amplitude)``
    is ``support_table``'s entry for it, bit for bit.
    """
    amps = stacked_amplitudes(state, groups)
    n, spec_dim = amps.shape[0], amps.shape[-1]
    # The spectator axis stays last and contiguous, so each tuple's weight
    # sums in the order np.sum takes for that tuple alone.
    amps = amps.reshape(n, -1, spec_dim)
    if spec_dim == 1:
        return amps[:, :, 0], abs_squared(amps[:, :, 0])
    weights = (np.abs(amps) ** 2).sum(axis=-1)
    return np.sqrt(weights).astype(complex), weights


def dense_weights(state: StateVector, round_events, model) -> np.ndarray:
    """(K,) Born weight of each outcome tuple of a round in a dense state,
    before the cutoff, in ``round_slots`` label order: friends measure their
    electron's z-spin, outsiders their pair in the model's |±1X> basis."""
    groups = []
    for ev in sorted(round_events, key=lambda ev: round_slots(round_events).index(ev.slot)):
        if ev.kind == "friend_z":
            groups.append(BasisGroup((ev.targets[1],), (+1, -1), spin_basis(SpinAxis.Z)))
        else:
            bases = [model.pair_x_state(ev.site, sign) for sign in (+1, -1)]
            groups.append(BasisGroup(ev.targets, (+1, -1), np.column_stack(bases)))
    return stacked_support(StateVector(state.layout, state.amplitudes[None]), groups)[1][0]


def site_gram(vectors: np.ndarray, operators, scale: float = 1.0) -> np.ndarray:
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


def event_operators(ev, model) -> tuple[np.ndarray | None, float]:
    """The outcome operators of a round's event at one site (None: a spectator
    site), as (labels, rows, 6) arrays, and their Gram scale."""
    if ev is None:
        return None, 1.0
    if ev.kind == "friend_z":
        rows = [[pair_index(lab, sign) for lab in LabLabel] for sign in (+1, -1)]
        return np.eye(PAIR_DIM)[rows], 1.0
    bras = [model.recorded_sum(ev.site, sign) for sign in (+1, -1)]
    return np.stack(bras).conj()[:, None], 0.5


def born_weights_reference(coefficients, site_factors) -> tuple[float, ...]:
    """``scenario.born_weights`` as first written: per joint outcome, one
    generator over the four products c_k c̄_j·a·b·c, clamped at 0. Their real
    parts are added left to right from 0, as ``sum`` adds floats before
    Python 3.12, which compensates its sums."""
    terms = [ck * cj.conjugate() for ck in coefficients for cj in coefficients]
    weights = []
    for a, b, c in itertools.product(*site_factors):
        parts = ((t * x * y * z).real for t, x, y, z in zip(terms, a, b, c))
        weights.append(max(functools.reduce(add, parts, 0), 0.0))
    return tuple(weights)


def check_unitary_reference(op: Operator) -> bool:
    """``qmath.check_unitary`` over every entry of U†U, the lower triangle
    computed on its own rather than read as the upper one's conjugate."""
    if not all(map(cmath.isfinite, op.matrix.ravel().tolist())):
        return False
    for matrix in op.matrix.reshape(-1, op.dim, op.dim).tolist():
        columns = list(zip(*matrix))
        for a, u in enumerate(columns):
            bra = [x.conjugate() for x in u]
            for b, v in enumerate(columns):
                error = sum(map(mul, bra, v)) - (a == b)
                if not math.hypot(error.real, error.imag) < UNITARY_TOL:
                    return False
    return True


def round_by_round_tables(model, orderings) -> list[tuple[np.ndarray, int]]:
    """Per round of ``analyze_stack``: its (K,) Born weights and shared
    outcome product, from numpy arrays: each site's Gram factor per round
    (``site_gram``), one broadcast product per round, and the parity rule
    over the possible tuples' label products."""
    coefficients, pair = map(np.asarray, initial_product_terms())
    terms = np.outer(coefficients, coefficients.conj()).reshape(4, 1, 1, 1)
    recorded_terms = {}
    for site, targets in SITE_FACTORS.items():
        copies = [StateVector(layout(*targets), v) for v in pair]
        evolved = [apply_local(model.unitary(site), targets, state) for state in copies]
        recorded_terms[site] = np.stack([state.amplitudes for state in evolved])
    out = []
    for rounds in orderings.values():
        recorded: set[str] = set()
        for rnd in rounds:
            events = {ev.site: ev for ev in rnd}
            a, b, c = [
                site_gram(
                    recorded_terms[site] if site in recorded else pair,
                    *event_operators(events.get(site), model),
                )
                for site in ("A", "B", "C")
            ]
            product = terms * a[:, :, None, None] * b[:, None, :, None] * c[:, None, None]
            weights = np.maximum(product.sum(axis=0).real.reshape(-1), 0.0)
            labels = tuple(itertools.product(*[(+1, -1)] * len(rnd)))
            possible = weights > SUPPORT_EPS
            parity = np.prod(labels, axis=1)
            plus = (possible & (parity == 1)).any()
            minus = (possible & (parity == -1)).any()
            out.append((weights, 0 if plus == minus else (1 if plus else -1)))
            recorded |= {ev.site for ev in rnd if ev.kind == "friend_z"}
    return out


# ---------------------------------------------------------------------------
# Per-trial model samplers: one state simulation and one seeded stream per
# trial, returning a (trials, 6) array of ±1 in CANONICAL_SLOTS column order.


def _as_row(values: dict[str, int]) -> list[int]:
    return [values[slot] for slot in CANONICAL_SLOTS]


def sample_round_born(schedule, model, preferred, trials: int, seed: int) -> np.ndarray:
    """Each round's outcome tuple drawn from its Born table, rounds independent."""
    tables = []
    for k, rnd in enumerate(order_events(schedule, preferred), start=1):
        state = evolve_to(schedule, preferred, k, model)
        entries, _ = support_constraint(state, rnd, model)
        probs = np.array([abs(e.amplitude) ** 2 for e in entries])
        tables.append((round_slots(rnd), [e.labels for e in entries], probs / probs.sum()))
    rows = []
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        values = {}
        for slots, labels, probs in tables:
            values.update(zip(slots, labels[rng.choice(len(probs), p=probs)]))
        rows.append(_as_row(values))
    return np.array(rows, dtype=int).reshape(trials, len(CANONICAL_SLOTS))


def sample_sequential_collapse(schedule, model, preferred, trials: int, seed: int) -> np.ndarray:
    """Projective collapse event by event, the friend's device run after its
    z measurement."""
    events = [ev for rnd in order_events(schedule, preferred) for ev in rnd]
    observables = {
        ev.slot: spin_observable(SpinAxis.Z, ev.targets[1])
        if ev.kind == "friend_z"
        else outsider_observable(model, ev.site)
        for ev in events
    }
    initial = evolve_to(schedule, preferred, 1, model)
    rows = []
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        state = initial
        values = {}
        for ev in events:
            sign, state = measure(observables[ev.slot], state, rng)
            if ev.kind == "friend_z":
                state = apply_local(model.unitary(ev.site), ev.targets, state)
            values[ev.slot] = int(round(sign))
        rows.append(_as_row(values))
    return np.array(rows, dtype=int).reshape(trials, len(CANONICAL_SLOTS))


def collapse_branches_reference(state: StateVector, steps):
    """Every outcome sequence of measuring ``steps`` in turn, with collapse.

    Each step is an observable plus an optional ``(unitary, targets)`` run on
    the post-measurement state. Each path keeps its own dense state, and
    every projector and device runs on it alone. Returns ``(signs,
    probability)`` per surviving path, path-major and eigenpair-minor, and
    the total weight of outcomes dropped because their conditional
    probability fell below SAMPLE_FLOOR; a surviving outcome other than ±1
    raises ``ValueError``.
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
                    raise ValueError(f"outcome {value:g} has probability {p:.3g}")
                post = StateVector(psi.layout, projected.amplitudes / np.sqrt(p))
                if device is not None:
                    post = apply_local(device[0], device[1], post)
                grown.append((signs + (int(value),), weight * p, post))
        paths = grown
    return [(signs, weight) for signs, weight, _ in paths], pruned


def outcome_indices(rows: np.ndarray) -> np.ndarray:
    """Table index of each ±1 row: slot j is −1 iff bit (5 − j) is set."""
    bits = (np.asarray(rows) == -1).astype(int)
    return bits @ (1 << np.arange(bits.shape[1] - 1, -1, -1))


# ---------------------------------------------------------------------------
# The device sweep, one model at a time


def box_muller_normals(seed: int, index: int, shape) -> np.ndarray:
    """Spawn ``index``'s device normals: Box–Muller pairs of numpy's own
    ``trial_rng(seed, index).random`` uniforms, one element at a time in libm.
    Normals 2j and 2j + 1 are r·cos θ and r·sin θ, with r = √(−2·log1p(−u₂ⱼ))
    and θ = 2π·u₂ⱼ₊₁."""
    uniforms = trial_rng(seed, index).random(math.prod(shape)).tolist()
    normals = []
    for u, v in zip(uniforms[0::2], uniforms[1::2]):
        r, theta = math.sqrt(-2.0 * math.log1p(-u)), 2.0 * math.pi * v
        normals += [r * math.cos(theta), r * math.sin(theta)]
    return np.reshape(normals, shape)


def sweep_reference_model(index: int, seed: int) -> MeasurementModel:
    """Model ``index`` of a sweep: the ideal device first, then three
    ``gram_schmidt_q`` unitaries, one a site, of the model's
    ``box_muller_normals``: real parts, then imaginary parts."""
    if index == 0:
        return ideal_von_neumann()
    normals = box_muller_normals(seed, index, (3, 2, 6, 6))
    return MeasurementModel(tuple(Operator(gram_schmidt_q(re + 1j * im)) for re, im in normals))


def sweep_rows(report: SweepReport) -> list[tuple[bool, int, bool]]:
    """A ``nonideal_sweep`` report as ``sweep_reference`` gives it: per model,
    the shared (constraints_match, satisfying_count) and its own support_ok."""
    return [(report.constraints_match, report.satisfying_count, ok) for ok in report.support_ok]


def sweep_failures(report: SweepReport) -> list[int]:
    """The models a ``nonideal_sweep`` report fails."""
    rows = enumerate(sweep_rows(report))
    return [i for i, (match, count, ok) in rows if not (match and count == 0 and ok)]


def sweep_reference(n_models: int, seed: int) -> list[tuple[bool, int, bool]]:
    """``nonideal_sweep`` model by model: the same device streams, each drawn
    one unitary at a time (``sweep_reference_model``), then ``evolve_to`` plus
    ``support_constraint`` for every round of every standard frame. Per model,
    (constraints_match, satisfying_count, support_ok)."""
    schedule = build_schedule(10.0, 1.0)
    results = []
    for index in range(n_models):
        model = sweep_reference_model(index, seed)
        constraints = []
        support_ok = True
        for frame in schedule.frames.values():
            for k, rnd in enumerate(order_events(schedule, frame), start=1):
                state = evolve_to(schedule, frame, k, model)
                entries, constraint = support_constraint(state, rnd, model)
                if constraint is None:
                    continue
                constraints.append(constraint)
                support_ok &= all(abs(abs(e.amplitude) ** 2 - 0.25) <= QUARTER_TOL for e in entries)
        keys = {(c.slots, c.required_product) for c in constraints}
        matched = keys == CANONICAL_CONSTRAINT_KEYS
        results.append((matched, len(enumerate_assignments(constraints)), support_ok))
    return results


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser ``gwsim.cli`` used before its flag table, taking
    only flags spelled in full, as the flag table does."""
    parser = argparse.ArgumentParser(
        prog="gwsim",
        allow_abbrev=False,
        description="Three-laboratory GHZ experiment with nested observers: "
        "support tables, frame analysis, and single-outcome model statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, about: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=about, allow_abbrev=False)

    def common(p: argparse.ArgumentParser, *, geometry=True, model=True, seed=True):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--format", choices=("json", "text"), help="report format")
        if geometry:
            p.add_argument("--side", type=float, help="triangle side length")
            p.add_argument("--tau", type=float, help="epoch duration (t1−t0 = t2−t1)")
        if model:
            p.add_argument(
                "--model",
                metavar="SPEC",
                help="measurement devices: 'ideal' or 'random:<seed>'",
            )
        if seed:
            p.add_argument("--seed", type=int, help="master seed (default 0)")

    p = command("ghz-nogo", "support tables and the unsatisfiable constraint set")
    common(p, seed=False)
    p.add_argument(
        "--drop-constraint",
        type=int,
        metavar="K",
        help="drop the K-th constraint (1-based) before enumerating",
    )

    p = command("distinguish", "door vs pair statistics on the two descriptions")
    common(p, geometry=False, seed=False)

    p = command("frames", "geometry validation, boosts, event orderings")
    common(p, model=False, seed=False)

    p = command("run", "constraints plus Monte Carlo model statistics")
    common(p)
    p.add_argument("--trials", type=int, help="number of trials")
    p.add_argument("--mode", choices=MODES, help="interpretation model")
    p.add_argument("--preferred", choices=FRAME_NAMES, help="preferred frame")

    p = command("erasure", "single-lab record erasure experiment")
    common(p, geometry=False, model=False)
    p.add_argument("--trials", type=int, help="number of trials")
    p.add_argument("--skip-j", action="store_true", help="skip the outsider pair measurement")

    p = command("sweep", "contradiction under random non-ideal devices")
    common(p, model=False)
    p.add_argument("--models", type=int, default=101, help="number of models (first is ideal)")

    return parser


def reference_parse(argv: list[str]) -> tuple[str, dict, dict]:
    """The command, validated config and command keyword arguments that the
    argparse front end made of a command line. Raises SystemExit where
    argparse stopped (2 on an error) and ConfigError where the config did."""
    args = build_parser().parse_args(argv)
    config = load_config(args.config)
    if getattr(args, "side", None) is not None:
        config["geometry"]["side"] = args.side
    if getattr(args, "tau", None) is not None:
        config["geometry"]["tau"] = args.tau
    if getattr(args, "model", None) is not None:
        config["model"] = _parse_model_spec(args.model)
    if getattr(args, "trials", None) is not None:
        config["run"]["trials"] = args.trials
    if getattr(args, "mode", None) is not None:
        config["run"]["mode"] = args.mode
    if getattr(args, "preferred", None) is not None:
        config["run"]["preferred_frame"] = args.preferred
    if getattr(args, "seed", None) is not None:
        config["run"]["seed"] = args.seed
    if getattr(args, "format", None) is not None:
        config["output"]["format"] = args.format
    names = {"ghz-nogo": ["drop_constraint"], "erasure": ["skip_j"], "sweep": ["models"]}
    arguments = {name: getattr(args, name) for name in names.get(args.command, [])}
    return args.command, _validate_config(config), arguments


def json_reference(report) -> str:
    """A JSON report as the stdlib's pure-Python indenting encoder writes it,
    ``json.dumps(report, indent=2)``, then the newline every report ends with."""
    return json.dumps(report, indent=2) + "\n"


# JSON shapes a report holds, and some it does not yet: empty and nested
# containers, tuples, escapes in values and keys, and float and int extremes.
CRAFTED_REPORT = {
    "empty": {"dict": {}, "list": [], "tuple": (), "nested": {"a": {}, "b": [[], {}, ()]}},
    "strings": ["plain", "ünïcødé ✓ 𝜓", "\x00\x07\t\n\r\x1f\x7f", 'a "quote", a \\ and a /', ""],
    "keys": {"é": 1, "tab\tkey": 2, '"': 3, "": 4},
    "floats": [-0.0, 0.0, 5e-324, 1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan],
    "more floats": [0.1, 1e-7, 1e16, 2.5, -1.5e-300, 0.49999999999999983],
    "ints": [0, -1, 2**70, -(2**70), 2**63 - 1],
    "constants": [True, False, None],
    "tuples": ((1, (2, 3)), [(), ({"x": (None,)},)]),
    "deep": [[[[{"k": [1.5, "s", False]}]]]],
}
