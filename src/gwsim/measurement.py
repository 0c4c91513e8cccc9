"""Measurement machinery for the lab-electron pairs.

A laboratory measuring its electron's z-spin is modeled as a 6-dimensional
unitary on the (lab register, electron) pair taking ``|ready> ⊗ |±1_z>`` to a
pair of orthonormal *recorded* states. The ideal case is a basis permutation
(the lab flips to RecordedUp/RecordedDown and the electron is untouched); any
other unitary models an imperfect device.

On top of a model we build the composite observables:

* the outsider observable — eigenvalue ±1 on the two superpositions
  ``(|+1Z> ± |-1Z>)/√2`` of recorded states, 0 on the rest of the pair space;
  measuring it probes the lab+electron pair *as a whole*, in a basis
  incompatible with the record,
* the door observable — what you learn by asking the lab for its record:
  ±1 on the RecordedUp/RecordedDown lab levels, 0 on Ready,

plus Born distributions, projective sampling with collapse, and the
distinguishability table contrasting the unitary and collapsed descriptions
of a completed measurement.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .qmath import (
    MixedState,
    Operator,
    StateVector,
    UNITARY_TOL,
    apply_local,
    check_unitary,
    layout,
)
from .systems import SITE_FACTORS, LabLabel, lab_vector

PAIR_DIM = 6  # 3-level lab register times 2-level electron
PROJECTOR_TOL = 1e-10
# Sampling an eigenvalue this improbable means the state is corrupted.
SAMPLE_FLOOR = 1e-12

SITES = ("A", "B", "C")


def pair_index(lab: LabLabel, spin_sign: int) -> int:
    """Index of |lab> ⊗ |spin_z = sign> in the row-major 6-dim pair basis."""
    return lab.value * 2 + (0 if spin_sign == +1 else 1)


class MeasurementModel(namedtuple("MeasurementModel", "site_unitaries")):
    """One 6-dim measurement unitary per site (labs A, B, C in order).

    Site operators that are (M, 6, 6) stacks make one model of M device
    models, analysed together (``scenario.analyze_stack``); ``unitary`` and
    the pair states then give stacks too.
    """

    __slots__ = ()

    def __new__(cls, site_unitaries: tuple[Operator, Operator, Operator]):
        if len(site_unitaries) != len(SITES):
            raise ValueError(f"need {len(SITES)} unitaries, got {len(site_unitaries)}")
        checked: set[int] = set()  # sites may share one Operator: check it once
        for site, op in zip(SITES, site_unitaries):
            if op.dim != PAIR_DIM:
                raise ValueError(f"site {site}: unitary must be {PAIR_DIM}-dim, got {op.dim}")
            if id(op) not in checked and not check_unitary(op):
                raise ValueError(f"site {site}: matrix is not unitary within {UNITARY_TOL}")
            checked.add(id(op))
        return super().__new__(cls, site_unitaries)

    def unitary(self, site: str) -> Operator:
        return self.site_unitaries[SITES.index(site)]

    def recorded_state(self, site: str, sign: int) -> np.ndarray:
        """|±1Z> = U(|ready> ⊗ |±1_z>), the pair state after recording sign:
        column ``pair_index(READY, sign)`` of U."""
        return self.unitary(site).matrix[..., pair_index(LabLabel.READY, sign)]

    def recorded_sum(self, site: str, sign: int) -> np.ndarray:
        """|+1Z> ± |-1Z> = √2·|±1X>, the recorded-basis superposition unnormalised."""
        return self.recorded_state(site, +1) + sign * self.recorded_state(site, -1)

    def pair_x_state(self, site: str, sign: int) -> np.ndarray:
        """|±1X> = (|+1Z> ± |-1Z>)/√2, the recorded-basis superpositions."""
        return self.recorded_sum(site, sign) / np.sqrt(2.0)


def _ideal_matrix() -> np.ndarray:
    mat = np.eye(PAIR_DIM, dtype=complex)
    ready_up = pair_index(LabLabel.READY, +1)
    ready_dn = pair_index(LabLabel.READY, -1)
    rec_up = pair_index(LabLabel.RECORDED_UP, +1)
    rec_dn = pair_index(LabLabel.RECORDED_DOWN, -1)
    for i, j in ((ready_up, rec_up), (ready_dn, rec_dn)):
        mat[[i, j]] = mat[[j, i]]
    return mat


def ideal_von_neumann() -> MeasurementModel:
    """Perfect recording: (Ready, ±z) ↔ (RecordedUp/Down, ±z), rest untouched.

    The defining action only constrains the two Ready columns; the completion
    to a full unitary is the simplest one, a basis permutation (swapping each
    Ready column with its recorded image and fixing the remaining two states).
    """
    op = Operator(_ideal_matrix())
    return MeasurementModel((op, op, op))


def haar_unitaries(draws: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from (..., 2, d, d) standard normal draws
    (real, imaginary parts): one stacked QR of the complex Gaussians, each
    column's phase fixed by R's diagonal (Mezzadri, Notices AMS 54, 2007).
    Entry i is the unitary of ``draws[i]`` alone, bit for bit."""
    q, r = np.linalg.qr(draws[..., 0, :, :] + 1j * draws[..., 1, :, :])
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diagonal / np.abs(diagonal))[..., None, :]


def haar_random_unitary(dim: int, rng: np.random.Generator) -> Operator:
    """Haar-distributed unitary from one (2, dim, dim) normal draw of ``rng``."""
    return Operator(haar_unitaries(rng.normal(size=(2, dim, dim))))


class Observable(namedtuple("Observable", "targets eigenpairs")):
    """Spectral decomposition: distinct eigenvalues with orthogonal projectors
    summing to the identity on the target factors."""

    __slots__ = ()

    def __new__(cls, targets: tuple[str, ...], eigenpairs: tuple[tuple[float, Operator], ...]):
        values = [v for v, _ in eigenpairs]
        if len(set(values)) != len(values):
            raise ValueError(f"eigenvalues must be distinct, got {values}")
        mats = [p.matrix for _, p in eigenpairs]
        dim = mats[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for val, mat in zip(values, mats):
            if np.max(np.abs(mat - mat.conj().T)) > PROJECTOR_TOL:
                raise ValueError(f"projector for eigenvalue {val} is not Hermitian")
            if np.max(np.abs(mat @ mat - mat)) > PROJECTOR_TOL:
                raise ValueError(f"projector for eigenvalue {val} is not idempotent")
            for other_val, other in zip(values, mats):
                if other is not mat and np.max(np.abs(mat @ other)) > PROJECTOR_TOL:
                    raise ValueError(
                        f"projectors for eigenvalues {val} and {other_val} overlap"
                    )
            total += mat
        if np.max(np.abs(total - np.eye(dim))) > PROJECTOR_TOL:
            raise ValueError("projectors do not sum to the identity")
        return super().__new__(cls, targets, eigenpairs)

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.eigenpairs)


def _outsider_projectors(model: MeasurementModel, site: str) -> list[np.ndarray]:
    """Q_+, Q_−, Q_0 of the outsider's measurement at ``site``: ½ b_± b_±† for
    b_± = |+1Z> ± |-1Z>, then the rest projector."""
    q = [0.5 * np.outer(b, b.conj()) for b in (model.recorded_sum(site, s) for s in (+1, -1))]
    return [*q, np.eye(PAIR_DIM) - q[0] - q[1]]


def outsider_observable(model: MeasurementModel, site: str = "A") -> Observable:
    """±1 on the recorded-basis superpositions |±1X>, 0 on their complement.

    This is the observable someone outside the sealed lab measures on the
    whole lab+electron pair; its eigenbasis is incompatible with the record.
    The 0 eigenvalue pads the 4-dim rest of the pair space, which carries no
    weight on any state arising in the scenario.
    """
    projectors = map(Operator, _outsider_projectors(model, site))
    return Observable(SITE_FACTORS[site], tuple(zip((+1.0, -1.0, 0.0), projectors)))


def door_observable(site: str = "A") -> Observable:
    """Ask the lab for its record: +1 RecordedUp, −1 RecordedDown, 0 Ready.

    Acts on the lab register alone, in its fixed 3-level basis, so it is the
    same whatever the measurement device.
    """
    projs = {
        label: np.diag(lab_vector(label))
        for label in (LabLabel.RECORDED_UP, LabLabel.RECORDED_DOWN, LabLabel.READY)
    }
    lab_factor = SITE_FACTORS[site][0]
    return Observable(
        (lab_factor,),
        (
            (+1.0, Operator(projs[LabLabel.RECORDED_UP])),
            (-1.0, Operator(projs[LabLabel.RECORDED_DOWN])),
            (0.0, Operator(projs[LabLabel.READY])),
        ),
    )


class OutcomeDistribution(namedtuple("OutcomeDistribution", "pairs")):
    """Probabilities per eigenvalue; validated to be a distribution."""

    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[float, float], ...]):
        total = 0.0
        for value, prob in pairs:
            if not -PROJECTOR_TOL <= prob <= 1 + PROJECTOR_TOL:
                raise ValueError(f"probability of outcome {value} out of range: {prob}")
            total += prob
        if abs(total - 1.0) > PROJECTOR_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        return super().__new__(cls, pairs)

    def probability(self, value: float) -> float:
        for v, p in self.pairs:
            if v == value:
                return p
        raise KeyError(f"no eigenvalue {value}")

    def as_dict(self) -> dict[float, float]:
        return dict(self.pairs)


def _pure_probabilities(obs: Observable, state: StateVector) -> np.ndarray:
    probs = np.empty(len(obs.eigenpairs))
    for i, (_, proj) in enumerate(obs.eigenpairs):
        projected = apply_local(proj, obs.targets, state)
        probs[i] = max(0.0, float(np.real(np.vdot(state.amplitudes, projected.amplitudes))))
    return probs


def distribution(obs: Observable, state) -> OutcomeDistribution:
    """Born distribution of ``obs`` on a pure or mixed state."""
    if isinstance(state, MixedState):
        probs = np.zeros(len(obs.eigenpairs))
        for weight, component in state.components:
            probs += weight * _pure_probabilities(obs, component)
    else:
        probs = _pure_probabilities(obs, state)
    return OutcomeDistribution(tuple(zip(obs.eigenvalues, probs)))


def measure(
    obs: Observable, state: StateVector, rng: np.random.Generator
) -> tuple[float, StateVector]:
    """Sample one outcome and collapse: post = P|ψ> / ‖P|ψ>‖."""
    probs = _pure_probabilities(obs, state)
    total = probs.sum()
    idx = rng.choice(len(probs), p=probs / total)
    prob = probs[idx]
    if prob < SAMPLE_FLOOR:
        raise RuntimeError(
            f"sampled eigenvalue {obs.eigenvalues[idx]} with probability {prob:g}; "
            "state is numerically corrupted"
        )
    value, proj = obs.eigenpairs[idx]
    post = apply_local(proj, obs.targets, state)
    amps = post.amplitudes / np.sqrt(prob)
    return value, StateVector(state.layout, amps)


def collapsed_record_mixture(model: MeasurementModel, site: str = "A") -> MixedState:
    """Collapsed description of the same measurement: an even classical
    mixture of the two recorded states."""
    lab_f, elec_f = SITE_FACTORS[site]
    lay = layout(lab_f, elec_f)
    return MixedState(
        (
            (0.5, StateVector(lay, model.recorded_state(site, +1))),
            (0.5, StateVector(lay, model.recorded_state(site, -1))),
        )
    )


def distinguishability_report(model: MeasurementModel | None = None) -> dict:
    """Door vs pair observable on the unitary and collapsed descriptions.

    Deterministic (no sampling). The door rows agree — opening the door
    cannot tell the descriptions apart — while the pair observable gives a
    point mass on +1 for the unitary state against 50/50 for the mixture.
    The unitary record is read as ½|b_+><b_+| for the unnormalised
    b_+ = |+1Z> + |-1Z>, as ``erasure`` reads it, so the ideal device's
    table is exact.
    """
    if model is None:
        model = ideal_von_neumann()
    b_plus = StateVector(layout(*SITE_FACTORS["A"]), model.recorded_sum("A", +1))
    states = {
        "unitary_record": MixedState(((0.5, b_plus),)),
        "collapsed_record": collapsed_record_mixture(model),
    }
    observables = {
        "door": door_observable(),
        "pair_x": outsider_observable(model),
    }
    table = {
        obs_name: {
            state_name: distribution(obs, state).as_dict()
            for state_name, state in states.items()
        }
        for obs_name, obs in observables.items()
    }
    return {
        "observables": list(observables),
        "states": list(states),
        "distributions": table,
    }
