"""Measurement machinery for the lab-electron pairs.

A laboratory measuring its electron's z-spin is modeled as a 6-dimensional
unitary on the (lab register, electron) pair taking ``|ready> ⊗ |±1_z>`` to a
pair of orthonormal *recorded* states: its two Ready columns, the only part
of a device that any command reads. The ideal case is a basis permutation
(the lab flips to RecordedUp/RecordedDown and the electron is untouched); any
other unitary models an imperfect device. ``haar_unitaries`` draws just the
columns asked for, by a reduced QR: the sweep asks for the Ready columns,
which ``cli._build_model`` completes to a whole device for ``random:N``.

Two measurements read a completed record, each as projectors on the pair:

* the outsider's (``_outsider_projectors``) — ±1 on the two superpositions
  ``(|+1Z> ± |-1Z>)/√2`` of recorded states, 0 on the rest of the pair space;
  it probes the pair *as a whole*, in a basis incompatible with the record,
* the door's (``_door_projectors``) — what you learn by asking the lab for
  its record: ±1 on the RecordedUp/RecordedDown lab levels, 0 on Ready.

``distinguishability_report`` weighs both measurements' outcomes on the
unitary and collapsed descriptions of a completed measurement, each an even
mixture of pair vectors v: an outcome with projector P weighs ½ Σ_v ‖P v‖².
The erasure experiment builds neither matrix: it applies both to its one
recorded column (``models.erasure_experiment``). ``measure`` samples an
``Observable`` with collapse on a dense state.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .qmath import Operator, StateVector, UNITARY_TOL, apply_local, check_unitary
from .systems import LabLabel, lab_vector

PAIR_DIM = 6  # 3-level lab register times 2-level electron
PROJECTOR_TOL = 1e-10
# Sampling an eigenvalue this improbable means the state is corrupted.
SAMPLE_FLOOR = 1e-12

SITES = ("A", "B", "C")


def pair_index(lab: LabLabel, spin_sign: int) -> int:
    """Index of |lab> ⊗ |spin_z = sign> in the row-major 6-dim pair basis."""
    return lab.value * 2 + (0 if spin_sign == +1 else 1)


class MeasurementModel(namedtuple("MeasurementModel", "site_unitaries")):
    """One 6×6 measurement unitary per site (labs A, B, C in order)."""

    __slots__ = ()

    def __new__(cls, site_unitaries: tuple[Operator, Operator, Operator]):
        if len(site_unitaries) != len(SITES):
            raise ValueError(f"need {len(SITES)} unitaries, got {len(site_unitaries)}")
        checked: set[int] = set()  # sites may share one Operator: check it once
        for site, op in zip(SITES, site_unitaries):
            if (shape := op.matrix.shape) != (PAIR_DIM, PAIR_DIM):
                raise ValueError(f"site {site}: unitary must be {PAIR_DIM}×{PAIR_DIM}, got {shape}")
            if id(op) not in checked and not check_unitary(op):
                raise ValueError(f"site {site}: matrix is not unitary within {UNITARY_TOL}")
            checked.add(id(op))
        return super().__new__(cls, site_unitaries)

    def unitary(self, site: str) -> Operator:
        return self.site_unitaries[SITES.index(site)]

    def recorded_state(self, site: str, sign: int) -> np.ndarray:
        """|±1Z> = U(|ready> ⊗ |±1_z>), the pair state after recording sign:
        column ``pair_index(READY, sign)`` of U."""
        return self.unitary(site).matrix[:, pair_index(LabLabel.READY, sign)]

    def recorded_sum(self, site: str, sign: int) -> np.ndarray:
        """|+1Z> ± |-1Z> = √2·|±1X>, the recorded-basis superposition unnormalised."""
        return self.recorded_state(site, +1) + sign * self.recorded_state(site, -1)

    def pair_x_state(self, site: str, sign: int) -> np.ndarray:
        """|±1X> = (|+1Z> ± |-1Z>)/√2, the recorded-basis superpositions."""
        return self.recorded_sum(site, sign) / np.sqrt(2.0)


def ideal_von_neumann() -> MeasurementModel:
    """Perfect recording: (Ready, ±z) ↔ (RecordedUp/Down, ±z), rest untouched.

    The defining action only constrains the two Ready columns; the completion
    to a full unitary is the simplest one, a basis permutation (swapping each
    Ready column with its recorded image and fixing the remaining two states).
    """
    mat = np.eye(PAIR_DIM, dtype=complex)
    for sign, recorded in ((+1, LabLabel.RECORDED_UP), (-1, LabLabel.RECORDED_DOWN)):
        i, j = pair_index(LabLabel.READY, sign), pair_index(recorded, sign)
        mat[[i, j]] = mat[[j, i]]
    op = Operator(mat)
    return MeasurementModel((op, op, op))


def haar_unitaries(draws: np.ndarray) -> np.ndarray:
    """The first k columns of Haar-distributed unitaries from (..., 2, d, k)
    standard normal draws (real, imaginary parts): one stacked reduced QR of
    the complex Gaussians, phases fixed by R's diagonal (Mezzadri, Notices
    AMS 54, 2007), bit for bit a (d, d) draw's first k columns and, for
    k = d, its unitary. Entry i is that of ``draws[i]`` alone, bit for bit.
    The sweep draws k = 2; ``cli._build_model`` completes a ``random:N`` device."""
    q, r = np.linalg.qr(draws[..., 0, :, :] + 1j * draws[..., 1, :, :])
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diagonal / np.abs(diagonal))[..., None, :]
    return q


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


def _door_projectors() -> list[np.ndarray]:
    """D_+, D_−, D_0 of asking the lab for its record: diag(lab_l) ⊗ 1₂ on the
    pair for RecordedUp, RecordedDown and Ready. They act on the lab register
    alone, so they are the same whatever the device."""
    labels = (LabLabel.RECORDED_UP, LabLabel.RECORDED_DOWN, LabLabel.READY)
    return [np.kron(np.diag(lab_vector(label)), np.eye(2)) for label in labels]


def measure(
    obs: Observable, state: StateVector, rng: np.random.Generator
) -> tuple[float, StateVector]:
    """Sample one outcome and collapse: post = P|ψ> / ‖P|ψ>‖."""
    probs = np.empty(len(obs.eigenpairs))
    for i, (_, proj) in enumerate(obs.eigenpairs):
        projected = apply_local(proj, obs.targets, state)
        probs[i] = max(0.0, float(np.real(np.vdot(state.amplitudes, projected.amplitudes))))
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


def distinguishability_report(model: MeasurementModel | None = None) -> dict:
    """Door vs pair measurement on the unitary and collapsed descriptions.

    Deterministic (no sampling). Each description is an even mixture of pair
    vectors: the unitary record is ½|b_+><b_+| for the unnormalised
    b_+ = |+1Z> + |-1Z>, the collapsed record the two recorded states. An
    outcome with projector P weighs ½ Σ_v ‖P v‖², the rule ``erasure`` reads
    its table by, so the ideal device's table is exact. The door rows agree —
    opening the door cannot tell the descriptions apart — while the pair
    measurement gives a point mass on +1 for the unitary record against
    50/50 for the collapsed one.
    """
    if model is None:
        model = ideal_von_neumann()
    states = {
        "unitary_record": [model.recorded_sum("A", +1)],
        "collapsed_record": [model.recorded_state("A", sign) for sign in (+1, -1)],
    }
    projectors = {"door": _door_projectors(), "pair_x": _outsider_projectors(model, "A")}
    table = {}
    for name, projs in projectors.items():
        table[name] = {}
        for state, vectors in states.items():
            projected = np.stack(projs) @ np.stack(vectors, axis=-1)  # (outcomes, 6, vectors)
            weights = 0.5 * (projected.conj() * projected).real.sum(axis=(1, 2))
            table[name][state] = dict(zip((+1.0, -1.0, 0.0), weights.tolist()))
    return {"observables": list(projectors), "states": list(states), "distributions": table}
