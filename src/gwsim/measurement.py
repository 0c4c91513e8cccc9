"""Measurement machinery for the lab-electron pairs.

A laboratory measuring its electron's z-spin is modeled as a 6-dimensional
unitary on the (lab register, electron) pair taking ``|ready> ⊗ |±1_z>`` to a
pair of orthonormal *recorded* states: its two Ready columns, the only part
of a device that any command reads. The ideal case is a basis permutation
(the lab flips to RecordedUp/RecordedDown and the electron is untouched); any
other unitary models an imperfect device. ``haar_unitaries`` draws just the
columns asked for, by Gram–Schmidt: the sweep asks for the Ready columns,
which ``models.haar_model`` completes to a whole device for ``random:N``.

Two measurements read a completed record, each with outcomes +1, −1, 0:

* the outsider's — ±1 on the two superpositions ``(|+1Z> ± |-1Z>)/√2`` of
  recorded states, 0 on the rest of the pair space; it probes the pair *as a
  whole*, in a basis incompatible with the record,
* the door's — what you learn by asking the lab for its record: ±1 on the
  RecordedUp/RecordedDown lab levels, 0 on Ready.

No command builds either projector: ``outsider_parts`` and ``door_weights``
read both off pair vectors, in Python complex numbers, for the ``distinguish``,
collapse and erasure tables. ``measure`` samples an ``Observable`` with
collapse on a dense state.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .qmath import Operator, StateVector, UNITARY_TOL, apply_local, check_unitary
from .systems import LabLabel

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

    def recorded_sum(self, site: str, sign: int) -> list[complex]:
        """|+1Z> ± |-1Z> = √2·|±1X>, the recorded-basis superposition
        unnormalised, in Python complex numbers."""
        plus, minus = (self.recorded_state(site, s).tolist() for s in (+1, -1))
        return [p + sign * m for p, m in zip(plus, minus)]


def ideal_von_neumann() -> MeasurementModel:
    """Perfect recording: (Ready, ±z) ↔ (RecordedUp/Down, ±z), rest untouched.

    The defining action only constrains the two Ready columns; the completion
    to a full unitary is the simplest one, a basis permutation (swapping each
    Ready column with its recorded image and fixing the remaining two states).
    """
    image = list(range(PAIR_DIM))  # row i of the permutation is unit row image[i]
    for sign, recorded in ((+1, LabLabel.RECORDED_UP), (-1, LabLabel.RECORDED_DOWN)):
        i, j = pair_index(LabLabel.READY, sign), pair_index(recorded, sign)
        image[i], image[j] = j, i
    op = Operator([[float(k == image[i]) for k in range(PAIR_DIM)] for i in range(PAIR_DIM)])
    return MeasurementModel((op, op, op))


def haar_unitaries(draws: np.ndarray) -> np.ndarray:
    """The first k columns of Haar-distributed unitaries from (..., 2, d, k)
    standard normal draws (real, imaginary parts), by modified Gram–Schmidt in
    real arithmetic, without LAPACK: the QR whose R has a positive real diagonal
    (Mezzadri, Notices AMS 54, 2007). Bit for bit a (d, d) draw's first k
    columns; entry i is that of ``draws[i]`` alone. The sweep draws k = 2."""
    q = np.empty(draws.shape[:-3] + draws.shape[-2:], dtype=complex)
    for j in range(q.shape[-1]):
        re, im = draws[..., 0, :, j], draws[..., 1, :, j]
        for i in range(j):  # v ← v − (q_i† v) q_i
            qr, qi = q.real[..., i], q.imag[..., i]
            cr, ci = (qr * re + qi * im).sum(-1)[..., None], (qr * im - qi * re).sum(-1)[..., None]
            re, im = re - (cr * qr - ci * qi), im - (cr * qi + ci * qr)
        norm = np.sqrt((re * re + im * im).sum(-1))[..., None]
        q.real[..., j], q.imag[..., j] = re / norm, im / norm
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


def outsider_parts(model: MeasurementModel, site: str, r) -> list[list[complex]]:
    """[Q_+ r, Q_− r, Q_0 r] of the pair vector ``r`` (Python complex numbers) for
    the outsider at ``site``, through its recorded columns: Q_± r = ½ b_± (b_±† r)
    for b_± = |+1Z> ± |-1Z>, and Q_0 r = r − Q_+ r − Q_− r."""
    sums = [model.recorded_sum(site, sign) for sign in (+1, -1)]
    overlaps = [sum(x.conjugate() * y for x, y in zip(b, r)) for b in sums]
    parts = [[0.5 * x * c for x in b] for b, c in zip(sums, overlaps)]
    return [*parts, [x - p - m for x, p, m in zip(r, *parts)]]


def door_weights(v) -> list[float]:
    """The door's RecordedUp, RecordedDown and Ready weights of the pair vector
    ``v`` (Python complex numbers), each over its lab level's two pair rows.
    |x|² is x.real² + x.imag²: abs(x)**2 rounds abs(¼ − ¼i)**2 off 1/8."""
    square = [x.real * x.real + x.imag * x.imag for x in v]
    labs = (LabLabel.RECORDED_UP, LabLabel.RECORDED_DOWN, LabLabel.READY)
    return [square[pair_index(lab, +1)] + square[pair_index(lab, -1)] for lab in labs]


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


def distinguishability_report(model: MeasurementModel) -> dict:
    """Door vs pair measurement on the unitary and collapsed descriptions.

    Deterministic (no sampling). Each description is an even mixture of pair
    vectors: the unitary record is ½|b_+><b_+| for the unnormalised
    b_+ = |+1Z> + |-1Z>, the collapsed record the two recorded states. An
    outcome weighs ½ Σ_v of its weight in v (``door_weights``; ‖Q v‖² of
    ``outsider_parts``), as ``erasure`` reads its table, so the ideal device's
    table is exact. The door rows agree — opening the door cannot tell the
    descriptions apart — while the pair measurement gives a point mass on +1
    for the unitary record against 50/50 for the collapsed one.
    """
    states = {
        "unitary_record": [model.recorded_sum("A", +1)],
        "collapsed_record": [model.recorded_state("A", sign).tolist() for sign in (+1, -1)],
    }
    readings = {
        "door": door_weights,
        "pair_x": lambda v: [sum(door_weights(q)) for q in outsider_parts(model, "A", v)],
    }
    table = {}
    for name, read in readings.items():
        table[name] = {}
        for state, vectors in states.items():
            weights = zip(*map(read, vectors))  # per outcome: its weight in each v
            table[name][state] = {x: 0.5 * sum(w) for x, w in zip((+1.0, -1.0, 0.0), weights)}
    return {"observables": list(readings), "states": list(states), "distributions": table}
