"""Catalog of named physical states and support extraction.

Spin eigenstates per axis, the 3-level laboratory register states and the
initial scenario state as its two product terms (``initial_product_terms``),
which the commands read. Only the tests' reference path and the benchmark's
per-layer metrics read ``lab_state``, ``ghz_state``, the dense 216-dim
``initial_scenario_state``, ``SupportEntry`` and ``support_table`` (which
joint outcome tuples of labeled basis groups carry weight in a state).

Phase conventions, fixed once and verified against a symbolic oracle in the
test suite:

    |+1_z> = (1, 0)            |-1_z> = (0, 1)
    |±1_x> = (|+1_z> ± |-1_z>)/√2
    |±1_y> = (|+1_z> ∓ i|-1_z>)/√2

The y convention carries the flipped sign on purpose: it is the one for which
the GHZ state's x-basis support is the odd-parity (product −1) set while every
mixed x/z expansion is even-parity, which is the correlation structure the
whole scenario is built on.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import NamedTuple

import numpy as np

from .qmath import (
    CANONICAL_LAYOUT,
    StateVector,
    grouped_amplitudes,
    layout,
    permute_factors,
    tensor,
)

SQRT_HALF = np.sqrt(0.5)

# |amplitude|² below this is treated as an impossible outcome (support cutoff).
SUPPORT_EPS = 1e-9

# Each site pairs one lab register with the electron it measures.
SITE_FACTORS = {"A": ("L", "A"), "B": ("M", "B"), "C": ("N", "C")}


class SpinAxis(Enum):
    X = "x"
    Y = "y"
    Z = "z"


class LabLabel(Enum):
    READY = 0
    RECORDED_UP = 1
    RECORDED_DOWN = 2


_SPIN_VECTORS = {
    (SpinAxis.Z, +1): np.array([1.0, 0.0], dtype=complex),
    (SpinAxis.Z, -1): np.array([0.0, 1.0], dtype=complex),
    (SpinAxis.X, +1): np.array([SQRT_HALF, SQRT_HALF], dtype=complex),
    (SpinAxis.X, -1): np.array([SQRT_HALF, -SQRT_HALF], dtype=complex),
    (SpinAxis.Y, +1): np.array([SQRT_HALF, -1j * SQRT_HALF], dtype=complex),
    (SpinAxis.Y, -1): np.array([SQRT_HALF, 1j * SQRT_HALF], dtype=complex),
}


def spin_vector(axis: SpinAxis, sign: int) -> np.ndarray:
    """Raw length-2 amplitude vector of a spin eigenstate."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return _SPIN_VECTORS[(axis, sign)].copy()


def spin_basis(axis: SpinAxis) -> np.ndarray:
    """2x2 matrix with the +1 and -1 eigenvectors of ``axis`` as columns."""
    return np.column_stack([spin_vector(axis, +1), spin_vector(axis, -1)])


def lab_vector(label: LabLabel) -> np.ndarray:
    vec = np.zeros(3, dtype=complex)
    vec[label.value] = 1.0
    return vec


def lab_state(label: LabLabel, factor: str = "L") -> StateVector:
    """Basis state of one 3-level laboratory register."""
    return StateVector(layout(factor), lab_vector(label))


def ghz_state() -> StateVector:
    """Three-electron GHZ state √½(|+1_y>^⊗3 − i|-1_y>^⊗3) on factors A, B, C."""
    yp = spin_vector(SpinAxis.Y, +1)
    ym = spin_vector(SpinAxis.Y, -1)
    amps = SQRT_HALF * (
        np.kron(np.kron(yp, yp), yp) - 1j * np.kron(np.kron(ym, ym), ym)
    )
    return StateVector(layout("A", "B", "C"), amps)


def initial_scenario_state() -> StateVector:
    """All three labs ready, electrons in the GHZ state, canonical factor order."""
    labs = tensor(
        tensor(lab_state(LabLabel.READY, "L"), lab_state(LabLabel.READY, "M")),
        lab_state(LabLabel.READY, "N"),
    )
    return permute_factors(tensor(labs, ghz_state()), CANONICAL_LAYOUT.names)


def initial_product_terms() -> tuple[np.ndarray, np.ndarray]:
    """The initial scenario state as a sum of two product states, exactly.

    Returns the coefficients c (2,) and pair vectors v (2, 6), row-major over
    (lab register, electron), with ``initial_scenario_state()`` equal to
    Σ_k c_k v_k ⊗ v_k ⊗ v_k: every lab is ready, and every electron is
    √2·|+1_y> = (1, −i) in term 0 and √2·|-1_y> = (1, i) in term 1. The four
    factors √½ of ``ghz_state`` fold into c = (1/4, −i/4), so every entry is
    exact in binary floating point.
    """
    vectors = np.zeros((2, 6), dtype=complex)  # row-major: entries 0, 1 are ready ⊗ |±1_z>
    vectors[:, 0] = 1.0
    vectors.imag[:, 1] = (-1.0, 1.0)
    return np.array([0.25, -0.25j]), vectors


class SupportEntry(NamedTuple):
    """One surviving term of an expansion: outcome labels and its coefficient."""

    labels: tuple[int, ...]
    amplitude: complex

    @property
    def product(self) -> int:
        out = 1
        for s in self.labels:
            out *= s
        return out


def support_table(state: StateVector, groups) -> tuple[list[SupportEntry], float]:
    """Support entries over the groups' joint labels, plus leftover weight.

    Factors not covered by any group are spectators: each entry's probability
    is summed over them, and its amplitude is the honest complex coefficient
    when there are no spectators, else √probability with the (ill-defined)
    phase dropped. The residual is the weight outside the labeled subspaces;
    probabilities plus residual always sum to 1 for a normalized state.
    """
    groups = list(groups)
    amps, spec_dim = grouped_amplitudes(state, groups)
    label_sets = [g.labels for g in groups]
    entries: list[SupportEntry] = []
    total = 0.0
    for idx in itertools.product(*(range(len(ls)) for ls in label_sets)):
        if spec_dim == 1:
            amplitude = complex(amps[idx + (0,)])
            prob = abs(amplitude) ** 2
        else:
            prob = float(np.sum(np.abs(amps[idx]) ** 2))
            amplitude = complex(np.sqrt(prob))
        total += prob
        if prob > SUPPORT_EPS:
            labels = tuple(ls[i] for ls, i in zip(label_sets, idx))
            entries.append(SupportEntry(labels, amplitude))
    return entries, 1.0 - total

