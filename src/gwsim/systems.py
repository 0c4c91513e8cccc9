"""Named physical states and support extraction.

The 3-level laboratory register's levels (``LabLabel``) and the initial
scenario state as its two product terms (``initial_product_terms``), its one
construction, which the commands read. Only
the tests' reference path and the benchmark's per-layer metrics read the
dense 216-dim ``initial_scenario_state`` (the product terms expanded),
``SupportEntry`` and ``support_table`` (which joint outcome tuples of labeled
basis groups carry weight in a state).
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import NamedTuple

import numpy as np

from .qmath import CANONICAL_LAYOUT, StateVector, grouped_amplitudes

# |amplitude|² below this is treated as an impossible outcome (support cutoff).
SUPPORT_EPS = 1e-9

# Each site pairs one lab register with the electron it measures.
SITE_FACTORS = {"A": ("L", "A"), "B": ("M", "B"), "C": ("N", "C")}


class LabLabel(Enum):
    READY = 0
    RECORDED_UP = 1
    RECORDED_DOWN = 2


def initial_scenario_state() -> StateVector:
    """Σ_k c_k v_k ⊗ v_k ⊗ v_k of ``initial_product_terms`` on the canonical
    layout, whose (L, A, M, B, N, C) order is pair-major. Every amplitude is
    exact: eight of them are ±¼ ± ¼i, the rest 0."""
    coefficients, vectors = initial_product_terms()
    terms = (c * np.kron(np.kron(v, v), v) for c, v in zip(coefficients, map(np.array, vectors)))
    return StateVector(CANONICAL_LAYOUT, sum(terms))


def initial_product_terms() -> tuple[tuple[complex, ...], tuple[tuple[complex, ...], ...]]:
    """The initial scenario state as a sum of two product states, exactly.

    All three labs are ready and the electrons are in the GHZ state
    √½(|+1_y>^⊗3 − i|-1_y>^⊗3), with |+1_z> = (1, 0), |-1_z> = (0, 1) and

        |±1_x> = (|+1_z> ± |-1_z>)/√2
        |±1_y> = (|+1_z> ∓ i|-1_z>)/√2

    The y convention carries the flipped sign on purpose: it is the one for
    which the GHZ state's x-basis support is the odd-parity (product −1) set
    while every mixed x/z expansion is even-parity, which is the correlation
    structure the whole scenario is built on. The test suite checks the terms
    against a symbolic oracle.

    Returns the coefficients c_k and the pair vectors v_k, six entries each,
    row-major over (lab register, electron), as tuples of Python complex
    numbers, with the state equal to Σ_k c_k v_k ⊗ v_k ⊗ v_k: every lab is
    ready, and every electron is √2·|+1_y> = (1, −i) in term 0 and
    √2·|-1_y> = (1, i) in term 1. The four factors √½ fold into
    c = (1/4, −i/4), so every entry is exact in binary floating point.
    """
    # Entries 0, 1 are ready ⊗ |±1_z>; complex(0.0, −1.0), unlike −1j, has a +0 real part.
    vectors = tuple((1 + 0j, complex(0.0, sign), 0j, 0j, 0j, 0j) for sign in (-1.0, 1.0))
    return (0.25 + 0j, -0.25j), vectors


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

