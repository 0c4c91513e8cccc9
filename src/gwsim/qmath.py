"""Dense complex linear algebra over a fixed tensor-factor layout.

A state is a complex vector over an ordered list of named factors (three
3-level laboratory registers L, M, N and three spin-1/2 electrons A, B, C).
Operators act on named factors of a state (``apply_local``), factors can be
reordered (``permute_factors``), and labeled basis groups are contracted
against a state to give joint outcome amplitudes (``grouped_amplitudes``).
States, operators and basis vectors may carry one leading *stack* axis;
entry m of a stacked result is the call on entry m, bit for bit. Commands
read ``Operator`` and ``check_unitary``, and run ``apply_local`` on 6-dim
pair vectors only (on ``scenario.analyze_stack``'s (2, 6) stack of product
terms, on ``models.erasure_experiment``'s one column), so that the
benchmark's ``apply_local`` metrics see every workload. ``FactorLayout``,
``tensor``, ``permute_factors``, ``BasisGroup`` and ``grouped_amplitudes``
serve only the tests' 216-dim reference path and the per-layer metrics.
Values are named tuples validated in ``__new__`` (``_replace`` skips the
check, so build a changed value anew); every operation is a pure function.
"""

from __future__ import annotations

import cmath
from collections import namedtuple
from math import hypot, prod
from operator import mul

import numpy as np

# Known factor names and their Hilbert-space dimensions. Labs are 3-level
# (ready / recorded-up / recorded-down), electrons are spin-1/2.
FACTOR_DIMS = {"L": 3, "M": 3, "N": 3, "A": 2, "B": 2, "C": 2}

# One canonical factor order for the full six-system scenario; all basis-index
# arithmetic is row-major over this order.
CANONICAL_ORDER = ("L", "A", "M", "B", "N", "C")

UNITARY_TOL = 1e-10


class LayoutError(ValueError):
    """Raised for malformed layouts or operations across mismatched layouts."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


class FactorLayout(namedtuple("FactorLayout", "names")):
    """Ordered list of named tensor factors."""

    __slots__ = ()

    def __new__(cls, names: tuple[str, ...]):
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate factor names in {names}")
        for name in names:
            if name not in FACTOR_DIMS:
                raise LayoutError(f"unknown factor {name!r}; expected one of {sorted(FACTOR_DIMS)}")
        return super().__new__(cls, names)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(FACTOR_DIMS[n] for n in self.names)

    @property
    def dim(self) -> int:
        return prod(self.dims)

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise LayoutError(f"factor {name!r} not in layout {self.names}") from None

    def axes(self, names) -> tuple[int, ...]:
        return tuple(self.axis(n) for n in names)

    def concat(self, other: "FactorLayout") -> "FactorLayout":
        overlap = set(self.names) & set(other.names)
        if overlap:
            raise LayoutError(f"duplicate factor name {sorted(overlap)} in tensor product")
        return FactorLayout(self.names + other.names)


def layout(*names: str) -> FactorLayout:
    return FactorLayout(tuple(names))


CANONICAL_LAYOUT = layout(*CANONICAL_ORDER)


class StateVector(namedtuple("StateVector", "layout amplitudes")):
    """Complex amplitude vector over a factor layout (row-major basis order).

    A 2-D ``amplitudes`` array is a stack: one state per row, all on the
    layout.
    """

    __slots__ = ()

    def __new__(cls, layout: FactorLayout, amplitudes: np.ndarray):
        amps = np.array(amplitudes, dtype=complex, order="C")  # a copy, as in Operator
        amps = amps if amps.ndim == 2 else amps.reshape(-1)
        if amps.shape[-1] != layout.dim:
            raise LayoutError(
                f"amplitude length {amps.shape[-1]} does not match layout dimension {layout.dim}"
            )
        if not all(map(cmath.isfinite, amps.ravel().tolist())):
            raise ValueError("non-finite amplitude")
        return super().__new__(cls, layout, _readonly(amps))

    @property
    def dim(self) -> int:
        return self.layout.dim

    def tensor_view(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per factor, after the stack axis if
        any (read-only view)."""
        return self.amplitudes.reshape(self.amplitudes.shape[:-1] + self.layout.dims)


class Operator(namedtuple("Operator", "matrix")):
    """Dense square matrix acting on the listed factors (row-major), or a
    (stack, dim, dim) stack of them."""

    __slots__ = ()

    def __new__(cls, matrix: np.ndarray):
        mat = np.array(matrix, dtype=complex)  # a copy: the caller's array stays writable
        if mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        return super().__new__(cls, _readonly(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; the result's layout is the concatenation of the inputs'."""
    return StateVector(a.layout.concat(b.layout), np.kron(a.amplitudes, b.amplitudes))


def apply_local(op: Operator, targets, state: StateVector) -> StateVector:
    """Apply ``op`` on the named target factors, identity elsewhere.

    ``targets`` is an ordered list of factor names; ``op`` must act on the
    row-major product space of exactly those factors. On a stack of states,
    one operator applies to each, a stack entry by entry: one matmul in all.
    """
    targets = tuple(targets)
    target_dim = prod(FACTOR_DIMS[n] for n in targets)
    if op.dim != target_dim:
        raise LayoutError(
            f"operator dimension {op.dim} does not match target dimension {target_dim} for {targets}"
        )
    stack = state.amplitudes.shape[:-1]
    s, k = len(stack), len(targets)
    axes = [s + a for a in state.layout.axes(targets)]
    # The stack axes, then the targets in order, then the other factors.
    order = [*range(s), *axes, *(a for a in range(s, s + len(state.layout.names)) if a not in axes)]
    psi = state.tensor_view().transpose(order)
    front, rest = psi.shape[s : s + k], psi.shape[s + k :]
    psi = op.matrix @ psi.reshape(stack + (target_dim, -1))
    psi = psi.reshape(stack + front + rest).transpose([order.index(a) for a in range(len(order))])
    return StateVector(state.layout, psi.reshape(stack + (-1,)))


def permute_factors(state: StateVector, new_order) -> StateVector:
    """Reorder the factor axes; amplitudes are re-indexed accordingly."""
    new_order = tuple(new_order)
    if sorted(new_order) != sorted(state.layout.names):
        raise LayoutError(f"{new_order} is not a permutation of {state.layout.names}")
    perm = state.layout.axes(new_order)
    psi = np.transpose(state.tensor_view(), perm)
    return StateVector(FactorLayout(new_order), psi.reshape(-1))


def check_unitary(op: Operator) -> bool:
    """True iff every entry is finite (checked first) and each entry of U†U is
    within UNITARY_TOL of I's, over every matrix of a stack, one by one. Only
    entries on and above the diagonal are computed: entry (b, a) sums the exact
    conjugates of entry (a, b)'s terms in the same order, so it is their conjugate."""
    if not all(map(cmath.isfinite, op.matrix.ravel().tolist())):
        return False
    for matrix in op.matrix.reshape(-1, op.dim, op.dim).tolist():
        columns = list(zip(*matrix))
        for a, u in enumerate(columns):
            bra = [x.conjugate() for x in u]
            for b, v in enumerate(columns[a:], a):
                error = sum(map(mul, bra, v)) - (a == b)  # (U†U − I)[a, b]
                if not hypot(error.real, error.imag) < UNITARY_TOL:  # abs() raises on overflow
                    return False
    return True


class BasisGroup(namedtuple("BasisGroup", "factors labels vectors")):
    """A labeled orthonormal family of vectors on a group of factors.

    ``vectors`` holds one column per label in the row-major product space of
    ``factors``, or is a (stack, dim, labels) stack of such families. The
    columns need not span the group (a strict subspace models measurements
    whose remaining outcomes never occur); orthonormality is enforced at
    construction.
    """

    __slots__ = ()

    def __new__(cls, factors: tuple[str, ...], labels: tuple[int, ...], vectors: np.ndarray):
        vecs = np.array(vectors, dtype=complex)  # a copy, as in Operator
        dim = prod(FACTOR_DIMS[n] for n in factors)
        if vecs.ndim not in (2, 3) or vecs.shape[-2:] != (dim, len(labels)):
            raise LayoutError(f"expected vectors of shape {(dim, len(labels))}, got {vecs.shape}")
        gram = vecs.conj().swapaxes(-1, -2) @ vecs
        if np.max(np.abs(gram - np.eye(len(labels)))) > 1e-9:
            raise ValueError("basis-group columns must be orthonormal")
        return super().__new__(cls, factors, labels, _readonly(vecs))


def grouped_amplitudes(state: StateVector, groups) -> tuple[np.ndarray, int]:
    """Contract each group's labeled vectors against the state.

    Returns ``(amps, spectator_dim)`` where ``amps`` has one axis per group
    (indexed by label position) plus a final spectator axis collecting all
    factors not covered by any group. ``|amps[i, j, ..., :]|²`` summed over the
    spectator axis is the Born probability of the joint labeled outcome.
    """
    groups = list(groups)
    covered: list[str] = []
    for g in groups:
        covered.extend(g.factors)
    if len(set(covered)) != len(covered):
        raise LayoutError("basis groups overlap on factors")
    spectators = [n for n in state.layout.names if n not in covered]
    order = tuple(n for g in groups for n in g.factors) + tuple(spectators)
    psi = permute_factors(state, order).amplitudes
    group_dims = [prod(FACTOR_DIMS[n] for n in g.factors) for g in groups]
    spec_dim = prod(FACTOR_DIMS[n] for n in spectators) if spectators else 1
    psi = psi.reshape(tuple(group_dims) + (spec_dim,))
    for i, g in enumerate(groups):
        psi = np.moveaxis(np.tensordot(g.vectors.conj().T, psi, axes=([1], [i])), 0, i)
    return psi, spec_dim

