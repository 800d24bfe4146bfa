"""Finite-dimensional quantum objects: states, channels in Kraus form, POVMs.

Matrices are dense row-major complex numpy arrays throughout. Every public
type validates its defining properties at construction time and rejects bad
input loudly; instances are immutable afterwards (backing arrays are marked
read-only), and all operations are pure functions, so values can be shared
freely between threads.

Every channel application, whether to one state, slot by slot through a
product channel, or as an adjoint, goes through one kernel,
``apply_channel_to_slot_batch``, which acts by the channel's transfer matrix.
Product channels N_{s_1}⊗…⊗N_{s_l} act only through ``_ImageTree``, which
images a stack under a whole set of words at once. The exception is
``codes.evaluate_entanglement_code``, whose images on the whole code space
are Kraus sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import (
    DIM_CAP,
    TOL_CPTP,
    TOL_HERM,
    TOL_NORM,
    TOL_POVM,
    TOL_PSD,
    TOL_TRACE,
)
from .errors import DimensionMismatch, ValidationError

__all__ = [
    "DensityMatrix",
    "PureState",
    "QuantumChannel",
    "Povm",
    "apply_channel",
    "apply_channel_to_slot_batch",
    "identity_channel",
    "bit_flip_channel",
    "phase_flip_channel",
    "completely_depolarizing_channel",
    "constant_channel",
    "computational_povm",
    "basis_state",
    "maximally_mixed",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _max_abs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _check_dim(dim: int, what: str) -> None:
    if dim < 1:
        raise ValidationError(f"{what}: dimension must be positive, got {dim}")
    if dim > DIM_CAP:
        raise ValidationError(f"{what}: dimension {dim} exceeds the cap {DIM_CAP}")


def _as_square(obj, what: str) -> np.ndarray:
    arr = np.array(obj, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{what}: expected a square matrix, got shape {arr.shape}")
    return arr


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (M + M†)/2, of each matrix of a stack."""
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


def min_eigenvalue(mat: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of ``mat``; -inf if ``mat`` is not finite.

    The halves of M and M† are summed, which is exact and, unlike M + M†,
    cannot overflow on entries near the float range.
    """
    if not np.isfinite(mat).all():
        return -math.inf
    half = 0.5 * mat
    return float(np.linalg.eigvalsh(half + half.conj().swapaxes(-1, -2))[0])


def _hermitian_basis(dim: int):
    """Yield an orthonormal basis, tr(G_i G_j) = δ_ij, of the dim×dim Hermitian matrices.

    I/sqrt(dim) first, then the symmetric and the antisymmetric element of
    each entry pair a < b, then the generalized diagonal Gell-Mann matrices.
    """
    yield np.eye(dim, dtype=complex) / np.sqrt(float(dim))
    for a, b in itertools.combinations(range(dim), 2):
        for upper, lower in ((1.0, 1.0), (-1.0j, 1.0j)):
            op = np.zeros((dim, dim), dtype=complex)
            op[a, b], op[b, a] = upper / np.sqrt(2.0), lower / np.sqrt(2.0)
            yield op
    for a in range(1, dim):
        diag = np.concatenate([np.ones(a), [-float(a)], np.zeros(dim - a - 1)])
        yield np.diag(diag).astype(complex) / np.sqrt(float(a * (a + 1)))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A state: Hermitian, unit trace, eigenvalues >= -TOL_PSD."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_square(self.matrix, "DensityMatrix")
        _check_dim(mat.shape[0], "DensityMatrix")
        with np.errstate(over="ignore"):  # a defect beyond the float range reads inf
            herm_defect = _max_abs(mat - mat.conj().T)
            trace_defect = abs(complex(np.trace(mat)) - 1.0)
        if herm_defect > TOL_HERM:
            raise ValidationError(
                f"DensityMatrix: not Hermitian (max deviation {herm_defect:.3e})"
            )
        if trace_defect > TOL_TRACE:
            raise ValidationError(
                f"DensityMatrix: trace deviates from 1 by {trace_defect:.3e}"
            )
        lo = min_eigenvalue(mat)
        if lo < -TOL_PSD:
            raise ValidationError(
                f"DensityMatrix: negative eigenvalue {lo:.3e} below -{TOL_PSD}"
            )
        object.__setattr__(self, "matrix", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit vector; ``to_density`` gives the corresponding rank-one state."""

    amplitudes: np.ndarray

    def __post_init__(self):
        vec = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if vec.ndim != 1 or vec.size == 0:
            raise ValidationError("PureState: expected a non-empty vector")
        _check_dim(vec.size, "PureState")
        norm_defect = abs(float(np.linalg.norm(vec)) - 1.0)
        if not norm_defect <= TOL_NORM:  # a NaN amplitude fails too
            raise ValidationError(
                f"PureState: norm deviates from 1 by {norm_defect:.3e}"
            )
        object.__setattr__(self, "amplitudes", _freeze(vec))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """A CPTP map given by Kraus operators of common shape (dim_out, dim_in).

    Complete positivity is automatic for any Kraus family; as a defensive
    check on the data we verify the Kraus Gram matrix is PSD, which has the
    same nonzero spectrum as the Choi matrix and stays cheap at large
    dimension. Trace preservation (sum of K†K equal to the identity) is the
    binding numerical check.
    """

    kraus: tuple
    stacked: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ops = tuple(np.array(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ValidationError("QuantumChannel: needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2:
            raise ValidationError("QuantumChannel: Kraus operators must be matrices")
        for op in ops:
            if op.shape != shape:
                raise DimensionMismatch(
                    f"QuantumChannel: mixed Kraus shapes {shape} and {op.shape}"
                )
        dim_out, dim_in = shape
        _check_dim(dim_in, "QuantumChannel input")
        _check_dim(dim_out, "QuantumChannel output")
        stacked = np.stack(ops)
        gram = np.einsum("aij,bij->ab", stacked.conj(), stacked)
        lo = min_eigenvalue(gram)
        if lo < -TOL_PSD:
            raise ValidationError(
                f"QuantumChannel: Kraus Gram matrix has eigenvalue {lo:.3e}"
            )
        total = np.einsum("kij,kil->jl", stacked.conj(), stacked)
        defect = _max_abs(total - np.eye(dim_in))
        if defect > TOL_CPTP:
            raise ValidationError(
                f"QuantumChannel: sum of K†K deviates from identity by {defect:.3e}"
            )
        object.__setattr__(self, "kraus", tuple(_freeze(op) for op in ops))
        object.__setattr__(self, "stacked", _freeze(stacked))

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]


@dataclass(frozen=True, eq=False)
class Povm:
    """A measurement: PSD elements summing to the identity.

    The zero operator is a legal element, so decoders may pad with an
    explicit reject outcome.
    """

    elements: tuple

    def __post_init__(self):
        ops = tuple(np.array(e, dtype=complex) for e in self.elements)
        if not ops:
            raise ValidationError("Povm: needs at least one element")
        dim = None
        for idx, op in enumerate(ops):
            if op.ndim != 2 or op.shape[0] != op.shape[1]:
                raise ValidationError(f"Povm: element {idx} is not square")
            if dim is None:
                dim = op.shape[0]
                _check_dim(dim, "Povm")
            elif op.shape[0] != dim:
                raise ValidationError("Povm: elements have mixed dimensions")
            with np.errstate(over="ignore"):  # a defect beyond the float range reads inf
                herm_defect = _max_abs(op - op.conj().T)
            if herm_defect > TOL_HERM:
                raise ValidationError(f"Povm: element {idx} is not Hermitian")
            lo = min_eigenvalue(op)
            if lo < -TOL_PSD:
                raise ValidationError(
                    f"Povm: element {idx} has eigenvalue {lo:.3e} below -{TOL_PSD}"
                )
        with np.errstate(over="ignore"):
            defect = _max_abs(sum(ops) - np.eye(dim))
        if defect > TOL_POVM:
            raise ValidationError(
                f"Povm: elements deviate from a resolution of identity by {defect:.3e}"
            )
        object.__setattr__(self, "elements", tuple(_freeze(op) for op in ops))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def outcome_count(self) -> int:
        return len(self.elements)


def apply_channel(ch: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Output state of ``ch`` on input ``rho``.

    This is ``apply_channel_to_slot_batch`` on one slot, so it builds the
    transfer matrix of ``ch``: its memory grows as dim_in² · dim_out² (268 MB
    for a channel on 6 qubits). To map many states, stack them into one
    ``apply_channel_to_slot_batch`` call, which builds it once.
    """
    if rho.dim != ch.dim_in:
        raise DimensionMismatch(
            f"apply_channel: state dim {rho.dim} vs channel input dim {ch.dim_in}"
        )
    return DensityMatrix(apply_channel_to_slot_batch(ch, rho.matrix[None], 0, [ch.dim_in])[0])


def apply_channel_to_slot_batch(
    ch: QuantumChannel,
    mats: np.ndarray,
    slot: int,
    dims: Sequence[int],
    adjoint: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply ``ch``, or its adjoint, to one tensor factor of a stack of matrices.

    ``mats`` has shape (M, N, N) with N = prod(dims). The channel acts
    through its transfer matrix sum_k K_k ⊗ conj(K_k): the slot's row and
    column indices are moved to the front and contracted with it in one
    GEMM, so the cost does not grow with the Kraus count. The slot
    dimension changes from ``ch.dim_in`` to ``ch.dim_out``; with ``adjoint``
    the map is X -> sum_k K_k† X K_k and the slot goes from ``ch.dim_out`` to
    ``ch.dim_in``. The result is written into ``out`` when given, an
    (M, N', N') complex array whose last two axes are C-contiguous.

    This is the library's one channel kernel: ``apply_channel`` is the case
    of a single slot and a single matrix, and ``_ImageTree`` runs it over the
    slots of product channels.
    """
    dims = list(dims)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise DimensionMismatch(
            f"apply_channel_to_slot_batch: expected an (M, N, N) stack, not {mats.shape}"
        )
    if mats.shape[1] != math.prod(dims):
        raise DimensionMismatch("apply_channel_to_slot_batch: dims do not match the stack")
    kraus = ch.stacked.conj().transpose(0, 2, 1) if adjoint else ch.stacked
    _, d_out, d_in = kraus.shape
    if dims[slot] != d_in:
        raise DimensionMismatch(
            f"apply_channel_to_slot_batch: slot dim {dims[slot]} vs map input {d_in}"
        )
    count = mats.shape[0]
    left = math.prod(dims[:slot])
    right = math.prod(dims[slot + 1 :])
    new_total = left * d_out * right
    shape = (count, new_total, new_total)
    if out is None:
        out = np.empty(shape, dtype=complex)
    elif out.shape != shape or out.strides[1:] != (16 * new_total, 16):
        raise DimensionMismatch("apply_channel_to_slot_batch: unusable output array")
    transfer = np.einsum("kxy,kwz->xwyz", kraus, kraus.conj())
    front = mats.reshape(count, left, d_in, right, left, d_in, right)
    front = front.transpose(2, 5, 0, 1, 3, 4, 6).reshape(d_in * d_in, -1)
    image = transfer.reshape(d_out * d_out, d_in * d_in) @ front
    image = image.reshape(d_out, d_out, count, left, right, left, right)
    seven = out.reshape(count, left, d_out, right, left, d_out, right)
    seven[...] = image.transpose(2, 3, 0, 4, 5, 1, 6)
    return out


class _ImageTree:
    """Images of a stack of roots under every word of channels on some slots.

    ``levels[k]`` lists the channels that may act on slot ``slots[k]``
    (through their adjoints with ``adjoint``); ``dims`` are the slot
    dimensions of the roots. With W words in all, image ``r * W + w`` is root
    ``r`` under the w-th word in ``itertools.product`` order over the levels.
    Words that share their leading letters share that work.
    """

    def __init__(self, roots, levels, slots, dims, adjoint):
        self.roots = roots
        self.levels = levels
        self.slots = slots
        self.adjoint = adjoint
        self.dims = [list(dims)]
        for slot, channels in zip(slots, levels):
            d_to = channels[0].dim_in if adjoint else channels[0].dim_out
            self.dims.append(self.dims[-1][:slot] + [d_to] + self.dims[-1][slot + 1 :])
        self.node_bytes = max(16 * math.prod(d) ** 2 for d in self.dims)

    def cost(self, nodes: int, depth: int) -> float:
        """Bytes to expand ``nodes`` nodes at ``depth`` breadth-first to the leaves.

        The last level dominates: the leaves, their parents and the kernel's
        two temporaries per parent.
        """
        leaves = nodes * math.prod(map(len, self.levels[depth:])) * self.node_bytes
        return (1.0 + 3.0 / len(self.levels[-1])) * leaves

    def path_bytes(self) -> int:
        """Bytes a walk with no spare room holds: a node per level, two temporaries."""
        return (len(self.slots) + 2) * self.node_bytes

    def _expand(self, nodes, depth, channels):
        n_out = math.prod(self.dims[depth + 1])
        children = np.empty((len(nodes), len(channels), n_out, n_out), dtype=complex)
        for s, ch in enumerate(channels):
            apply_channel_to_slot_batch(
                ch, nodes, self.slots[depth], self.dims[depth], self.adjoint,
                out=children[:, s],
            )
        return children.reshape(-1, n_out, n_out)

    def walk(self, spare: float, nodes=None, start: int = 0, depth: int = 0):
        """Yield ``(start, images)`` in consecutive chunks, in order.

        A batch of ``nodes`` (the roots by default) is expanded breadth-first
        when its whole subtree costs at most ``spare`` bytes; otherwise it is
        walked node by node and child by child, each level holding one node.
        """
        nodes = self.roots if nodes is None else nodes
        if depth == len(self.slots) or self.cost(len(nodes), depth) <= spare:
            for level in range(depth, len(self.slots)):
                nodes = self._expand(nodes, level, self.levels[level])
                start *= len(self.levels[level])
            yield start, nodes
            return
        fanout = len(self.levels[depth])
        for k in range(len(nodes)):
            for s, ch in enumerate(self.levels[depth]):
                child = self._expand(nodes[k : k + 1], depth, [ch])
                yield from self.walk(
                    spare - child.nbytes, child, (start + k) * fanout + s, depth + 1
                )


def identity_channel(dim: int) -> QuantumChannel:
    return QuantumChannel((np.eye(dim, dtype=complex),))


def bit_flip_channel(p: float) -> QuantumChannel:
    if not 0.0 <= p <= 1.0:
        raise ValidationError("bit_flip_channel: p must lie in [0, 1]")
    return QuantumChannel(
        (math.sqrt(1.0 - p) * np.eye(2, dtype=complex), math.sqrt(p) * PAULI_X)
    )


def phase_flip_channel(p: float) -> QuantumChannel:
    if not 0.0 <= p <= 1.0:
        raise ValidationError("phase_flip_channel: p must lie in [0, 1]")
    return QuantumChannel(
        (math.sqrt(1.0 - p) * np.eye(2, dtype=complex), math.sqrt(p) * PAULI_Z)
    )


def completely_depolarizing_channel(dim: int = 2) -> QuantumChannel:
    """The channel rho -> I/dim, via the discrete Weyl family X^a Z^b / dim."""
    _check_dim(dim, "completely_depolarizing_channel")
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    phases = np.exp(2j * np.pi * np.arange(dim) / dim)
    clock = np.diag(phases)
    kraus = []
    for a in range(dim):
        for b in range(dim):
            kraus.append(
                np.linalg.matrix_power(shift, a)
                @ np.linalg.matrix_power(clock, b)
                / dim
            )
    return QuantumChannel(tuple(kraus))


def constant_channel(sigma: DensityMatrix) -> QuantumChannel:
    """The channel rho -> sigma regardless of input, on sigma's dimension."""
    vals, vecs = np.linalg.eigh(hermitize(np.asarray(sigma.matrix)))
    kraus = []
    for r in range(vals.size):
        if vals[r] <= 0.0:
            continue
        col = math.sqrt(float(vals[r])) * vecs[:, r]
        for j in range(sigma.dim):
            op = np.zeros((sigma.dim, sigma.dim), dtype=complex)
            op[:, j] = col
            kraus.append(op)
    return QuantumChannel(tuple(kraus))


def computational_povm(dim: int) -> Povm:
    eye = np.eye(dim, dtype=complex)
    return Povm(tuple(np.outer(eye[:, i], eye[:, i].conj()) for i in range(dim)))


def basis_state(dim: int, index: int) -> PureState:
    if not 0 <= index < dim:
        raise ValidationError(f"basis_state: index {index} out of range for dim {dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return PureState(vec)


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)
