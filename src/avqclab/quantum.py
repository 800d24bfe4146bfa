"""Finite-dimensional quantum objects: states, channels in Kraus form, POVMs.

Matrices are dense row-major complex numpy arrays throughout. Every public
type validates its defining properties at construction time and rejects bad
input loudly; instances are immutable afterwards (backing arrays are marked
read-only), and all operations are pure functions, so values can be shared
freely between threads.

Every channel application, whether to one state, slot by slot through a
product channel, or as an adjoint, goes through one kernel,
``apply_channel_to_slot_batch``, which acts by the channel's transfer matrix.
The exception is ``codes.evaluate_entanglement_code``, whose images on the
whole code space are Kraus sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import (
    DIM_CAP,
    KRAUS_ENTRY_BUDGET,
    TOL_CPTP,
    TOL_HERM,
    TOL_NORM,
    TOL_POVM,
    TOL_PROB,
    TOL_PSD,
    TOL_TRACE,
)
from .errors import BudgetExceeded, DimensionMismatch, ValidationError

__all__ = [
    "DensityMatrix",
    "PureState",
    "QuantumChannel",
    "Povm",
    "apply_channel",
    "apply_channel_to_slot_batch",
    "apply_product_channel",
    "tensor_channel",
    "compose_channels",
    "mix_channels",
    "measure",
    "identity_channel",
    "unitary_channel",
    "bit_flip_channel",
    "phase_flip_channel",
    "completely_depolarizing_channel",
    "constant_channel",
    "computational_povm",
    "projective_povm",
    "basis_state",
    "tensor_states",
    "maximally_mixed",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
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
    """Smallest eigenvalue of the Hermitian part of ``mat``."""
    return float(np.linalg.eigvalsh(hermitize(mat))[0])


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
        herm_defect = _max_abs(mat - mat.conj().T)
        if herm_defect > TOL_HERM:
            raise ValidationError(
                f"DensityMatrix: not Hermitian (max deviation {herm_defect:.3e})"
            )
        trace_defect = abs(complex(np.trace(mat)) - 1.0)
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

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        return DensityMatrix(np.kron(self.matrix, other.matrix))


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
        if norm_defect > TOL_NORM:
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
            if _max_abs(op - op.conj().T) > TOL_HERM:
                raise ValidationError(f"Povm: element {idx} is not Hermitian")
            lo = min_eigenvalue(op)
            if lo < -TOL_PSD:
                raise ValidationError(
                    f"Povm: element {idx} has eigenvalue {lo:.3e} below -{TOL_PSD}"
                )
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
    of a single slot and a single matrix, and ``apply_product_to_matrix``
    loops it over the slots of a product channel.
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


def apply_product_channel(
    channels: Sequence[QuantumChannel], rho: DensityMatrix
) -> DensityMatrix:
    """Apply the tensor product of ``channels`` without building its Kraus set.

    Equivalent to ``apply_channel(tensor_channel(channels), rho)``; factor
    channels act on consecutive slots in the given order.
    """
    size = math.prod(ch.dim_in for ch in channels)
    if rho.dim != size:
        raise DimensionMismatch(
            f"apply_product_channel: state dim {rho.dim} vs product input dim {size}"
        )
    return DensityMatrix(apply_product_to_matrix(channels, rho.matrix[None])[0])


def apply_product_to_matrix(channels: Sequence[QuantumChannel], mats: np.ndarray) -> np.ndarray:
    """Raw-matrix core of ``apply_product_channel``: one slot at a time.

    ``mats`` is an (M, N, N) stack of square matrices on the product input
    space. Any square matrix will do (the symmetrizability images feed it
    non-PSD Hermitian probes).
    """
    dims = [ch.dim_in for ch in channels]
    out = mats
    for slot, ch in enumerate(channels):
        out = apply_channel_to_slot_batch(ch, out, slot, dims)
        dims[slot] = ch.dim_out
    return out


def tensor_channel(channels: Sequence[QuantumChannel]) -> QuantumChannel:
    """Kraus form of the tensor product, factors in the given order.

    Kraus operators are all products, ordered lexicographically in the
    component indices. Raises ``BudgetExceeded`` when the explicit family
    would be too large; ``apply_product_channel`` covers that regime.
    """
    channels = list(channels)
    if not channels:
        raise ValidationError("tensor_channel: empty channel list")
    count = math.prod(len(ch.kraus) for ch in channels)
    dim_in = math.prod(ch.dim_in for ch in channels)
    dim_out = math.prod(ch.dim_out for ch in channels)
    _check_dim(dim_in, "tensor_channel input")
    _check_dim(dim_out, "tensor_channel output")
    if count * dim_in * dim_out > KRAUS_ENTRY_BUDGET:
        raise BudgetExceeded(
            f"tensor_channel: {count} Kraus operators of shape "
            f"({dim_out}, {dim_in}) exceed the entry budget"
        )
    kraus = []
    for combo in itertools.product(*(ch.kraus for ch in channels)):
        op = combo[0]
        for factor in combo[1:]:
            op = np.kron(op, factor)
        kraus.append(op)
    return QuantumChannel(tuple(kraus))


def compose_channels(*channels: QuantumChannel) -> QuantumChannel:
    """Composition ``channels[0] ∘ channels[1] ∘ ...`` in Kraus form."""
    if not channels:
        raise ValidationError("compose_channels: empty channel list")
    chain = list(channels)
    for outer, inner in zip(chain, chain[1:]):
        if outer.dim_in != inner.dim_out:
            raise DimensionMismatch(
                f"compose_channels: cannot feed dim {inner.dim_out} into "
                f"dim {outer.dim_in}"
            )
    count = math.prod(len(ch.kraus) for ch in chain)
    dim_in = chain[-1].dim_in
    dim_out = chain[0].dim_out
    if count * dim_in * dim_out > KRAUS_ENTRY_BUDGET:
        raise BudgetExceeded("compose_channels: Kraus entry budget exceeded")
    kraus = []
    for combo in itertools.product(*(ch.kraus for ch in chain)):
        op = combo[0]
        for factor in combo[1:]:
            op = op @ factor
        kraus.append(op)
    return QuantumChannel(tuple(kraus))


def mix_channels(channels: Sequence[QuantumChannel], weights) -> QuantumChannel:
    """Convex mixture sum_s q(s) N_s as a single channel.

    Kraus operators of channel ``s`` are scaled by sqrt(q_s); zero-weight
    channels are dropped.
    """
    channels = list(channels)
    q = np.asarray(weights, dtype=float)
    if q.ndim != 1 or q.size != len(channels):
        raise DimensionMismatch("mix_channels: weight count must match channel count")
    if q.size == 0:
        raise ValidationError("mix_channels: empty mixture")
    if np.any(q < 0):
        raise ValidationError("mix_channels: negative weight")
    if abs(float(q.sum()) - 1.0) > TOL_PROB:
        raise ValidationError(f"mix_channels: weights sum to {q.sum()!r}, not 1")
    dims = {(ch.dim_in, ch.dim_out) for ch in channels}
    if len(dims) != 1:
        raise DimensionMismatch("mix_channels: channels have mixed dimensions")
    kraus = []
    for weight, ch in zip(q, channels):
        if weight == 0.0:
            continue
        root = math.sqrt(float(weight))
        kraus.extend(root * op for op in ch.kraus)
    return QuantumChannel(tuple(kraus))


def measure(povm: Povm, rho: DensityMatrix) -> np.ndarray:
    """Outcome distribution tr(D_i rho) as a float vector."""
    if povm.dim != rho.dim:
        raise DimensionMismatch(
            f"measure: POVM dim {povm.dim} vs state dim {rho.dim}"
        )
    probs = np.array(
        [float(np.einsum("ij,ji->", op, rho.matrix).real) for op in povm.elements]
    )
    if np.any(probs < -TOL_PROB):
        raise ValidationError(f"measure: negative outcome probability {probs.min():.3e}")
    if abs(float(probs.sum()) - 1.0) > TOL_PROB:
        raise ValidationError(f"measure: probabilities sum to {probs.sum()!r}")
    return probs


def identity_channel(dim: int) -> QuantumChannel:
    return QuantumChannel((np.eye(dim, dtype=complex),))


def unitary_channel(unitary) -> QuantumChannel:
    u = _as_square(unitary, "unitary_channel")
    if _max_abs(u.conj().T @ u - np.eye(u.shape[0])) > TOL_CPTP:
        raise ValidationError("unitary_channel: matrix is not unitary")
    return QuantumChannel((u,))


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


def constant_channel(sigma: DensityMatrix, dim_in: int | None = None) -> QuantumChannel:
    """The channel rho -> sigma regardless of input."""
    if dim_in is None:
        dim_in = sigma.dim
    _check_dim(dim_in, "constant_channel")
    vals, vecs = np.linalg.eigh(hermitize(np.asarray(sigma.matrix)))
    kraus = []
    for r in range(vals.size):
        if vals[r] <= 0.0:
            continue
        col = math.sqrt(float(vals[r])) * vecs[:, r]
        for j in range(dim_in):
            op = np.zeros((sigma.dim, dim_in), dtype=complex)
            op[:, j] = col
            kraus.append(op)
    return QuantumChannel(tuple(kraus))


def computational_povm(dim: int) -> Povm:
    eye = np.eye(dim, dtype=complex)
    return Povm(tuple(np.outer(eye[:, i], eye[:, i].conj()) for i in range(dim)))


def projective_povm(states: Sequence[PureState], pad: bool = True) -> Povm:
    """POVM of rank-one projectors onto ``states``.

    With ``pad`` the deficiency I - sum(projectors) is appended as a final
    reject element; the states must then have projector sum at most identity.
    """
    if not states:
        raise ValidationError("projective_povm: no states")
    dim = states[0].dim
    elements = [np.outer(s.amplitudes, s.amplitudes.conj()) for s in states]
    total = sum(elements)
    if pad:
        rest = np.eye(dim) - total
        if min_eigenvalue(rest) < -TOL_PSD:
            raise ValidationError("projective_povm: projectors exceed identity")
        elements.append(hermitize(rest))
    return Povm(tuple(elements))


def basis_state(dim: int, index: int) -> PureState:
    if not 0 <= index < dim:
        raise ValidationError(f"basis_state: index {index} out of range for dim {dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return PureState(vec)


def tensor_states(states: Sequence[DensityMatrix]) -> DensityMatrix:
    mats = [s.matrix for s in states]
    out = mats[0]
    for mat in mats[1:]:
        out = np.kron(out, mat)
    return DensityMatrix(out)


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)
