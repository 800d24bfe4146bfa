"""Symmetrizability checks for channel families.

A family of channels indexed by states is l-symmetrizable for a probe set
{A_1, ..., A_K} when there are distributions p_1, ..., p_K over length-l
state sequences with

    sum_seq p_j(seq) N_seq(A_i) = sum_seq p_i(seq) N_seq(A_j)   for all i, j,

i.e. each probe processed under the mixture attached to another probe is
indistinguishable from the reverse pairing. The same pairwise-mixture
program covers classical kernel families and classical-quantum families, so
all three checks share one feasibility core.

The core solves min t subject to the normalization equalities and all
pairwise equality coordinates relaxed to |...| <= t, with every variable
nonnegative. The optimum is the smallest achievable max-norm violation:
zero (up to solver accuracy) exactly when a symmetrizing family exists.
Feasible witnesses are re-verified by direct substitution before they are
reported, and the optimal objective doubles as residual evidence in the
infeasible case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .avqc import Avqc, AvCqc, ClassicalAvc
from .config import ENUM_BUDGET, TOL_FEAS, TOL_PROB
from .errors import AvqclabError, BudgetExceeded, DimensionMismatch, ValidationError
from .quantum import DensityMatrix, PureState, apply_product_to_matrix

__all__ = [
    "SymmetrizingFamily",
    "SymmetrizabilityVerdict",
    "check_symmetrizable",
    "check_symmetrizable_pure",
    "check_symmetrizable_classical",
    "check_symmetrizable_cq",
    "extend_family",
    "hermitian_probe_frame",
    "convex_representation",
    "symmetrization_residual",
]

# Cap on the dense constraint-matrix size handed to the LP solver.
LP_ENTRY_BUDGET = 2**24


@dataclass(frozen=True, eq=False)
class SymmetrizingFamily:
    """Distributions over state sequences, one row per probe index."""

    labels: tuple
    distributions: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        dist = np.array(self.distributions, dtype=float)
        if dist.ndim != 2 or dist.shape[1] != len(labels):
            raise DimensionMismatch(
                "SymmetrizingFamily: distributions must be (index, label) shaped"
            )
        if dist.shape[0] < 1:
            raise ValidationError("SymmetrizingFamily: needs at least one row")
        if np.any(dist < -TOL_PROB):
            raise ValidationError("SymmetrizingFamily: negative probability")
        row_defect = float(np.max(np.abs(dist.sum(axis=1) - 1.0)))
        if row_defect > TOL_PROB:
            raise ValidationError(
                f"SymmetrizingFamily: row sums deviate from 1 by {row_defect:.3e}"
            )
        dist.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "distributions", dist)

    @property
    def index_count(self) -> int:
        return self.distributions.shape[0]


@dataclass(frozen=True)
class SymmetrizabilityVerdict:
    """Outcome of a feasibility check.

    ``residual`` is the maximal equality violation: of the re-verified
    witness when feasible, otherwise the least violation any family can
    achieve (the relaxed program's optimum). ``degenerate_pairs`` lists
    index pairs of numerically identical probes, which are legal but make
    the witness non-unique.
    """

    feasible: bool
    residual: float
    witness: SymmetrizingFamily | None
    degenerate_pairs: tuple = ()


def _pairwise_residual(images: np.ndarray, dist: np.ndarray) -> float:
    """Max violation of the pairwise equalities for given distributions."""
    k = images.shape[0]
    mixed = np.einsum("jsd,is->ijd", images, dist)  # probe j under family i
    worst = 0.0
    for i, j in itertools.combinations(range(k), 2):
        worst = max(worst, float(np.max(np.abs(mixed[j, i] - mixed[i, j]))))
    return worst


def _min_violation_lp(
    rows: np.ndarray, goal: np.ndarray | None, groups: int, what: str
) -> tuple[np.ndarray, float]:
    """Solve min t over x >= 0 with |A_b @ x - goal[b]| <= t for every block b.

    ``rows`` has shape (n_blocks, 2, dim, n_x + 1) and holds each block A_b
    in ``rows[b, 0, :, :n_x]``; the rest is filled here, in place, so block
    b becomes the rows [A_b, -1; -A_b, -1] against [goal[b]; -goal[b]]
    (zero when ``goal`` is None). x splits into ``groups`` equal contiguous
    groups that each sum to one. Returns the clipped and renormalized
    groups, one per row, and the optimal t.
    """
    n_blocks, _, dim, n_vars = rows.shape
    n_x = n_vars - 1  # trailing variable is the violation bound t
    np.negative(rows[:, 0, :, :n_x], out=rows[:, 1, :, :n_x])
    rows[..., n_x] = -1.0
    a_ub = rows.reshape(2 * n_blocks * dim, n_vars)
    if goal is None:
        b_ub = np.zeros(a_ub.shape[0])
    else:
        b_ub = np.stack([goal, -goal], axis=1).reshape(-1)

    size = n_x // groups
    a_eq = np.hstack([np.repeat(np.eye(groups), size, axis=1), np.zeros((groups, 1))])
    b_eq = np.ones(groups)

    cost = np.zeros(n_vars)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs")
    if res.status != 0:
        raise AvqclabError(f"{what}: LP solver failed ({res.message})")
    x = np.clip(res.x[:-1].reshape(groups, size), 0.0, None)
    x /= x.sum(axis=1, keepdims=True)
    return x, float(res.fun)


def _pairwise_mixture_feasibility(
    images: np.ndarray, tol: float
) -> tuple[bool, np.ndarray | None, float]:
    """Feasibility core over real coordinate images.

    ``images[i, s]`` is the coordinate vector of index i processed under
    state s. Returns (feasible, distributions or None, residual).
    """
    k, n_states, dim = images.shape
    if k < 2:
        raise ValidationError("symmetrizability check: needs at least two indices")
    n_vars = k * n_states + 1  # trailing variable is the violation bound t
    pairs = list(itertools.combinations(range(k), 2))
    n_rows = 2 * len(pairs) * dim
    if n_rows * n_vars > LP_ENTRY_BUDGET:
        raise BudgetExceeded(
            f"symmetrizability check: LP of {n_rows}x{n_vars} exceeds the budget"
        )

    # sum_s p_j(s) images[i, s] - sum_s p_i(s) images[j, s] within [-t, t]
    rows = np.zeros((len(pairs), 2, dim, n_vars))
    for b, (i, j) in enumerate(pairs):
        rows[b, 0, :, j * n_states : (j + 1) * n_states] = images[i].T
        rows[b, 0, :, i * n_states : (i + 1) * n_states] = -images[j].T
    dist, fun = _min_violation_lp(rows, None, k, "symmetrizability check")
    residual = _pairwise_residual(images, dist)
    if residual <= tol:
        return True, dist, residual
    return False, None, fun


def _hvec(mat: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix: upper real part, strict imag."""
    iu = np.triu_indices(mat.shape[0])
    ius = np.triu_indices(mat.shape[0], k=1)
    return np.concatenate([mat[iu].real, mat[ius].imag])


def _probe_matrix(probe, dim: int, what: str) -> np.ndarray:
    mat = probe.matrix if isinstance(probe, DensityMatrix) else np.asarray(probe, dtype=complex)
    if mat.ndim != 2 or mat.shape != (dim, dim):
        raise DimensionMismatch(f"{what}: probe shape {mat.shape}, expected ({dim}, {dim})")
    if float(np.max(np.abs(mat - mat.conj().T))) > 1e-9:
        raise ValidationError(f"{what}: probes must be Hermitian")
    return mat


def _probe_images(avqc: Avqc, seqs, mats) -> np.ndarray:
    """images[i, s]: coordinates of probe i under the product channel of seqs[s]."""
    factors = [[avqc.channels[s] for s in seq] for seq in seqs]
    return np.array(
        [[_hvec(apply_product_to_matrix(f, mat)) for f in factors] for mat in mats]
    )


def _degenerate_pairs(mats: Sequence[np.ndarray]) -> tuple:
    flagged = []
    for i, j in itertools.combinations(range(len(mats)), 2):
        if float(np.max(np.abs(mats[i] - mats[j]))) <= 1e-12:
            flagged.append((i, j))
    return tuple(flagged)


def check_symmetrizable(
    avqc: Avqc,
    l: int,
    probes: Sequence,
    tol: float = TOL_FEAS,
    budget: int = ENUM_BUDGET,
) -> SymmetrizabilityVerdict:
    """Decide l-symmetrizability of a channel family against probe operators.

    Probes are density matrices or general Hermitian operators on the l-fold
    input space (general operators support geometric frames that enclose the
    whole state set). Identical probes are permitted and flagged.
    """
    probes = list(probes)
    if len(probes) < 2:
        raise ValidationError("check_symmetrizable: needs at least two probes")
    dim = avqc.dim_in**l
    mats = [_probe_matrix(p, dim, "check_symmetrizable") for p in probes]
    seqs = avqc.state_sequences(l, budget=budget)
    images = _probe_images(avqc, seqs, mats)
    feasible, dist, residual = _pairwise_mixture_feasibility(images, tol)
    witness = SymmetrizingFamily(tuple(seqs), dist) if feasible else None
    return SymmetrizabilityVerdict(feasible, residual, witness, _degenerate_pairs(mats))


def check_symmetrizable_pure(
    avqc: Avqc,
    l: int,
    probes: Sequence[PureState],
    tol: float = TOL_FEAS,
    budget: int = ENUM_BUDGET,
) -> SymmetrizabilityVerdict:
    """Same program as ``check_symmetrizable`` on rank-one probe states."""
    return check_symmetrizable(
        avqc, l, [p.to_density() for p in probes], tol=tol, budget=budget
    )


def check_symmetrizable_classical(
    cavc: ClassicalAvc, tol: float = TOL_FEAS
) -> SymmetrizabilityVerdict:
    """Symmetrizability of a classical kernel family over its input letters.

    Feasible when rows can be cross-mixed: sum_t sigma(t|i') U_t(.|i) equals
    sum_t sigma(t|i) U_t(.|i') for every input pair.
    """
    if cavc.input_count < 2:
        raise ValidationError("check_symmetrizable_classical: needs >= 2 inputs")
    images = np.stack(
        [
            np.stack([cavc.kernels[s][i] for s in cavc.states])
            for i in range(cavc.input_count)
        ]
    )
    feasible, dist, residual = _pairwise_mixture_feasibility(images, tol)
    witness = SymmetrizingFamily(tuple(cavc.states), dist) if feasible else None
    return SymmetrizabilityVerdict(feasible, residual, witness)


def check_symmetrizable_cq(
    avcqc: AvCqc, tol: float = TOL_FEAS, letters: Sequence | None = None
) -> SymmetrizabilityVerdict:
    """Symmetrizability of a cq family over its input letters.

    ``letters`` restricts the check to a sub-alphabet (the full function
    alphabets of associated constructions grow fast).
    """
    letters = list(avcqc.alphabet if letters is None else letters)
    if len(letters) < 2:
        raise ValidationError("check_symmetrizable_cq: needs >= 2 letters")
    unknown = [z for z in letters if z not in avcqc.alphabet]
    if unknown:
        raise ValidationError(f"check_symmetrizable_cq: unknown letters {unknown}")
    images = np.stack(
        [
            np.stack(
                [_hvec(avcqc.branches[s].outputs[z].matrix) for s in avcqc.states]
            )
            for z in letters
        ]
    )
    feasible, dist, residual = _pairwise_mixture_feasibility(images, tol)
    witness = SymmetrizingFamily(tuple(avcqc.states), dist) if feasible else None
    return SymmetrizabilityVerdict(feasible, residual, witness)


def symmetrization_residual(
    avqc: Avqc,
    l: int,
    probes: Sequence,
    family: SymmetrizingFamily,
    budget: int = ENUM_BUDGET,
) -> float:
    """Max pairwise-equality violation of an explicit family, by substitution."""
    dim = avqc.dim_in**l
    mats = [_probe_matrix(p, dim, "symmetrization_residual") for p in probes]
    seqs = avqc.state_sequences(l, budget=budget)
    if tuple(seqs) != tuple(family.labels):
        raise ValidationError(
            "symmetrization_residual: family labels do not match the sequence set"
        )
    if family.index_count != len(mats):
        raise DimensionMismatch(
            "symmetrization_residual: family size does not match probe count"
        )
    images = _probe_images(avqc, seqs, mats)
    return _pairwise_residual(images, np.asarray(family.distributions))


def extend_family(
    base_points: Sequence,
    base_family: SymmetrizingFamily,
    new_points: Sequence,
    mixing,
    tol: float = 1e-9,
) -> SymmetrizingFamily:
    """Extend a symmetrizing family to convex combinations of its probes.

    Each new point must be the stated convex combination of the base points;
    its distribution is the same combination of the base distributions,
    which preserves every pairwise equality. ``mixing`` is row-stochastic,
    either one row of base-point coefficients per new point, or the full
    square matrix whose leading block is the identity.
    """
    base = [np.asarray(getattr(p, "matrix", p), dtype=complex) for p in base_points]
    new = [np.asarray(getattr(p, "matrix", p), dtype=complex) for p in new_points]
    k = len(base)
    n = k + len(new)
    if base_family.index_count != k:
        raise DimensionMismatch("extend_family: family size does not match base points")
    r = np.asarray(mixing, dtype=float)
    if r.shape == (n, n):
        if float(np.max(np.abs(r[:k] - np.eye(k, n)))) > 1e-12:
            raise ValidationError(
                "extend_family: leading mixing rows must be the identity"
            )
        if np.any(np.abs(r[k:, k:]) > 1e-12):
            raise ValidationError(
                "extend_family: new points must mix base points only"
            )
        r = r[k:, :k]
    if r.shape != (len(new), k):
        raise DimensionMismatch(
            f"extend_family: mixing shape {r.shape}, expected ({len(new)}, {k})"
        )
    if np.any(r < -1e-12):
        raise ValidationError("extend_family: mixing has negative entries")
    row_defect = float(np.max(np.abs(r.sum(axis=1) - 1.0))) if len(new) else 0.0
    if row_defect > TOL_PROB:
        raise ValidationError("extend_family: mixing rows must sum to 1")
    for idx, point in enumerate(new):
        combo = sum(r[idx, j] * base[j] for j in range(k))
        defect = float(np.max(np.abs(combo - point)))
        if defect > tol:
            raise ValidationError(
                f"extend_family: new point {idx} deviates from its convex "
                f"representation by {defect:.3e}"
            )
    extra = r @ np.asarray(base_family.distributions)
    dist = np.vstack([base_family.distributions, extra])
    return SymmetrizingFamily(base_family.labels, dist)


def hermitian_probe_frame(dim: int) -> list:
    """A deterministic frame of dim^2 Hermitian operators enclosing all states.

    The frame consists of I/dim displaced along an orthonormal traceless
    Hermitian basis {B_i}: the dim^2 - 1 operators I/dim + scale * B_i plus
    the closing vertex I/dim - scale * sum_i B_i. Every state rho satisfies
    ||rho - I/dim||_2 <= 1, and with scale = dim * (dim + 1), which exceeds
    (dim^2 - 1) + sqrt(dim^2 - 1) + 1, every coefficient vector inside the
    unit ball lies in the simplex spanned by the displaced vertices. States
    are therefore always convex combinations of this frame.
    """
    if dim < 2:
        raise ValidationError("hermitian_probe_frame: dim must be >= 2")
    basis = []
    for a in range(dim):
        for b in range(a + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[a, b] = sym[b, a] = 1.0 / np.sqrt(2.0)
            basis.append(sym)
            skew = np.zeros((dim, dim), dtype=complex)
            skew[a, b] = -1.0j / np.sqrt(2.0)
            skew[b, a] = 1.0j / np.sqrt(2.0)
            basis.append(skew)
    for a in range(1, dim):
        diag = np.zeros(dim)
        diag[:a] = 1.0
        diag[a] = -float(a)
        basis.append(np.diag(diag).astype(complex) / np.sqrt(float(a * (a + 1))))
    center = np.eye(dim, dtype=complex) / dim
    scale = float(dim * (dim + 1))
    frame = [center + scale * op for op in basis]
    frame.append(center - scale * sum(basis))
    return frame


def convex_representation(
    target, points: Sequence, tol: float = 1e-9
) -> np.ndarray | None:
    """Convex weights writing ``target`` over ``points``, or None.

    Solves the same relaxed feasibility program as the symmetrizability
    core: minimize the max-norm mismatch over the simplex of weights and
    accept when it drops below ``tol``.
    """
    t_mat = np.asarray(getattr(target, "matrix", target), dtype=complex)
    mats = [np.asarray(getattr(p, "matrix", p), dtype=complex) for p in points]
    coords = np.stack([_hvec(m) for m in mats])
    goal = _hvec(t_mat)
    n, dim = coords.shape
    rows = np.zeros((1, 2, dim, n + 1))
    rows[0, 0, :, :n] = coords.T
    dist, _ = _min_violation_lp(rows, goal[None], 1, "convex_representation")
    weights = dist[0]
    mismatch = float(np.max(np.abs(coords.T @ weights - goal)))
    if mismatch <= tol:
        return weights
    return None
