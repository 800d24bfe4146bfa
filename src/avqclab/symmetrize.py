"""Symmetrizability checks for channel families.

A family of channels indexed by states is l-symmetrizable for a probe set
{A_1, ..., A_K} when there are distributions p_1, ..., p_K over length-l
state sequences with

    sum_seq p_j(seq) N_seq(A_i) = sum_seq p_i(seq) N_seq(A_j)   for all i, j,

i.e. each probe processed under the mixture attached to another probe is
indistinguishable from the reverse pairing. ``check_symmetrizable`` is the
one check; ``check_symmetrizable_pure`` hands it rank-one probes.

The core poses min t subject to the normalization equalities and all
pairwise equality coordinates relaxed to |...| <= t, with every variable
nonnegative. The optimum is the smallest achievable max-norm violation:
zero (up to solver accuracy) exactly when a symmetrizing family exists.
That primal has few columns and very many rows, so HiGHS sees only the
rows that bind (row generation). One HiGHS model per check holds the dual of
the working LP, which is short and wide and needs far fewer simplex pivots:
its rows, the primal variables, are fixed; each working row of the primal
appends two dual columns, built straight from the images; and each round
re-solves the grown model from the last round's basis. The witness family is
read back as the negated duals of the model's x rows, clipped at zero and
renormalized, and the optimum as the negated dual objective. Feasible
witnesses are re-verified by direct substitution before they are reported,
and the optimal objective doubles as residual evidence in the infeasible
case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .avqc import Avqc
from .config import ENUM_BUDGET, TOL_FEAS, TOL_PROB
from .errors import AvqclabError, BudgetExceeded, DimensionMismatch, ValidationError
from .quantum import DensityMatrix, PureState, _hermitian_basis, _ImageTree
from .util import check_distributions, check_words, power_exceeds

__all__ = [
    "SymmetrizingFamily",
    "SymmetrizabilityVerdict",
    "check_symmetrizable",
    "check_lp_size",
    "check_symmetrizable_pure",
    "extend_family",
    "hermitian_probe_frame",
    "symmetrization_residual",
]

# Cap on the nonzeros of the constraint matrix handed to the LP solver.
LP_NNZ_BUDGET = 2**24


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
        check_distributions(dist, TOL_PROB, "SymmetrizingFamily")
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
    achieve (the relaxed program's optimum, clamped at zero). In the edge
    case where that optimum is within ``tol`` but the solver's clipped and
    renormalized witness re-verifies above it, the verdict is infeasible
    and ``residual`` is that witness's re-verified violation; so
    ``feasible`` is False exactly when ``residual > tol``.
    ``degenerate_pairs`` lists index pairs of numerically identical probes,
    which are legal but make the witness non-unique.
    """

    feasible: bool
    residual: float
    witness: SymmetrizingFamily | None
    degenerate_pairs: tuple


def _pairwise_excess(images: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """|mixed[j, i, d] - mixed[i, j, d]|, where mixed[i, j] is probe j under family i."""
    mixed = np.einsum("jsd,is->ijd", images, dist)
    return np.abs(mixed.transpose(1, 0, 2) - mixed)


def _pairwise_residual(images: np.ndarray, dist: np.ndarray) -> float:
    """Max violation of the pairwise equalities for given distributions."""
    return float(np.max(_pairwise_excess(images, dist)))


def _check_lp_budget(k: int, n_states: int, dim: int, what: str) -> None:
    """Reject the pairwise LP over k indices, n_states states and dim coordinates.

    Each of the k (k - 1) / 2 index pairs adds 2 dim rows of 2 n_states + 1
    nonzeros; the k normalization rows add n_states each.
    """
    nnz = k * (k - 1) * dim * (2 * n_states + 1) + k * n_states
    if nnz > LP_NNZ_BUDGET:
        raise BudgetExceeded(
            f"{what}: LP with {nnz} nonzeros exceeds the budget of {LP_NNZ_BUDGET}"
        )


def _min_violation(model, groups: int, what: str) -> tuple[np.ndarray, float]:
    """Re-solve the working dual ``model`` from its last basis.

    Returns the primal groups, read as the negated duals of the model's x
    rows, clipped and renormalized, one per group; and the optimal t, the
    negated dual optimum clamped at zero.
    """
    from scipy.optimize._highspy._core import HighsModelStatus

    model.run()
    status = model.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise AvqclabError(f"{what}: LP solver failed ({model.modelStatusToString(status)})")
    # 0.0 - y rather than -y, so that a zero dual gives +0.0
    x = np.clip(0.0 - np.array(model.getSolution().row_dual[:-1]).reshape(groups, -1), 0.0, None)
    x /= x.sum(axis=1, keepdims=True)
    return x, max(0.0, -model.getObjectiveValue())


def _pairwise_mixture_feasibility(
    images: np.ndarray, tol: float
) -> tuple[bool, np.ndarray | None, float]:
    """Feasibility core over real coordinate images.

    ``images[i, s]`` is the coordinate vector of index i processed under
    state s. Returns (feasible, distributions or None, residual), feasible
    exactly when the re-verified witness residual is within ``tol``.

    The LP is solved by row generation (Kelley's cutting planes) from the
    k n_states + 1 rows that uniform distributions violate most. While a row
    outside the working set exceeds the working optimum t by more than the
    allowance 1e-9 max(1, t) at its witness, the most violated rows join,
    four per exceeding row and at most doubling the set. A working LP is a
    relaxation, so t bounds every family's violation from below, and within
    the allowance (and HiGHS's accuracy on its own rows) the last witness
    attains it. Rows are only ever added, so the loop ends.
    """
    k, n_states, dim = images.shape
    what = "symmetrizability check"
    if k < 2:
        raise ValidationError(f"{what}: needs at least two indices")
    _check_lp_budget(k, n_states, dim, what)

    from scipy.optimize._highspy._core import _Highs, kHighsInf

    # the working LP's dual: rows x (at most 0) and t (at most 1), and free
    # columns v_g of cost -1, the ones of group g's x; each working row r of
    # the primal appends the columns [-a_r, 1] and [a_r, 1] of cost 0, u >= 0
    n_x = k * n_states
    model = _Highs()
    model.setOptionValue("output_flag", False)
    model.addRows(n_x + 1, np.full(n_x + 1, -kHighsInf), np.r_[np.zeros(n_x), 1.0], 0, [], [], [])
    model.addCols(k, np.full(k, -1.0), np.full(k, -kHighsInf), np.full(k, kHighsInf), n_x,
                  np.arange(0, n_x, n_states), np.arange(n_x), np.ones(n_x))
    # row p * dim + d: coordinate d of pair p = (i, j), i < j, as in _pairwise_excess
    first, second = np.triu_indices(k, 1)
    span = np.arange(n_states)
    dist = np.full((k, n_states), 1.0 / n_states)
    working, optimum = np.empty(0, dtype=np.intp), -np.inf
    while True:
        excess = _pairwise_excess(images, dist)[first, second].ravel()
        excess[working] = -np.inf
        violated = np.count_nonzero(excess > optimum + 1e-9 * max(1.0, optimum))
        if not violated:
            break
        count = min(4 * violated, max(working.size, k * n_states + 1))
        new = np.argsort(-excess, kind="stable")[:count]
        new = new[excess[new] > -np.inf]
        working = np.concatenate([working, new])
        pair, d = np.divmod(new, dim)
        i, j, d = first[pair, None], second[pair, None], d[:, None]
        # a_r holds -images[j, :, d] at x_i and images[i, :, d] at x_j
        values = np.ones((new.size, 2, 2 * n_states + 1))
        values[:, 1, :-1] = np.concatenate([-images[j, span, d], images[i, span, d]], axis=1)
        values[:, 0, :-1] = -values[:, 1, :-1]
        rows = np.concatenate([i * n_states + span, j * n_states + span, np.full_like(i, n_x)], 1)
        kept = values != 0.0  # zeros are left out of the model
        counts = kept.sum(axis=2).ravel()
        model.addCols(counts.size, np.zeros(counts.size), np.zeros(counts.size),
                      np.full(counts.size, kHighsInf), counts.sum(), np.cumsum(counts) - counts,
                      np.broadcast_to(rows[:, None], values.shape)[kept], values[kept])
        dist, optimum = _min_violation(model, k, what)
    residual = _pairwise_residual(images, dist)
    if residual <= tol:
        return True, dist, residual
    # the optimum bounds every family's violation from below, unless the
    # witness that should attain it within tol re-verifies above tol
    return False, None, optimum if optimum > tol else residual


def _hvec(mats: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian stacks (..., d, d): upper real part, strict imag."""
    rows, cols = np.triu_indices(mats.shape[-1])
    upper = mats[..., rows, cols]
    return np.concatenate([upper.real, upper[..., rows != cols].imag], axis=-1)


def _probe_matrix(probe, dim: int, what: str) -> np.ndarray:
    mat = probe.matrix if isinstance(probe, DensityMatrix) else np.asarray(probe, dtype=complex)
    if mat.ndim != 2 or mat.shape != (dim, dim):
        raise DimensionMismatch(f"{what}: probe shape {mat.shape}, expected ({dim}, {dim})")
    if not (np.isfinite(mat).all() and float(np.max(np.abs(mat - mat.conj().T))) <= 1e-9):
        raise ValidationError(f"{what}: probes must be finite and Hermitian")
    return mat


def _probe_images(avqc: Avqc, l: int, mats) -> np.ndarray:
    """images[i, s]: coordinates of probe i under the s-th of ``avqc.state_sequences(l)``."""
    channels = [avqc.channels[s] for s in avqc.states]
    tree = _ImageTree(np.stack(mats), [channels] * l, range(l), [avqc.dim_in] * l, False)
    _, images = next(tree.walk(np.inf))
    return _hvec(images.reshape(len(mats), -1, *images.shape[1:]))


def _degenerate_pairs(mats: Sequence[np.ndarray]) -> tuple:
    flagged = []
    for i, j in itertools.combinations(range(len(mats)), 2):
        if float(np.max(np.abs(mats[i] - mats[j]))) <= 1e-12:
            flagged.append((i, j))
    return tuple(flagged)


def check_lp_size(avqc: Avqc, l: int, probe_count: int | None = None) -> int:
    """The l-block input dimension, once the pairwise LP is known to fit.

    The LP over ``probe_count`` probes (None: the dim^2 of the Hermitian
    frame) must have its state sequences within ``ENUM_BUDGET``
    (``util.check_words``) and at most LP_NNZ_BUDGET nonzeros. Nothing is
    built, and no power above a budget is formed.
    """
    what = "check_symmetrizable"
    if l < 1:
        raise ValidationError(f"{what}: l must be >= 1")
    n = len(avqc.states)
    check_words(n, l, ENUM_BUDGET, f"{what}: state sequences")
    if power_exceeds(avqc.dim_in, l, LP_NNZ_BUDGET) or power_exceeds(
        avqc.dim_out, 2 * l, LP_NNZ_BUDGET
    ):
        raise BudgetExceeded(f"{what}: the {l}-block dimensions exceed the LP budget")
    dim = avqc.dim_in**l
    k = dim * dim if probe_count is None else probe_count
    _check_lp_budget(k, n**l, avqc.dim_out ** (2 * l), what)
    return dim


def check_symmetrizable(
    avqc: Avqc,
    l: int,
    probes: Sequence,
    tol: float = TOL_FEAS,
) -> SymmetrizabilityVerdict:
    """Decide l-symmetrizability of a channel family against probe operators.

    Probes are density matrices or general Hermitian operators on the l-fold
    input space (general operators support geometric frames that enclose the
    whole state set). Identical probes are permitted and flagged.
    """
    probes = list(probes)
    if len(probes) < 2:
        raise ValidationError("check_symmetrizable: needs at least two probes")
    dim = check_lp_size(avqc, l, len(probes))
    mats = [_probe_matrix(p, dim, "check_symmetrizable") for p in probes]
    seqs = avqc.state_sequences(l)
    images = _probe_images(avqc, l, mats)
    feasible, dist, residual = _pairwise_mixture_feasibility(images, tol)
    witness = SymmetrizingFamily(tuple(seqs), dist) if feasible else None
    return SymmetrizabilityVerdict(feasible, residual, witness, _degenerate_pairs(mats))


def check_symmetrizable_pure(
    avqc: Avqc,
    l: int,
    probes: Sequence[PureState],
    tol: float = TOL_FEAS,
) -> SymmetrizabilityVerdict:
    """Same program as ``check_symmetrizable`` on rank-one probe states."""
    return check_symmetrizable(avqc, l, [p.to_density() for p in probes], tol=tol)


def symmetrization_residual(
    avqc: Avqc,
    l: int,
    probes: Sequence,
    family: SymmetrizingFamily,
) -> float:
    """Max pairwise-equality violation of an explicit family, by substitution."""
    seqs = avqc.state_sequences(l)  # bounds l before dim_in ** l is formed
    dim = avqc.dim_in**l
    mats = [_probe_matrix(p, dim, "symmetrization_residual") for p in probes]
    if tuple(seqs) != tuple(family.labels):
        raise ValidationError(
            "symmetrization_residual: family labels do not match the sequence set"
        )
    if family.index_count != len(mats):
        raise DimensionMismatch(
            "symmetrization_residual: family size does not match probe count"
        )
    images = _probe_images(avqc, l, mats)
    return _pairwise_residual(images, np.asarray(family.distributions))


def extend_family(
    base_points: Sequence,
    base_family: SymmetrizingFamily,
    new_points: Sequence,
    mixing,
) -> SymmetrizingFamily:
    """Extend a symmetrizing family to convex combinations of its probes.

    Each new point must be the stated convex combination of the base points,
    to 1e-9 in every entry; its distribution is the same combination of the base distributions,
    which preserves every pairwise equality. ``mixing`` is row-stochastic,
    one row of base-point coefficients per new point.
    """
    base = [np.asarray(getattr(p, "matrix", p), dtype=complex) for p in base_points]
    new = [np.asarray(getattr(p, "matrix", p), dtype=complex) for p in new_points]
    k = len(base)
    if base_family.index_count != k:
        raise DimensionMismatch("extend_family: family size does not match base points")
    r = np.asarray(mixing, dtype=float)
    if r.shape != (len(new), k):
        raise DimensionMismatch(
            f"extend_family: mixing shape {r.shape}, expected ({len(new)}, {k})"
        )
    check_distributions(r, 1e-12, "extend_family: mixing")
    for idx, point in enumerate(new):
        combo = sum(r[idx, j] * base[j] for j in range(k))
        defect = float(np.max(np.abs(combo - point)))
        if not defect <= 1e-9:  # a NaN or infinite point fails too
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
    basis = list(_hermitian_basis(dim))[1:]
    center = np.eye(dim, dtype=complex) / dim
    scale = float(dim * (dim + 1))
    frame = [center + scale * op for op in basis]
    frame.append(center - scale * sum(basis))
    return frame
