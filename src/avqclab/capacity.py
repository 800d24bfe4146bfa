"""Random-coding capacity of a cq channel family under jamming.

The sought quantity is the max-min Holevo value: the best input distribution
against the worst convex mixture of the family's branches,

    C = max_p  min_q  chi(p, sum_s q(s) W_s).

chi(p, W_q) is concave in p and convex in q, so by Sion's theorem C is the
minimum over the q simplex of the convex f(q) = max_p chi(p, W_q). The solver
is Kelley's cutting-plane method on f. At each query q_j an accelerated cq
Blahut-Arimoto run gives an input p_j and two certificates:

- an upper bound: f(q_j) <= max_z D(W_{q_j}(z) || rho_j), with rho_j the
  p_j-average of the outputs, since chi(p, W) <= max_z D(W(z) || sigma) for
  every state sigma;
- a cut: chi(p_j, .) extends to the nonnegative orthant as a convex,
  positively homogeneous function of q, so chi(p_j, W_q) >= g_j . q for its
  gradient g_j at q_j, and f(q) >= g_j . q.

A small master LP minimizes max_j g_j . q over the simplex. Its dual weights
lambda give the lower bound min_s (sum_j lambda_j g_j)_s on C, which by
concavity in p is also a lower bound on min_q chi(sum_j lambda_j p_j, W_q);
its minimizer is the next query.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .avqc import AvCqc
from .errors import ValidationError
from .measures import holevo_chi
from .quantum import hermitize

__all__ = ["MinimaxResult", "simplex_grid", "chi_of_mixture", "cq_random_capacity"]

# The loop stops when the certified interval is this narrow, or after
# _MAX_CUTS queries; each Blahut-Arimoto run stops at its own gap, at most
# max(_BA_GAP, a quarter of the interval), or after _MAX_STEPS steps.
_GAP = 1e-7
_MAX_CUTS = 200
_BA_GAP = 1e-9
_MAX_STEPS = 10_000
# Each query is moved this far towards the uniform q, so that the outputs
# W_q(z) contain the support of every member's and the gradient is finite.
_INTERIOR = 1e-9


@dataclass(frozen=True)
class MinimaxResult:
    """The max-min Holevo value with a certified interval around it.

    ``lower_bound`` is at most min_q chi(argmax_p, W_q), and ``upper_bound``
    is at least max_p chi(p, W_argmin_q), so the max-min value and
    ``value`` = chi(argmax_p, W_argmin_q) both lie between them;
    ``certified_gap`` is ``upper_bound - lower_bound``.
    """

    value: float
    argmax_p: np.ndarray
    argmin_q: np.ndarray
    certified_gap: float
    lower_bound: float
    upper_bound: float


def simplex_grid(k: int, steps: int):
    """All probability vectors with denominators ``steps`` on k outcomes."""
    if k < 1 or steps < 1:
        raise ValidationError("simplex_grid: k and steps must be positive")
    for cuts in itertools.combinations(range(steps + k - 1), k - 1):
        parts = []
        prev = -1
        for cut in cuts + (steps + k - 1,):
            parts.append(cut - prev - 1)
            prev = cut
        yield np.array(parts, dtype=float) / steps


def chi_of_mixture(avcqc: AvCqc, probs, weights) -> float:
    """Holevo value of input distribution ``probs`` against the q-mixture."""
    return holevo_chi(probs, avcqc.mixture(weights))


def _log_on_support(vals: np.ndarray) -> np.ndarray:
    """log2 of eigenvalues above 1e-12, and 0 at or below it."""
    kept = vals > 1e-12
    return np.where(kept, np.log2(np.where(kept, vals, 1.0)), 0.0)


def _entropies(mats: np.ndarray) -> np.ndarray:
    """Entropies in bits of a stack (..., d, d); eigenvalues <= 1e-12 count 0."""
    vals = np.linalg.eigvalsh(hermitize(mats))
    return -(vals * _log_on_support(vals)).sum(axis=-1)


def _off_support(weights: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Whether ``weights`` exceed 1e-12 on an eigenvalue at or below 1e-12.

    ``vals`` (..., d) broadcasts against ``weights``; the last axis is reduced.
    """
    return ((weights > 1e-12) & (vals <= 1e-12)).any(axis=-1)


def _divergences(out: np.ndarray, ents: np.ndarray, p: np.ndarray):
    """(D(W(z) || rho) for every letter, whether all are finite); rho = sum_z p_z W(z)."""
    vals, vecs = np.linalg.eigh(hermitize(np.einsum("z,zij->ij", p, out)))
    weights = np.einsum("ia,zij,ja->za", vecs.conj(), out, vecs).real
    return -ents - weights @ _log_on_support(vals), not _off_support(weights, vals).any()


def _blahut_arimoto(out: np.ndarray, ents: np.ndarray, p: np.ndarray, gap: float):
    """Accelerated cq Blahut-Arimoto from ``p``: (p, divergences, finite).

    The step p <- p * 2^(mu D) (Nagaoka 1998 at mu = 1) doubles mu while
    chi = p . D rises and halves it, down to 1, when chi would fall (Matz &
    Duhamel 2004). It stops once max_z D_z - chi <= ``gap``. The multiplicative
    step keeps every letter of a positive p in use.
    """
    div, finite = _divergences(out, ents, p)
    mu = 1.0
    for _ in range(_MAX_STEPS):
        if div.max() - p @ div <= gap:
            break
        cand = p * np.exp2(mu * (div - div.max()))
        cand /= cand.sum()
        cand_div, cand_finite = _divergences(out, ents, cand)
        if cand @ cand_div >= p @ div or mu == 1.0:
            p, div, finite = cand, cand_div, cand_finite
            mu *= 2.0
        else:
            mu = max(1.0, mu / 2.0)
    return p, div, finite


def _gradient(branch: np.ndarray, p: np.ndarray, q: np.ndarray):
    """grad_q chi(p, W_q) at q, or None where a partial derivative is infinite.

    With rho = sum_z p_z W_q(z),
        grad_s = -tr(sum_z p_z W_s(z) log2 rho) + sum_z p_z tr(W_s(z) log2 W_q(z)).
    A W_s(z) (p_z > 0) or a p-average of W_s with weight on the kernel of
    W_q(z) or rho makes grad_s infinite. Eigenvalues at or below 1e-12 count
    as 0 (``_log_on_support``).
    """
    out = np.einsum("s,szij->zij", q, branch)
    vals, vecs = np.linalg.eigh(hermitize(out))
    avg_vals, avg_vecs = np.linalg.eigh(hermitize(np.einsum("z,zij->ij", p, out)))
    used = p > 0.0
    # weights <v|W_s(z)|v> on the eigenvectors of W_q(z), and of the
    # p-averaged members on the eigenvectors of rho
    cond_w = np.einsum("zia,szij,zja->sza", vecs.conj(), branch, vecs).real
    avg_w = np.einsum("ia,z,szij,ja->sa", avg_vecs.conj(), p, branch, avg_vecs).real
    if _off_support(avg_w, avg_vals).any() or _off_support(cond_w[:, used], vals[used]).any():
        return None
    return -(avg_w @ _log_on_support(avg_vals)) + np.einsum(
        "z,sza,za->s", p, cond_w, _log_on_support(vals)
    )


def _master(cuts: np.ndarray):
    """Kelley's master LP, min_{q, t} t subject to t >= g_j . q on the simplex.

    Returns the minimizing q and the LP's dual weights on the cuts, clipped
    and normalized to a probability vector. The weights make the lower
    bound, so they are solved to 1e-10: HiGHS's default 1e-7 leaves that
    bound up to about 1e-7 below the LP optimum, as wide as the target.
    """
    from scipy.optimize import linprog  # here, so that importing avqclab loads no scipy

    n_cuts, n_s = cuts.shape
    res = linprog(
        np.r_[np.zeros(n_s), 1.0],
        A_ub=np.hstack([cuts, -np.ones((n_cuts, 1))]),
        b_ub=np.zeros(n_cuts),
        A_eq=np.r_[np.ones(n_s), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * n_s + [(None, None)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    q = np.clip(res.x[:n_s], 0.0, None)
    weights = np.clip(-res.ineqlin.marginals, 0.0, None)
    return q / q.sum(), weights / weights.sum()


def cq_random_capacity(avcqc: AvCqc) -> MinimaxResult:
    """max_p min_q chi(p, W_q) by cutting planes over q, with a certified interval.

    Each query warm-starts Blahut-Arimoto from the previous p. The loop
    stops when ``upper_bound - lower_bound`` <= 1e-7, or after a fixed
    number of cuts with the wider interval, which is still certified.
    ``argmax_p`` is the dual-weighted average of the queries' inputs that
    gives the best lower bound, and ``argmin_q`` the query with the best
    upper bound. With one member, Blahut-Arimoto runs alone.
    """
    branch = np.array(
        [[avcqc.branches[s].outputs[z].matrix for z in avcqc.alphabet] for s in avcqc.states]
    )  # (n_states, n_letters, d, d)
    n_s, n_z = branch.shape[:2]
    p = p_bar = np.full(n_z, 1.0 / n_z)
    q = q_best = np.full(n_s, 1.0 / n_s)
    # chi >= 0, and chi <= log2 min(d, |Z|) by Holevo's bound
    lower, upper = 0.0, math.log2(min(branch.shape[-1], n_z))
    cuts, inputs = [], []
    for _ in range(_MAX_CUTS):
        out = np.einsum("s,szij->zij", q, branch)
        ents = _entropies(out)
        gap = _BA_GAP if n_s == 1 else max(_BA_GAP, (upper - lower) / 4.0)
        p, div, finite = _blahut_arimoto(out, ents, p, gap)
        if finite and div.max() < upper:
            upper, q_best = float(div.max()), q
        if n_s == 1:
            lower, p_bar = float(p @ div), p
            break
        grad = _gradient(branch, p, q)
        if grad is None:
            break
        cuts.append(grad)
        inputs.append(p)
        table = np.array(cuts)
        q_next, weights = _master(table)
        bound = float((weights @ table).min())
        if bound > lower:
            lower, p_bar = bound, weights @ np.array(inputs)
        if upper - lower <= _GAP:
            break
        q = (1.0 - _INTERIOR) * q_next + _INTERIOR / n_s

    out = np.einsum("s,szij->zij", q_best, branch)
    chi = _entropies(np.einsum("z,zij->ij", p_bar, out)) - p_bar @ _entropies(out)
    # chi is nonnegative; tidy away float noise and negative zeros at the floor
    value = max(0.0, float(chi))
    lower, upper = min(lower, value), max(upper, value)
    return MinimaxResult(value, p_bar, q_best, upper - lower, lower, upper)
