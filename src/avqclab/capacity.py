"""Random-coding capacity of a cq channel family under jamming.

The sought quantity is the max-min Holevo value: the best input distribution
against the worst convex mixture of the family's branches,

    C = max_p  min_q  chi(p, sum_s q(s) W_s).

chi(p, W_q) is concave in p and convex in q, so by Sion's theorem C is the
minimum over the q simplex of the convex f(q) = max_p chi(p, W_q). The solver
is Kelley's cutting-plane method on f. At each query q_j projected Newton
steps on p, with a plain Blahut-Arimoto step wherever one does not raise chi
(``_blahut_arimoto``), give an input p_j and two certificates for any p_j:

- an upper bound: f(q_j) <= max_z D(W_{q_j}(z) || rho_j), with rho_j the
  p_j-average of the outputs, since chi(p, W) <= max_z D(W(z) || sigma) for
  every state sigma;
- a cut: chi(p_j, .) extends to the nonnegative orthant as a convex,
  positively homogeneous function of q, so chi(p_j, W_q) >= g_j . q for its
  gradient g_j at q_j, and f(q) >= g_j . q.

The master problem, min_q max_j g_j . q over the simplex, is a small matrix
game (``_master``), each call warm-started from the last call's basis. For
any probability vector lambda on the cuts, min_s (sum_j lambda_j g_j)_s is a
lower bound on C and, by concavity in p, on min_q chi(sum_j lambda_j p_j, W_q);
the master's cut weights give the best one, and its minimizer is the next
query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .avqc import AvCqc
from .quantum import hermitize

__all__ = ["MinimaxResult", "cq_random_capacity"]

# The loop stops when the certified interval is this narrow, or after
# _MAX_CUTS queries; each inner solve stops at its own gap, at most
# max(_BA_GAP, a quarter of the interval), or after _MAX_STEPS steps.
_GAP = 1e-7
_MAX_CUTS = 200
_BA_GAP = 1e-9
_MAX_STEPS = 10_000
# Each query is moved this far towards the uniform q, so that the outputs
# W_q(z) contain the support of every member's and the gradient is finite;
# where rounding still leaves a partial infinite, it moves halfway there.
_INTERIOR = 1e-9
_RIDGE = 1e-10  # times the Hessian's trace, added to its diagonal in a Newton step
_HALVINGS = 8  # of a Newton step, before a Blahut-Arimoto step
# The master stops after _MAX_PIVOTS pivots (warm-started, the benchmark's
# calls take at most 4) and treats numbers within _PIVOT_TOL, relative to
# max|G|, as 0.
_MAX_PIVOTS = 1000
_PIVOT_TOL = 1e-12


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
    """(D(W(z) || rho), all finite?, eigenvalues of rho = sum_z p_z W(z), W(z) in their basis)."""
    vals, vecs = np.linalg.eigh(hermitize(np.einsum("z,zij->ij", p, out)))
    rotated = vecs.conj().T @ out @ vecs
    weights = np.einsum("zaa->za", rotated).real
    div = -ents - weights @ _log_on_support(vals)
    return div, not _off_support(weights, vals).any(), vals, rotated


def _hessian(vals: np.ndarray, rotated: np.ndarray) -> np.ndarray:
    """d^2 chi / dp_z dp_y = -tr(W(z) Dlog2(rho)[W(y)]), from ``_divergences``' last two values.

    In rho's eigenbasis Dlog(rho) multiplies entrywise by the divided differences
    (ln a - ln b) / (a - b), and by 1/a where a = b (Daleckii-Krein); eigenvalues
    at or below 1e-12 count as 0."""
    kept = vals > 1e-12
    safe = np.where(kept, vals, 1.0)
    rel = safe[:, None] / safe - 1.0
    slope = np.divide(np.log1p(rel), rel, out=np.ones_like(rel), where=rel != 0.0) / safe
    slope[~kept] = slope[:, ~kept] = 0.0
    flat = rotated.reshape(len(rotated), -1)
    return ((flat * slope.ravel()) @ flat.conj().T).real / -math.log(2.0)


def _newton(p: np.ndarray, div: np.ndarray, hess: np.ndarray):
    """A projected Newton step from ``p`` and its longest feasible length, at most 1.

    Letters within min(1e-3, max_z D_z - chi) of 0 with D_z < chi step to 0
    (Bertsekas 1982); the rest maximize chi's quadratic model on the tangent.
    The ridge keeps a singular Hessian solvable and sends the step far along
    its flat directions, so the longest feasible length drops a letter. A free
    letter at 0 that the step would lower is held at 0 instead."""
    chi = p @ div
    free = (p > min(1e-3, div.max() - chi)) | (div >= chi)
    while True:
        n = int(free.sum())
        kkt = np.ones((n + 1, n + 1))
        kkt[:n, :n] = -hess[free][:, free]
        kkt.flat[: n * (n + 2) : n + 2] += _RIDGE * max(-np.trace(hess), 1e-300)
        kkt[n, n] = 0.0
        step = -p
        step[free] = np.linalg.solve(kkt, np.append(div[free], p[~free].sum()))[:n]
        blocked = free & (p <= 0.0) & (step < 0.0)
        if not blocked.any():
            break
        free &= ~blocked
    falling = step < 0.0
    return step, (p[falling] / -step[falling]).min(initial=1.0)


def _blahut_arimoto(out: np.ndarray, ents: np.ndarray, p: np.ndarray, gap: float):
    """max_p chi(p, W) from ``p`` by projected Newton steps: (p, divergences, finite).

    A ``_newton`` step is halved until chi rises, at most _HALVINGS times;
    then the cq Blahut-Arimoto step p <- p * 2^D, normalized (Nagaoka 1998),
    runs instead. No step makes a finite divergence infinite. The run stops
    once max_z D_z - chi <= ``gap``, or once neither step can be taken.
    """
    state = _divergences(out, ents, p)
    for _ in range(_MAX_STEPS):
        div, finite = state[:2]
        chi = p @ div
        if div.max() - chi <= gap:
            break
        step, alpha = _newton(p, div, _hessian(*state[2:]))
        for length in alpha * 0.5 ** np.arange(_HALVINGS):
            cand = np.maximum(p + length * step, 0.0)
            cand /= cand.sum()
            cand_state = _divergences(out, ents, cand)
            if (cand_state[1] or not finite) and cand @ cand_state[0] > chi:
                break
        else:
            cand = p * np.exp2(div - div.max())
            cand /= cand.sum()
            cand_state = _divergences(out, ents, cand)
            if finite and not cand_state[1]:
                break
        p, state = cand, cand_state
    return p, state[0], state[1]


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


def _master(cuts: np.ndarray, basis: np.ndarray | None):
    """(q, lambda, basis) for min_q max_j g_j . q over the simplex, solved as a matrix game.

    With G scaled and shifted to M = (G - min G) / max|G| + 1 > 0, the primal
    simplex method solves the cut-weight form min 1.x subject to M^T x >= 1,
    x >= 0 by Bland's rule. A basis is the sorted indices of its |S| basic
    variables: member s's surplus (M^T x)_s - 1 is variable s, and cut j's
    weight x_j is variable |S| + j, so appending a cut moves no index.
    ``basis`` is the previous call's, or None for the first cut alone, tight
    at its smallest member. Either is feasible: an appended cut starts at
    x_j = 0, and a basis's feasibility and optimality are unchanged under
    M -> aM + b with a > 0, which is how a longer table's rescaling acts.
    Each pivot re-solves x and the duals y (the surpluses' reduced costs)
    from the basis columns, taken afresh from M, so rounding does not build
    up over near-tied cuts. lambda = x / sum(x) and q = y / sum(y), clipped.

    The certificate does not rest on this solve: for any probability vector
    lambda, min_s (lambda^T G)_s <= min_q max_j g_j . q by weak duality, so
    an inexact solve only widens the interval, and a solve that reaches the
    pivot cap returns its current q and weights.
    """
    n_cuts, n_s = cuts.shape
    shifted = (cuts - cuts.min()) / (np.abs(cuts).max() or 1.0) + 1.0
    columns, costs = np.hstack([-np.eye(n_s), shifted.T]), np.repeat([0.0, 1.0], [n_s, n_cuts])
    if basis is None:
        basis = np.r_[np.delete(np.arange(n_s), shifted[0].argmin()), n_s]
    for pivot in range(_MAX_PIVOTS + 1):
        core = columns[:, basis]  # |S| x |S|
        values, duals = np.linalg.solve(core, np.ones(n_s)), np.linalg.solve(core.T, costs[basis])
        # over sum(y): q_s for a surplus, and (value - g_j . q) / max|G| for a cut
        reduced = (costs - duals @ columns) / duals.sum()
        reduced[basis] = 0.0
        enter = np.argmax(reduced < -_PIVOT_TOL)  # Bland: the lowest index enters
        if reduced[enter] >= -_PIVOT_TOL or pivot == _MAX_PIVOTS:
            break
        # how fast each basic value falls as the entering one grows
        steps = np.linalg.solve(core, columns[:, enter])
        moving = steps > _PIVOT_TOL
        if not moving.any():
            break
        # Bland: the lowest index of those whose leaving drives no value below
        # -_PIVOT_TOL (Harris 1973); rounding below 0 would make a ratio negative
        values = np.maximum(values, 0.0)
        limit = ((values[moving] + _PIVOT_TOL) / steps[moving]).min()
        leaving = np.argmax(moving & (values <= limit * steps))
        basis = np.sort(np.r_[np.delete(basis, leaving), enter])
    q, weights = np.clip(duals, 0.0, None), np.zeros(n_cuts)
    weights[basis[basis >= n_s] - n_s] = np.clip(values[basis >= n_s], 0.0, None)
    return q / q.sum(), weights / weights.sum(), basis


def cq_random_capacity(avcqc: AvCqc) -> MinimaxResult:
    """max_p min_q chi(p, W_q) by cutting planes over q, with a certified interval.

    Each query warm-starts the inner solve from the previous p, and each
    master call the simplex from the previous basis. The loop stops when
    ``upper_bound - lower_bound`` <= 1e-7, or after a fixed number of
    queries with the wider interval, which is still certified.
    ``argmax_p`` is the cut-weighted average of the queries' inputs that
    gives the best lower bound, and ``argmin_q`` the query with the best
    upper bound. With one member, the inner solve runs alone.
    """
    branch = np.array(
        [[avcqc.branches[s].outputs[z].matrix for z in avcqc.alphabet] for s in avcqc.states]
    )  # (n_states, n_letters, d, d)
    n_s, n_z = branch.shape[:2]
    p = p_bar = np.full(n_z, 1.0 / n_z)
    q = q_best = np.full(n_s, 1.0 / n_s)
    # chi >= 0, and chi <= log2 min(d, |Z|) by Holevo's bound
    lower, upper = 0.0, math.log2(min(branch.shape[-1], n_z))
    cuts, inputs, basis = [], [], None
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
        if grad is None:  # an eigenvalue of a W_q(z) fell to 1e-12: query further inside
            q = 0.5 * (q + 1.0 / n_s)
            continue
        cuts.append(grad)
        inputs.append(p)
        table = np.array(cuts)
        q_next, weights, basis = _master(table, basis)
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
