"""Random-coding capacity of a cq channel family under jamming.

The sought quantity is the max-min Holevo value: the best input distribution
against the worst convex mixture of the family's branches,

    C = max_p  min_q  chi(p, sum_s q(s) W_s).

The search is a pair of nested simplex grids followed by local coordinate
refinement. chi(p, W_q) is concave in p and convex in q, so the reported
point (p, q) certifies an interval around C: a Frank-Wolfe gap of the convex
inner problem bounds min_q chi(p, .) from below, and, since
max_p chi(p, W) <= max_z D(W(z) || sigma) for every state sigma, the
relative entropies to the p-average of W_q bound max_p chi(., q) from above.

Every search stage scores stacks of (p, q) points at once: one ``einsum``
forms the mixtures and the p-averages, one batched ``eigvalsh`` gives every
spectrum, and the conditional term is one ``vecdot``. Each stacked value
equals the one-point evaluation bit for bit, and the scans over the stacked
values keep the order and the 1e-15 tie rules of a one-point-at-a-time
search, so the result does not depend on how the points are batched
(``tests/helpers.scalar_capacity_search`` is that one-point search).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .avqc import AvCqc
from .errors import BudgetExceeded, ValidationError
from .measures import holevo_chi
from .quantum import hermitize

__all__ = ["MinimaxResult", "simplex_grid", "chi_of_mixture", "cq_random_capacity"]

# (p, q) pairs scored per call, to bound the stacks held at once; a grid
# scan still takes at least one p row against the whole q grid per call.
# Larger chunks ran no faster on the capacity benchmark and raised its peak
# RSS by up to 2 MB.
_CHUNK_PAIRS = 1024


@dataclass(frozen=True)
class MinimaxResult:
    """Grid-and-refine estimate of the max-min Holevo value, with a certificate.

    ``value`` is chi(argmax_p, W_argmin_q). ``lower_bound`` is ``value``
    less the Frank-Wolfe gap of the convex problem min_q chi(argmax_p, W_q),
    so at most its minimum; ``upper_bound`` is at least
    max_p chi(p, W_argmin_q), bounded through relative entropies. The
    max-min value and ``value`` both lie between them, and
    ``certified_gap`` is ``upper_bound - lower_bound``.
    """

    value: float
    argmax_p: np.ndarray
    argmin_q: np.ndarray
    grid_step: float
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


class _ChiEvaluator:
    """Stacked evaluation of chi(p, W_q) for one family.

    The leading axes of the p and q stacks broadcast against each other, so
    one call scores a p against a q grid, a block of p rows against it, or
    a list of (p, q) pairs.
    """

    def __init__(self, avcqc: AvCqc):
        self.branch = np.stack(
            [
                np.stack([avcqc.branches[s].outputs[z].matrix for z in avcqc.alphabet])
                for s in avcqc.states
            ]
        )  # (n_states, n_letters, d, d)

    def mixtures(self, qs: np.ndarray):
        """Outputs W_q (..., n_letters, d, d) of q stacks and their entropies."""
        out = np.einsum("...s,szij->...zij", qs, self.branch)
        return out, _entropies(out)

    def chi_parts(self, ps: np.ndarray, out: np.ndarray, ents: np.ndarray) -> np.ndarray:
        """chi of p stacks (..., n_letters) against ``mixtures`` output.

        ``vecdot`` reduces like the one-point ``p @ ents``; ``ents @ p`` and
        ``(ents * ps).sum(-1)`` differ from it in the last bit on some rows.
        """
        avg = np.einsum("...z,...zij->...ij", ps, out)
        return _entropies(avg) - np.vecdot(ents, ps)

    def chi(self, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
        return self.chi_parts(ps, *self.mixtures(qs))


def _lower(new: float, old: float) -> bool:
    return new < old - 1e-15


def _higher(new: float, old: float) -> bool:
    return new > old + 1e-15


def _coordinate_steps(x, value, payload, step, iterations, better):
    """Coordinate search over simplex transfers with step halving, as a generator.

    A sweep visits the ordered pairs (i, j), i != j, in order and tries to
    move ``step`` of mass from x[j] to x[i] where x[j] holds it; a move is
    taken when ``better(new, current)``, and the rest of the sweep starts
    from the new point. A sweep that takes no move halves the step.
    The generator yields each stack of candidate points and is sent back
    their values and payloads; it returns the final (x, value, payload).
    All remaining moves of a sweep are yielded at once, and after a taken
    move only the moves after it are yielded again, so the search takes
    exactly the moves of a one-move-at-a-time loop.
    """
    pairs = [(i, j) for i in range(x.size) for j in range(x.size) if i != j]
    for _ in range(iterations):
        moved = False
        rest = pairs
        while rest:
            todo = [(i, j) for i, j in rest if not x[j] < step - 1e-15]
            if not todo:
                break
            rows = np.arange(len(todo))
            cands = np.repeat(x[None, :], len(todo), axis=0)
            cands[rows, [j for _, j in todo]] -= step
            cands[rows, [i for i, _ in todo]] += step
            values, payloads = yield cands
            for n, cand_val in enumerate(values):
                if better(cand_val, value):
                    x, value, payload = cands[n], cand_val, payloads[n]
                    moved = True
                    rest = rest[rest.index(todo[n]) + 1 :]
                    break
            else:
                break
        if not moved:
            step /= 2.0
    return x, value, payload


def _coordinate_search(score, x, value, payload, step, iterations, better):
    """Run one ``_coordinate_steps`` search; ``score`` maps a stack to (values, payloads)."""
    search = _coordinate_steps(x, value, payload, step, iterations, better)
    try:
        cands = next(search)
        while True:
            cands = search.send(score(cands))
    except StopIteration as done:
        return done.value


def _grid_min(ev: _ChiEvaluator, ps: np.ndarray, grid) -> list:
    """(min, argmin) over the q grid for each row of ``ps``.

    The scan keeps the earliest grid point unless a later one is lower by
    more than 1e-15.
    """
    _, out, ents = grid
    rows = max(1, _CHUNK_PAIRS // len(ents))
    found = []
    for start in range(0, len(ps), rows):
        table = ev.chi_parts(ps[start : start + rows, None, :], out, ents)
        for row in table.tolist():
            best, best_idx = np.inf, 0
            for idx, val in enumerate(row):
                if val < best - 1e-15:
                    best, best_idx = val, idx
            found.append((best, best_idx))
    return found


def _inner_min(ev: _ChiEvaluator, ps: np.ndarray, grid, step0: float,
               iterations: int) -> list:
    """(min, argmin) over q for each row of ``ps``: grid argmin, then coordinate descent.

    The rows' descents run in lockstep: each step scores the pending moves
    of every unfinished descent in one ``chi`` call.
    """
    q_starts = grid[0][[idx for _, idx in _grid_min(ev, ps, grid)]]
    descents = [
        _coordinate_steps(q, value, None, step0, iterations, _lower)
        for q, value in zip(q_starts, ev.chi(ps, q_starts).tolist())
    ]
    found = [None] * len(ps)
    pending = {}

    def advance(row, sent):
        try:
            pending[row] = descents[row].send(sent)
        except StopIteration as done:
            found[row] = done.value

    for row in range(len(ps)):
        advance(row, None)
    while pending:
        rows, stacks = zip(*pending.items())
        pending = {}
        sizes = [len(cands) for cands in stacks]
        values = ev.chi(np.repeat(ps[list(rows)], sizes, axis=0), np.concatenate(stacks))
        at = 0
        for row, size in zip(rows, sizes):
            advance(row, (values[at : at + size].tolist(), [None] * size))
            at += size
    return [(value, q) for q, value, _ in found]


def _off_support(weights: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Whether ``weights`` exceed 1e-12 on an eigenvalue at or below 1e-12.

    ``vals`` (..., d) broadcasts against ``weights``; the last axis is reduced.
    """
    return ((weights > 1e-12) & (vals <= 1e-12)).any(axis=-1)


def _certificate(branch: np.ndarray, p: np.ndarray, q: np.ndarray,
                 value: float) -> tuple[float, float]:
    """(lower, upper) around the max-min of chi, from the point (p, q).

    Lower: chi(p, .) extends to the nonnegative orthant as a convex,
    positively homogeneous function of q, so min_q chi(p, W_q) is at least
    value - FW with the Frank-Wolfe gap FW = <grad, q> - min_s grad_s. With
    rho = sum_z p_z W_q(z), the partial derivatives are
        grad_s = -tr(sum_z p_z W_s(z) log2 rho) + sum_z p_z tr(W_s(z) log2 W_q(z)).
    A W_s(z) (p_z > 0) or a p-average of W_s with weight on the kernel of
    W_q(z) or rho makes grad_s infinite, and the bound falls back to 0.
    Upper: max_p chi(p, W_q) <= max_z D(W_q(z) || rho) <= log2 min(d, |Z|).
    Eigenvalues at or below 1e-12 count as 0 (``_log_on_support``).
    """
    out = np.einsum("s,szij->zij", q, branch)
    avg = np.einsum("z,zij->ij", p, out)
    vals, vecs = np.linalg.eigh(hermitize(out))
    avg_vals, avg_vecs = np.linalg.eigh(hermitize(avg))
    logs, avg_logs = _log_on_support(vals), _log_on_support(avg_vals)
    used = p > 0.0

    # weights <v|W_s(z)|v> on the eigenvectors of W_q(z), and of the
    # p-averaged members and of W_q(z) on the eigenvectors of rho
    cond_w = np.einsum("zia,szij,zja->sza", vecs.conj(), branch, vecs).real
    avg_w = np.einsum("ia,z,szij,ja->sa", avg_vecs.conj(), p, branch, avg_vecs).real
    out_w = np.einsum("ia,zij,ja->za", avg_vecs.conj(), out, avg_vecs).real

    grad = -(avg_w @ avg_logs) + np.einsum("z,sza,za->s", p, cond_w, logs)
    infinite = _off_support(avg_w, avg_vals) | _off_support(cond_w[:, used], vals[used]).any(-1)
    if infinite.any():
        lower = 0.0
    else:
        frank_wolfe = max(0.0, float(grad @ q) - float(grad.min()))
        lower = max(0.0, value - frank_wolfe)

    ents = -(vals * logs).sum(axis=-1)
    divergences = -ents - out_w @ avg_logs
    upper = math.log2(min(branch.shape[-1], branch.shape[1]))
    if not _off_support(out_w, avg_vals).any():
        upper = min(upper, float(divergences.max()))
    # value <= max_p chi(p, W_q) <= upper; tidy away rounding between them
    return lower, max(upper, value)


def cq_random_capacity(
    avcqc: AvCqc,
    grid_step: float = 1.0 / 64.0,
    refine_iterations: int = 20,
    budget: int = 2**20,
) -> MinimaxResult:
    """Search max_p min_q chi(p, W_q) on nested simplex grids plus refinement.

    Both grids use the same step. The outer maximizer is then improved by
    coordinate ascent (each candidate scored by a full inner minimization)
    with ``refine_iterations`` rounds of step halving, mirrored by descent on
    the inner weights. The result carries the certified interval of
    ``_certificate`` at the final point. The grid sizes are checked against
    ``budget`` before any grid is built.
    """
    if not 0.0 < grid_step <= 0.5:
        raise ValidationError("cq_random_capacity: grid_step must lie in (0, 1/2]")
    steps = max(1, round(1.0 / grid_step))
    grid_step = 1.0 / steps
    n_z, n_s = len(avcqc.alphabet), len(avcqc.states)
    n_p = math.comb(steps + n_z - 1, n_z - 1)
    n_q = math.comb(steps + n_s - 1, n_s - 1)
    if n_p * n_q > budget:
        raise BudgetExceeded(
            f"cq_random_capacity: {n_p}x{n_q} grid pairs exceed "
            f"budget {budget}; use a coarser grid"
        )
    ev = _ChiEvaluator(avcqc)
    p_grid = np.array(list(simplex_grid(n_z, steps)))
    q_grid = np.array(list(simplex_grid(n_s, steps)))
    grid = (q_grid, *ev.mixtures(q_grid))

    # stage 1: pure grid search
    best_val, best_p = -np.inf, None
    for p, (inner_best, _) in zip(p_grid, _grid_min(ev, p_grid, grid)):
        if inner_best > best_val + 1e-15:
            best_val, best_p = inner_best, p
    p_star = np.array(best_p)

    # stage 2: local refinement of the outer point; after a taken move the
    # ascent meets points it has scored before (bit for bit when the step is
    # dyadic, as 1/64 is), so inner minima are kept
    known = {}

    def inner(ps):
        new = [p for p in ps if p.tobytes() not in known]
        if new:
            found = _inner_min(ev, np.array(new), grid, grid_step, refine_iterations)
            known.update(zip((p.tobytes() for p in new), found))
        return tuple(zip(*(known[p.tobytes()] for p in ps)))

    (value,), (q_star,) = inner(p_star[None, :])
    p_star, value, q_star = _coordinate_search(
        inner, p_star, value, q_star, grid_step, refine_iterations, _higher
    )

    # chi is nonnegative; tidy away float noise and negative zeros at the floor
    value = float(value)
    if value <= 0.0:
        value = 0.0
    q_star = np.asarray(q_star)
    lower, upper = _certificate(ev.branch, p_star, q_star, value)
    return MinimaxResult(value, p_star, q_star, grid_step, upper - lower, lower, upper)
