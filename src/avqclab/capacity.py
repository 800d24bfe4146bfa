"""Random-coding capacity of a cq channel family under jamming.

The sought quantity is the max-min Holevo value: the best input distribution
against the worst convex mixture of the family's branches,

    max_p  min_q  chi(p, sum_s q(s) W_s).

Neither direction is assumed concave or convex; the search is a pair of
nested simplex grids followed by local coordinate refinement, and results
carry a resolution estimate (grid step times a Lipschitz constant sampled at
random points) rather than a claim of global optimality.

Every stage scores stacks of (p, q) points at once: one ``einsum`` forms the
mixtures and the p-averages, one batched ``eigvalsh`` gives every spectrum,
and the conditional term is one ``vecdot``. Each stacked value equals the
one-point evaluation bit for bit, and the scans over the stacked values keep
the order and the 1e-15 tie rules of a one-point-at-a-time search, so the
result does not depend on how the points are batched
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
    """Grid-and-refine estimate of the max-min Holevo value.

    ``certified_gap`` is grid_step times the largest of the Lipschitz
    quotients of chi sampled at random points: an estimate of the
    resolution of the search, not a certificate.
    """

    value: float
    argmax_p: np.ndarray
    argmin_q: np.ndarray
    grid_step: float
    certified_gap: float


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


def _entropies(mats: np.ndarray) -> np.ndarray:
    """Entropies in bits of a stack (..., d, d); eigenvalues <= 1e-12 count 0."""
    vals = np.linalg.eigvalsh(hermitize(mats))
    kept = vals > 1e-12
    safe = np.where(kept, vals, 1.0)
    return -np.where(kept, safe * np.log2(safe), 0.0).sum(axis=-1)


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


def _coordinate_search(score, x, value, payload, step, iterations, better):
    """Coordinate search over simplex transfers with step halving.

    A sweep visits the ordered pairs (i, j), i != j, in order and tries to
    move ``step`` of mass from x[j] to x[i] where x[j] holds it; a move is
    taken when ``better(new, current)``, and the rest of the sweep starts
    from the new point. A sweep that takes no move halves the step.
    ``score`` maps a stack of points to their values and payloads. All
    remaining moves of a sweep are scored in one call, and after a taken
    move only the moves after it are scored again, so the search takes
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
            values, payloads = score(cands)
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


def _local_minimize_q(ev: _ChiEvaluator, p: np.ndarray, q: np.ndarray, step0: float,
                      iterations: int) -> tuple[float, np.ndarray]:
    """Coordinate descent over simplex transfers of q, p fixed."""

    def score(qs):
        return ev.chi(p, qs).tolist(), [None] * len(qs)

    q = np.array(q)
    value = ev.chi(p, q).item()
    q, value, _ = _coordinate_search(score, q, value, None, step0, iterations, _lower)
    return value, q


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
               iterations: int) -> tuple[list, list]:
    """min over q for each row of ``ps``: grid argmin, then local descent."""
    values, qs = [], []
    for p, (_, idx) in zip(ps, _grid_min(ev, ps, grid)):
        value, q = _local_minimize_q(ev, p, grid[0][idx], step0, iterations)
        values.append(value)
        qs.append(q)
    return values, qs


def _random_transfer(rng, x: np.ndarray, delta: float):
    """Move min(delta, x[j]) of mass from a random j to a random i != j.

    Returns the moved point and the amount, or None when the amount is at
    most 1e-12.
    """
    i, j = rng.choice(x.size, size=2, replace=False)
    move = min(delta, x[j])
    if move <= 1e-12:
        return None, move
    cand = np.array(x)
    cand[j] -= move
    cand[i] += move
    return cand, move


def cq_random_capacity(
    avcqc: AvCqc,
    grid_step: float = 1.0 / 64.0,
    refine_iterations: int = 20,
    lipschitz_samples: int = 1000,
    seed: int = 0,
    budget: int = 2**20,
) -> MinimaxResult:
    """Search max_p min_q chi(p, W_q) on nested simplex grids plus refinement.

    Both grids use the same step. The outer maximizer is then improved by
    coordinate ascent (each candidate scored by a full inner minimization)
    with ``refine_iterations`` rounds of step halving, mirrored by descent on
    the inner weights. The reported gap scales the grid step by the largest
    of ``lipschitz_samples`` sampled directional difference quotients of chi.
    The grid sizes are checked against ``budget`` before any grid is built.
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

    # stage 2: local refinement of the outer point
    def inner(ps):
        return _inner_min(ev, ps, grid, grid_step, refine_iterations)

    (value,), (q_star,) = inner(p_star[None, :])
    p_star, value, q_star = _coordinate_search(
        inner, p_star, value, q_star, grid_step, refine_iterations, _higher
    )

    # stage 3: sampled Lipschitz estimate for the resolution gap; the draws
    # do not depend on chi, so all points are drawn first and scored at once
    rng = np.random.Generator(np.random.Philox(seed))
    points, quotients = [], []
    for _ in range(lipschitz_samples):
        p = rng.dirichlet(np.ones(n_z))
        q = rng.dirichlet(np.ones(n_s))
        base = len(points)
        points.append((p, q))
        if n_z > 1:
            cand, move = _random_transfer(rng, p, grid_step)
            if cand is not None:
                quotients.append((base, len(points), move))
                points.append((cand, q))
        if n_s > 1:
            cand, move = _random_transfer(rng, q, grid_step)
            if cand is not None:
                quotients.append((base, len(points), move))
                points.append((p, cand))
    lipschitz = 0.0
    if quotients:
        ps, qs = (np.array(axis) for axis in zip(*points))
        values = []
        for start in range(0, len(ps), _CHUNK_PAIRS):
            chunk = slice(start, start + _CHUNK_PAIRS)
            values += ev.chi(ps[chunk], qs[chunk]).tolist()
        for base, at, move in quotients:
            lipschitz = max(lipschitz, abs(values[at] - values[base]) / move)
    gap = float(lipschitz * grid_step)

    # chi is nonnegative; tidy away float noise and negative zeros at the floor
    value = float(value)
    if value <= 0.0:
        value = 0.0
    return MinimaxResult(value, p_star, np.asarray(q_star), grid_step, gap)
