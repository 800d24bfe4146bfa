"""Shared random-instance generators for the test suite. Seeded throughout."""

from __future__ import annotations

import math

import numpy as np

from avqclab import (
    AvCqc,
    Avqc,
    BudgetExceeded,
    CorrelatedCode,
    CorrelatedEntanglementCode,
    DensityMatrix,
    DeterministicCode,
    Povm,
    PureState,
    QuantumChannel,
    RandomCode,
    SchemaError,
    apply_channel_to_slot_batch,
    compose_channels,
    entanglement_fidelity,
    maximally_mixed,
    simplex_grid,
    tensor_channel,
)
from avqclab.capacity import MinimaxResult, _certificate
from avqclab.quantum import hermitize


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat))


def random_pure(rng: np.random.Generator, dim: int) -> PureState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_channel(
    rng: np.random.Generator, dim: int, kraus_count: int = 2, dim_out: int | None = None
) -> QuantumChannel:
    """Random CPTP map: random operators normalized through the Gram root."""
    shape = (dim if dim_out is None else dim_out, dim)
    ops = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(kraus_count)]
    total = sum(op.conj().T @ op for op in ops)
    vals, vecs = np.linalg.eigh(total)
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return QuantumChannel(tuple(op @ inv_root for op in ops))


def random_povm(rng: np.random.Generator, dim: int, outcomes: int) -> Povm:
    """Random POVM: PSD pieces conjugated by the inverse root of their sum."""
    pieces = []
    for _ in range(outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        pieces.append(g @ g.conj().T)
    total = sum(pieces)
    vals, vecs = np.linalg.eigh(total)
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return Povm(tuple(inv_root @ p @ inv_root for p in pieces))


def random_avqc(rng: np.random.Generator, dim: int, n_states: int) -> Avqc:
    labels = tuple(f"s{i}" for i in range(n_states))
    return Avqc(labels, {s: random_channel(rng, dim) for s in labels})


def random_prob_vector(rng: np.random.Generator, k: int) -> np.ndarray:
    v = rng.random(k) + 1e-3
    return v / v.sum()


def apply_channel_to_slot(ch: QuantumChannel, mat: np.ndarray, slot: int, dims) -> np.ndarray:
    """Oracle: apply ``ch`` to one tensor factor of a matrix, Kraus by Kraus.

    One einsum over the Kraus operators and the six-index view of ``mat`` on
    ``⊗_i C^dims[i]``. It rounds differently from the library's kernel,
    ``apply_channel_to_slot_batch``, which acts through the transfer matrix,
    so the two agree to rounding, not bit for bit.
    """
    dims = list(dims)
    assert mat.shape[0] == math.prod(dims) and dims[slot] == ch.dim_in
    left = math.prod(dims[:slot])
    right = math.prod(dims[slot + 1 :])
    six = mat.reshape(left, ch.dim_in, right, left, ch.dim_in, right)
    out = np.einsum("kxy,aybczd,kwz->axbcwd", ch.stacked, six, ch.stacked.conj())
    new_total = left * ch.dim_out * right
    return out.reshape(new_total, new_total)


def _images(avqc: Avqc, seq, encoder) -> list:
    out = []
    for rho in encoder:
        dims = [avqc.dim_in] * len(seq)
        mat = np.asarray(getattr(rho, "matrix", rho))
        for slot, s in enumerate(seq):
            mat = apply_channel_to_slot(avqc.channels[s], mat, slot, dims)
            dims[slot] = avqc.channels[s].dim_out
        out.append(mat)
    return out


def _kernel_images(avqc: Avqc, seq, probes) -> np.ndarray:
    """The probes' images under seq, all probes as one stack, slot by slot."""
    stack = np.stack([np.asarray(getattr(p, "matrix", p)) for p in probes])
    dims = [avqc.dim_in] * len(seq)
    for slot, s in enumerate(seq):
        stack = apply_channel_to_slot_batch(avqc.channels[s], stack, slot, dims)
        dims[slot] = avqc.channels[s].dim_out
    return stack


def _traces(images, decoder: Povm) -> np.ndarray:
    return np.array(
        [float(np.einsum("ij,ji->", op, mat).real) for op, mat in zip(decoder.elements, images)]
    )


def per_message_success(avqc: Avqc, code, seq) -> np.ndarray:
    """Oracle: per-message success at one state sequence, one slot at a time.

    Each encoder state goes through the einsum oracle
    ``apply_channel_to_slot`` slot by slot, apart from the library's kernel,
    and is traced against its decoder element. Random codes average over
    their whole support; correlated codes sum over every observation pair
    (x, y) with its source mass, without grouping equal encoders.
    """
    if isinstance(code, DeterministicCode):
        return _traces(_images(avqc, seq, code.encoder), code.decoder)
    if isinstance(code, RandomCode):
        total = np.zeros(code.message_count)
        for w, det in zip(code.weights, code.support):
            total += w * _traces(_images(avqc, seq, det.encoder), det.decoder)
        return total
    assert isinstance(code, CorrelatedCode)
    xs = code.source.x_sequences(code.n)
    ys = code.source.y_sequences(code.n)
    table = code.source.joint_power(code.n)
    total = np.zeros(code.message_count)
    for xi, x in enumerate(xs):
        images = _images(avqc, seq, code.encoders[x])
        for yi, y in enumerate(ys):
            if table[xi, yi] > 0.0:
                total += table[xi, yi] * _traces(images, code.decoders[y])
    return total


def entanglement_fidelity_oracle(
    avqc: Avqc, code: CorrelatedEntanglementCode, seq
) -> float:
    """Oracle: source-averaged entanglement fidelity at one state sequence.

    Builds the Kraus form of the block channel and of decoder ∘ block ∘
    encoder for every observation pair (x, y) with positive source mass,
    without grouping equal encoders, and sums p^n(x, y) F_e(I/d, ·).
    """
    block = tensor_channel([avqc.channels[s] for s in seq])
    mixed = maximally_mixed(code.code_dim)
    xs = code.source.x_sequences(code.n)
    ys = code.source.y_sequences(code.n)
    table = code.source.joint_power(code.n)
    fid = 0.0
    for xi, x in enumerate(xs):
        for yi, y in enumerate(ys):
            if table[xi, yi] > 0.0:
                channel = compose_channels(code.decoders[y], block, code.encoders[x])
                fid += table[xi, yi] * entanglement_fidelity(mixed, channel)
    return fid


def _hvec_reference(mat: np.ndarray) -> np.ndarray:
    iu = np.triu_indices(mat.shape[0])
    ius = np.triu_indices(mat.shape[0], k=1)
    return np.concatenate([mat[iu].real, mat[ius].imag])


def reference_pairwise_lp(avqc: Avqc, l: int, probes) -> dict:
    """Reference layout of the symmetrizability LP, built pair by pair.

    Probe images come from the library's kernel,
    ``apply_channel_to_slot_batch``, one slot at a time with all probes in
    one stack: the LP follows the last bits of its data, and the einsum
    oracle pins the images only to rounding (``tests/test_quantum.py``).
    Each probe pair (i, j) adds the rows [B, -1] and [-B, -1], where B holds
    images[i].T in the columns of probe j's distribution and -images[j].T
    in those of probe i. Returns the ``linprog`` arguments.
    """
    seqs = avqc.state_sequences(l)
    per_seq = [_kernel_images(avqc, seq, probes) for seq in seqs]
    images = np.stack(
        [
            np.stack([_hvec_reference(per_seq[s][i]) for s in range(len(seqs))])
            for i in range(len(probes))
        ]
    )
    k, n_states, dim = images.shape
    n_vars = k * n_states + 1
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    a_ub = np.zeros((2 * len(pairs) * dim, n_vars))
    row = 0
    for i, j in pairs:
        block = np.zeros((dim, n_vars))
        block[:, j * n_states : (j + 1) * n_states] = images[i].T
        block[:, i * n_states : (i + 1) * n_states] = -images[j].T
        block[:, -1] = -1.0
        a_ub[row : row + dim] = block
        a_ub[row + dim : row + 2 * dim] = -block
        a_ub[row + dim : row + 2 * dim, -1] = -1.0
        row += 2 * dim
    a_eq = np.zeros((k, n_vars))
    for i in range(k):
        a_eq[i, i * n_states : (i + 1) * n_states] = 1.0
    cost = np.zeros(n_vars)
    cost[-1] = 1.0
    return {
        "c": cost,
        "A_ub": a_ub,
        "b_ub": np.zeros(a_ub.shape[0]),
        "A_eq": a_eq,
        "b_eq": np.ones(k),
    }


def reference_convex_lp(target, points) -> dict:
    """Reference layout of the ``convex_representation`` LP, built by hand."""
    coords = np.stack([_hvec_reference(np.asarray(p, dtype=complex)) for p in points])
    goal = _hvec_reference(np.asarray(getattr(target, "matrix", target), dtype=complex))
    n, dim = coords.shape
    a_ub = np.zeros((2 * dim, n + 1))
    a_ub[:dim, :n] = coords.T
    a_ub[:dim, -1] = -1.0
    a_ub[dim:, :n] = -coords.T
    a_ub[dim:, -1] = -1.0
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    return {
        "c": cost,
        "A_ub": a_ub,
        "b_ub": np.concatenate([goal, -goal]),
        "A_eq": a_eq,
        "b_eq": np.array([1.0]),
    }


def _oracle_complex(entry, path: str) -> complex:
    if isinstance(entry, (int, float)):
        return complex(float(entry), 0.0)
    if (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(isinstance(v, (int, float)) for v in entry)
    ):
        return complex(float(entry[0]), float(entry[1]))
    raise SchemaError("expected a number or an [re, im] pair", path=path)


def matrix_from_json_oracle(rows, path: str) -> np.ndarray:
    """Oracle: decode a JSON matrix one entry at a time.

    Rows must be non-empty lists of one width; each entry is a number or an
    ``[re, im]`` pair, converted with ``float()``. Errors name the row or
    entry at fault.
    """
    if not isinstance(rows, list) or not rows:
        raise SchemaError("expected a non-empty array of rows", path=path)
    width = None
    data = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise SchemaError("expected a non-empty row array", path=f"{path}[{i}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(
                f"row has {len(row)} entries, expected {width}", path=f"{path}[{i}]"
            )
        data.append([_oracle_complex(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(data, dtype=complex)


def _entropy_bits(mat: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(hermitize(mat))
    kept = vals[vals > 1e-12]
    return float(-(kept * np.log2(kept)).sum()) if kept.size else 0.0


class _ScalarChi:
    """chi(p, W_q) one point at a time."""

    def __init__(self, avcqc: AvCqc):
        self.branch = np.stack(
            [
                np.stack([avcqc.branches[s].outputs[z].matrix for z in avcqc.alphabet])
                for s in avcqc.states
            ]
        )  # (n_states, n_letters, d, d)
        self.n_states = self.branch.shape[0]
        self.n_letters = self.branch.shape[1]

    def mixture_parts(self, q: np.ndarray):
        out = np.einsum("s,szij->zij", q, self.branch)
        ents = np.array([_entropy_bits(out[z]) for z in range(self.n_letters)])
        return out, ents

    def chi_from_parts(self, p: np.ndarray, out: np.ndarray, ents: np.ndarray) -> float:
        avg = np.einsum("z,zij->ij", p, out)
        return _entropy_bits(avg) - float(p @ ents)

    def chi(self, p: np.ndarray, q: np.ndarray) -> float:
        return self.chi_from_parts(p, *self.mixture_parts(q))


def _scalar_minimize_q(ev: _ScalarChi, p, q, step0: float, iterations: int):
    q = np.array(q)
    value = ev.chi(p, q)
    step = step0
    for _ in range(iterations):
        moved = False
        for i in range(q.size):
            for j in range(q.size):
                if i == j or q[j] < step - 1e-15:
                    continue
                cand = np.array(q)
                cand[j] -= step
                cand[i] += step
                cand_val = ev.chi(p, cand)
                if cand_val < value - 1e-15:
                    q, value = cand, cand_val
                    moved = True
        if not moved:
            step /= 2.0
    return value, q


def _scalar_inner_min(ev: _ScalarChi, p, q_parts, q_list, step0: float, iterations: int):
    best_val, best_idx = np.inf, 0
    for idx, (out, ents) in enumerate(q_parts):
        val = ev.chi_from_parts(p, out, ents)
        if val < best_val - 1e-15:
            best_val, best_idx = val, idx
    return _scalar_minimize_q(ev, p, q_list[best_idx], step0, iterations)


def scalar_capacity_search(
    avcqc: AvCqc,
    grid_step: float = 1.0 / 64.0,
    refine_iterations: int = 20,
    budget: int = 2**20,
) -> MinimaxResult:
    """Oracle: ``cq_random_capacity`` scoring one (p, q) point per call.

    The same grids, coordinate moves and 1e-15 tie rules, with every chi
    evaluated alone (one ``eigvalsh`` per matrix and ``p @ ents`` for the
    conditional entropy) and every inner minimization run afresh, one at a
    time. The certificate at the final point is the library's
    ``_certificate``, so every field must agree bit for bit.
    """
    steps = max(1, round(1.0 / grid_step))
    grid_step = 1.0 / steps
    ev = _ScalarChi(avcqc)
    n_z, n_s = ev.n_letters, ev.n_states
    p_list = list(simplex_grid(n_z, steps))
    q_list = list(simplex_grid(n_s, steps))
    if len(p_list) * len(q_list) > budget:
        raise BudgetExceeded("scalar_capacity_search: grid pairs exceed the budget")
    q_parts = [ev.mixture_parts(q) for q in q_list]

    best_p, best_val = None, -np.inf
    for p in p_list:
        inner_best = np.inf
        for out, ents in q_parts:
            val = ev.chi_from_parts(p, out, ents)
            if val < inner_best - 1e-15:
                inner_best = val
        if inner_best > best_val + 1e-15:
            best_val, best_p = inner_best, p
    p_star = np.array(best_p)

    value, q_star = _scalar_inner_min(ev, p_star, q_parts, q_list, grid_step, refine_iterations)
    step = grid_step
    for _ in range(refine_iterations):
        moved = False
        for i in range(n_z):
            for j in range(n_z):
                if i == j or p_star[j] < step - 1e-15:
                    continue
                cand = np.array(p_star)
                cand[j] -= step
                cand[i] += step
                cand_val, cand_q = _scalar_inner_min(
                    ev, cand, q_parts, q_list, grid_step, refine_iterations
                )
                if cand_val > value + 1e-15:
                    p_star, value, q_star = cand, cand_val, cand_q
                    moved = True
        if not moved:
            step /= 2.0

    value = float(value)
    if value <= 0.0:
        value = 0.0
    q_star = np.asarray(q_star)
    lower, upper = _certificate(ev.branch, p_star, q_star, value)
    return MinimaxResult(value, p_star, q_star, grid_step, upper - lower, lower, upper)
