"""Shared random-instance generators for the test suite. Seeded throughout."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys

import numpy as np

import avqclab
from avqclab import (
    AvCqc,
    Avqc,
    CorrelatedCode,
    CqChannel,
    CorrelatedEntanglementCode,
    CrExtractability,
    DensityMatrix,
    DeterministicCode,
    Povm,
    PureState,
    QuantumChannel,
    RandomCode,
    BinaryReduction,
    BudgetExceeded,
    DimensionMismatch,
    SchemaError,
    ValidationError,
    apply_channel_to_slot_batch,
    entanglement_fidelity,
    holevo_chi,
    maximally_mixed,
    mutual_information,
)
from avqclab.config import TOL_MI, TOL_PROB
from avqclab.quantum import hermitize

# Cap on total Kraus-operator entries of an explicitly built product or composition.
KRAUS_ENTRY_BUDGET = 2**22


def run_python(*args, cwd=None, address_space=None, timeout=120):
    """``python *args`` in a fresh interpreter that imports this avqclab.

    ``address_space`` caps the interpreter's virtual memory in bytes, so that
    a runaway allocation fails in it rather than filling the machine, and
    ``timeout`` (seconds) ends a run that hangs.
    """
    src = os.path.dirname(os.path.dirname(avqclab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd,
        timeout=timeout, preexec_fn=limit if address_space else None,
    )


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


def tensor_channel(channels) -> QuantumChannel:
    """Oracle: Kraus form of the tensor product, factors in the given order.

    Kraus operators are all kron products, ordered lexicographically in the
    component indices. The library applies products slot by slot, through
    ``quantum._ImageTree``, and never builds this family.
    """
    channels = list(channels)
    if not channels:
        raise ValidationError("tensor_channel: empty channel list")
    count = math.prod(len(ch.kraus) for ch in channels)
    dim_in = math.prod(ch.dim_in for ch in channels)
    dim_out = math.prod(ch.dim_out for ch in channels)
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
    """Oracle: composition ``channels[0] ∘ channels[1] ∘ ...`` in Kraus form."""
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
    if count * chain[-1].dim_in * chain[0].dim_out > KRAUS_ENTRY_BUDGET:
        raise BudgetExceeded("compose_channels: Kraus entry budget exceeded")
    kraus = []
    for combo in itertools.product(*(ch.kraus for ch in chain)):
        op = combo[0]
        for factor in combo[1:]:
            op = op @ factor
        kraus.append(op)
    return QuantumChannel(tuple(kraus))


def entanglement_fidelity_purification(
    rho: DensityMatrix, ch: QuantumChannel, scheme: str = "eigen"
) -> float:
    """Oracle: F_e via an explicit purification <psi|(id ⊗ N)(|psi><psi|)|psi>.

    ``scheme`` picks the purification: ``"eigen"`` uses the spectral form
    sum_i sqrt(lambda_i) |i>|e_i>, ``"embed"`` uses (I ⊗ sqrt(rho)) applied
    to the unnormalized maximally entangled vector. Both give the same
    value, by a route independent of ``measures.entanglement_fidelity``.
    """
    if ch.dim_in != ch.dim_out or ch.dim_in != rho.dim:
        raise DimensionMismatch("entanglement_fidelity_purification: dims must agree")
    d = rho.dim
    vals, vecs = np.linalg.eigh(hermitize(np.asarray(rho.matrix)))
    if scheme == "eigen":
        psi = np.zeros(d * d, dtype=complex)
        for i in range(d):
            lam = max(float(vals[i]), 0.0)
            if lam == 0.0:
                continue
            basis = np.zeros(d, dtype=complex)
            basis[i] = 1.0
            psi += np.sqrt(lam) * np.kron(basis, vecs[:, i])
    elif scheme == "embed":
        root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
        omega = np.eye(d, dtype=complex).reshape(-1)  # sum_i |i>|i>
        psi = np.kron(np.eye(d), root) @ omega
    else:
        raise ValidationError(f"unknown purification scheme {scheme!r}")
    psi /= np.linalg.norm(psi)
    pure = np.outer(psi, psi.conj())
    # apply id ⊗ N on the second slot
    six = pure.reshape(d, d, d, d)  # (ref, sys, ref', sys')
    out = np.einsum("kxy,aybz,kwz->axbw", ch.stacked, six, ch.stacked.conj())
    out = out.reshape(d * d, d * d)
    return float(np.real(psi.conj() @ out @ psi))


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


def greedy_oracle(avqc: Avqc, code, l: int) -> dict:
    """Oracle: the adversary's greedy search, one sequence at a time.

    Coordinate descent on the average success from each constant sequence:
    each position in turn tries every other state, in order, and moves at
    once on an improvement by more than 1e-15, until a sweep over the
    positions makes no move. Each sequence is scored once, by
    ``per_message_success``, and the restarts share those scores. Returns the
    per-message success of each scored sequence, in the order first scored.
    """
    scores: dict = {}

    def mean(seq) -> float:
        if seq not in scores:
            scores[seq] = per_message_success(avqc, code, seq)
        return float(scores[seq].mean())

    for first in avqc.states:
        seq = (first,) * l
        current = mean(seq)
        improved = True
        while improved:
            improved = False
            for pos in range(l):
                for s in avqc.states:
                    if s == seq[pos]:
                        continue
                    cand = seq[:pos] + (s,) + seq[pos + 1 :]
                    val = mean(cand)
                    if val < current - 1e-15:
                        seq, current = cand, val
                        improved = True
    return scores


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
    """Convex weights writing ``target`` over ``points`` as ``linprog`` arguments.

    Minimizes the max-norm mismatch t of sum_i w_i points[i] - target over
    the simplex of weights w, coordinates taken on the Hermitian upper
    triangle; the optimum is 0 exactly when ``target`` lies in the hull.
    """
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


def _oracle_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _oracle_complex(entry, path: str) -> complex:
    """A number or an ``[re, im]`` pair of numbers; booleans are not numbers."""
    if _oracle_number(entry):
        parts = (entry, 0.0)
    elif (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(map(_oracle_number, entry))
    ):
        parts = entry
    else:
        raise SchemaError("expected a number or an [re, im] pair", path=path)
    try:
        value = complex(float(parts[0]), float(parts[1]))
    except OverflowError:  # an int beyond the float range
        raise SchemaError("expected a finite number", path=path) from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise SchemaError("expected a finite number", path=path)
    return value


def matrix_from_json_oracle(rows, path: str) -> np.ndarray:
    """Oracle: decode a JSON matrix one entry at a time.

    Rows must be non-empty lists of one width; each entry is a number or an
    ``[re, im]`` pair, converted with ``float()``, and must be finite. Errors
    name the row or entry at fault.
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


def linprog_master(cuts: np.ndarray):
    """Oracle: Kelley's master, min_{q, t} t subject to t >= g_j . q on the simplex, by HiGHS.

    Returns the minimizing q and the LP's dual weights on the cuts, clipped
    and normalized to probability vectors, as ``capacity._master`` does. The
    weights are solved to 1e-10; HiGHS's default 1e-7 leaves the bound they
    give up to about 1e-7 below the optimum.
    """
    from scipy.optimize import linprog

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


def branch_stack(avcqc: AvCqc) -> np.ndarray:
    """The family's outputs as an array (n_states, n_letters, d, d)."""
    return np.stack(
        [
            np.stack([avcqc.branches[s].outputs[z].matrix for z in avcqc.alphabet])
            for s in avcqc.states
        ]
    )


def classical_kernels(avcqc: AvCqc) -> dict:
    """Each state's stochastic kernel (letters x outcomes), read back from the output diagonals."""
    diagonals = np.diagonal(branch_stack(avcqc), axis1=-2, axis2=-1)
    return {s: diagonals[i].real for i, s in enumerate(avcqc.states)}


def _entropy_bits(mats: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvalsh(hermitize(mats))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(vals > 1e-12, -vals * np.log2(vals), 0.0).sum(axis=-1)


def chi_table(branch: np.ndarray, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Oracle: chi(p, W_q) for every row of ``ps`` (P, Z) against every row of ``qs`` (Q, S).

    Eigenvalues at or below 1e-12 count as 0, as in the library's entropies.
    """
    mixed = np.einsum("qs,szij->qzij", qs, branch)
    avg = np.einsum("pz,qzij->pqij", ps, mixed)
    return _entropy_bits(avg) - ps @ _entropy_bits(mixed).T


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


def mixture(avcqc: AvCqc, weights) -> CqChannel:
    """Oracle: the averaged branch sum_s q(s) W_s as a cq channel."""
    q = np.asarray(weights, dtype=float)
    if q.size != len(avcqc.states):
        raise DimensionMismatch("mixture: weight count must match state count")
    if np.any(q < 0) or abs(float(q.sum()) - 1.0) > TOL_PROB:
        raise ValidationError("mixture: weights must be a probability vector")
    outputs = {}
    for z in avcqc.alphabet:
        acc = np.zeros((avcqc.dim, avcqc.dim), dtype=complex)
        for weight, s in zip(q, avcqc.states):
            acc += weight * avcqc.branches[s].outputs[z].matrix
        outputs[z] = DensityMatrix(acc)
    return CqChannel(avcqc.alphabet, outputs)


def chi_of_mixture(avcqc: AvCqc, probs, weights) -> float:
    """Holevo value of input distribution ``probs`` against the q-mixture."""
    return holevo_chi(probs, mixture(avcqc, weights))


def cr_extractability_oracle(src) -> CrExtractability:
    """Oracle: the support's components by merging letter sets until no edge joins two.

    Letters with mass start as singletons in scan order (sender letters, then
    receiver letters). Any two sets joined by a positive entry merge into
    the earlier one, so the sets end in the order of their first letters.
    Each partition lists a side's letters in alphabet order by block, and
    letters without mass in the first block.
    """
    joint = np.asarray(src.joint)
    n_x, n_y = joint.shape
    sets = [{("x", i)} for i in range(n_x) if joint[i].sum() > 0]
    sets += [{("y", j)} for j in range(n_y) if joint[:, j].sum() > 0]

    def joined(a, b) -> bool:
        return any(
            joint[(i, j) if side == "x" else (j, i)] > 0
            for side, i in a
            for other, j in b
            if side != other
        )

    merged = True
    while merged:
        merged = False
        for a, b in itertools.combinations(range(len(sets)), 2):
            if joined(sets[a], sets[b]):
                sets[a] |= sets.pop(b)
                merged = True
                break
    if len(sets) < 2:
        return CrExtractability(False, len(sets), None, None)

    def partition(side: str, alphabet) -> tuple:
        block = [
            next((k for k, s in enumerate(sets) if (side, i) in s), 0) for i in range(len(alphabet))
        ]
        return tuple(
            tuple(letter for letter, b in zip(alphabet, block) if b == k) for k in range(len(sets))
        )

    return CrExtractability(
        True, len(sets), partition("x", src.x_alphabet), partition("y", src.y_alphabet)
    )


def binary_reduction_oracle(src) -> BinaryReduction:
    """Oracle: ``binary_reduction`` as one 2x2 table and one mutual information per pair.

    Pairs are scanned in increasing (sender mask, receiver mask) order, letter
    i contributing bit i, and a pair replaces the best only if it beats it by
    more than 1e-12. Raises ``ValidationError`` on a product source.
    """
    joint = np.asarray(src.joint)
    n_x, n_y = joint.shape
    if mutual_information(joint) <= TOL_MI:
        raise ValidationError("binary_reduction_oracle: product source")
    best_val = -1.0
    best = None
    for mask_f in range(2**n_x):
        f_bits = np.array([(mask_f >> i) & 1 for i in range(n_x)], dtype=bool)
        row0 = joint[~f_bits].sum(axis=0)
        row1 = joint[f_bits].sum(axis=0)
        for mask_g in range(2**n_y):
            g_bits = np.array([(mask_g >> i) & 1 for i in range(n_y)], dtype=bool)
            table = np.array(
                [
                    [row0[~g_bits].sum(), row0[g_bits].sum()],
                    [row1[~g_bits].sum(), row1[g_bits].sum()],
                ]
            )
            val = mutual_information(table)
            if val > best_val + 1e-12:
                best_val = val
                best = (mask_f, mask_g)
    mask_f, mask_g = best
    f_table = tuple((mask_f >> i) & 1 for i in range(n_x))
    g_table = tuple((mask_g >> i) & 1 for i in range(n_y))
    return BinaryReduction(f_table, g_table, best_val)
