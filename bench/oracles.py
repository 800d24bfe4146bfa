"""Independent checks of avqclab result documents.

Nothing here imports avqclab. Every quantity is recomputed from the numpy
arrays the workload generator drew: product channels as explicit ``np.kron``
Kraus families, Holevo values from eigenvalues, LPs built in equality form,
partitions searched by brute force. Each ``check_*`` function returns a list
of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog

TOL = 1e-9


# ---------------------------------------------------------------- channels


def product_kraus(kraus_lists):
    """Kraus family of the tensor product, factors in the given order."""
    ops = [np.eye(1, dtype=complex)]
    for factor in kraus_lists:
        ops = [np.kron(a, b) for a in ops for b in factor]
    return np.stack(ops)


def apply_kraus(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.einsum("kij,jl,kml->im", ops, rho, ops.conj(), optimize=True)


def det_success(ops, encoder, decoder) -> np.ndarray:
    """Per-message success of one deterministic code under product Kraus ops."""
    return np.array(
        [
            float(np.real(np.trace(decoder[i] @ apply_kraus(ops, rho))))
            for i, rho in enumerate(encoder)
        ]
    )


def code_success(family, seq, code) -> np.ndarray:
    """Per-message success of a generated code dict at one label sequence."""
    ops = product_kraus([family[s] for s in seq])
    if code["type"] == "deterministic":
        return det_success(ops, code["encoder"], code["decoder"])
    if code["type"] == "random":
        return sum(
            w * det_success(ops, det["encoder"], det["decoder"])
            for w, det in zip(code["weights"], code["support"])
        )
    if code["type"] == "correlated":
        return correlated_success(ops, code)
    raise ValueError(f"unknown code type {code['type']!r}")


def correlated_success(ops, code) -> np.ndarray:
    """Source-averaged success: sum over (x, y) of p^n(x, y) tr(D_y N(rho_x))."""
    joint = code["joint"]
    n = code["n"]
    xs = list(itertools.product(range(joint.shape[0]), repeat=n))
    ys = list(itertools.product(range(joint.shape[1]), repeat=n))
    m = len(code["encoders"][xs[0]])
    succ = np.zeros(m)
    for x in xs:
        outs = [apply_kraus(ops, rho) for rho in code["encoders"][x]]
        for y in ys:
            mass = math.prod(joint[a, b] for a, b in zip(x, y))
            if mass == 0.0:
                continue
            dec = code["decoders"][y]
            succ += mass * np.array(
                [float(np.real(np.trace(dec[i] @ outs[i]))) for i in range(m)]
            )
    return succ


def check_error_report(doc, family, code, sample_seqs, cap=None) -> list:
    """Recompute a ``simulate`` result at its worst sequence and at samples."""
    fails = []
    seq = tuple(doc["worst_state_seq"])
    at_worst = code_success(family, seq, code)
    if abs(float(at_worst.mean()) - doc["avg_success_worst"]) > TOL:
        fails.append(
            f"avg_success_worst {doc['avg_success_worst']!r} but the oracle gives "
            f"{float(at_worst.mean())!r} at {list(seq)}"
        )
    if doc["max_error_worst"] < 1.0 - float(at_worst.min()) - TOL:
        fails.append("max_error_worst is below the error at the worst sequence")
    for other in sample_seqs:
        vec = code_success(family, tuple(other), code)
        if doc["method"] == "exhaustive" and float(vec.mean()) < doc["avg_success_worst"] - TOL:
            fails.append(f"sequence {list(other)} beats the reported worst case")
        if doc["method"] == "exhaustive" and 1.0 - float(vec.min()) > doc["max_error_worst"] + TOL:
            fails.append(f"sequence {list(other)} has a larger error than max_error_worst")
        if doc["method"] == "greedy" and len(set(other)) == 1:
            # greedy restarts from every constant sequence and only descends
            if float(vec.mean()) < doc["avg_success_worst"] - TOL:
                fails.append(f"greedy result is above its start {list(other)}")
    if cap is not None and doc["avg_success_worst"] > cap + TOL:
        fails.append(f"worst success {doc['avg_success_worst']!r} exceeds the cap {cap}")
    return fails


def check_reduction(doc, family, code, l, eps) -> list:
    """Recompute the sampled mixture's worst per-message success exactly."""
    fails = []
    if doc["sample_count"] != len(doc["codes"]):
        fails.append("sample_count does not match the number of returned codes")
    # identify each returned code with a support code of the input
    picks = []
    for i, det_doc in enumerate(doc["codes"]):
        enc = decode_matrices(det_doc["encoder"])
        match = [
            j
            for j, det in enumerate(code["support"])
            if all(np.max(np.abs(a - b)) <= TOL for a, b in zip(enc, det["encoder"]))
            and all(
                np.max(np.abs(a - b)) <= TOL
                for a, b in zip(decode_matrices(det_doc["decoder"]["elements"]), det["decoder"])
            )
        ]
        if not match:
            fails.append(f"returned code {i} is not a support code of the input")
            return fails
        picks.append(match[0])
    counts = np.bincount(picks, minlength=len(code["support"])) / len(picks)
    worst = np.inf
    for seq in itertools.product(sorted(family), repeat=l):
        ops = product_kraus([family[s] for s in seq])
        vec = sum(
            counts[j] * det_success(ops, det["encoder"], det["decoder"])
            for j, det in enumerate(code["support"])
            if counts[j] > 0
        )
        worst = min(worst, float(vec.min()))
    verified = worst >= 1.0 - eps - 1e-12
    if doc["verified"] != verified:
        fails.append(
            f"verified={doc['verified']} but the sampled mixture's worst per-message "
            f"success is {worst!r} against 1 - eps = {1.0 - eps!r}"
        )
    return fails


def decode_matrices(entries) -> list:
    return [_matrix(m) for m in entries]


def _matrix(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


# ---------------------------------------------------------------- symcheck


def _coords(mat: np.ndarray) -> np.ndarray:
    iu = np.triu_indices(mat.shape[0])
    ius = np.triu_indices(mat.shape[0], k=1)
    return np.concatenate([mat[iu].real, mat[ius].imag])


def probe_images(family, l, probes):
    """images[i][s] = N_s(A_i) for every label sequence s, via kron Kraus."""
    seqs = list(itertools.product(list(family), repeat=l))
    ops = {seq: product_kraus([family[s] for s in seq]) for seq in seqs}
    return seqs, [[apply_kraus(ops[seq], a) for seq in seqs] for a in probes]


def witness_residual(images, dist) -> float:
    k = len(images)
    worst = 0.0
    for i, j in itertools.combinations(range(k), 2):
        lhs = sum(w * img for w, img in zip(dist[j], images[i]))
        rhs = sum(w * img for w, img in zip(dist[i], images[j]))
        diff = lhs - rhs
        worst = max(worst, float(np.max(np.abs(diff.real))), float(np.max(np.abs(diff.imag))))
    return worst


def equality_lp_feasible(images) -> bool:
    """Exact pairwise equalities over the product of simplices, as one LP."""
    k, n = len(images), len(images[0])
    coords = [np.stack([_coords(img) for img in row]) for row in images]  # (n, dim)
    dim = coords[0].shape[1]
    pairs = list(itertools.combinations(range(k), 2))
    a_eq = np.zeros((len(pairs) * dim + k, k * n))
    row = 0
    for i, j in pairs:
        a_eq[row : row + dim, j * n : (j + 1) * n] = coords[i].T
        a_eq[row : row + dim, i * n : (i + 1) * n] -= coords[j].T
        row += dim
    for i in range(k):
        a_eq[row + i, i * n : (i + 1) * n] = 1.0
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[row:] = 1.0
    res = linprog(np.zeros(k * n), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"oracle LP did not finish: {res.message}")
    return res.status == 0


def check_symcheck(doc, family, l, probes, tol, expect_feasible, by_construction=False) -> list:
    fails = []
    seqs, images = probe_images(family, l, probes)
    if doc["feasible"] != expect_feasible:
        fails.append(f"feasible={doc['feasible']}, the generator built a "
                     f"{'feasible' if expect_feasible else 'infeasible'} case")
    if doc["feasible"]:
        wit = doc["witness"]
        labels = [tuple(lab) for lab in wit["labels"]]
        if labels != [tuple(s) for s in seqs]:
            fails.append("witness labels are not the label sequences in order")
            return fails
        dist = np.asarray(wit["distributions"], dtype=float)
        if np.any(dist < -TOL) or np.max(np.abs(dist.sum(axis=1) - 1.0)) > 1e-9:
            fails.append("witness rows are not probability vectors")
        mine = witness_residual(images, dist)
        if mine > tol or abs(mine - doc["residual"]) > 1e-9:
            fails.append(
                f"witness residual {doc['residual']!r}, recomputed {mine!r} (tol {tol})"
            )
    else:
        if doc["witness"] is not None:
            fails.append("an infeasible verdict carries a witness")
        if doc["residual"] <= tol:
            fails.append(f"infeasible verdict with residual {doc['residual']!r} <= tol")
        if by_construction:
            # one label sequence: every probe row is the same point mass, so
            # feasibility needs the channel images of all probes to coincide
            if len(seqs) != 1 or witness_residual(images, np.ones((len(probes), 1))) <= tol:
                fails.append("the by-construction infeasible case is not infeasible")
        elif equality_lp_feasible(images):
            fails.append("the equality-form LP finds a symmetrizing family")
    return fails


# ---------------------------------------------------------------- capacity


def entropy_bits(mats: np.ndarray) -> np.ndarray:
    """Von Neumann entropy of a stack of Hermitian matrices, in bits."""
    vals = np.linalg.eigvalsh(0.5 * (mats + np.conj(np.swapaxes(mats, -1, -2))))
    vals = np.clip(vals, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(vals > 1e-12, -vals * np.log2(vals), 0.0)
    return terms.sum(axis=-1)


def chi(branches: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """chi(p, W_q) for stacks p (P, Z) and q (Q, S); branches (S, Z, d, d)."""
    mixed = np.einsum("qs,szij->qzij", q, branches)  # (Q, Z, d, d)
    cond = entropy_bits(mixed)  # (Q, Z)
    avg = np.einsum("pz,qzij->pqij", p, mixed)
    return entropy_bits(avg) - p @ cond.T  # (P, Q)


def simplex_points(k: int, steps: int) -> np.ndarray:
    pts = []
    for cuts in itertools.combinations(range(steps + k - 1), k - 1):
        parts, prev = [], -1
        for cut in cuts + (steps + k - 1,):
            parts.append(cut - prev - 1)
            prev = cut
        pts.append(parts)
    return np.asarray(pts, dtype=float) / steps


def check_capacity(doc, branches, anchor=None, tol=1e-6) -> list:
    """Bracket the reported value by bounds the benchmark computes itself."""
    fails = []
    n_s, n_z = branches.shape[0], branches.shape[1]
    value = doc["value"]
    p_hat = np.asarray(doc["argmax_p"], dtype=float)
    q_hat = np.asarray(doc["argmin_q"], dtype=float)
    at_hat = float(chi(branches, p_hat[None], q_hat[None])[0, 0])
    if abs(max(at_hat, 0.0) - value) > TOL:
        fails.append(f"value {value!r} but chi(argmax_p, argmin_q) = {at_hat!r}")
    q_grid = np.vstack([simplex_points(n_s, 96), q_hat])
    p_grid = np.vstack([simplex_points(n_z, 96), p_hat])
    lower = float(chi(branches, p_hat[None], q_grid).min())
    upper = float(chi(branches, p_grid, q_hat[None]).max())
    if not lower - tol <= value <= upper + tol:
        fails.append(f"value {value!r} outside [{lower!r}, {upper!r}]")
    member_caps = chi(branches, p_grid, np.eye(n_s)).max(axis=0)
    if value > float(member_caps.min()) + tol:
        fails.append(f"value {value!r} exceeds a member capacity {float(member_caps.min())!r}")
    if anchor is not None:
        target, slack = anchor
        if target == 0.0 and value > 1e-6 + doc["certified_gap"]:
            fails.append(f"zero anchor: value {value!r}")
        if target > 0.0 and abs(value - target) > slack:
            fails.append(f"anchor {target}: value {value!r}")
    return fails


# ---------------------------------------------------------------- sources


def _mutual_information(table: np.ndarray) -> float:
    def h(p):
        p = p[p > 0]
        return float(-(p * np.log2(p)).sum())

    return h(table.sum(axis=1)) + h(table.sum(axis=0)) - h(table.ravel())


def extractable_brute_force(joint: np.ndarray) -> bool:
    sup_x = [i for i in range(joint.shape[0]) if joint[i].sum() > 0]
    sup_y = [j for j in range(joint.shape[1]) if joint[:, j].sum() > 0]
    for r in range(1, len(sup_x)):
        for part in itertools.combinations(sup_x, r):
            nbrs = {j for i in part for j in sup_y if joint[i, j] > 0}
            rest = [i for i in sup_x if i not in part]
            if not any(joint[i, j] > 0 for i in rest for j in nbrs):
                return True
    return False


def check_cr(doc, joint: np.ndarray) -> list:
    fails = []
    if doc["extractable"] != extractable_brute_force(joint):
        fails.append(f"extractable={doc['extractable']} disagrees with the partition search")
    if doc["extractable"] and not (doc["x_partition"] and doc["y_partition"]):
        fails.append("an extractable verdict without partitions")
    elif doc["extractable"]:
        n_x = joint.shape[0]
        for xb, yb in zip(doc["x_partition"], doc["y_partition"]):
            other_y = [j for j in range(joint.shape[1]) if j not in yb]
            if any(joint[i, j] > 0 for i in xb for j in other_y):
                fails.append("a reported x block has support outside its y block")
        if sorted(i for b in doc["x_partition"] for i in b) != list(range(n_x)):
            fails.append("x_partition is not a partition of the alphabet")
    red = doc["binary_reduction"]
    if red is not None:
        best = 0.0
        for f in itertools.product((0, 1), repeat=joint.shape[0]):
            for g in itertools.product((0, 1), repeat=joint.shape[1]):
                best = max(best, _mutual_information(_binary_table(joint, f, g)))
        got = _mutual_information(_binary_table(joint, red["f_table"], red["g_table"]))
        if abs(got - red["bits"]) > TOL or got < best - 1e-12:
            fails.append(f"binary reduction reports {red['bits']!r}, tables give {got!r}, "
                         f"best pair {best!r}")
    return fails


def _binary_table(joint, f, g) -> np.ndarray:
    table = np.zeros((2, 2))
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            table[fi, gj] += joint[i, j]
    return table


def check_composition(composed, phase1, payload) -> list:
    """Worst success of the composition is at least the phases' sum minus 1."""
    bound = phase1["avg_success_worst"] + payload["avg_success_worst"] - 1.0
    if composed["avg_success_worst"] < bound - TOL:
        return [f"composed worst success {composed['avg_success_worst']!r} below the "
                f"composition bound {bound!r}"]
    return []
