"""Seeded input documents, the fixed batch of analyses, and their oracles.

A workload is a list of steps run in a fixed order (one *round*). A step is
an analysis, run in-process as ``avqclab.cli.run(argv)`` with ``--out``, or
glue that turns one result into the next input. Every input is drawn from
``numpy.random.Philox`` keyed by the run's seed, so one seed gives the same
documents; the shapes (block lengths, member counts, grids) never depend on
the seed, so neither does the amount of work.

Generation keeps the raw arrays next to each document, so the oracles in
``oracles.py`` check results without decoding anything through avqclab.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

from avqclab import (
    Avqc,
    AvCqc,
    BipartiteSource,
    CorrelatedCode,
    CqChannel,
    DensityMatrix,
    DeterministicCode,
    Povm,
    QuantumChannel,
    RandomCode,
    to_document,
    write_document,
)

WALL_TIME = re.compile(r'"wall_time_ms": [0-9]+')


@dataclass
class Step:
    """One analysis of the round: ``avqclab <argv>`` writing ``out``."""

    name: str
    argv: list
    out: str
    check: Callable | None = None  # result document -> list of failures


@dataclass
class Glue:
    """Work between two analyses; it counts in the round's time, not in any analysis."""

    name: str
    fn: Callable


@dataclass
class Workload:
    name: str
    steps: list = field(default_factory=list)
    warmup: list = field(default_factory=list)  # argv lists on tiny inputs
    checks: list = field(default_factory=list)  # {step name: result} -> failures


# ---------------------------------------------------------------- generators


def _rng(seed: int, case: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, case]))


# Cases whose cost follows the data (LP pivots, local search moves) draw a
# fixed base instance and mix in a seeded one with this weight: the seed
# changes every number, the base keeps the solver's path, so the cost of a
# case does not swing between seeds.
PERTURBATION = 0.05


def _base_rng(case: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[2**32 - 1, case]))


def _perturbed_kraus(rng, case: int, dim: int) -> np.ndarray:
    """Kraus pair normalized from (1 - e) base operators + e seeded ones."""
    base, seeded = _gaussian_ops(_base_rng(case), dim, 2), _gaussian_ops(rng, dim, 2)
    return _normalized_kraus([(1.0 - PERTURBATION) * a + PERTURBATION * b
                              for a, b in zip(base, seeded)])


def _perturbed_state(rng, case: int, dim: int) -> np.ndarray:
    return ((1.0 - PERTURBATION) * _random_state(_base_rng(case), dim)
            + PERTURBATION * _random_state(rng, dim))


def _random_state(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def _gaussian_ops(rng, dim: int, count: int) -> list:
    return [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(count)]


def _normalized_kraus(ops) -> np.ndarray:
    """Right-multiply by (sum K^dag K)^(-1/2) so the operators are trace preserving."""
    vals, vecs = np.linalg.eigh(sum(op.conj().T @ op for op in ops))
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return np.stack([op @ inv_root for op in ops])


def _random_kraus(rng, dim: int, count: int = 2) -> np.ndarray:
    return _normalized_kraus(_gaussian_ops(rng, dim, count))


def _constant_kraus(sigma: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(sigma)
    dim = sigma.shape[0]
    ops = []
    for r in range(dim):
        if vals[r] <= 0.0:
            continue
        for j in range(dim):
            op = np.zeros((dim, dim), dtype=complex)
            op[:, j] = math.sqrt(vals[r]) * vecs[:, r]
            ops.append(op)
    return np.stack(ops)


def _flip_kraus(p: float, pauli: np.ndarray) -> np.ndarray:
    return np.stack([math.sqrt(1.0 - p) * np.eye(2, dtype=complex), math.sqrt(p) * pauli])


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _random_povm(rng, dim: int, outcomes: int) -> list:
    pieces = []
    for _ in range(outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        pieces.append(g @ g.conj().T)
    vals, vecs = np.linalg.eigh(sum(pieces))
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return [inv_root @ p @ inv_root for p in pieces]


def _hermitize(mat):
    return 0.5 * (mat + mat.conj().T)


def _perturbed_det(rng, case: int, dim: int, messages: int, l: int) -> dict:
    """A code whose states and POVM are (1 - e) base + e seeded, like the channels."""
    base, seeded = _base_rng(case), rng
    mix = [1.0 - PERTURBATION, PERTURBATION]
    encoder = [mix[0] * _random_state(base, dim) + mix[1] * _random_state(seeded, dim)
               for _ in range(messages)]
    decoder = [mix[0] * a + mix[1] * b
               for a, b in zip(_random_povm(base, dim, messages), _random_povm(seeded, dim, messages))]
    return {"type": "deterministic", "l": l, "encoder": encoder,
            "decoder": [_hermitize(e) for e in decoder]}


def _family_obj(family: dict) -> Avqc:
    return Avqc(tuple(family), {s: QuantumChannel(tuple(ops)) for s, ops in family.items()})


def _det_obj(code: dict) -> DeterministicCode:
    return DeterministicCode(
        code["l"],
        tuple(DensityMatrix(rho) for rho in code["encoder"]),
        Povm(tuple(code["decoder"])),
    )


def _code_obj(code: dict):
    if code["type"] == "deterministic":
        return _det_obj(code)
    if code["type"] == "random":
        return RandomCode(tuple(_det_obj(d) for d in code["support"]), np.array(code["weights"]))
    raise ValueError(code["type"])


def _sample_seqs(rng, labels, l: int, count: int) -> list:
    picks = rng.integers(0, len(labels), size=(count, l))
    seqs = [tuple(labels[i] for i in row) for row in picks]
    return seqs + [tuple([s] * l) for s in labels]


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir

    def doc(self, name: str, doc: dict) -> str:
        path = os.path.join(self.workdir, name)
        write_document(doc, path)
        return path

    def out(self, name: str) -> str:
        return os.path.join(self.workdir, name)


def _tiny_simulation(w: _Writer) -> list:
    family = {"a": _flip_kraus(0.1, PAULI_X)}
    code = {
        "type": "deterministic",
        "l": 1,
        "encoder": [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
        "decoder": [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
    }
    path = w.doc(
        "warm-simulate.json",
        {"kind": "simulation_problem", "avqc": to_document(_family_obj(family)),
         "code": to_document(_code_obj(code))},
    )
    return ["simulate", "--input", path, "--out", w.out("warm-simulate.out.json")]


# ---------------------------------------------------------------- adversary


def build_adversary(seed: int, workdir: str) -> Workload:
    """simulate --mode exhaustive and reduce on seeded qubit families."""
    w = _Writer(workdir)
    wl = Workload("adversary")
    wl.warmup.append(_tiny_simulation(w))
    # three cheaper cases, three equal ones that carry analysis_s.p50, three dearer
    cases = [
        # name, members, l, messages, code kind, mode
        ("const-pair-l4", 2, 4, 2, "constant", "exhaustive"),
        ("greedy-s9-l4", 9, 4, 2, "deterministic", "auto"),
        ("rand-s2-l5", 2, 5, 2, "random", "exhaustive"),
        ("det-s2-l6-a", 2, 6, 2, "deterministic", "exhaustive"),
        ("det-s2-l6-b", 2, 6, 2, "deterministic", "exhaustive"),
        ("det-s2-l6-c", 2, 6, 2, "deterministic", "exhaustive"),
        ("rand-s2-l6", 2, 6, 2, "random", "exhaustive"),
        ("det-s3-l6", 3, 6, 2, "deterministic", "exhaustive"),
    ]
    for index, (name, members, l, messages, kind, mode) in enumerate(cases):
        rng = _rng(seed, 100 + index)
        labels = [f"s{i}" for i in range(members)]
        case = 1000 * index
        if kind == "constant":
            family = {s: _constant_kraus(_perturbed_state(rng, case + i, 2))
                      for i, s in enumerate(labels)}
        else:
            family = {s: _perturbed_kraus(rng, case + i, 2) for i, s in enumerate(labels)}
        dim = 2**l
        if kind == "random":
            support = [_perturbed_det(rng, case + 100 + j, dim, messages, l) for j in range(2)]
            weights = rng.random(2) + 0.2
            code = {"type": "random", "support": support, "weights": list(weights / weights.sum())}
        else:
            code = _perturbed_det(rng, case + 100, dim, messages, l)
        path = w.doc(
            f"{name}.json",
            {"kind": "simulation_problem", "avqc": to_document(_family_obj(family)),
             "code": to_document(_code_obj(code))},
        )
        samples = _sample_seqs(rng, labels, l, 3)
        cap = 0.75 if kind == "constant" else None
        wl.steps.append(
            Step(
                f"simulate:{name}",
                ["simulate", "--input", path, "--mode", mode, "--out", w.out(f"{name}.out.json")],
                w.out(f"{name}.out.json"),
                check=_error_report_check(family, code, samples, cap),
            )
        )
    wl.steps.append(_reduction_step(seed, w))
    return wl


def _error_report_check(family, code, samples, cap=None):
    def check(doc):
        return oracles.check_error_report(doc, family, code, samples, cap=cap)
    return check


def _reduction_step(seed: int, w: _Writer) -> Step:
    """reduce at l=5 on a near-noiseless pair, as in the Markov-bound setting."""
    rng = _rng(seed, 200)
    l, eps = 5, 0.1
    p_bit, p_phase = rng.uniform(0.001, 0.003, size=2)
    family = {"b": _flip_kraus(p_bit, PAULI_X), "p": _flip_kraus(p_phase, PAULI_Z)}
    dim = 2**l
    words = [0, 7, 24, 31]
    projectors = []
    for idx in words:
        vec = np.zeros(dim, dtype=complex)
        vec[idx] = 1.0
        projectors.append(np.outer(vec, vec))
    encoder = projectors
    rest = np.eye(dim, dtype=complex) - sum(projectors)
    good_dec = [projectors[0] + rest] + projectors[1:]
    slack = float(rng.uniform(0.75, 0.85))
    mediocre_dec = [slack * e + (1.0 - slack) / len(words) * np.eye(dim) for e in good_dec]
    support = [
        {"type": "deterministic", "l": l, "encoder": encoder, "decoder": good_dec},
        {"type": "deterministic", "l": l, "encoder": encoder, "decoder": mediocre_dec},
    ]
    code = {"type": "random", "support": support, "weights": [0.99, 0.01]}
    doc = {
        "kind": "reduction_problem",
        "avqc": to_document(_family_obj(family)),
        "code": to_document(_code_obj(code)),
        "l": l,
        "sample_count": 16,
        "eps": eps,
    }
    path = w.doc("reduce-l5.json", doc)

    def check(result):
        return oracles.check_reduction(result, family, code, l, eps)

    return Step(
        "reduce:l5",
        ["reduce", "--input", path, "--seed", str(seed), "--out", w.out("reduce-l5.out.json")],
        w.out("reduce-l5.out.json"),
        check=check,
    )


# ---------------------------------------------------------------- symcheck


def _hermitian_frame(dim: int) -> list:
    """The avqclab Hermitian probe frame, rebuilt from its definition."""
    basis = []
    for a in range(dim):
        for b in range(a + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[a, b] = sym[b, a] = 1.0 / math.sqrt(2.0)
            skew = np.zeros((dim, dim), dtype=complex)
            skew[a, b], skew[b, a] = -1.0j / math.sqrt(2.0), 1.0j / math.sqrt(2.0)
            basis += [sym, skew]
    for a in range(1, dim):
        diag = np.zeros(dim)
        diag[:a] = 1.0
        diag[a] = -float(a)
        basis.append(np.diag(diag).astype(complex) / math.sqrt(float(a * (a + 1))))
    center = np.eye(dim, dtype=complex) / dim
    scale = float(dim * (dim + 1))
    return [center + scale * op for op in basis] + [center - scale * sum(basis)]


def build_symcheck(seed: int, workdir: str) -> Workload:
    """symcheck with the Hermitian frame at l=2 (qubits) and l=1 (qutrits)."""
    w = _Writer(workdir)
    wl = Workload("symcheck")
    tiny = {"a": _flip_kraus(0.1, PAULI_X), "b": _flip_kraus(0.2, PAULI_Z)}
    tiny_path = w.doc("warm-symcheck.json", to_document(_family_obj(tiny)))
    wl.warmup.append(["symcheck", "--input", tiny_path, "--out", w.out("warm-symcheck.out.json")])
    # four cheaper cases, three equal ones that carry analysis_s.p50, four dearer
    cases = [
        # name, dim, members, l, kind
        ("rand-q3-s2-l1", 3, 2, 1, "random"),
        ("rand-q3-s3-l1", 3, 3, 1, "random"),
        ("const-q3-s3-l1", 3, 3, 1, "constant"),
        ("identity-q2-s1-l2", 2, 1, 2, "identity"),
        ("const-q2-s2-l2-a", 2, 2, 2, "constant"),
        ("const-q2-s2-l2-b", 2, 2, 2, "constant"),
        ("const-q2-s2-l2-c", 2, 2, 2, "constant"),
        ("rand-q2-s2-l2", 2, 2, 2, "random"),
        ("const-q2-s4-l2", 2, 4, 2, "constant"),
        ("rand-q2-s3-l2", 2, 3, 2, "random"),
        ("rand-q2-s4-l2", 2, 4, 2, "random"),
    ]
    for index, (name, dim, members, l, kind) in enumerate(cases):
        rng = _rng(seed, 300 + index)
        labels = [f"s{i}" for i in range(members)]
        if kind == "identity":
            family = {labels[0]: np.eye(dim, dtype=complex)[None]}
        elif kind == "random":
            # HiGHS's pivot count on these infeasible LPs swings threefold under
            # even a 0.1% change of the data, so they are fixed instances
            family = {s: _random_kraus(_base_rng(1000 * index + i), dim)
                      for i, s in enumerate(labels)}
        else:
            family = {s: _perturbed_kraus(rng, 1000 * index + i, dim)
                      for i, s in enumerate(labels)}
        if kind == "constant":
            # one member forgets its input: mixing onto it symmetrizes
            family[labels[int(rng.integers(members))]] = _constant_kraus(
                _perturbed_state(rng, 1000 * index + 999, dim))
        path = w.doc(f"{name}.json", to_document(_family_obj(family)))
        probes = _hermitian_frame(dim**l)
        wl.steps.append(
            Step(
                f"symcheck:{name}",
                ["symcheck", "--input", path, "--l", str(l), "--out", w.out(f"{name}.out.json")],
                w.out(f"{name}.out.json"),
                check=_symcheck_check(family, l, probes, kind),
            )
        )
    return wl


def _symcheck_check(family, l, probes, kind):
    def check(doc):
        return oracles.check_symcheck(
            doc, family, l, probes, tol=1e-7, expect_feasible=(kind == "constant"),
            by_construction=(kind == "identity"),
        )
    return check


# ---------------------------------------------------------------- capacity


def build_capacity(seed: int, workdir: str) -> Workload:
    """capacity at the default grid, closed-form anchors, and a 3x3 family."""
    w = _Writer(workdir)
    wl = Workload("capacity")
    comp = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    warm = np.stack([np.stack(comp)])
    wl.warmup.append(
        ["capacity", "--input", w.doc("warm-capacity.json", _cq_doc(warm)), "--grid", "4",
         "--out", w.out("warm-capacity.out.json")]
    )
    # two cheaper cases, three 2x2 ones that carry analysis_s.p50, two dearer
    cases = [
        # name, states, letters, anchor
        ("anchor-singleton", 1, 2, (1.0, 1e-3)),
        ("s1-z2", 1, 2, None),
        ("anchor-swap", 2, 2, (0.0, 0.0)),
        ("s2-z2-a", 2, 2, None),
        ("s2-z2-b", 2, 2, None),
        ("s2-z3", 2, 3, None),
        ("s3-z2", 3, 2, None),
        ("s3-z3", 3, 3, None),
    ]
    for index, (name, n_s, n_z, anchor) in enumerate(cases):
        rng = _rng(seed, 400 + index)
        if name == "anchor-singleton":
            branches = np.stack([np.stack(comp)])
        elif name == "anchor-swap":
            branches = np.stack([np.stack(comp), np.stack(comp[::-1])])
        else:
            branches = np.stack(
                [np.stack([_perturbed_state(rng, 1000 * index + n_z * i + j, 2)
                           for j in range(n_z)]) for i in range(n_s)]
            )
        path = w.doc(f"{name}.json", _cq_doc(branches))
        wl.steps.append(
            Step(
                f"capacity:{name}",
                ["capacity", "--input", path, "--seed", str(seed),
                 "--out", w.out(f"{name}.out.json")],
                w.out(f"{name}.out.json"),
                check=_capacity_check(branches, anchor),
            )
        )
    return wl


def _cq_doc(branches: np.ndarray) -> dict:
    n_s, n_z = branches.shape[:2]
    letters = tuple(f"z{j}" for j in range(n_z))
    states = tuple(f"s{i}" for i in range(n_s))
    family = AvCqc(
        states,
        {
            s: CqChannel(letters, {z: DensityMatrix(branches[i, j]) for j, z in enumerate(letters)})
            for i, s in enumerate(states)
        },
    )
    return to_document(family)


def _capacity_check(branches, anchor):
    def check(doc):
        return oracles.check_capacity(doc, branches, anchor=anchor)
    return check


# ---------------------------------------------------------------- correlated pipeline


def build_correlated_pipeline(seed: int, workdir: str) -> Workload:
    """compose, simulate the composition and each phase, and cr on the source.

    The first phase uses two channel uses and one source sample per use: the
    sender writes message i XOR its first sample on qubit 1, and the receiver
    reads qubit 1 and XORs with its own first sample. The payload is a uniform
    mixture of two conjugate-basis codes over three uses.
    """
    w = _Writer(workdir)
    wl = Workload("correlated-pipeline")
    wl.warmup.append(_tiny_simulation(w))
    rng = _rng(seed, 500)
    agree = float(rng.uniform(0.85, 0.95))
    joint = np.array([[agree, 1.0 - agree], [1.0 - agree, agree]]) / 2.0
    family = {
        "b": _flip_kraus(float(rng.uniform(0.02, 0.06)), PAULI_X),
        "p": _flip_kraus(float(rng.uniform(0.05, 0.12)), PAULI_Z),
    }
    basis = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    pad = np.eye(2, dtype=complex) / 2
    n1, l1, l2 = 2, 2, 3
    encoders, decoders = {}, {}
    for x in itertools.product(range(2), repeat=n1):
        encoders[x] = [np.kron(basis[i ^ x[0]], pad) for i in range(2)]
    for y in itertools.product(range(2), repeat=n1):
        decoders[y] = [np.kron(basis[i ^ y[0]], np.eye(2, dtype=complex)) for i in range(2)]
    phase1 = {"type": "correlated", "joint": joint, "n": n1, "encoders": encoders,
              "decoders": decoders}
    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    words = [np.kron(s, np.eye(4, dtype=complex) / 4) for s in (plus, minus)]
    elems = [np.kron(s, np.eye(4, dtype=complex)) for s in (plus, minus)]
    payload = {
        "type": "random",
        "weights": [0.5, 0.5],
        "support": [
            {"type": "deterministic", "l": l2, "encoder": words, "decoder": elems},
            {"type": "deterministic", "l": l2, "encoder": words[::-1], "decoder": elems[::-1]},
        ],
    }
    source = BipartiteSource((0, 1), (0, 1), joint)
    cr_obj = CorrelatedCode(
        l1, 1, source,
        {x: tuple(DensityMatrix(r) for r in v) for x, v in encoders.items()},
        {y: Povm(tuple(v)) for y, v in decoders.items()},
    )
    family_doc = to_document(_family_obj(family))
    compose_in = w.doc(
        "compose.json",
        {"kind": "composition_problem", "cr_code": to_document(cr_obj),
         "payload": to_document(_code_obj(payload)), "target_l": l1 + l2},
    )
    phase1_in = w.doc(
        "phase1.json",
        {"kind": "simulation_problem", "avqc": family_doc, "code": to_document(cr_obj)},
    )
    payload_in = w.doc(
        "payload.json",
        {"kind": "simulation_problem", "avqc": family_doc, "code": to_document(_code_obj(payload))},
    )
    source_in = w.doc("source.json", to_document(source))
    composed_out = w.out("composed.out.json")
    composed_in = w.out("composed-problem.json")

    family_text = json.dumps(family_doc)
    composed_code = w.out("composed-code.json")

    def wrap_composed():
        # zero the result's wall time, so the next inputs repeat byte for byte,
        # and splice the code into an envelope without parsing it
        with open(composed_out, encoding="utf-8") as handle:
            code_text = WALL_TIME.sub('"wall_time_ms": 0', handle.read())
        with open(composed_code, "w", encoding="utf-8") as handle:
            handle.write(code_text)
        with open(composed_in, "w", encoding="utf-8") as handle:
            handle.write('{"kind": "simulation_problem", "avqc": ' + family_text
                         + ', "code": ' + code_text + "}")

    composed = _composed_code(phase1, payload, l1 + l2)
    labels = list(family)
    samples = _sample_seqs(rng, labels, l1 + l2, 2)
    wl.warmup.append(["cr", "--input", source_in, "--out", w.out("warm-cr.out.json")])
    wl.steps += [
        Step("compose:l5", ["compose", "--input", compose_in, "--out", composed_out],
             composed_out, check=_compose_check(composed)),
        Glue("wrap composed code", wrap_composed),
    ]
    # three reads of the composed code put analysis_s.p50 on a block of three
    wl.steps += [
        Step(f"validate:composed-l5-{tag}",
             ["validate", "--input", composed_code, "--out", w.out(f"validate-{tag}.out.json")],
             w.out(f"validate-{tag}.out.json"), check=_validate_check("correlated_code"))
        for tag in "abc"
    ]
    wl.steps += [
        Step("simulate:composed-l5",
             ["simulate", "--input", composed_in, "--mode", "exhaustive",
              "--out", w.out("composed-report.out.json")],
             w.out("composed-report.out.json"),
             check=_error_report_check(family, composed, samples)),
        Step("simulate:composed-l5-greedy",
             ["simulate", "--input", composed_in, "--mode", "greedy",
              "--out", w.out("composed-greedy.out.json")],
             w.out("composed-greedy.out.json"),
             check=_error_report_check(family, composed, samples)),
        Step("simulate:phase1-l2",
             ["simulate", "--input", phase1_in, "--mode", "exhaustive",
              "--out", w.out("phase1.out.json")],
             w.out("phase1.out.json"),
             check=_error_report_check(family, phase1, _sample_seqs(rng, labels, l1, 2))),
        Step("simulate:payload-l3",
             ["simulate", "--input", payload_in, "--mode", "exhaustive",
              "--out", w.out("payload.out.json")],
             w.out("payload.out.json"),
             check=_error_report_check(family, payload, _sample_seqs(rng, labels, l2, 2))),
        Step("cr:source", ["cr", "--input", source_in, "--out", w.out("cr.out.json")],
             w.out("cr.out.json"), check=lambda doc: oracles.check_cr(doc, joint)),
    ]
    wl.checks.append(
        lambda results: oracles.check_composition(
            results["simulate:composed-l5"], results["simulate:phase1-l2"],
            results["simulate:payload-l3"],
        )
    )
    return wl


def _validate_check(kind: str):
    def check(doc):
        if doc.get("valid") is not True or doc.get("object_kind") != kind:
            return [f"validate reports {doc.get('valid')!r} for kind {doc.get('object_kind')!r}"]
        return []
    return check


def _composed_code(phase1: dict, payload: dict, target_l: int) -> dict:
    """The two-phase composition, written out from its definition."""
    k = len(payload["support"])
    m = len(payload["support"][0]["encoder"])
    n_total = target_l  # one source sample per channel use
    head = phase1["n"]
    enc_head = {
        x: [sum(np.kron(states[i], det["encoder"][j]) for i, det in enumerate(payload["support"])) / k
            for j in range(m)]
        for x, states in phase1["encoders"].items()
    }
    dec_head = {
        y: [sum(np.kron(elems[i], det["decoder"][j]) for i, det in enumerate(payload["support"]))
            for j in range(m)]
        for y, elems in phase1["decoders"].items()
    }
    n_x, n_y = phase1["joint"].shape
    return {
        "type": "correlated",
        "joint": phase1["joint"],
        "n": n_total,
        "encoders": {x: enc_head[x[:head]] for x in itertools.product(range(n_x), repeat=n_total)},
        "decoders": {y: dec_head[y[:head]] for y in itertools.product(range(n_y), repeat=n_total)},
    }


def _compose_check(composed: dict):
    def check(doc):
        fails = []
        if doc.get("kind") != "correlated_code" or doc["l"] != composed["n"]:
            return [f"compose returned kind {doc.get('kind')!r}, l={doc.get('l')!r}"]
        for entry in doc["encoders"]:
            want = composed["encoders"][tuple(entry["x"])]
            got = oracles.decode_matrices(entry["states"])
            if max(float(np.max(np.abs(a - b))) for a, b in zip(got, want)) > 1e-12:
                fails.append(f"encoder at x={entry['x']} differs from the composition")
                break
        for entry in doc["decoders"]:
            want = composed["decoders"][tuple(entry["y"])]
            got = oracles.decode_matrices(entry["povm"]["elements"])
            if max(float(np.max(np.abs(a - b))) for a, b in zip(got, want)) > 1e-12:
                fails.append(f"decoder at y={entry['y']} differs from the composition")
                break
        return fails
    return check


BUILDERS = {
    "adversary": build_adversary,
    "symcheck": build_symcheck,
    "capacity": build_capacity,
    "correlated-pipeline": build_correlated_pipeline,
}
