"""Command-line front end: JSON documents in, result documents out.

Every result embeds a run manifest (command, input digests, seed, effective
configuration, tool version, wall time). Apart from the recorded wall time,
identical inputs and flags produce byte-identical output. Exit codes: 0 on
success, 2 on validation or schema failure, 3 on an exceeded budget.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time

from . import __version__
from .capacity import cq_random_capacity
from .codes import (
    CorrelatedCode,
    RandomCode,
    compose_two_phase,
    evaluate_code,
    random_code_reduction,
)
from .config import ENUM_BUDGET, EXHAUSTIVE_BUDGET, TOL_FEAS
from .correlation import binary_reduction, cr_extractable
from .errors import BudgetExceeded, SchemaError, ValidationError
from .serialize import (
    dumps_document,
    from_document,
    loads_document,
    positive_int,
    to_document,
)
from .symmetrize import check_symmetrizable, hermitian_probe_frame

__all__ = ["main", "run"]


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _read_raw(filename: str) -> bytes:
    try:
        with open(filename, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {filename}: {exc}") from exc


def _load(filename: str):
    raw = _read_raw(filename)
    doc = loads_document(raw, origin=filename)
    return raw, doc


def _expect_kind(doc, kinds, origin: str):
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in kinds:
        raise SchemaError(
            f"expected a document of kind {sorted(kinds)}, got {kind!r}",
            path=f"{origin}:$.kind",
        )
    return kind


def _real(doc: dict, field: str, origin: str) -> float:
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError("expected a real number", path=f"{origin}.{field}")
    if isinstance(value, float) and not math.isfinite(value):
        raise SchemaError("expected a finite real number", path=f"{origin}.{field}")
    return value


def _render_text(doc: dict, indent: str = "") -> str:
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_text(value, indent + "  "))
        elif isinstance(value, list):
            if all(isinstance(v, (int, float, str, bool, type(None))) for v in value):
                lines.append(f"{indent}{key}: {', '.join(str(v) for v in value)}")
            else:
                lines.append(f"{indent}{key}: <{len(value)} entries>")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)


def _emit(result: dict, args) -> None:
    if args.format == "json":
        text = dumps_document(result)
    else:
        text = _render_text(result) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


class _Run:
    """Collects digests and config so the manifest is built in one place."""

    def __init__(self, command: str, seed: int | None):
        self.command = command
        self.seed = seed
        self.digests: dict = {}
        self.config: dict = {}
        self.started = time.monotonic()

    def load(self, label: str, filename: str):
        raw, doc = _load(filename)
        self.digests[label] = _digest(raw)
        return doc

    def manifest(self) -> dict:
        return {
            "command": self.command,
            "input_digests": self.digests,
            "seed": self.seed,
            "config": dict(sorted(self.config.items())),
            "tool_version": __version__,
            "wall_time_ms": int((time.monotonic() - self.started) * 1000),
        }

    def result(self, kind: str, body: dict) -> dict:
        doc = {"kind": kind}
        doc.update(body)
        doc["manifest"] = self.manifest()
        return doc


def _cmd_validate(args) -> dict:
    run = _Run("validate", None)
    doc = run.load("input", args.input)
    obj = from_document(doc, path=f"{args.input}:$")
    return run.result(
        "validation_result",
        {"valid": True, "object_kind": doc["kind"], "object_type": type(obj).__name__},
    )


def _cmd_symcheck(args) -> dict:
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValidationError(f"symcheck: --tol must be finite and non-negative, not {args.tol}")
    run = _Run("symcheck", None)
    doc = run.load("input", args.input)
    _expect_kind(doc, {"avqc"}, args.input)
    avqc = from_document(doc, path=f"{args.input}:$")
    tol = args.tol if args.tol is not None else TOL_FEAS
    budget = args.budget if args.budget is not None else ENUM_BUDGET
    if args.probes:
        probe_doc = run.load("probes", args.probes)
        _expect_kind(probe_doc, {"probe_set"}, args.probes)
        probes = list(from_document(probe_doc, path=f"{args.probes}:$"))
        probe_source = "file"
    else:
        probes = hermitian_probe_frame(avqc.dim_in**args.l)
        probe_source = "hermitian_frame"
    run.config.update(
        {"l": args.l, "tol": tol, "budget": budget, "probes": probe_source}
    )
    verdict = check_symmetrizable(avqc, args.l, probes, tol=tol, budget=budget)
    witness = None
    if verdict.witness is not None:
        witness = {
            "labels": [list(map(str, lab)) for lab in verdict.witness.labels],
            "distributions": [
                [float(v) for v in row] for row in verdict.witness.distributions
            ],
        }
    return run.result(
        "symcheck_result",
        {
            "feasible": verdict.feasible,
            "residual": float(verdict.residual),
            "witness": witness,
            "degenerate_pairs": [list(p) for p in verdict.degenerate_pairs],
        },
    )


def _cmd_capacity(args) -> dict:
    run = _Run("capacity", args.seed)
    doc = run.load("input", args.input)
    _expect_kind(doc, {"av_cqc"}, args.input)
    avcqc = from_document(doc, path=f"{args.input}:$")
    result = cq_random_capacity(avcqc)
    return run.result(
        "capacity_result",
        {
            "value": float(result.value),
            "argmax_p": [float(v) for v in result.argmax_p],
            "argmin_q": [float(v) for v in result.argmin_q],
            "certified_gap": float(result.certified_gap),
            "lower_bound": float(result.lower_bound),
            "upper_bound": float(result.upper_bound),
        },
    )


def _cmd_cr(args) -> dict:
    run = _Run("cr", None)
    doc = run.load("input", args.input)
    _expect_kind(doc, {"bipartite_source"}, args.input)
    source = from_document(doc, path=f"{args.input}:$")
    verdict = cr_extractable(source)
    reduction = None
    reduction_note = None
    try:
        red = binary_reduction(source)
        reduction = {
            "f_table": [int(v) for v in red.f_table],
            "g_table": [int(v) for v in red.g_table],
            "bits": float(red.bits),
        }
    except (ValidationError, BudgetExceeded) as exc:
        reduction_note = str(exc)
    return run.result(
        "cr_result",
        {
            "extractable": verdict.extractable,
            "component_count": verdict.component_count,
            "x_partition": [list(part) for part in verdict.x_partition]
            if verdict.x_partition is not None
            else None,
            "y_partition": [list(part) for part in verdict.y_partition]
            if verdict.y_partition is not None
            else None,
            "binary_reduction": reduction,
            "binary_reduction_note": reduction_note,
        },
    )


def _cmd_simulate(args) -> dict:
    run = _Run("simulate", None)
    doc = run.load("input", args.input)
    _expect_kind(doc, {"simulation_problem"}, args.input)
    origin = f"{args.input}:$"
    if "avqc" not in doc or "code" not in doc:
        raise SchemaError("needs 'avqc' and 'code' fields", path=origin)
    avqc = from_document(doc["avqc"], path=f"{origin}.avqc")
    code = from_document(doc["code"], path=f"{origin}.code")
    budget = args.budget if args.budget is not None else EXHAUSTIVE_BUDGET
    run.config.update({"budget": budget, "mode": args.mode})
    report = evaluate_code(avqc, code, budget=budget, mode=args.mode)
    return run.result(
        "error_report",
        {
            "avg_success_worst": float(report.avg_success_worst),
            "max_error_worst": float(report.max_error_worst),
            "worst_state_seq": [str(s) for s in report.worst_state_seq],
            "method": report.method,
        },
    )


def _cmd_reduce(args) -> dict:
    run = _Run("reduce", args.seed)
    doc = run.load("input", args.input)
    _expect_kind(doc, {"reduction_problem"}, args.input)
    origin = f"{args.input}:$"
    for field in ("avqc", "code", "l", "sample_count", "eps"):
        if field not in doc:
            raise SchemaError(f"missing field {field!r}", path=origin)
    l = positive_int(doc, "l", origin)
    sample_count = positive_int(doc, "sample_count", origin)
    eps = _real(doc, "eps", origin)
    avqc = from_document(doc["avqc"], path=f"{origin}.avqc")
    code = from_document(doc["code"], path=f"{origin}.code")
    if not isinstance(code, RandomCode):
        raise SchemaError("'code' must be a random_code", path=f"{origin}.code")
    budget = args.budget if args.budget is not None else EXHAUSTIVE_BUDGET
    run.config.update(
        {"l": l, "sample_count": sample_count, "eps": eps, "budget": budget}
    )
    sampled, verified = random_code_reduction(
        code, avqc, l, sample_count, eps, args.seed, budget=budget
    )
    # draws repeat support codes: encode each once and list it per draw
    encoded = {det: to_document(det) for det in dict.fromkeys(sampled)}
    return run.result(
        "reduction_result",
        {
            "verified": verified,
            "sample_count": len(sampled),
            "codes": [encoded[det] for det in sampled],
        },
    )


def _cmd_compose(args) -> dict:
    run = _Run("compose", None)
    doc = run.load("input", args.input)
    _expect_kind(doc, {"composition_problem"}, args.input)
    origin = f"{args.input}:$"
    for field in ("cr_code", "payload", "target_l"):
        if field not in doc:
            raise SchemaError(f"missing field {field!r}", path=origin)
    target_l = positive_int(doc, "target_l", origin)
    cr_code = from_document(doc["cr_code"], path=f"{origin}.cr_code")
    payload = from_document(doc["payload"], path=f"{origin}.payload")
    if not isinstance(cr_code, CorrelatedCode):
        raise SchemaError("'cr_code' must be a correlated_code", path=f"{origin}.cr_code")
    if not isinstance(payload, RandomCode):
        raise SchemaError("'payload' must be a random_code", path=f"{origin}.payload")
    run.config.update({"target_l": target_l})
    composed = compose_two_phase(cr_code, payload, target_l)
    result = to_document(composed)
    result["manifest"] = run.manifest()
    return result


_COMMANDS = {
    "validate": _cmd_validate,
    "symcheck": _cmd_symcheck,
    "capacity": _cmd_capacity,
    "cr": _cmd_cr,
    "simulate": _cmd_simulate,
    "reduce": _cmd_reduce,
    "compose": _cmd_compose,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avqclab",
        description="Adversarially varying quantum channel analyses over JSON documents.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--input", required=True, help="input JSON document")
        cmd.add_argument("--out", help="write the result document here")
        cmd.add_argument("--format", choices=("json", "text"), default="json")
        if name == "reduce":
            cmd.add_argument("--seed", type=int, default=0)
        if name in ("symcheck", "simulate", "reduce"):
            cmd.add_argument("--budget", type=int, default=None)
        if name == "symcheck":
            cmd.add_argument("--tol", type=float, default=None)
            cmd.add_argument("--probes", help="probe_set JSON document")
            cmd.add_argument("--l", type=int, default=1, help="block length")
        if name == "capacity":
            cmd.add_argument(
                "--seed", type=int, default=0,
                help="recorded in the manifest; the result does not depend on it",
            )
            cmd.add_argument(
                "--grid", type=int, default=None,
                help="ignored: the capacity solver uses no grid; kept so older scripts parse",
            )
        if name == "simulate":
            cmd.add_argument(
                "--mode", choices=("auto", "exhaustive", "greedy"), default="auto"
            )
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = _COMMANDS[args.command](args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    _emit(result, args)
    return 0


def main() -> None:
    sys.exit(run())
