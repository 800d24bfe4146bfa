"""Command-line front end: JSON documents in, result documents out.

Every result embeds a run manifest (command, input digests, seed, effective
configuration, tool version, wall time). Apart from the recorded wall time,
identical inputs and flags produce byte-identical output. Exit codes: 0 on
success, 1 on any other library failure (an LP that HiGHS does not solve,
say), 2 on validation or schema failure (a dimension above ``DIM_CAP``
among them), 3 on an exceeded size cap.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
import time

from . import __version__
from .capacity import cq_random_capacity
from .codes import compose_two_phase, evaluate_code, random_code_reduction
from .config import ENUM_BUDGET, EXHAUSTIVE_BUDGET, TOL_FEAS
from .correlation import binary_reduction, cr_extractable
from .errors import AvqclabError, BudgetExceeded, SchemaError, ValidationError
from .serialize import (
    document_kind,
    dumps_document,
    field,
    finite_real,
    from_document,
    loads_document,
    positive_int,
    to_document,
)
from .symmetrize import check_lp_size, check_symmetrizable, hermitian_probe_frame

__all__ = ["main", "run"]


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

    def load(self, label: str, filename: str, kinds=None) -> tuple:
        """The document in ``filename``, of a kind in ``kinds``, and its path."""
        try:
            with open(filename, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise ValidationError(f"cannot read {filename}: {exc}") from exc
        self.digests[label] = hashlib.sha256(raw).hexdigest()
        doc = loads_document(raw, origin=filename)
        origin = f"{filename}:$"
        document_kind(doc, origin, kinds)
        return doc, origin

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
    doc, origin = run.load("input", args.input)
    obj = from_document(doc, origin)
    return run.result(
        "validation_result",
        {"valid": True, "object_kind": doc["kind"], "object_type": type(obj).__name__},
    )


def _cmd_symcheck(args) -> dict:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValidationError(f"symcheck: --tol must be finite and non-negative, not {args.tol}")
    run = _Run("symcheck", None)
    avqc = from_document(*run.load("input", args.input, {"avqc"}))
    if args.probes:
        probes = list(from_document(*run.load("probes", args.probes, {"probe_set"})))
        probe_source = "file"
    else:
        # the frame has dim^2 operators of dim^2 entries: size the LP first
        probes = hermitian_probe_frame(check_lp_size(avqc, args.l))
        probe_source = "hermitian_frame"
    run.config.update(
        {"l": args.l, "tol": args.tol, "budget": ENUM_BUDGET, "probes": probe_source}
    )
    verdict = check_symmetrizable(avqc, args.l, probes, tol=args.tol)
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
    result = cq_random_capacity(
        from_document(*run.load("input", args.input, {"av_cqc", "classical_avc"}))
    )
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
    source = from_document(*run.load("input", args.input, {"bipartite_source"}))
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
    doc, origin = run.load("input", args.input, {"simulation_problem"})
    avqc = field(doc, "avqc", origin, {"avqc"})
    code = field(doc, "code", origin, {"deterministic_code", "random_code", "correlated_code"})
    run.config.update({"budget": EXHAUSTIVE_BUDGET, "mode": args.mode})
    report = evaluate_code(avqc, code, mode=args.mode)
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
    doc, origin = run.load("input", args.input, {"reduction_problem"})
    l = positive_int(doc, "l", origin)
    sample_count = positive_int(doc, "sample_count", origin)
    eps = finite_real(doc, "eps", origin)
    avqc = field(doc, "avqc", origin, {"avqc"})
    code = field(doc, "code", origin, {"random_code"})
    run.config.update(
        {"l": l, "sample_count": sample_count, "eps": eps, "budget": EXHAUSTIVE_BUDGET}
    )
    sampled, verified = random_code_reduction(code, avqc, l, sample_count, eps, args.seed)
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
    doc, origin = run.load("input", args.input, {"composition_problem"})
    target_l = positive_int(doc, "target_l", origin)
    cr_code = field(doc, "cr_code", origin, {"correlated_code"})
    payload = field(doc, "payload", origin, {"random_code"})
    run.config.update({"target_l": target_l})
    result = to_document(compose_two_phase(cr_code, payload, target_l))
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


@functools.cache  # built once per process: building costs ~25 times a parse
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
        if name == "symcheck":
            cmd.add_argument("--tol", type=float, default=TOL_FEAS)
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
    except AvqclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(result, args)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
