"""Shows that every oracle accepts a real output and rejects a perturbed one.

Usage, from the repository root:

    python3 bench/selftest.py [--seed N]

For each workload it builds the inputs, runs every analysis once through
``avqclab.cli.run``, checks the outputs, then damages each output in a way
that keeps it well formed and checks again. Exits 1 if an oracle rejects a
real output or accepts a damaged one.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bump(field, delta):
    def damage(doc):
        doc[field] = doc[field] + delta
    return damage


def _set(field, value):
    def damage(doc):
        doc[field] = value
    return damage


def _shift_witness(doc):
    dist = doc["witness"]["distributions"]
    dist[0] = dist[-1][:]  # row 0 now copies the last probe's row
    dist[-1] = [1.0 / len(dist[-1])] * len(dist[-1])
    doc["residual"] = 0.0


def _flip_reduction(doc):
    doc["binary_reduction"]["bits"] += 0.05


def _damage_encoder(doc):
    entry = doc["encoders"][0]["states"][0]
    entry[0][0][0] += 1e-6
    entry[1][1][0] -= 1e-6


def damages_for(step_name: str, doc: dict) -> list:
    """Damages to apply to the output of one step, each a (label, fn) pair."""
    kind = doc.get("kind")
    if kind == "error_report":
        return [("avg_success_worst + 1e-3", _bump("avg_success_worst", 1e-3)),
                ("avg_success_worst - 1e-3", _bump("avg_success_worst", -1e-3))]
    if kind == "reduction_result":
        return [("verified flipped", _set("verified", not doc["verified"]))]
    if kind == "symcheck_result":
        if doc["feasible"]:
            return [("witness rows swapped", _shift_witness),
                    ("residual 1e-3", _set("residual", 1e-3))]
        return [("residual at 0", _set("residual", 0.0))]
    if kind == "capacity_result":
        return [("value + 1e-3", _bump("value", 1e-3)),
                ("value - 1e-3", _bump("value", -1e-3))]
    if kind == "cr_result":
        out = [("extractable flipped", _set("extractable", not doc["extractable"]))]
        if doc["binary_reduction"] is not None:
            out.append(("binary bits + 0.05", _flip_reduction))
        return out
    if kind == "correlated_code":
        return [("one encoder entry moved by 1e-6", _damage_encoder)]
    if kind == "validation_result":
        return [("object kind renamed", _set("object_kind", "avqc"))]
    raise ValueError(f"{step_name}: no damage for kind {kind!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import numpy as np

    import avqclab.cli as cli
    import oracles
    import workloads

    problems = []
    workdir = os.path.join(ROOT, ".benchwork", f"selftest-pid{os.getpid()}")
    try:
        for name, build in workloads.BUILDERS.items():
            os.makedirs(os.path.join(workdir, name))
            wl = build(args.seed, os.path.join(workdir, name))
            results = {}
            for step in wl.steps:
                if not hasattr(step, "argv"):
                    step.fn()
                    continue
                if cli.run(step.argv) == 0:
                    with open(step.out, encoding="utf-8") as handle:
                        results[step.name] = json.load(handle)
            for step in wl.steps:
                if getattr(step, "check", None) is None or step.name not in results:
                    continue
                doc = results[step.name]
                fails = step.check(doc)
                if fails:
                    problems.append(f"{step.name}: real output rejected: {fails}")
                for label, damage in damages_for(step.name, doc):
                    bad = copy.deepcopy(doc)
                    damage(bad)
                    if not step.check(bad):
                        problems.append(f"{step.name}: accepted damage '{label}'")
                    else:
                        print(f"ok  {step.name}: rejects {label}")
            for check in wl.checks:
                if check(results):
                    problems.append(f"{name}: workload check rejects real outputs")
                # the composition bound: push the composed result below it
                bad = copy.deepcopy(results)
                bad["simulate:composed-l5"]["avg_success_worst"] = (
                    results["simulate:phase1-l2"]["avg_success_worst"]
                    + results["simulate:payload-l3"]["avg_success_worst"] - 1.01
                )
                if not check(bad):
                    problems.append(f"{name}: composition bound accepts a violation")
                else:
                    print(f"ok  {name}: composition bound rejects a violation")

        # the equality-form LP on its own: a family with a constant member is
        # symmetrizable, the identity singleton with two probes is not
        rng = np.random.Generator(np.random.Philox(args.seed))
        sigma = workloads._random_state(rng, 2)
        const = {"a": workloads._random_kraus(rng, 2), "c": workloads._constant_kraus(sigma)}
        frame = workloads._hermitian_frame(4)
        _, images = oracles.probe_images(const, 2, frame)
        if not oracles.equality_lp_feasible(images):
            problems.append("equality LP misses the constant-member witness")
        _, images = oracles.probe_images({"i": np.eye(2, dtype=complex)[None]}, 1,
                                         workloads._hermitian_frame(2)[:2])
        if oracles.equality_lp_feasible(images):
            problems.append("equality LP symmetrizes two distinct probes under the identity")
        print("ok  equality LP separates a feasible and an infeasible case")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
