"""Benchmark of the avqclab analyses, run in-process through ``avqclab.cli.run``.

Usage, from the repository root:

    python3 bench/run.py --workload adversary --seed 1 --seconds 20 --trace 0

The run builds the workload's input documents from the seed (see
``workloads.py``), warms up, then repeats the workload's fixed batch of
analyses (one round) while the next round, as long as the last one, still
ends within ``--seconds``; every run attempts at least one whole round.
Every output is compared with the first round's, and the first round's
outputs are checked by the oracles in ``oracles.py``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` (rounds then alternate traced and
untraced, and the spans are written to ``.benchwork/trace-<workload>.jsonl``).
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("adversary", "symcheck", "capacity", "correlated-pipeline")
SETUP_REPEATS = 3
POOL_THREADS = 2


def _thread_settings() -> dict:
    """Pin the avqclab pool and BLAS threads before numpy is imported."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    settings = {
        "nproc": cores or 1,
        "AVQCLAB_THREADS": str(min(POOL_THREADS, cores or 1)),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    for key, value in settings.items():
        if key != "nproc":
            os.environ[key] = value
    return settings


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


_WALL_TIME = re.compile(rb'"wall_time_ms": [0-9]+')


def _comparable(path: str) -> bytes:
    with open(path, "rb") as handle:
        return _WALL_TIME.sub(b'"wall_time_ms": 0', handle.read())


class Runner:
    """Runs rounds of one workload and keeps what the checks need."""

    def __init__(self, workload, cli, tracer):
        self.workload = workload
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.analysis_s: list = []
        self.first: dict = {}  # step name -> comparable output bytes
        self.failures: list = []
        self.errors: dict = {}

    def _run(self, argv, traced: bool) -> int:
        if traced:
            return self.tracer.call("cli.run", self.cli.run, argv,
                                    attrs=lambda a, k, r: {"command": a[0][0]})
        return self.cli.run(argv)

    def round(self, traced: bool) -> float:
        started = perf_counter()
        for step in self.workload.steps:
            if not hasattr(step, "argv"):
                step.fn()
                continue
            self.attempted += 1
            t0 = perf_counter()
            try:
                code = self._run(step.argv, traced)
            except Exception as exc:  # an analysis that crashes is a failed one
                code = f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if code != 0:
                self.failed += 1
                self.errors.setdefault(step.name, code)
                continue
            self.analysis_s.append(dt)
            output = _comparable(step.out)
            if step.name not in self.first:
                self.first[step.name] = output
            elif output != self.first[step.name]:
                self.failures.append(f"{step.name}: output differs from the first round")
        return perf_counter() - started

    def check(self) -> None:
        """Run every oracle on the first successful output of each step."""
        results = {name: json.loads(raw) for name, raw in self.first.items()}
        for step in self.workload.steps:
            if getattr(step, "check", None) is None or step.name not in results:
                continue
            self._collect(step.name, step.check, results[step.name])
        for check in self.workload.checks:
            self._collect(self.workload.name, check, results)

    def _collect(self, label, check, *args) -> None:
        try:
            fails = check(*args)
        except (KeyError, TypeError, IndexError, ValueError, RuntimeError) as exc:
            fails = [f"output could not be checked: {type(exc).__name__}: {exc}"]
        self.failures += [f"{label}: {msg}" for msg in fails]


def main(argv=None) -> int:
    args = _parse_args(argv)
    threads = _thread_settings()
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        import avqclab.cli as cli
        import workloads
        from tracer import Tracer, median_metrics
    except ImportError as exc:
        print(f"bench: cannot import the program or its dependencies: {exc}", file=sys.stderr)
        return 2
    imports_s = perf_counter() - STARTED

    work_root = os.path.join(ROOT, ".benchwork")
    run_dir = os.path.join(work_root, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        setup = []
        for rep in range(SETUP_REPEATS):
            t0 = perf_counter()
            rep_dir = os.path.join(run_dir, f"setup{rep}")
            os.makedirs(rep_dir)
            workload = workloads.BUILDERS[args.workload](args.seed, rep_dir)
            for warm in workload.warmup:
                code = cli.run(warm)
                if code != 0:
                    print(f"bench: warm-up {warm[0]} exited {code}", file=sys.stderr)
                    return 1
            setup.append(perf_counter() - t0)
        setup_s = imports_s + statistics.median(setup)

        tracer = Tracer()
        runner = Runner(workload, cli, tracer)
        walls, traced_walls, layer_rounds = [], [], []
        measure_start = perf_counter()
        while True:
            traced = bool(args.trace) and len(walls) + len(traced_walls) == 2 * len(traced_walls)
            if traced:
                tracer.reset()
                tracer.install()
                try:
                    traced_walls.append(runner.round(traced=True))
                finally:
                    tracer.uninstall()
                layer_rounds.append(tracer.metrics())
            else:
                walls.append(runner.round(traced=False))
            # stop before a round that would end past the deadline, judged by
            # the round just run; a traced run needs one untraced round too
            last = (traced_walls if traced else walls)[-1]
            need_untraced = bool(args.trace) and not walls
            if perf_counter() - measure_start + last > args.seconds and not need_untraced:
                break
        runner.check()

        if args.trace:
            os.makedirs(work_root, exist_ok=True)
            tracer.dump(os.path.join(work_root, f"trace-{args.workload}.jsonl"),
                        {"workload": args.workload, "seed": args.seed, "threads": threads})
            metrics = {name: (value, _unit(name)) for name, value in median_metrics(layer_rounds).items()}
            metrics["trace.overhead_s"] = (
                statistics.median(traced_walls) - statistics.median(walls), "s")
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "analysis_s.p50": (statistics.median(runner.analysis_s), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, error in runner.errors.items():
        print(f"bench: {name} failed: {error}", file=sys.stderr)
    for failure in runner.failures:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    rounds = len(walls) + len(traced_walls)
    print(
        f"# workload={args.workload} seed={args.seed} rounds={rounds} "
        f"analyses={len(runner.analysis_s)} nproc={threads['nproc']} "
        f"AVQCLAB_THREADS={threads['AVQCLAB_THREADS']} "
        f"OPENBLAS_NUM_THREADS={threads['OPENBLAS_NUM_THREADS']} "
        f"round_s={','.join(f'{w:.3f}' for w in walls)}"
    )
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith(".gflop"):
        return "Gflop"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
