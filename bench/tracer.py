"""Per-layer spans recorded from outside avqclab.

``Tracer.install`` replaces module-level callables of avqclab (and
``numpy.linalg.eigvalsh``, counted only inside the capacity search) with
timing wrappers, everywhere the original object is bound, so calls made
through ``from .x import f`` names are seen too. ``uninstall`` puts the
originals back; untraced rounds run the program untouched.

Layer boundaries become spans ``(id, parent, name, start, end, attrs)``
kept in memory. Calls that happen hundreds of thousands of times per round
(slot channel application, object validation, sequence scoring, eigvalsh)
are leaves: each thread sums their count, busy seconds and work into its
own accumulator, so the trace stays small and needs no lock.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import statistics
import sys
import threading
from time import perf_counter

import numpy as np

class Tracer:
    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._accs: list = []
        self._patches: list = []

    # ------------------------------------------------------------ recording

    def reset(self) -> None:
        self.spans = []
        self._accs = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _acc(self) -> dict:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = self._local.acc = {}
            self._accs.append(acc)
        return acc

    def call(self, name: str, fn, *args, attrs=None, **kwargs):
        """Run ``fn`` as one span; ``attrs(args, kwargs, result)`` adds fields."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((sid, name))
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.spans.append((sid, parent, name, t0, perf_counter(), None))
            raise
        finally:
            stack.pop()
        t1 = perf_counter()
        extra = attrs(args, kwargs, result) if attrs is not None else None
        self.spans.append((sid, parent, name, t0, t1, extra))
        return result

    def boundary(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, **kwargs)
        return wrapper

    def leaf(self, name: str, fn, work=None, inside: str | None = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inside is not None and not any(n == inside for _, n in self._stack()):
                return fn(*args, **kwargs)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            entry = self._acc().setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dt
            if work is not None:
                entry[2] += work(args)
            return result
        return wrapper

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, module, attr: str, make) -> None:
        """Wrap ``module.attr`` in every avqclab module that binds the same object."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if (name == "avqclab" or name.startswith("avqclab.")) and (
                getattr(mod, attr, None) is original
            ):
                self._patch(mod, attr, wrapper)

    def install(self) -> None:
        import avqclab.avqc as avqc
        import avqclab.capacity as capacity
        import avqclab.codes as codes
        import avqclab.correlation as correlation
        import avqclab.quantum as quantum
        import avqclab.serialize as serialize
        import avqclab.symmetrize as symmetrize
        import avqclab.util as util

        every = self._patch_everywhere
        every(quantum, "apply_channel_to_slot",
              lambda f: self.leaf("quantum.apply_channel_to_slot", f, work=_slot_gflop))
        for cls in (quantum.DensityMatrix, quantum.Povm, quantum.QuantumChannel):
            self._patch(cls, "__post_init__", self.leaf("quantum.validate", cls.__post_init__))
        if hasattr(avqc.Avqc, "state_sequences"):
            self._patch(avqc.Avqc, "state_sequences",
                        self.boundary("avqc.state_sequences", avqc.Avqc.state_sequences,
                                      attrs=lambda a, k, r: {"count": len(r)}))
        for attr in ("evaluate_code", "random_code_reduction", "compose_two_phase"):
            every(codes, attr, lambda f, attr=attr: self.boundary(f"codes.{attr}", f))
        every(codes, "_per_message_fn", self._scoring)
        every(codes, "_CorrelatedEvaluator", self._pair_stats)
        every(util, "parallel_map", lambda f: self._parallel_map(f, util))
        every(symmetrize, "check_symmetrizable",
              lambda f: self.boundary("symmetrize.check_symmetrizable", f))
        every(symmetrize, "_pairwise_mixture_feasibility",
              lambda f: self.boundary("symmetrize.lp", f))
        if getattr(symmetrize, "linprog", None) is not None:
            self._patch(symmetrize, "linprog",
                        self.boundary("symmetrize.linprog", symmetrize.linprog, attrs=_lp_attrs))
        every(capacity, "cq_random_capacity",
              lambda f: self.boundary("capacity.cq_random_capacity", f, attrs=_grid_attrs))
        self._patch(np.linalg, "eigvalsh",
                    self.leaf("capacity.eigvalsh", np.linalg.eigvalsh,
                              inside="capacity.cq_random_capacity"))
        for attr in ("cr_extractable", "binary_reduction"):
            every(correlation, attr, lambda f, attr=attr: self.boundary(f"correlation.{attr}", f))
        every(serialize, "loads_document",
              lambda f: self.boundary("serialize.loads", f,
                                      attrs=lambda a, k, r: {"bytes": len(a[0])}))
        every(serialize, "from_document", lambda f: self.boundary("serialize.from_document", f))
        every(serialize, "to_document", lambda f: self.boundary("serialize.to_document", f))
        every(serialize, "dumps_document",
              lambda f: self.boundary("serialize.dumps", f,
                                      attrs=lambda a, k, r: {"bytes": len(r)}))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ------------------------------------------------------------ special wrappers

    def _scoring(self, make_fn):
        @functools.wraps(make_fn)
        def wrapper(*args, **kwargs):
            return self.leaf("codes.score_sequence", make_fn(*args, **kwargs))
        return wrapper

    def _pair_stats(self, evaluator_cls):
        def attrs(args, kwargs, ev):
            weights = getattr(ev, "pair_weight", None)
            if weights is None:
                return None
            enc_key = {eid: _content_key(enc) for eid, enc in ev.encs.items()}
            dec_key = {did: _content_key(dec) for did, dec in ev.decs.items()}
            distinct = {(enc_key[e], dec_key[d]) for e, d in weights}
            return {"pairs": len(weights), "distinct_pairs": len(distinct)}

        @functools.wraps(evaluator_cls)
        def wrapper(*args, **kwargs):
            return self.call("codes.correlated_evaluator", evaluator_cls, *args,
                             attrs=attrs, **kwargs)
        return wrapper

    def _parallel_map(self, parallel_map, util):
        tracer = self

        def attrs(args, kwargs, result):
            items = len(args[1])
            workers = util.worker_count() if hasattr(util, "worker_count") else 1
            pooled = workers > 1 and items >= getattr(util, "_PARALLEL_MIN", math.inf)
            return {"items": items, "pooled_items": items if pooled else 0}

        @functools.wraps(parallel_map)
        def wrapper(fn, items):
            def run(fn, items):
                outer = list(tracer._stack())

                def traced_fn(item):
                    stack = tracer._stack()
                    saved = stack[:]
                    stack[:] = outer
                    try:
                        return fn(item)
                    finally:
                        stack[:] = saved

                return parallel_map(traced_fn, items)

            return tracer.call("util.parallel_map", run, fn, list(items), attrs=attrs)
        return wrapper

    # ------------------------------------------------------------ results

    def leaves(self) -> dict:
        total: dict = {}
        for acc in self._accs:
            for name, (count, seconds, work) in list(acc.items()):
                entry = total.setdefault(name, [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += seconds
                entry[2] += work
        return total

    def metrics(self) -> dict:
        """Per-layer totals of the spans recorded since the last reset."""
        spans = self.spans
        leaves = self.leaves()

        def total(name):
            return sum(t1 - t0 for _, _, n, t0, t1, _ in spans if n == name)

        def attr_sum(name, key):
            return sum((a or {}).get(key, 0) for _, _, n, _, _, a in spans if n == name)

        def leaf(name, idx):
            return leaves.get(name, [0, 0.0, 0.0])[idx]

        by_id = {s[0]: s for s in spans}
        lp_build = sum(
            t0 - by_id[parent][3]
            for _, parent, n, t0, _, _ in spans
            if n == "symmetrize.linprog" and parent in by_id and by_id[parent][2] == "symmetrize.lp"
        )
        cli_spans = [s for s in spans if s[2] == "cli.run"]
        child_time: dict = {}
        for _, parent, _, t0, t1, _ in spans:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        cli_self = sum(t1 - t0 - child_time.get(sid, 0.0) for sid, _, _, t0, t1, _ in cli_spans)
        pairs = attr_sum("codes.correlated_evaluator", "pairs")
        distinct = attr_sum("codes.correlated_evaluator", "distinct_pairs")
        out = {
            "quantum.apply_channel_to_slot.calls": leaf("quantum.apply_channel_to_slot", 0),
            "quantum.apply_channel_to_slot.s": leaf("quantum.apply_channel_to_slot", 1),
            "quantum.apply_channel_to_slot.gflop": leaf("quantum.apply_channel_to_slot", 2),
            "quantum.validate.calls": leaf("quantum.validate", 0),
            "quantum.validate.s": leaf("quantum.validate", 1),
            "avqc.state_sequences.count": attr_sum("avqc.state_sequences", "count"),
            "codes.evaluate_code.s": total("codes.evaluate_code"),
            "codes.sequences_scored": leaf("codes.score_sequence", 0),
            "codes.random_code_reduction.s": total("codes.random_code_reduction"),
            "codes.compose_two_phase.s": total("codes.compose_two_phase"),
            "codes.correlated.pairs": pairs,
            "codes.correlated.distinct_pairs": distinct,
            "codes.correlated.useful_ratio": distinct / pairs if pairs else 0.0,
            "util.parallel_map.calls": sum(1 for s in spans if s[2] == "util.parallel_map"),
            "util.parallel_map.items": attr_sum("util.parallel_map", "items"),
            "util.parallel_map.pooled_items": attr_sum("util.parallel_map", "pooled_items"),
            "util.parallel_map.s": total("util.parallel_map"),
            "symmetrize.check_symmetrizable.s": total("symmetrize.check_symmetrizable"),
            "symmetrize.lp_build.s": lp_build,
            "symmetrize.lp_solve.s": total("symmetrize.linprog"),
            "symmetrize.lp.rows": attr_sum("symmetrize.linprog", "rows"),
            "symmetrize.lp.cols": attr_sum("symmetrize.linprog", "cols"),
            "symmetrize.lp.nnz": attr_sum("symmetrize.linprog", "nnz"),
            "symmetrize.lp.iterations": attr_sum("symmetrize.linprog", "iterations"),
            "capacity.cq_random_capacity.s": total("capacity.cq_random_capacity"),
            "capacity.eigvalsh.calls": leaf("capacity.eigvalsh", 0),
            "capacity.eigvalsh.s": leaf("capacity.eigvalsh", 1),
            "capacity.grid_pairs": attr_sum("capacity.cq_random_capacity", "grid_pairs"),
            "correlation.cr_extractable.s": total("correlation.cr_extractable"),
            "correlation.binary_reduction.s": total("correlation.binary_reduction"),
            "serialize.decode.s": total("serialize.loads") + total("serialize.from_document"),
            "serialize.decode.bytes": attr_sum("serialize.loads", "bytes"),
            "serialize.encode.s": total("serialize.to_document") + total("serialize.dumps"),
            "serialize.encode.bytes": attr_sum("serialize.dumps", "bytes"),
        }
        for command in CLI_COMMANDS:
            out[f"cli.{command}.s"] = sum(
                t1 - t0 for _, _, n, t0, t1, a in cli_spans if a and a["command"] == command
            )
        out["cli.self.s"] = cli_self
        return out

    def dump(self, path: str, header: dict) -> None:
        """Write the recorded spans and leaf totals as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for sid, parent, name, t0, t1, attrs in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                         "start": t0, "end": t1, "attrs": attrs}) + "\n")
            for name, (count, seconds, work) in sorted(self.leaves().items()):
                handle.write(json.dumps({"leaf": name, "calls": count, "s": seconds,
                                         "work": work}) + "\n")


CLI_COMMANDS = ("simulate", "reduce", "symcheck", "capacity", "compose", "cr", "validate")


def median_metrics(rounds: list) -> dict:
    """Median of each per-layer metric over the traced rounds."""
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}


def _slot_gflop(args) -> float:
    """Complex multiply-adds of the two pairwise contractions, 8 flops each.

    K Kraus operators of shape (d_out, d_in) on an N_in-dimensional matrix:
    K * d_out * N_in * (N_in + N_out) multiply-adds.
    """
    ch, mat = args[0], args[1]
    n_in = mat.shape[0]
    n_out = n_in // ch.dim_in * ch.dim_out
    kraus = len(ch.kraus)
    return 8e-9 * kraus * ch.dim_out * n_in * (n_in + n_out)


def _lp_attrs(args, kwargs, result) -> dict:
    def shape_nnz(mat):
        if mat is None:
            return 0, 0
        if hasattr(mat, "nnz"):
            return mat.shape[0], int(mat.nnz)
        mat = np.asarray(mat)
        return mat.shape[0], int(np.count_nonzero(mat))

    ub_rows, ub_nnz = shape_nnz(kwargs.get("A_ub"))
    eq_rows, eq_nnz = shape_nnz(kwargs.get("A_eq"))
    cost = args[0] if args else kwargs["c"]
    return {"rows": ub_rows + eq_rows, "cols": len(cost), "nnz": ub_nnz + eq_nnz,
            "iterations": int(getattr(result, "nit", 0) or 0)}


def _grid_attrs(args, kwargs, result) -> dict:
    family = args[0]
    step = kwargs.get("grid_step", args[1] if len(args) > 1 else 1.0 / 64.0)
    steps = max(1, round(1.0 / step))
    n_z, n_s = len(family.alphabet), len(family.states)
    return {"grid_pairs": math.comb(steps + n_z - 1, n_z - 1) * math.comb(steps + n_s - 1, n_s - 1)}


def _content_key(obj) -> bytes:
    digest = hashlib.sha1()
    mats = getattr(obj, "elements", None)
    if mats is None:
        mats = [getattr(m, "matrix", m) for m in obj]
    for mat in mats:
        digest.update(np.ascontiguousarray(mat).tobytes())
    return digest.digest()
