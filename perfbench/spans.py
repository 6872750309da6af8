"""Per-layer tracing from outside the engine.

The benchmark installs timing wrappers around the public functions of
each ``src/repro`` package, from its own files, and removes them again
after each traced pass.  Nothing inside ``src/`` knows it is traced.

* A wrapped call records a span: name, start, end, parent span and op
  id.  Spans of the first traced pass stay in memory and are written
  out when the run ends; every traced pass adds to the totals.
* A layer's self time is its span's duration minus the part its child
  spans cover.  Calls in one op are strictly nested (one thread), so
  that part is the sum of the children's durations.
* Callers bind most engine functions by name at import
  (``from repro.transform.cri import spawnify``), so a function wrapper
  replaces the name in every loaded ``repro`` module that holds it:
  each caller finds the wrapper where it looks the name up.
* Crossings that happen once per effect (``lisp.eval``: each resume of
  a process generator) or once per access (``runtime.racecheck``) are
  *hot*: every crossing is counted and timed, but aggregated per op
  instead of kept as a span.  ``runtime.fault_ticks`` is counted only;
  its time stays in ``runtime.step``.
* ``harness.verify`` and ``harness.recovery`` are opaque: the
  sequential oracle and the sequential re-execution run whole inside
  them, so what they cost lands in the harness row.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

#: How hot crossings are timed; recorded next to the per-layer metrics.
CROSSING_TIMING = "every crossing timed"

#: Self-time rows, in report order.  Each becomes ``<row>_ms`` (self
#: time per op) and ``<row>_share`` (share of the traced op time).
ROWS = (
    "sexpr.read", "sexpr.print",
    "lisp.init", "lisp.load", "lisp.compile", "lisp.eval",
    "ir.lower", "ir.cfg", "ir.unparse",
    "analysis.self", "analysis.explain",
    "paths.distance",
    "transform.cri", "transform.locking", "transform.reorder",
    "transform.delay", "transform.dps", "transform.iteration",
    "transform.search",
    "runtime.step", "runtime.racecheck",
    "harness.verify", "harness.recovery",
    "serve.engine", "serve.server", "serve.wire",
)

#: Perf-cache hit ratios reported per layer (``repro.perf.cache_stats``).
CACHE_RATIOS = ("lisp.compile", "analysis.pair", "paths.mindist",
                "paths.sweep", "paths.onestep")

_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sexpr.printer", "pretty_str", "sexpr.print"),
    ("repro.sexpr.printer", "write_str", "sexpr.print"),
    ("repro.ir.lower", "lower_function", "ir.lower"),
    ("repro.ir.cfg", "build_cfg", "ir.cfg"),
    ("repro.ir.dominators", "compute_dominators", "ir.cfg"),
    ("repro.ir.unparse", "unparse_function", "ir.unparse"),
    ("repro.analysis.conflicts", "analyze_function", "analysis.self"),
    ("repro.analysis.report", "explain", "analysis.explain"),
    ("repro.paths.transfer", "min_conflict_distance_memo",
     "paths.distance"),
    ("repro.paths.transfer", "conflict_distances_swept", "paths.distance"),
    ("repro.paths.transfer", "conflicts_at_distance_memo",
     "paths.distance"),
    ("repro.paths.transfer", "min_conflict_distance_canonical",
     "paths.distance"),
    ("repro.transform.cri", "spawnify", "transform.cri"),
    ("repro.transform.locking", "insert_locks", "transform.locking"),
    ("repro.transform.reorder", "atomicize_reorderable",
     "transform.reorder"),
    ("repro.transform.delay", "delay_into_head", "transform.delay"),
    ("repro.transform.dps", "to_destination_passing", "transform.dps"),
    ("repro.transform.iteration", "recursion_to_iteration",
     "transform.iteration"),
    ("repro.transform.search", "to_parallel_search", "transform.search"),
    ("repro.harness.chaos", "_sequential_oracle", "harness.verify"),
    ("repro.harness.chaos", "_compare", "harness.verify"),
    ("repro.harness.chaos", "cross_validate", "harness.verify"),
)

_METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.lisp.interpreter", "Interpreter", "__init__", "lisp.init"),
    ("repro.lisp.interpreter", "Interpreter", "load", "sexpr.read"),
    ("repro.lisp.runner", "SequentialRunner", "eval_form", "lisp.load"),
    ("repro.lisp.compile", "Compiler", "code_for", "lisp.compile"),
    ("repro.lisp.compile", "Compiler", "build_proto", "lisp.compile"),
    ("repro.runtime.machine", "Machine", "run", "runtime.step"),
)

_RACE_HOOKS = ("on_spawn", "on_acquire", "on_release", "on_future_resolve",
               "on_future_wait", "on_queue_put", "on_queue_get",
               "on_finish", "on_join_children", "on_read", "on_write")

_OPAQUE = frozenset({"harness.verify", "harness.recovery"})


class Tracer:
    """Span stack, per-op accumulators and the installed wrappers."""

    def __init__(self) -> None:
        # A frame is [name, child seconds, span index, opaque].
        self.stack: List[list] = []
        self.spans: List[Optional[tuple]] = []
        self.op_id = -1
        self.opaque = 0
        self.excluded = 0.0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.op_time = 0.0
        self.ops = 0
        self.first_analysis_op = -1
        #: Spans are kept for the first traced pass only (ten thousand or
        #: so); later passes add to the per-layer totals alone.
        self.keep_spans = True
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> float:
        self.op_id = op_id
        self.excluded = 0.0
        self.stack = [["op", 0.0, -1, False]]
        return clock()

    def end_op(self, start: float) -> None:
        end = clock()
        while len(self.stack) > 1:  # spans left open by an unwinding op
            self._close(self.stack[-1], end)
        self.op_time += end - start - self.excluded
        self.ops += 1
        self.op_id = -1

    def _open(self, name: str, opaque: bool) -> list:
        index = -1
        if self.keep_spans:
            index = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, index, opaque, clock()]
        if opaque:
            self.opaque += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, end: float) -> None:
        stack = self.stack
        stack.pop()
        if frame[3]:
            self.opaque -= 1
        name, child, index, _, start = frame
        duration = end - start
        parent = stack[-1]
        parent[1] += duration
        self.self_s[name] += duration - child
        if index >= 0:
            self.spans[index] = (name, start, end, parent[2], self.op_id)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable,
                      after: Optional[Callable] = None) -> Callable:
        tracer = self
        opaque = name in _OPAQUE

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer.stack
            if tracer.op_id < 0 or tracer.opaque or stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = tracer._open(name, opaque)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, clock())
            tracer.counts[name + ".calls"] += 1
            if after is not None:
                began = clock()
                after(tracer, result)
                spent = clock() - began
                tracer.excluded += spent
                stack[-1][1] += spent
            return result

        return wrapper

    def _hot_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer.stack
            if tracer.op_id < 0 or tracer.opaque:
                return fn(*args, **kwargs)
            frame = [name, 0.0, stack[-1][2], False]
            stack.append(frame)
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - began
                stack.pop()
                stack[-1][1] += duration
                tracer.self_s[name] += duration - frame[1]
                tracer.counts[name + ".crossings"] += 1

        return wrapper

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced boundary; :meth:`uninstall` undoes it."""
        import importlib

        for module_name, attr, name in _FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            after = _AFTER.get(attr)
            wrapper = self._span_wrapper(name, original, after)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro") or mod is None:
                    continue
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)
        for module_name, cls_name, attr, name in _METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, attr, self._span_wrapper(
                name, cls.__dict__[attr], _AFTER.get(attr)))
        chaos = importlib.import_module("repro.harness.chaos")
        self._patch(chaos, "rewrite_fallback_call",
                    self._recovery_opener(chaos.rewrite_fallback_call))
        from repro.runtime.machine import Machine
        from repro.runtime.racecheck import RaceDetector
        from repro.runtime.faults import SeededFaultPlan

        self._patch(Machine, "spawn", self._spawn_wrapper(
            Machine.__dict__["spawn"]))
        for hook in _RACE_HOOKS:
            self._patch(RaceDetector, hook, self._hot_wrapper(
                "runtime.racecheck", RaceDetector.__dict__[hook]))
        self._patch(SeededFaultPlan, "on_tick", self._counting_wrapper(
            "runtime.fault_ticks", SeededFaultPlan.__dict__["on_tick"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _recovery_opener(self, fn: Callable) -> Callable:
        """The chaos harness starts its sequential re-execution by
        rewriting the entry call; the recovery span opens there and is
        closed when the cell (the op) returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.op_id >= 0 and not tracer.opaque:
                tracer._open("harness.recovery", True)
                tracer.counts["harness.recovery.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spawn_wrapper(self, spawn: Callable) -> Callable:
        tracer = self

        @functools.wraps(spawn)
        def wrapper(machine: Any, gen: Any, *args: Any, **kwargs: Any) -> Any:
            return spawn(machine, _TimedGen(tracer, gen), *args, **kwargs)

        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> int:
        """Write the recorded spans as JSON lines; returns the count."""
        n = 0
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, op = span
                out.write(json.dumps({"name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "op": op}) + "\n")
                n += 1
        return n


class _TimedGen:
    """A process generator whose every resume is a ``lisp.eval``
    crossing: the Lisp evaluation between two machine effects."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, tracer: Tracer, gen: Any) -> None:
        self._gen = gen
        self._tracer = tracer

    def send(self, value: Any) -> Any:
        tracer = self._tracer
        if tracer.op_id < 0 or tracer.opaque:
            return self._gen.send(value)
        stack = tracer.stack
        frame = ["lisp.eval", 0.0, stack[-1][2], False]
        stack.append(frame)
        began = clock()
        try:
            return self._gen.send(value)
        finally:
            duration = clock() - began
            stack.pop()
            stack[-1][1] += duration
            tracer.self_s["lisp.eval"] += duration - frame[1]
            tracer.counts["lisp.eval.crossings"] += 1

    def throw(self, *args: Any) -> Any:
        return self._gen.throw(*args)

    def close(self) -> None:
        self._gen.close()


def _after_lower(tracer: Tracer, func: Any) -> None:
    tracer.counts["ir.nodes"] += sum(1 for top in func.body
                                     for _ in top.walk())


def _after_analyze(tracer: Tracer, analysis: Any) -> None:
    # The first analysis of an op is the submitted program's; later
    # ones re-analyze rewritten code.
    if tracer.first_analysis_op != tracer.op_id:
        tracer.first_analysis_op = tracer.op_id
        tracer.counts["analysis.conflicts"] += len(analysis.conflicts)


def _after_run(tracer: Tracer, stats: Any) -> None:
    tracer.counts["runtime.sim_ticks"] += stats.total_time
    tracer.counts["runtime.lock_contentions"] += stats.lock_contentions
    tracer.counts["runtime.utilization_sum"] += stats.utilization


_AFTER: Dict[str, Callable] = {
    "lower_function": _after_lower,
    "analyze_function": _after_analyze,
    "run": _after_run,
}


def layer_metrics(tracer: Tracer, cache_delta: Dict[str, Dict[str, int]],
                  untraced_s: float, traced_s: float) -> Dict[str, float]:
    """Per-layer metrics from one workload's traced passes.

    ``cache_delta`` is the change in ``repro.perf.cache_stats()`` over
    the traced passes; ``untraced_s``/``traced_s`` are the median
    host-normalised pass times without and with the wrappers.
    """
    ops = max(tracer.ops, 1)
    op_ms = tracer.op_time * 1000.0
    out: Dict[str, float] = {}
    covered = 0.0
    for row in ROWS:
        self_ms = tracer.self_s.get(row, 0.0) * 1000.0
        covered += self_ms
        out[f"{row}_ms"] = self_ms / ops
        out[f"{row}_share"] = self_ms / op_ms if op_ms else 0.0
    out["other_ms"] = (op_ms - covered) / ops
    out["other_share"] = (op_ms - covered) / op_ms if op_ms else 0.0
    counts = tracer.counts
    lowered = counts.get("ir.lower.calls", 0)
    runs = counts.get("runtime.step.calls", 0)
    run_ms = tracer.self_s.get("runtime.step", 0.0) * 1000.0 + \
        tracer.self_s.get("lisp.eval", 0.0) * 1000.0 + \
        tracer.self_s.get("runtime.racecheck", 0.0) * 1000.0
    out["ir.nodes"] = counts.get("ir.nodes", 0) / lowered if lowered else 0.0
    out["analysis.calls"] = counts.get("analysis.self.calls", 0) / ops
    out["analysis.conflicts"] = counts.get("analysis.conflicts", 0) / ops
    out["paths.queries"] = counts.get("paths.distance.calls", 0) / ops
    out["lisp.eval.crossings"] = counts.get("lisp.eval.crossings", 0) / ops
    out["runtime.sim_ticks"] = counts.get("runtime.sim_ticks", 0) / ops
    out["runtime.ticks_per_ms"] = (counts.get("runtime.sim_ticks", 0)
                                   / run_ms if run_ms else 0.0)
    out["runtime.lock_contentions"] = (
        counts.get("runtime.lock_contentions", 0) / ops)
    out["runtime.utilization"] = (counts.get("runtime.utilization_sum", 0)
                                  / runs if runs else 0.0)
    out["runtime.fault_ticks"] = counts.get("runtime.fault_ticks", 0) / ops
    out["runtime.racecheck.crossings"] = (
        counts.get("runtime.racecheck.crossings", 0) / ops)
    for name in CACHE_RATIOS:
        stats = cache_delta.get(name, {})
        lookups = stats.get("hits", 0) + stats.get("misses", 0)
        out[f"perf.{name}.hit_ratio"] = (stats.get("hits", 0) / lookups
                                         if lookups else 0.0)
    out["trace_overhead"] = traced_s / untraced_s if untraced_s else 0.0
    return out
