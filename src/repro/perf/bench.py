"""The pinned performance suite behind ``repro bench``.

Five cases cover the hot paths the perf layer touches:

* ``pipeline`` — end-to-end Curare (load → analyze → transform) over a
  corpus of paper workloads plus reference-dense list walkers.  This is
  where the analysis caches earn their keep: the corpus shares transfer
  functions and accessor shapes across functions, so the swept distance
  enumeration and the DFA cache collapse most of the automaton work.
* ``fig07_replay`` / ``fig10_replay`` — transform + concurrent replay of
  the two trace workloads, exercising the machine stepper end to end.
* ``a10_search`` — the any-result parallel search (transform + machine
  sweep), a scheduler-heavy workload.
* ``a12_sapp`` — the SAPP survey over concrete heap shapes, exercising
  the canonicalizer and path algebra.

Methodology
-----------

Every case runs in two modes **in the same process**:

* *baseline* — :func:`~repro.perf.perf_disabled` plus the ticker
  stepper: the pre-layer analyzer and machine (``always_on`` memo
  tables stay active because they predate the layer).
* *optimized* — the defaults: caches + interning on, heap stepper.

Both modes call :func:`~repro.perf.clear_caches` at every measured
iteration boundary, so each measured iteration is a cold start and the
comparison is cache-architecture versus cache-architecture, not warm
versus cold.  That claim is *enforced*, not assumed: after each clear
the harness asserts every LRU cache is empty, and per-iteration
hit/miss counter deltas are compared between the first and last
iteration — identical deltas mean iteration N started from the same
cache state as iteration 1, so process-global warmth cannot skew the
baseline-vs-optimized ratio.  (Intern tables are exempt by design:
interned objects are immortal, and the warm-up pass populates them
before any measured iteration.)  Reported times are the *minimum* of
``repeats`` iterations — the ``timeit`` convention: the minimum is the
least-noise estimate of the code's intrinsic cost, because scheduler
preemption and host contention only ever add time.  Both modes use the
same aggregator, so the ratio stays an apples-to-apples comparison.

The report is JSON (``BENCH_perf.json``).  Regression gating compares
*normalized* time — ``optimized_ms / baseline_ms`` measured within one
run — which is stable across machines of different absolute speed; see
:func:`compare_reports`.
"""

from __future__ import annotations

import gc
import sys
import time
from typing import Any, Callable, Dict, Iterable, Optional

from repro.perf import (
    cache_stats,
    clear_caches,
    perf_disabled,
    stepper_override,
)

#: The acceptance gate is the combined speedup over these cases.
GATE_CASES = ("pipeline", "fig10_replay")

_A10_SRC = """
(declaim (any-result probe) (pure slow-test))
(defun slow-test (x)
  (let ((i 0)) (while (< i 30) (setq i (1+ i))) (> x 100)))
(defun probe (lst)
  (cond ((null lst) nil)
        ((slow-test (car lst)) (car lst))
        (t (probe (cdr lst)))))
"""

_A10_MISS_HEAVY = "(setq d (list " + " ".join(["1"] * 15) + " 150))"

# Reference-dense list walkers: many reads/writes at varying depths
# against one cdr/cdr² transfer function — the shape that stresses the
# conflict survey (dozens of (A1, A2, τ, d) queries per function).
_DENSE_WALK = """
(defun {name} (l)
  (cond ((null l) nil)
        (t (setf (car l) (+ (car l) 1))
           (setf (car (cdr l)) (car (cdr (cdr l))))
           (setf (car (cdr (cdr l))) (car l))
           (setf (cdr (cdr (cdr (cdr l)))) (cdr (cdr l)))
           ({name} (cdr l)))))
"""

_DENSE_PAIR = """
(defun {name} (l acc)
  (cond ((null l) acc)
        (t (setf (car l) acc)
           (setf (car (cdr l)) (car (cdr (cdr (cdr l)))))
           ({name} (cdr (cdr l)) (+ acc (car l))))))
"""

_DEEP_WALK = """
(defun {name} (l)
  (cond ((null l) nil)
        (t (setf (car l) (car (cdr (cdr l))))
           (setf (car (cdr l)) (+ (car l) 1))
           (setf (car (cdr (cdr l))) (car (cdr (cdr (cdr (cdr l))))))
           (setf (cdr (cdr (cdr (cdr l)))) (cdr (cdr l)))
           (setf (car (cdr (cdr (cdr l)))) (car (cdr l)))
           ({name} (cdr l)))))
"""

_TREE_WALK = """
(defstruct tn left right val)
(defun {name} (n)
  (cond ((null n) nil)
        (t (setf (tn-val n) (+ (tn-val n) 1))
           (setf (tn-val (tn-left n)) (tn-val (tn-right n)))
           (setf (tn-left (tn-left n)) (tn-right (tn-left n)))
           ({name} (tn-left n))
           ({name} (tn-right n)))))
"""


def _pipeline_corpus() -> list[tuple[str, str]]:
    """(program, fname) pairs, unique by fname (later defs would clobber
    earlier ones inside the shared interpreter)."""
    from repro.harness.chaos import paper_workloads
    from repro.obs.workloads import trace_workloads

    corpus: list[tuple[str, str]] = []
    seen: set[str] = set()

    def add(program: str, fname: str) -> None:
        if fname not in seen:
            seen.add(fname)
            corpus.append((program, fname))

    for workload in paper_workloads(8):
        add(workload.program, workload.fname)
    add(_A10_SRC, "probe")
    traces = trace_workloads()
    for name in ("fig03", "fig04", "fig05", "fig07", "fig10", "remq", "tree"):
        if name in traces:
            add(traces[name].program, traces[name].fname)
    for i in range(4):
        add(_DENSE_WALK.format(name=f"walk{i}"), f"walk{i}")
        add(_DENSE_PAIR.format(name=f"pair{i}"), f"pair{i}")
        add(_DEEP_WALK.format(name=f"deep{i}"), f"deep{i}")
        add(_TREE_WALK.format(name=f"tw{i}"), f"tw{i}")
    return corpus


def case_pipeline() -> None:
    from repro.lisp.interpreter import Interpreter
    from repro.transform.pipeline import Curare

    interp = Interpreter()
    curare = Curare(interp, assume_sapp=True)
    corpus = _pipeline_corpus()
    for program, _ in corpus:
        curare.load_program(program)
    for _, fname in corpus:
        curare.transform(fname)


def _replay(name: str) -> None:
    from repro.obs.recorder import Recorder
    from repro.obs.workloads import run_trace_workload, trace_workloads

    run_trace_workload(trace_workloads()[name], Recorder())


def case_fig07_replay() -> None:
    _replay("fig07")


def case_fig10_replay() -> None:
    _replay("fig10")


def case_a10_search() -> None:
    from repro.lisp.interpreter import Interpreter
    from repro.runtime.clock import FREE_SYNC
    from repro.runtime.machine import Machine
    from repro.transform.pipeline import Curare

    for procs in (1, 4):
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(_A10_SRC)
        curare.transform("probe")
        curare.runner.eval_text(_A10_MISS_HEAVY)
        machine = Machine(interp, processors=procs, cost_model=FREE_SYNC)
        machine.spawn_text("(setq hit (probe-cc d))")
        machine.run()
        hit = interp.globals.lookup("hit")
        if hit != 150:
            raise RuntimeError(f"a10 search returned {hit!r}, expected 150")


_A12_SHAPES = [
    ("fresh list", "(setq r (list 1 2 3 4 5))", False),
    ("nested tree", "(setq r (list 1 (list 2 (list 3)) 4))", False),
    (
        "shared tail",
        "(setq tail (list 8 9)) (setq r (cons (append (list 1) tail) tail))",
        False,
    ),
    ("cycle", "(setq r (list 1 2)) (setf (cddr r) r)", False),
    (
        "doubly-linked",
        """(defstruct dn succ pred)
           (setq a (make-dn nil nil)) (setq b (make-dn nil a))
           (setf (dn-succ a) b) (setq r a)""",
        True,
    ),
]


def case_a12_sapp() -> None:
    from repro.lisp.interpreter import Interpreter
    from repro.lisp.runner import SequentialRunner
    from repro.paths.canonical import Canonicalizer, InversePair
    from repro.paths.sapp import check_sapp

    for _label, setup, canonicalize in _A12_SHAPES:
        interp = Interpreter()
        runner = SequentialRunner(interp)
        runner.eval_text(setup)
        root = interp.globals.lookup("r")
        if canonicalize:
            check_sapp(root, Canonicalizer([InversePair("succ", "pred")]))
            check_sapp(root)
        else:
            check_sapp(root)


#: name -> (description, callable).  Order is report order.
BENCH_CASES: Dict[str, tuple[str, Callable[[], None]]] = {
    "pipeline": (
        "end-to-end Curare over the workload corpus (one interpreter)",
        case_pipeline,
    ),
    "fig07_replay": (
        "transform + concurrent replay of the fig07 trace workload",
        case_fig07_replay,
    ),
    "fig10_replay": (
        "transform + concurrent replay of the fig10 trace workload",
        case_fig10_replay,
    ),
    "a10_search": (
        "any-result parallel search: transform + machine sweep",
        case_a10_search,
    ),
    "a12_sapp": (
        "SAPP survey over concrete heap shapes",
        case_a12_sapp,
    ),
}


def _assert_cold() -> None:
    """Every LRU cache must be empty at an iteration boundary."""
    dirty = [
        name
        for name, stats in cache_stats().items()
        if "maxsize" in stats and stats["size"]  # LRU caches only
    ]
    if dirty:
        raise RuntimeError(
            f"caches not cold at iteration start: {', '.join(sorted(dirty))}"
        )


def _counter_snapshot() -> Dict[str, tuple]:
    return {
        name: (stats["hits"], stats["misses"], stats.get("bypasses", 0))
        for name, stats in cache_stats().items()
    }


def _iteration_delta(
    before: Dict[str, tuple], after: Dict[str, tuple]
) -> Dict[str, tuple]:
    return {
        name: tuple(b - a for b, a in zip(now, before.get(name, (0,) * 3)))
        for name, now in after.items()
    }


def _measure(fn: Callable[[], None], repeats: int) -> float:
    """Minimum wall time of ``repeats`` cold-start iterations, in ms.

    Enforces the cold-start claim at every measured-iteration boundary:
    the caches are cleared *and verified empty* before each iteration,
    and the per-iteration cache-counter deltas of the first and last
    iteration must match exactly — a deterministic workload starting
    from identical cache state produces identical hit/miss/bypass
    profiles, so any mismatch means warmth leaked across iterations.
    """
    times = []
    deltas = []
    gc_was_enabled = gc.isenabled()
    for _ in range(repeats):
        clear_caches()
        _assert_cold()
        before = _counter_snapshot()
        # Collect outside the timed region and keep the collector off
        # inside it: cycle-collection pauses land on random iterations
        # and would skew the baseline/optimized ratio by luck of the
        # draw.  Applied identically to both modes.
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            fn()
            times.append((time.perf_counter() - start) * 1000.0)
        finally:
            if gc_was_enabled:
                gc.enable()
        deltas.append(_iteration_delta(before, _counter_snapshot()))
    if deltas[0] != deltas[-1]:
        drifted = sorted(
            name
            for name in set(deltas[0]) | set(deltas[-1])
            if deltas[0].get(name) != deltas[-1].get(name)
        )
        raise RuntimeError(
            "cache state leaked across measured iterations "
            f"(first vs last hit/miss/bypass deltas differ): "
            f"{', '.join(drifted)}"
        )
    return min(times)


def run_suite(
    repeats: int = 5, cases: Optional[Iterable[str]] = None
) -> Dict[str, Any]:
    """Run the suite in both modes and return the report dict."""
    selected = list(cases) if cases is not None else list(BENCH_CASES)
    unknown = [name for name in selected if name not in BENCH_CASES]
    if unknown:
        raise ValueError(f"unknown bench case(s): {', '.join(unknown)}")

    # The envelope (schema_version / kind / body) is added by writers:
    # this is the body of a "perf-bench" report (see repro.envelope).
    report: Dict[str, Any] = {
        "repeats": repeats,
        "python": sys.version.split()[0],
        "cases": {},
    }

    hit_counters: Dict[str, Dict[str, Any]] = {}
    for name in selected:
        description, fn = BENCH_CASES[name]
        fn()  # warm up code paths (imports, bytecode) outside timing
        before = cache_stats()
        optimized_ms = _measure(fn, repeats)
        after = cache_stats()
        with perf_disabled(), stepper_override("ticker"):
            baseline_ms = _measure(fn, repeats)
        report["cases"][name] = {
            "description": description,
            "baseline_ms": round(baseline_ms, 3),
            "optimized_ms": round(optimized_ms, 3),
            "speedup": round(baseline_ms / optimized_ms, 3),
            "normalized": round(optimized_ms / baseline_ms, 4),
            # _measure raises if any iteration starts warm or the
            # first/last iteration cache profiles diverge.
            "cold_start_verified": True,
        }
        for cache, stats in after.items():
            prior = before.get(cache, {})
            hits = stats["hits"] - prior.get("hits", 0)
            misses = stats["misses"] - prior.get("misses", 0)
            entry = hit_counters.setdefault(cache, {"hits": 0, "misses": 0})
            entry["hits"] += hits
            entry["misses"] += misses

    report["cache_hit_rates"] = {
        cache: {
            "hits": entry["hits"],
            "misses": entry["misses"],
            "hit_rate": round(
                entry["hits"] / (entry["hits"] + entry["misses"]), 4
            )
            if entry["hits"] + entry["misses"]
            else 0.0,
        }
        for cache, entry in sorted(hit_counters.items())
        if entry["hits"] + entry["misses"]
    }

    gate = [n for n in GATE_CASES if n in report["cases"]]
    if gate:
        base_total = sum(report["cases"][n]["baseline_ms"] for n in gate)
        opt_total = sum(report["cases"][n]["optimized_ms"] for n in gate)
        report["combined"] = {
            "cases": gate,
            "baseline_ms": round(base_total, 3),
            "optimized_ms": round(opt_total, 3),
            "speedup": round(base_total / opt_total, 3),
        }
    return report


def validate_report(obj: Any) -> list[str]:
    """Schema-check a (baseline) report dict before comparing against it.

    Returns a list of problems; empty means the report is usable by
    :func:`compare_reports`.  The CLI turns a non-empty list into a
    one-line exit-2 diagnostic instead of a ``KeyError``/``TypeError``
    traceback from deep inside the comparison.
    """
    if not isinstance(obj, dict):
        return [f"report must be a JSON object, got {type(obj).__name__}"]
    cases = obj.get("cases")
    if not isinstance(cases, dict) or not cases:
        return ["missing or empty 'cases' object"]
    problems: list[str] = []
    for name, case in cases.items():
        if not isinstance(case, dict):
            problems.append(f"cases[{name!r}] is not an object")
            continue
        for fieldname in ("baseline_ms", "optimized_ms"):
            value = case.get(fieldname)
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or value <= 0:
                problems.append(
                    f"cases[{name!r}].{fieldname} missing or not a "
                    "positive number"
                )
    return problems


def compare_reports(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regress_pct: float,
) -> list[str]:
    """Regression check; returns failure messages (empty = pass).

    Comparison is on *normalized* time (``optimized_ms / baseline_ms``
    within each run) so a faster or slower CI machine does not shift
    the verdict: only the optimized path regressing relative to the
    same-process baseline trips the gate.
    """
    failures: list[str] = []
    allowed = 1.0 + max_regress_pct / 100.0
    for name, base_case in baseline.get("cases", {}).items():
        current_case = current.get("cases", {}).get(name)
        if current_case is None:
            failures.append(f"{name}: case missing from current report")
            continue
        base_norm = base_case["optimized_ms"] / base_case["baseline_ms"]
        cur_norm = current_case["optimized_ms"] / current_case["baseline_ms"]
        if cur_norm > base_norm * allowed:
            regress = (cur_norm / base_norm - 1.0) * 100.0
            failures.append(
                f"{name}: normalized time {cur_norm:.3f} vs baseline "
                f"{base_norm:.3f} (+{regress:.0f}%, allowed "
                f"+{max_regress_pct:.0f}%)"
            )
    return failures


def missing_cases(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> list[str]:
    """Names of baseline cases absent from the current report.

    A missing case is a *configuration* problem (renamed case, filtered
    run, stale baseline), not a perf regression — the CLI reports it as
    a distinct exit-2 diagnostic instead of folding it into the
    regression failures.
    """
    current_cases = current.get("cases", {})
    return [
        name for name in baseline.get("cases", {}) if name not in current_cases
    ]


def min_speedup_failures(
    report: Dict[str, Any], floor: float
) -> list[str]:
    """Per-case speedup-floor check; returns failure messages.

    Unlike :func:`compare_reports` this needs no baseline file: every
    case's in-run speedup (``baseline_ms / optimized_ms``) must be at
    least ``floor``.  The CI gate runs it with ``--min-speedup 1.0`` so
    the optimized layer can never silently regress below the reference
    interpreter on any case.
    """
    failures: list[str] = []
    for name, case in report.get("cases", {}).items():
        speedup = case["baseline_ms"] / case["optimized_ms"]
        if speedup < floor:
            failures.append(
                f"{name}: speedup {speedup:.3f}x below floor {floor:.2f}x "
                f"({case['optimized_ms']:.1f}ms optimized vs "
                f"{case['baseline_ms']:.1f}ms baseline)"
            )
    return failures


def markdown_report(report: Dict[str, Any]) -> str:
    """Per-case results as a GitHub-flavored markdown table.

    Written to ``$GITHUB_STEP_SUMMARY`` by the CI perf job so the
    numbers appear on the workflow run page without digging into logs.
    """
    lines = [
        "### Perf suite",
        "",
        "| case | baseline (ms) | optimized (ms) | speedup |",
        "| --- | ---: | ---: | ---: |",
    ]
    for name, case in report["cases"].items():
        lines.append(
            f"| `{name}` | {case['baseline_ms']:.1f} "
            f"| {case['optimized_ms']:.1f} | {case['speedup']:.2f}x |"
        )
    combined = report.get("combined")
    if combined:
        lines.append(
            f"| **combined ({'+'.join(combined['cases'])})** "
            f"| {combined['baseline_ms']:.1f} "
            f"| {combined['optimized_ms']:.1f} "
            f"| **{combined['speedup']:.2f}x** |"
        )
    lines.append("")
    return "\n".join(lines)


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of a report dict."""
    lines = [
        f"{'case':<14} {'baseline':>10} {'optimized':>10} {'speedup':>8}"
    ]
    for name, case in report["cases"].items():
        lines.append(
            f"{name:<14} {case['baseline_ms']:>8.1f}ms "
            f"{case['optimized_ms']:>8.1f}ms {case['speedup']:>7.2f}x"
        )
    combined = report.get("combined")
    if combined:
        lines.append(
            f"{'combined(' + '+'.join(combined['cases']) + ')':<14} "
            f"{combined['baseline_ms']:>8.1f}ms "
            f"{combined['optimized_ms']:>8.1f}ms "
            f"{combined['speedup']:>7.2f}x"
        )
    rates = report.get("cache_hit_rates", {})
    if rates:
        lines.append("cache hit rates (optimized runs):")
        for cache, entry in rates.items():
            lines.append(
                f"  {cache:<24} {entry['hit_rate']:>6.1%} "
                f"({entry['hits']} hits / {entry['misses']} misses)"
            )
    return "\n".join(lines)
