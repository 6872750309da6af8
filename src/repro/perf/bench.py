"""The pinned performance suite behind ``repro bench``.

Five cases cover the hot paths of the engine:

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

Each case is compared with a committed report (``BENCH_perf.json``) on
two things:

* **Counted work**, exactly.  The counters the engine's flight recorder
  emits for the case (``machine.*``, ``pipeline.*``, ``harness.runs``)
  plus each cache's hits and misses in one cold iteration
  (``perf.cache.<name>.hits``/``.misses``).  The work is deterministic,
  so every measured iteration must give the same counts or
  :func:`_measure` raises.  A change that does more or less work moves
  a count, with no noise.
* **Normalised time**, bounded by ``--max-regress``.  Each iteration's
  wall time is divided by the mean of two readings of a fixed
  pure-Python yardstick (:mod:`repro.perf.yardstick`), one taken just
  before the iteration and one just after, and the report keeps the
  median over the iterations.  A host that slows down slows both
  halves of the ratio; reading the yardstick beside every iteration,
  not once per run, is what keeps the ratio steady when the host's
  speed drifts within a run.  Yardstick ratios differ between Python
  versions, so a report is only compared under the ``major.minor``
  version it was made with.

Every measured iteration is a cold start: :func:`~repro.perf.clear_caches`
runs before it, so the counts do not depend on suite order.  Intern
tables are exempt by design (interned objects are immortal); the
warm-up run fills them before any measured iteration.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from typing import Any, Callable, Dict, Iterable, Optional

from repro.obs.recorder import Recorder
from repro.perf import cache_stats, clear_caches
from repro.perf.yardstick import reading

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


def case_pipeline(recorder: Recorder) -> None:
    from repro.lisp.interpreter import Interpreter
    from repro.transform.pipeline import Curare

    interp = Interpreter()
    curare = Curare(interp, assume_sapp=True, recorder=recorder)
    corpus = _pipeline_corpus()
    for program, _ in corpus:
        curare.load_program(program)
    for _, fname in corpus:
        curare.transform(fname)


def _replay(name: str, recorder: Recorder) -> None:
    from repro.obs.workloads import run_trace_workload, trace_workloads

    run_trace_workload(trace_workloads()[name], recorder)


def case_fig07_replay(recorder: Recorder) -> None:
    _replay("fig07", recorder)


def case_fig10_replay(recorder: Recorder) -> None:
    _replay("fig10", recorder)


def case_a10_search(recorder: Recorder) -> None:
    from repro.lisp.interpreter import Interpreter
    from repro.runtime.clock import FREE_SYNC
    from repro.runtime.machine import Machine
    from repro.transform.pipeline import Curare

    for procs in (1, 4):
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True, recorder=recorder)
        curare.load_program(_A10_SRC)
        curare.transform("probe")
        curare.runner.eval_text(_A10_MISS_HEAVY)
        machine = Machine(interp, processors=procs, cost_model=FREE_SYNC,
                          recorder=recorder)
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


def case_a12_sapp(recorder: Recorder) -> None:
    """No recorder hooks on this path: its counted work is the cache
    traffic."""
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
BENCH_CASES: Dict[str, tuple[str, Callable[[Recorder], None]]] = {
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




def _cache_counts() -> Dict[str, int]:
    return {
        f"perf.cache.{name}.{field}": stats[field]
        for name, stats in cache_stats().items()
        for field in ("hits", "misses")
    }


def _measure(fn: Callable[[Recorder], None], repeats: int) -> Dict[str, Any]:
    """Median ``ms``, ``yardstick_ms`` and ``normalized`` time and the
    ``counts`` of ``repeats`` cold-start iterations.

    Raises when two iterations count different work: the case is
    deterministic, so a difference means state leaked from one
    iteration into the next.
    """
    times: list[float] = []
    yardsticks: list[float] = []
    normalised: list[float] = []
    counts: Optional[Dict[str, int]] = None
    gc_was_enabled = gc.isenabled()
    for _ in range(repeats):
        clear_caches()
        recorder = Recorder()
        before = _cache_counts()
        # Collect outside the timed region and keep the collector off
        # inside it: cycle-collection pauses land on random iterations.
        gc.collect()
        gc.disable()
        try:
            ahead = reading()
            start = time.perf_counter()
            fn(recorder)
            took = time.perf_counter() - start
            behind = reading()
        finally:
            if gc_was_enabled:
                gc.enable()
        work = {
            name: value
            for name, value in recorder.metrics.counter_values().items()
            if value and not name.startswith("perf.cache.")
        }
        for name, value in _cache_counts().items():
            if value != before.get(name, 0):
                work[name] = value - before.get(name, 0)
        work = dict(sorted(work.items()))
        if counts is None:
            counts = work
        elif work != counts:
            drifted = sorted(
                name for name in counts.keys() | work.keys()
                if counts.get(name) != work.get(name)
            )
            raise RuntimeError(
                "counted work differs between measured iterations: "
                + ", ".join(drifted)
            )
        stick = (ahead + behind) / 2.0
        times.append(took * 1000.0)
        yardsticks.append(stick * 1000.0)
        normalised.append(took / stick)
    return {
        "ms": round(statistics.median(times), 3),
        "yardstick_ms": round(statistics.median(yardsticks), 3),
        "normalized": round(statistics.median(normalised), 4),
        "counts": counts,
    }


def run_suite(
    repeats: int = 9, cases: Optional[Iterable[str]] = None
) -> Dict[str, Any]:
    """Run the suite and return the report dict."""
    selected = list(cases) if cases is not None else list(BENCH_CASES)
    unknown = [name for name in selected if name not in BENCH_CASES]
    if unknown:
        raise ValueError(f"unknown bench case(s): {', '.join(unknown)}")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")

    # The envelope (schema_version / kind / body) is added by writers:
    # this is the body of a "perf-bench" report (see repro.envelope).
    report: Dict[str, Any] = {
        "repeats": repeats,
        "python": sys.version.split()[0],
        "cases": {},
    }
    for name in selected:
        description, fn = BENCH_CASES[name]
        fn(Recorder())  # warm up imports, bytecode and intern tables
        report["cases"][name] = {"description": description,
                                 **_measure(fn, repeats)}
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
    if not isinstance(obj.get("python"), str):
        problems.append("missing 'python' version string")
    for name, case in cases.items():
        if not isinstance(case, dict):
            problems.append(f"cases[{name!r}] is not an object")
            continue
        norm = case.get("normalized")
        if not isinstance(norm, (int, float)) or isinstance(norm, bool) \
                or norm <= 0:
            problems.append(
                f"cases[{name!r}].normalized missing or not a positive number"
            )
        counts = case.get("counts")
        if not isinstance(counts, dict) or not all(
            isinstance(value, int) and not isinstance(value, bool)
            for value in counts.values()
        ):
            problems.append(
                f"cases[{name!r}].counts missing or not an object of integers"
            )
    return problems


def compare_reports(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regress_pct: float,
) -> list[str]:
    """Regression check; returns failure messages (empty = pass).

    Every count of every baseline case must match exactly, and the
    normalised time may exceed the baseline's by at most
    ``max_regress_pct`` percent.
    """
    failures: list[str] = []
    allowed = 1.0 + max_regress_pct / 100.0
    for name, base_case in baseline.get("cases", {}).items():
        current_case = current.get("cases", {}).get(name)
        if current_case is None:
            failures.append(f"{name}: case missing from current report")
            continue
        base_counts = base_case["counts"]
        cur_counts = current_case["counts"]
        for counter in sorted(base_counts.keys() | cur_counts.keys()):
            was = base_counts.get(counter, 0)
            now = cur_counts.get(counter, 0)
            if now != was:
                failures.append(
                    f"{name}: {counter} counted {now}, baseline {was}"
                )
        base_norm = base_case["normalized"]
        cur_norm = current_case["normalized"]
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


def format_report(report: Dict[str, Any]) -> str:
    """Per-case results as a GitHub-flavored markdown table: printed by
    ``repro bench`` and written to ``$GITHUB_STEP_SUMMARY`` by the CI
    perf job.  The counts themselves are in the JSON report."""
    lines = [
        "| case | ms | yardstick (ms) | normalized | counters |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for name, case in report["cases"].items():
        lines.append(
            f"| `{name}` | {case['ms']:.1f} | {case['yardstick_ms']:.2f} "
            f"| {case['normalized']:.3f} | {len(case['counts'])} |"
        )
    return "\n".join(lines)
