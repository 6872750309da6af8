"""The stable public facade over the Curare engine.

Every hosting layer — the ``repro`` CLI, the ``repro serve`` service,
notebooks, benchmarks — calls the engine through these four functions
and nothing else:

* :func:`analyze` — the §2/§3 conflict analysis and §6 feedback report;
* :func:`transform` — restructure one function (or the whole program);
* :func:`run` — evaluate an expression on the simulated multiprocessor;
* :func:`sweep` — run a parameter-sweep grid through the scale-out
  driver and result cache.

Each returns a **frozen dataclass** with a deterministic ``to_dict()``
/ ``to_json()``: identical inputs produce identical JSON except for the
``"wall"`` section (wall-clock measurements), which
:func:`strip_wall` removes.  That determinism is what makes results
cacheable, coalescable (the server computes identical in-flight
requests once), and byte-comparable between hosting layers — the
output-equivalence discipline the restructurer itself lives by.

Errors are typed: :class:`BadRequest` for caller mistakes (unknown
fault plan, unknown grid, bad options), :class:`TransformRefused` when
Curare declines a prerequisite transform, :class:`EngineError` for
failures inside the engine.  Hosting layers map ``err.code`` onto their
own vocabulary (CLI exit codes, server error responses).
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

__all__ = [
    "AnalysisResult",
    "ApiError",
    "BadRequest",
    "EngineError",
    "RunOptions",
    "RunResult",
    "SweepOptions",
    "SweepReport",
    "TransformOptions",
    "TransformRefused",
    "TransformResult",
    "analyze",
    "canonical_json",
    "content_digest",
    "engine_fingerprints",
    "open_cache_store",
    "open_op_cache",
    "run",
    "strip_wall",
    "sweep",
    "sweep_grids",
    "transform",
]


# ---------------------------------------------------------------------------
# errors

class ApiError(Exception):
    """Base class for facade errors; ``code`` is the stable vocabulary
    hosting layers translate (exit codes, server error responses)."""

    code = "internal"


class BadRequest(ApiError):
    """The caller asked for something that does not exist or cannot be
    expressed: unknown fault plan, unknown grid, invalid option."""

    code = "bad_request"


class TransformRefused(ApiError):
    """Curare declined a transform that a later step depended on."""

    code = "transform_refused"


class EngineError(ApiError):
    """The engine failed while executing a well-formed request
    (Lisp evaluation error, machine abort, ...)."""

    code = "engine_error"


# ---------------------------------------------------------------------------
# serialization helpers

def canonical_json(obj: Any) -> str:
    """The one canonical serialization (sorted keys, no whitespace) —
    the same convention :mod:`repro.scale.cache` hashes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def content_digest(obj: Any) -> str:
    """SHA-256 of the canonical JSON of ``obj`` — the content-addressed
    digest the result cache and the server's single-flight table key on."""
    from repro.scale.cache import sha256_text

    return sha256_text(canonical_json(obj))


def strip_wall(body: Mapping[str, Any]) -> Dict[str, Any]:
    """A result dict minus its ``"wall"`` section — the deterministic
    part two hosting layers must agree on byte-for-byte."""
    return {k: v for k, v in body.items() if k != "wall"}


# ---------------------------------------------------------------------------
# result-cache facade (the serve/fleet layers may not import the engine
# directly; the cache server and the router open their stores here)

def open_cache_store(root: "str | Any") -> Any:
    """The on-disk entry store ``repro cache-serve`` hosts: a
    :class:`repro.scale.cache.ResultCache` (whole-entry ``get_entry`` /
    ``put_entry`` reads and writes, integrity-verified both ways)."""
    from repro.scale.cache import ResultCache

    return ResultCache(root)


def open_op_cache(server: str, local_dir: Optional[str] = None,
                  **kwargs: Any) -> Any:
    """A client for the shared cache keyed at the facade-op level —
    what serve shards and the router consult before computing.  Never
    raises from ``get``/``put``; a dead server degrades to local-only
    (or to a plain miss when ``local_dir`` is None)."""
    from repro.scale.cacheclient import OpCache

    return OpCache(server, local_root=local_dir, **kwargs)


def engine_fingerprints() -> Dict[str, str]:
    """The per-stage code fingerprints of *this* process's engine
    (:mod:`repro.scale.fingerprint`) — surfaced in ``stats`` ops so
    operators can spot mixed code versions across a fleet."""
    from repro.scale.fingerprint import stage_fingerprints

    return stage_fingerprints()


def _num(value: Any) -> Any:
    """JSON-safe number: non-finite floats become strings (strict JSON
    has no Infinity/NaN)."""
    if isinstance(value, float) and (value != value or value in
                                     (float("inf"), float("-inf"))):
        return str(value)
    if value is None or isinstance(value, (int, float)):
        return value
    return str(value)


class _Result:
    """Shared ``to_dict``/``to_json`` plumbing for the result types."""

    kind = ""

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        for f in fields(self):  # type: ignore[arg-type]
            if f.name == "wall_ms":
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = _untuple(value)
            out[f.name] = value
        out["wall"] = {"ms": round(self.wall_ms, 3)}  # type: ignore[attr-defined]
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        """Deterministic JSON: keys are always sorted, so two results
        built from identical inputs serialize byte-identically (modulo
        the ``"wall"`` section)."""
        if indent is None:
            return canonical_json(self.to_dict())
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          ensure_ascii=False) + "\n"


def _untuple(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_untuple(v) for v in value]
    return value


_GENSYM_RE = re.compile(r"#:([A-Za-z-]+)(\d+)\b")


class _GensymNames(Dict[str, str]):
    """Symbol name -> printed name: ``#:prefixN`` gensyms renumbered in
    order of first encounter, every other name unchanged."""

    def __init__(self) -> None:
        super().__init__()
        self.renumbered: Dict[str, str] = {}

    def rename(self, text: str) -> str:
        return _GENSYM_RE.sub(self._renumber, text)

    def _renumber(self, match: "re.Match[str]") -> str:
        original = match.group(0)
        if original not in self.renumbered:
            self.renumbered[original] = (
                f"#:{match.group(1)}{len(self.renumbered)}")
        return self.renumbered[original]

    def __missing__(self, name: str) -> str:
        self[name] = printed = self.rename(name) if "#:" in name else name
        return printed


def _canonical_rendering(
    report_text: str, forms: Tuple[Tuple[Any, ...], ...]
) -> Tuple[str, Tuple[Tuple[str, ...], ...]]:
    """Pretty-print ``forms`` (groups of datum forms) with ``#:prefixN``
    gensyms renumbered in first-appearance order, ``report_text`` first.

    The transformer draws gensyms from a process-global counter, so
    two calls on identical input would otherwise render differently —
    breaking the facade's identical-inputs → identical-JSON contract
    (and with it CLI/serve parity and single-flight coalescing).  The
    printer is handed the new names, because it chooses line breaks by
    the length of the names it prints; it meets every symbol of a form
    first in one flat pass, in text order, so numbering on first
    encounter is first-appearance order.  The renaming is injective
    (distinct originals get distinct indices), so uniqueness within one
    result is preserved.
    """
    from repro.sexpr.printer import pretty_str

    names = _GensymNames()
    return names.rename(report_text), tuple(
        tuple(pretty_str(form, names=names) for form in group)
        for group in forms
    )


# ---------------------------------------------------------------------------
# options

@dataclass(frozen=True)
class TransformOptions:
    """Knobs of the §3–§5 restructuring pipeline (the CLI flags of
    ``repro transform``, as data)."""

    mode: str = "spawn"  # "spawn" | "enqueue"
    suffix: str = "-cc"
    #: Release each lock right after its last use on each path (the
    #: protocol); False holds every lock to the end of the invocation,
    #: kept as bench A8's comparison arm.
    early_release: bool = True
    use_delay: bool = False
    prefer_dps: bool = True
    whole_program: bool = False
    assume_sapp: bool = False


@dataclass(frozen=True)
class RunOptions:
    """Simulated-machine configuration for :func:`run`."""

    processors: int = 4
    transform: Tuple[str, ...] = ()  # functions to transform first
    assume_sapp: bool = False
    free_sync: bool = False
    seed: Optional[int] = None
    faults: Optional[str] = None  # fault-plan name, seeded by ``seed``
    race_check: bool = False
    lock_wait_timeout: Optional[int] = None
    timeline: bool = False
    # "interpreter" | "compiled" | None (None = compiled).  Both
    # evaluators give identical runs; the interpreter is the reference.
    eval_mode: Optional[str] = None


@dataclass(frozen=True)
class SweepOptions:
    """Scale-out sweep configuration for :func:`sweep`."""

    workers: int = 0
    job_timeout: Optional[float] = 300.0
    cache_dir: Optional[str] = None
    #: ``host:port`` of a ``repro cache-serve`` instance; workers read
    #: and write through it (write-through to ``cache_dir`` when both
    #: are set).  A dead server degrades to per-machine caching.
    cache_server: Optional[str] = None


# ---------------------------------------------------------------------------
# results

@dataclass(frozen=True)
class AnalysisResult(_Result):
    """The §6 feedback report, as data plus the rendered text."""

    kind = "analysis"

    function: str
    transformable: bool
    concurrency: Any  # analytic concurrency (may be non-finite → str)
    lock_bound: Any  # min conflict distance (None when conflict-free)
    lines: Tuple[str, ...] = ()
    suggestions: Tuple[str, ...] = ()
    text: str = ""
    wall_ms: float = 0.0


@dataclass(frozen=True)
class TransformResult(_Result):
    """One restructuring outcome: the report plus the emitted source.

    ``forms`` holds the pretty-printed emitted code: one group per
    transformed function, each group being the final ``defun`` followed
    by its wrapper forms — exactly what the CLI prints.
    """

    kind = "transform"

    function: str
    transformed: bool
    transformed_name: Optional[str]
    reason: str = ""
    report_text: str = ""
    functions: Tuple[str, ...] = ()
    forms: Tuple[Tuple[str, ...], ...] = ()
    lock_count: int = 0
    wall_ms: float = 0.0


@dataclass(frozen=True)
class RunResult(_Result):
    """One simulated-machine execution, every observable the CLI
    prints: the value, the outputs, the machine statistics, and the
    robustness-layer summaries."""

    kind = "run"

    value: str
    outputs: Tuple[str, ...] = ()
    total_time: int = 0
    processes: int = 0
    mean_concurrency: float = 0.0
    utilization: float = 0.0
    transformed: Tuple[str, ...] = ()
    seed: Optional[int] = None
    fault_plan: Optional[str] = None
    faults_injected: int = 0
    races: Optional[str] = None
    timeline: Optional[str] = None
    wall_ms: float = 0.0


@dataclass(frozen=True)
class SweepReport(_Result):
    """A whole sweep: the versioned report envelope plus accessors.

    Unlike the other results, the body here *is* the envelope document
    ``repro sweep`` writes (kind ``"sweep"``); ``to_json`` returns the
    canonical on-disk serialization of that envelope.
    """

    kind = "sweep"

    grid: str
    workers: int
    envelope: Mapping[str, Any] = field(default_factory=dict)
    wall_ms: float = 0.0

    @property
    def body(self) -> Mapping[str, Any]:
        return self.envelope["body"]

    @property
    def failed(self) -> Sequence[str]:
        return self.body["summary"]["failed"]

    @property
    def ok(self) -> bool:
        return not self.failed

    @property
    def hit_rate(self) -> float:
        return self.body["cache"]["hit_rate"]

    def format(self) -> str:
        """The human-readable sweep summary (CLI output)."""
        from repro.scale.report import format_sweep

        return format_sweep(dict(self.envelope))

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.envelope)

    def to_json(self, indent: Optional[int] = None) -> str:
        if indent is None:
            return canonical_json(self.to_dict())
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# the facade

def _load_curare(source: str, decls: Sequence[str], assume_sapp: bool,
                 recorder: Any = None):
    from repro.lisp.interpreter import Interpreter
    from repro.transform.pipeline import Curare

    program = "\n".join((*decls, source)) if decls else source
    interp = Interpreter()
    curare = Curare(interp, assume_sapp=assume_sapp, recorder=recorder)
    try:
        curare.load_program(program)
    except Exception as err:  # reader/eval/declaration errors alike
        raise EngineError(f"cannot load program: {err}") from err
    return curare


def analyze(
    source: str,
    function: str,
    *,
    decls: Sequence[str] = (),
    assume_sapp: bool = False,
    recorder: Any = None,
) -> AnalysisResult:
    """Run the §2/§3 analysis on ``function`` and explain the result.

    ``decls`` are extra ``(declaim ...)`` forms prepended to ``source``
    (the programmer's tuning loop without editing the file).
    """
    from repro.analysis.report import explain

    start = time.perf_counter()
    curare = _load_curare(source, decls, assume_sapp, recorder)
    try:
        analysis = curare.analyze(function)
    except Exception as err:  # unknown function, lowering failure, ...
        raise EngineError(f"analysis failed: {err}") from err
    feedback = explain(analysis)
    return AnalysisResult(
        function=feedback.function,
        transformable=bool(feedback.transformable),
        concurrency=_num(feedback.concurrency),
        lock_bound=_num(feedback.lock_bound),
        lines=tuple(feedback.lines),
        suggestions=tuple(feedback.suggestions),
        text=feedback.render(),
        wall_ms=(time.perf_counter() - start) * 1000.0,
    )


def transform(
    source: str,
    function: str,
    options: TransformOptions = TransformOptions(),
    *,
    decls: Sequence[str] = (),
    recorder: Any = None,
) -> TransformResult:
    """Restructure ``function`` (or, with ``options.whole_program``,
    every eligible function, retargeting callers)."""
    start = time.perf_counter()
    curare = _load_curare(source, decls, options.assume_sapp, recorder)
    try:
        if options.whole_program:
            from repro.transform.program import transform_program

            program_result = transform_program(
                curare,
                suffix=options.suffix,
                mode=options.mode,
                early_release=options.early_release,
                use_delay=options.use_delay,
                prefer_dps=options.prefer_dps,
            )
            outcomes = program_result.transformed
            report_text, forms = _canonical_rendering(
                program_result.report(),
                tuple((o.final_form, *o.extra_forms)
                      for o in outcomes.values()),
            )
            return TransformResult(
                function=function,
                transformed=bool(outcomes),
                transformed_name=None,
                report_text=report_text,
                functions=tuple(
                    o.transformed_name for o in outcomes.values()
                ),
                forms=forms,
                lock_count=sum(o.lock_count for o in outcomes.values()),
                wall_ms=(time.perf_counter() - start) * 1000.0,
            )
        result = curare.transform(
            function,
            suffix=options.suffix,
            mode=options.mode,
            early_release=options.early_release,
            use_delay=options.use_delay,
            prefer_dps=options.prefer_dps,
        )
    except Exception as err:  # unknown function, lowering failure, ...
        raise EngineError(f"transform failed: {err}") from err
    report_text, forms = _canonical_rendering(
        result.report(),
        ((result.final_form, *result.extra_forms),)
        if result.transformed else (),
    )
    return TransformResult(
        function=function,
        transformed=bool(result.transformed),
        transformed_name=result.transformed_name,
        reason=result.reason,
        report_text=report_text,
        functions=(result.transformed_name,) if result.transformed else (),
        forms=forms,
        lock_count=result.lock_count,
        wall_ms=(time.perf_counter() - start) * 1000.0,
    )


def run(
    source: str,
    expr: str,
    options: RunOptions = RunOptions(),
    *,
    decls: Sequence[str] = (),
    recorder: Any = None,
) -> RunResult:
    """Load ``source``, optionally transform functions, and evaluate
    ``expr`` on the simulated multiprocessor."""
    from repro.runtime.clock import FREE_SYNC, CostModel
    from repro.runtime.machine import Machine, MachineError
    from repro.sexpr.printer import write_str

    start = time.perf_counter()
    curare = _load_curare(source, decls, options.assume_sapp, recorder)
    transformed: list[str] = []
    for name in options.transform:
        try:
            outcome = curare.transform(name)
        except Exception as err:
            raise EngineError(f"transform failed: {err}") from err
        if not outcome.transformed:
            raise TransformRefused(
                f"could not transform {name}: {outcome.reason}"
            )
        transformed.append(outcome.transformed_name)
    faults = None
    if options.faults is not None:
        from repro.runtime.faults import fault_matrix

        plans = {p.name: p for p in fault_matrix(options.seed or 0)}
        if options.faults not in plans:
            raise BadRequest(
                f"unknown fault plan {options.faults!r}; "
                f"choose from: {', '.join(sorted(plans))}"
            )
        faults = plans[options.faults]
    detector = None
    if options.race_check:
        from repro.runtime.racecheck import RaceDetector

        detector = RaceDetector()
    if options.eval_mode is not None:
        from repro.perf import EVAL_MODES

        if options.eval_mode not in EVAL_MODES:
            raise BadRequest(
                f"unknown eval mode {options.eval_mode!r}; "
                f"choose from: {', '.join(EVAL_MODES)}"
            )
    machine = Machine(
        curare.interp,
        processors=options.processors,
        cost_model=FREE_SYNC if options.free_sync else CostModel(),
        policy="random" if options.seed is not None else "fifo",
        seed=options.seed,
        faults=faults,
        race_detector=detector,
        lock_wait_timeout=options.lock_wait_timeout,
        recorder=recorder,
        eval_mode=options.eval_mode,
    )
    try:
        main = machine.spawn_text(expr)
        stats = machine.run()
    except MachineError as err:
        raise EngineError(
            f"{type(err).__name__} at t={err.clock}: {err}"
        ) from err
    except Exception as err:
        raise EngineError(f"evaluation failed: {err}") from err
    timeline = None
    if options.timeline:
        from repro.harness.timeline import occupancy_sparkline, process_gantt

        timeline = (occupancy_sparkline(stats,
                                        processors=options.processors)
                    + "\n" + process_gantt(machine))
    return RunResult(
        value=write_str(main.result),
        outputs=tuple(write_str(o) for o in machine.outputs),
        total_time=stats.total_time,
        processes=stats.processes,
        mean_concurrency=stats.mean_concurrency,
        utilization=stats.utilization,
        transformed=tuple(transformed),
        seed=options.seed,
        fault_plan=faults.describe() if faults is not None else None,
        faults_injected=faults.total_injected if faults is not None else 0,
        races=detector.summary() if detector is not None else None,
        timeline=timeline,
        wall_ms=(time.perf_counter() - start) * 1000.0,
    )


def sweep(
    grid: str,
    options: SweepOptions = SweepOptions(),
    *,
    recorder: Any = None,
) -> SweepReport:
    """Run a named sweep grid through the sharded driver and the
    content-addressed result cache; returns the enveloped report."""
    from repro.scale import build_report, grid_jobs, grid_names, run_jobs

    try:
        jobs = grid_jobs(grid)
    except KeyError:
        raise BadRequest(
            f"unknown grid {grid!r}; choose from: {', '.join(grid_names())}"
        ) from None
    if options.workers < 0:
        raise BadRequest("workers must be >= 0")
    start = time.perf_counter()
    outcomes = run_jobs(
        jobs,
        workers=options.workers,
        job_timeout=options.job_timeout,
        cache_dir=options.cache_dir,
        cache_server=options.cache_server,
        recorder=recorder,
    )
    total_ms = (time.perf_counter() - start) * 1000.0
    envelope = build_report(grid, outcomes, options.workers,
                            options.cache_dir, total_ms,
                            cache_server=options.cache_server)
    return SweepReport(grid=grid, workers=options.workers,
                       envelope=envelope, wall_ms=total_ms)


def sweep_grids() -> Dict[str, int]:
    """Available sweep grids: name → point count (for listings)."""
    from repro.scale import grid_jobs, grid_names

    return {name: len(grid_jobs(name)) for name in grid_names()}
