"""The Curare driver: analyze → (§5 enable) → spawnify → resolve conflicts.

``Curare.transform(name)`` runs the paper's whole flow on one function:

1. **Analyze** (§2, §3.1): recursion structure, head/tail, transfer
   functions, conflicts, declaration-based dismissals.
2. **Enable** (§5): if a self-call is strict, try recursion→iteration;
   if self-calls are stored, optionally switch to destination-passing
   style (``prefer_dps``) instead of paying future overhead.
3. **CRI** (§3.1): spawnify the recursive calls (spawn or enqueue mode),
   hoisting spawns to shrink the head.
4. **Resolve** (§3.2, cheapest first — the paper presents them "in order
   of decreasing cost and generality", Curare applies the *cheapest
   sufficient* one): reordering (declarations already dismissed those
   conflicts; reorderable updates get atomicity locks), then delays
   (``use_delay``), then locks for whatever remains.
5. **Emit**: define the transformed function in the interpreter (under
   ``suffix``) and produce the §6 feedback report.

The result records everything a programmer tuning declarations needs:
inserted locks, dismissed and unresolved conflicts, the analytic
concurrency, and the suggested declarations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.analysis.conflicts import FunctionAnalysis, analyze_function
from repro.analysis.recursion import CallClassification
from repro.analysis.report import FeedbackReport, explain
from repro.declare.registry import DeclarationRegistry
from repro.ir import nodes as N
from repro.ir.unparse import unparse_function
from repro.lisp.interpreter import Interpreter
from repro.obs.recorder import Recorder
from repro.lisp.runner import SequentialRunner
from repro.sexpr.datum import Symbol, intern
from repro.transform.cri import CRIResult, TransformError, spawnify
from repro.transform.delay import DelayResult, delay_into_head
from repro.transform.dps import DPSError, DPSResult, to_destination_passing
from repro.transform.iteration import IterationError, IterationResult, recursion_to_iteration
from repro.transform.locking import LockingResult, insert_locks
from repro.transform.reorder import ReorderResult, atomicize_reorderable
from repro.transform.search import SearchError, SearchResult, to_parallel_search

#: Pipeline span name → cache-invalidation stage
#: (:data:`repro.scale.fingerprint.STAGES`).  This is the contract the
#: staged result cache keys against: an edit to a pass's code orphans
#: exactly the cache entries of its stage and the stages after it.
#: ``load_program`` is parse-stage work (reader + interpreter +
#: declarations); ``pass:analyze`` produces the conflict distances; all
#: the rewrite passes are transform-stage.  Tests pin this mapping so a
#: new pass must declare its stage here.
PASS_STAGES: dict[str, str] = {
    "load_program": "parse",
    "pass:analyze": "distance",
    "pass:search": "transform",
    "pass:iteration": "transform",
    "pass:dps": "transform",
    "pass:cri": "transform",
    "pass:reorder": "transform",
    "pass:delay": "transform",
    "pass:locking": "transform",
}


@dataclass
class CurareResult:
    original_name: str
    transformed_name: Optional[str]
    transformed: bool
    analysis: FunctionAnalysis
    reason: str = ""
    cri: Optional[CRIResult] = None
    locking: Optional[LockingResult] = None
    delay: Optional[DelayResult] = None
    reorder: Optional[ReorderResult] = None
    iteration: Optional[IterationResult] = None
    dps: Optional[DPSResult] = None
    search: Optional[SearchResult] = None
    feedback: Optional[FeedbackReport] = None
    final_form: Any = None
    extra_forms: list[Any] = field(default_factory=list)
    #: The emitted function IR, kept so :attr:`post_headtail` can be
    #: derived on demand instead of paying a CFG + dominator pass on
    #: every transform whether or not anyone reads the numbers.
    _post_headtail_func: Any = None
    _post_headtail_cache: Any = None
    _post_headtail_done: bool = False

    @property
    def post_headtail(self) -> Any:
        """Head/tail partition of the *emitted* function (after hoisting
        and lock insertion) — the numbers the §3.1 concurrency model
        applies to.  Computed lazily on first access."""
        if not self._post_headtail_done:
            self._post_headtail_done = True
            if self._post_headtail_func is not None:
                try:
                    from repro.analysis.headtail import partition_head_tail

                    self._post_headtail_cache = partition_head_tail(
                        self._post_headtail_func
                    )
                except Exception:  # informational only; never block
                    self._post_headtail_cache = None
        return self._post_headtail_cache

    @property
    def lock_count(self) -> int:
        return self.locking.lock_count if self.locking else 0

    def report(self) -> str:
        lines = [f";; Curare: {self.original_name}"]
        if not self.transformed:
            lines.append(f";;   NOT transformed: {self.reason}")
        else:
            lines.append(f";;   → {self.transformed_name}")
            if self.iteration:
                lines.append(f";;   recursion→iteration ({self.iteration.pattern})")
            if self.dps:
                lines.append(";;   destination-passing style applied")
            if self.search:
                lines.append(
                    ";;   any-result parallel search (first-wins result cell)"
                )
                for note in self.search.notes:
                    lines.append(f";;     {note}")
            if self.cri:
                lines.append(
                    f";;   CRI mode={self.cri.mode}: {self.cri.spawned_sites} "
                    f"spawn(s), {self.cri.future_sites} future(s), "
                    f"{self.cri.hoisted} hoisted"
                )
                for note in self.cri.notes:
                    lines.append(f";;     {note}")
            if self.delay and self.delay.moved:
                lines.append(f";;   delayed {self.delay.moved} statement(s) into the head")
            if self.reorder and self.reorder.atomicized:
                lines.append(
                    f";;   atomicized {self.reorder.atomicized} reorderable update(s)"
                )
            if self.locking and self.locking.lock_count:
                lines.append(f";;   {self.locking.lock_count} lock(s):")
                all_specs = (
                    self.locking.locks
                    + self.locking.array_locks
                    + self.locking.var_locks
                    + self.locking.whole_array_locks
                    + ([self.locking.serialize_lock]
                       if self.locking.serialize_lock else [])
                )
                for spec in all_specs:
                    lines.append(f";;     {spec.describe()}")
                # min(d_i) bounds the overlap only while every lock is
                # held to the end of the invocation.
                if (self.locking.concurrency_bound is not None
                        and not self.locking.early_releases):
                    lines.append(
                        f";;   lock-limited concurrency ≤ "
                        f"{self.locking.concurrency_bound}"
                    )
                if self.locking.serialized:
                    lines.append(
                        ";;   runs serialized: every path holds the "
                        "serialization lock to its end, forced by: "
                        + "; ".join(self.locking.serialize_lock.reasons)
                    )
        if self.feedback is not None:
            lines.append(self.feedback.render())
        return "\n".join(lines)


class Curare:
    """A transformer instance bound to one Lisp world."""

    def __init__(
        self,
        interp: Interpreter,
        decls: Optional[DeclarationRegistry] = None,
        assume_sapp: bool = False,
        recorder: Optional["Recorder"] = None,
    ):
        self.interp = interp
        self.decls = decls if decls is not None else DeclarationRegistry()
        self.assume_sapp = assume_sapp
        #: Flight recorder (repro.obs): when set, every transform records
        #: per-pass wall timings and conflict/lock counters.  ``None``
        #: costs nothing.
        self.recorder = recorder
        if recorder is not None:
            # Anchor the perf-cache export: this recorder reports only
            # cache activity accrued while attached to this pipeline.
            from repro.perf.cache import mark_cache_baseline

            mark_cache_baseline(recorder)
        self.runner = SequentialRunner(interp)
        #: transformed name → original name, for sequential fallback:
        #: when the runtime detects that a declaration lied (a race, a
        #: deadlock, a watchdog timeout), the recovery path re-executes
        #: the *original* program, and this map rewrites the entry call.
        self.transformed_map: dict[str, str] = {}

    # -- loading -------------------------------------------------------------

    def load_program(self, text: str) -> None:
        """Evaluate a program, absorbing its declaim forms."""
        from repro.declare.parser import extract_declarations

        def _load() -> None:
            forms = self.interp.load(text)
            decls, rest = extract_declarations(forms)
            self.decls.extend(decls)
            for form in rest:
                self.runner.eval_form(form)

        self._timed("load_program", _load)

    # -- the driver -----------------------------------------------------------

    def analyze(self, name: str, fresh_params: Optional[set[str]] = None) -> FunctionAnalysis:
        return analyze_function(
            self.interp,
            intern(name),
            decls=self.decls,
            assume_sapp=self.assume_sapp,
            fresh_params=fresh_params,
        )

    def transform(
        self,
        name: str,
        suffix: str = "-cc",
        mode: str = "spawn",
        use_delay: bool = False,
        early_release: bool = True,
        prefer_dps: bool = True,
        treat_tail_as_free: bool = True,
        define: bool = True,
        queue_var: str = "*task-queue*",
    ) -> CurareResult:
        """Run the whole flow on ``name`` (see the module docstring).

        Conflicts the spawn already orders take no lock, and the other
        locks are released right after their last use on each path.
        ``early_release=False`` is the paper's literal §3.2.1 protocol:
        every active conflict locked and held to the end of the
        invocation (benches A2, A7 and A8).
        """
        rec = self.recorder
        if rec is None:
            return self._transform_impl(
                name, suffix, mode, use_delay, early_release, prefer_dps,
                treat_tail_as_free, define, queue_var,
            )
        with rec.span(f"transform:{name}", "pipeline"):
            result = self._transform_impl(
                name, suffix, mode, use_delay, early_release, prefer_dps,
                treat_tail_as_free, define, queue_var,
            )
        self._record_result(rec, result)
        return result

    def _transform_impl(
        self,
        name: str,
        suffix: str = "-cc",
        mode: str = "spawn",
        use_delay: bool = False,
        early_release: bool = True,
        prefer_dps: bool = True,
        treat_tail_as_free: bool = True,
        define: bool = True,
        queue_var: str = "*task-queue*",
    ) -> CurareResult:
        analysis = self._timed("pass:analyze", self.analyze, name)
        result = CurareResult(
            original_name=name,
            transformed_name=None,
            transformed=False,
            analysis=analysis,
        )
        if not self.decls.may_parallelize(name):
            result.reason = f"(declaim (parallelize {name} nil)) forbids it"
            result.feedback = explain(analysis)
            return result
        if not analysis.recursion.is_recursive:
            result.reason = "not recursive"
            result.feedback = explain(analysis)
            return result

        working = analysis
        fresh_params: set[str] = set()

        # §3.2.3 category 3: an any-result declaration turns a
        # tail-recursive search into a first-wins parallel search.
        if self.decls.is_any_result(name):
            try:
                result.search = self._timed(
                    "pass:search", to_parallel_search, analysis
                )
                worker = result.search.func
                wrapper = result.search.wrapper
                wrapper.name = intern(name + suffix)
                result.final_form = unparse_function(worker)
                result.extra_forms.append(unparse_function(wrapper))
                result.transformed = True
                result.transformed_name = wrapper.name.name
                self.transformed_map[result.transformed_name] = name
                if define:
                    self.runner.eval_form(result.final_form)
                    for form in result.extra_forms:
                        self.runner.eval_form(form)
                result.feedback = explain(analysis)
                return result
            except SearchError as err:
                result.reason = f"any-result search transform failed: {err}"
                # fall through to the ordinary pipeline

        # §5 enabling transforms.
        if analysis.recursion.has_strict_call:
            try:
                result.iteration = self._timed(
                    "pass:iteration", recursion_to_iteration, analysis,
                    self.decls,
                )
                working = self._reanalyze(result.iteration.func)
                if not working.recursion.is_recursive:
                    # Fully iterative now; nothing left to spawn.  Define it
                    # (it is still a faster sequential function) and stop.
                    result.reason = (
                        "converted to iteration; no recursion remains to spawn"
                    )
                    result.transformed = True
                    result.transformed_name = name + suffix
                    self.transformed_map[result.transformed_name] = name
                    result.iteration.func.name = intern(name + suffix)
                    result.final_form = unparse_function(result.iteration.func)
                    if define:
                        self.runner.eval_form(result.final_form)
                    result.feedback = explain(working)
                    return result
            except IterationError as err:
                result.reason = f"strict self-call; iteration failed: {err}"
                result.feedback = explain(analysis)
                return result
        elif prefer_dps and any(
            analysis.recursion.classification(c) is CallClassification.STORED
            for c in analysis.recursion.self_calls
        ):
            try:
                result.dps = self._timed(
                    "pass:dps", to_destination_passing, analysis,
                    defer_element=True,
                )
                dps_func = result.dps.func
                # Define the DPS function source so re-analysis and the
                # final emission see it.
                self.interp.source_forms[dps_func.name] = unparse_function(dps_func)
                fresh_params = {result.dps.dest_param.name}
                # The helper walks the same lists as the original: the
                # original's sapp declarations cover its parameters.
                working = analyze_function(
                    self.interp,
                    dps_func,
                    decls=self.decls,
                    assume_sapp=self.assume_sapp,
                    fresh_params=fresh_params,
                    sapp_of=name,
                )
            except DPSError:
                result.dps = None  # fall back to futures

        # Conflicts whose statements sit in the tail execute deepest-first
        # in the original recursion; synchronization enforces invocation
        # order (the paper's §3.1.1 criterion), which can differ.  Warn.
        tail_conflicts = working.tail_conflicts()

        # CRI spawnification.
        try:
            result.cri = self._timed(
                "pass:cri", spawnify,
                working,
                mode=mode,
                treat_tail_as_free=treat_tail_as_free,
                queue_var=queue_var,
            )
        except TransformError as err:
            result.reason = str(err)
            result.feedback = explain(working)
            return result
        func = result.cri.func
        if tail_conflicts:
            result.cri.notes.append(
                f"{len(tail_conflicts)} conflict(s) involve tail statements: "
                "synchronization enforces invocation order (§3.1.1), which "
                "differs from the original unwind order for these accesses"
            )

        # §3.2 conflict resolution, cheapest sufficient first.
        if working.dismissed_conflicts():
            result.reorder = self._timed(
                "pass:reorder", atomicize_reorderable, working, self.decls,
                func,
            )
            func = result.reorder.func
        if use_delay and working.active_conflicts():
            result.delay = self._timed(
                "pass:delay", delay_into_head, working, func
            )
            func = result.delay.func
            if result.delay.resolved_all and result.delay.moved:
                # Delays ordered every conflict through the head; locks
                # are unnecessary for the moved ones.  Re-deriving which
                # conflicts remain needs a fresh analysis of the new
                # shape; conservatively lock only if something could not
                # be moved.
                if not result.delay.not_movable:
                    working = self._strip_conflicts(working)
        if working.active_conflicts() or working.unknowns:
            result.locking = self._timed(
                "pass:locking", insert_locks, working, func,
                early_release=early_release,
            )
            func = result.locking.func

        # Emit.
        new_name = intern(name + suffix)
        func.name = new_name

        def rename_calls(node: N.Node) -> None:
            for sub in node.walk():
                if isinstance(sub, N.Call) and sub.is_self_call:
                    sub.fn = new_name

        for top in func.body:
            rename_calls(top)
        result.final_form = unparse_function(func)
        result.transformed = True
        result.transformed_name = new_name.name
        if result.dps is not None:
            # The DPS wrapper keeps the original interface but calls the
            # concurrent DPS body.
            wrapper = result.dps.wrapper
            wrapper.name = intern(name + suffix)

            def retarget(node: N.Node) -> None:
                for sub in node.walk():
                    if isinstance(sub, N.Call) and sub.fn is result.dps.func.name:
                        sub.fn = new_name

            # func IS the dps function (renamed); point the wrapper at it.
            dps_concurrent_name = intern(result.dps.func.name.name + suffix)
            func.name = dps_concurrent_name

            def rename_dps(node: N.Node) -> None:
                for sub in node.walk():
                    if isinstance(sub, N.Call) and sub.is_self_call:
                        sub.fn = dps_concurrent_name

            for top in func.body:
                rename_dps(top)
            result.final_form = unparse_function(func)
            for top in wrapper.body:
                for sub in top.walk():
                    if isinstance(sub, N.Call) and sub.fn.name == result.dps.func.name.name:
                        sub.fn = dps_concurrent_name
            result.extra_forms.append(unparse_function(wrapper))
            result.transformed_name = wrapper.name.name
        self.transformed_map[result.transformed_name] = name
        if define:
            self.runner.eval_form(result.final_form)
            for form in result.extra_forms:
                self.runner.eval_form(form)
        result.feedback = explain(
            working, result.locking.ordered if result.locking else ()
        )
        result._post_headtail_func = func
        return result

    # -- observability -----------------------------------------------------

    def _timed(self, stage: str, fn, *args, **kwargs):
        """Run ``fn``, timing it as a pipeline span when recording."""
        rec = self.recorder
        if rec is None:
            return fn(*args, **kwargs)
        with rec.span(stage, "pipeline"):
            return fn(*args, **kwargs)

    def _record_result(self, rec: Recorder, result: CurareResult) -> None:
        """Counters + one structured event per transform: conflicts
        found/dismissed, locks inserted, spawn sites — the §6 feedback
        numbers, machine-readable."""
        analysis = result.analysis
        found = len(analysis.conflicts)
        dismissed = len(analysis.dismissed_conflicts())
        rec.count("pipeline.functions")
        rec.count("pipeline.conflicts.found", found)
        rec.count("pipeline.conflicts.dismissed", dismissed)
        rec.count("pipeline.locks.inserted", result.lock_count)
        if result.transformed:
            rec.count("pipeline.transformed")
        if result.cri is not None:
            rec.count("pipeline.spawn_sites", result.cri.spawned_sites)
        args = {
            "function": result.original_name,
            "transformed": result.transformed,
            "transformed_name": result.transformed_name,
            "reason": result.reason,
            "conflicts_found": found,
            "conflicts_dismissed": dismissed,
            "locks_inserted": result.lock_count,
        }
        if result.locking and result.locking.ordered:
            # Only where the spawn ordered something: the other
            # functions' events keep their shape.
            args["conflicts_ordered"] = len(result.locking.ordered)
        rec.event("pipeline.result", "pipeline", args=args)
        # Export the analysis-cache effectiveness accrued by this
        # transform (delta since the last publish to this recorder).
        from repro.perf.cache import publish_cache_stats

        publish_cache_stats(rec)

    # -- helpers ---------------------------------------------------------------

    def _reanalyze(self, func: N.FuncDef) -> FunctionAnalysis:
        return analyze_function(
            self.interp, func, decls=self.decls, assume_sapp=self.assume_sapp
        )

    def _strip_conflicts(self, analysis: FunctionAnalysis) -> FunctionAnalysis:
        for conflict in analysis.conflicts:
            if conflict.active:
                conflict.dismissed_by = "delayed into head (§3.2.2)"
        return analysis


def rewrite_fallback_call(call_text: str, mapping: dict[str, str]) -> str:
    """Replace each transformed name with its original, longest first so
    nested suffixes (``f-cc-cc``) never partially match.  Symbol
    boundaries are respected: ``f5-cc`` must not rewrite inside
    ``my-f5-cc-helper``."""
    out = call_text
    for new in sorted(mapping, key=len, reverse=True):
        out = re.sub(
            rf"(?<![\w\-]){re.escape(new)}(?![\w\-])", mapping[new], out
        )
    return out
