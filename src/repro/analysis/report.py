"""§6 feedback: why Curare did or didn't transform a function.

The paper describes an iterative tuning loop: run Curare, look at the
locks it inserted, the unresolved conflicts behind them, and — most
useful — the declarations that would remove them.  ``explain`` renders
a :class:`FunctionAnalysis` into exactly that report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.conflicts import Conflict, FunctionAnalysis


@dataclass
class FeedbackReport:
    function: str
    transformable: bool
    concurrency: float
    lock_bound: object
    lines: list[str] = field(default_factory=list)
    suggestions: list[str] = field(default_factory=list)

    def render(self) -> str:
        out = [f";; Curare report for {self.function}"]
        out.extend(f";;   {line}" for line in self.lines)
        if self.suggestions:
            out.append(";; declarations that would help:")
            out.extend(f";;   {s}" for s in self.suggestions)
        return "\n".join(out)


def explain(
    analysis: FunctionAnalysis, ordered: Sequence[Conflict] = ()
) -> FeedbackReport:
    """The §6 report.  ``ordered`` holds the active conflicts the
    emitted spawn already orders (the locking pass's
    ``LockingResult.ordered``): they are listed apart from the
    conflicts that force synchronization."""
    fname = analysis.func.name.name
    ht = analysis.headtail
    report = FeedbackReport(
        function=fname,
        transformable=analysis.transformable,
        concurrency=analysis.max_concurrency(),
        lock_bound=analysis.min_distance(),
    )
    lines = report.lines

    if not analysis.recursion.is_recursive:
        lines.append("not recursive: nothing to restructure")
        return report

    calls = analysis.recursion.self_calls
    lines.append(
        f"{len(calls)} self-call site(s); "
        f"|H|={ht.h_size} |T|={ht.t_size} → potential concurrency "
        f"{ht.concurrency:.2f}"
    )
    for call in calls:
        cls = analysis.recursion.classification(call).value
        lines.append(f"  call site {call.callsite_index}: {cls}")
    if analysis.recursion.has_strict_call:
        lines.append(
            "a self-call's result is inspected: invocations cannot overlap "
            "(consider recursion→iteration or destination-passing, §5)"
        )

    active = analysis.active_conflicts()
    dismissed = analysis.dismissed_conflicts()
    unresolved = [c for c in active if not any(c is o for o in ordered)]
    if unresolved:
        lines.append(
            f"{len(unresolved)} unresolved conflict(s) force synchronization:")
        for c in unresolved:
            lines.append(f"  {c.describe()}")
    else:
        lines.append("no unresolved conflicts")
    for c in ordered:
        lines.append(f"ordered by the spawn (§3.1): {c.describe()}")
    for c in dismissed:
        lines.append(f"dismissed: {c.describe()}")

    for reason in analysis.unknowns:
        lines.append(f"unknown: {reason}")

    # Suggestions.
    for reason in analysis.unknowns:
        if "needs (declaim (sapp" in reason:
            start = reason.index("(declaim")
            report.suggestions.append(reason[start:])
        if "declare it pure" in reason:
            name = reason.split()[4]
            report.suggestions.append(f"(declaim (pure {name}))")
    user_call_ops = {
        ref.op
        for c in active
        for ref in (c.earlier, c.later)
        if ref.user_call and ref.op
    }
    for op in sorted(user_call_ops):
        report.suggestions.append(f"(declaim (pure {op}))")
    alias_conflicts = [c for c in active if c.kind == "alias"]
    if alias_conflicts:
        report.suggestions.append(f"(declaim (no-alias {fname}))")
    var_conflicts = [c for c in active if c.kind == "variable"]
    for c in var_conflicts:
        if c.earlier.op not in ("", "setq"):
            report.suggestions.append(f"(declaim (reorderable {c.earlier.op}))")
    report.suggestions = list(dict.fromkeys(report.suggestions))
    return report
