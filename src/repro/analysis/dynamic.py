"""Dynamic conflict measurement: the empirical oracle for §2.

The static analysis *predicts* which invocations conflict and at what
distance.  This module *measures* it: run the original function
sequentially with invocation-boundary instrumentation, attribute every
memory event to its invocation, and extract the actual conflicting
pairs and their invocation distances from the trace.

Two uses:

* validation — ``cross_check`` asserts the static answer is sound
  (every observed conflict distance is ≥ the static minimum, and the
  static minimum is observed when the workload exercises it);
* measurement — the paper promises exactly this kind of tooling around
  the SAPP ("we are measuring how often this occurs in Lisp programs");
  ``measure_dynamic_conflicts`` is the conflict-side counterpart.

Instrumentation: a copy of the function is defined whose body is
bracketed by ``curare-invocation-begin``/``-end`` annotations; a replay
of the trace maintains the bracket stack, so tail events (which execute
during the *unwind*, interleaved with deeper invocations in time) are
attributed to the correct invocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.ir import nodes as N
from repro.ir.lower import lower_function
from repro.ir.unparse import unparse_function
from repro.ir.visitors import copy_function, rewrite
from repro.lisp.effects import Annotate
from repro.lisp.interpreter import Interpreter
from repro.lisp.runner import SequentialRunner
from repro.lisp.values import Builtin
from repro.sexpr.datum import DEFAULT_SYMBOLS, Symbol, intern


def _install_markers(interp: Interpreter) -> None:
    if interp.intern("curare-invocation-begin") in interp.functions:
        return

    def begin(interp_: Any):
        yield Annotate("invocation-begin")
        return None

    def end(interp_: Any):
        yield Annotate("invocation-end")
        return None

    interp.define_builtin(
        Builtin("curare-invocation-begin", begin, is_generator=True, cost=0)
    )
    interp.define_builtin(
        Builtin("curare-invocation-end", end, is_generator=True, cost=0)
    )


def instrument_function(interp: Interpreter, name: str, suffix: str = "-dyn") -> str:
    """Define an instrumented copy of ``name`` with bracketed invocations.

    Returns the instrumented name.  The copy is semantically identical
    (the markers are zero-cost annotations).
    """
    _install_markers(interp)
    func = copy_function(lower_function(interp, intern(name)))
    new_name = intern(name + suffix)

    def retarget(node: N.Node):
        if isinstance(node, N.Call) and node.is_self_call:
            node.fn = new_name
        return None

    func.body = [rewrite(n, retarget) for n in func.body]
    result_var = DEFAULT_SYMBOLS.gensym("dynresult")
    body_value = (
        func.body[0] if len(func.body) == 1 else N.Progn(list(func.body))
    )
    func.body = [
        N.Call(intern("curare-invocation-begin"), []),
        N.Let(
            [(result_var, body_value)],
            [
                N.Call(intern("curare-invocation-end"), []),
                N.Var(result_var),
            ],
        ),
    ]
    func.name = new_name
    SequentialRunner(interp).eval_form(unparse_function(func))
    return new_name.name


@dataclass
class DynamicConflict:
    loc: tuple
    kind: str  # flow | anti | output
    distance: int


@dataclass
class DynamicReport:
    invocations: int = 0
    conflicts: list[DynamicConflict] = field(default_factory=list)
    #: distance → count over all conflicting pairs
    distance_histogram: dict[int, int] = field(default_factory=dict)

    def min_distance(self) -> Optional[int]:
        if not self.distance_histogram:
            return None
        return min(self.distance_histogram)


def measure_dynamic_conflicts(
    interp: Interpreter,
    name: str,
    call_text: str,
    runner: Optional[SequentialRunner] = None,
) -> DynamicReport:
    """Run ``call_text`` (which must drive ``<name>-dyn``) and mine the
    trace for cross-invocation conflicts.

    The caller instruments first (``instrument_function``) and evaluates
    any setup itself; this function owns only the traced run and the
    replay.
    """
    if runner is None:
        runner = SequentialRunner(interp)
    start = len(runner.trace.events)
    runner.eval_text(call_text)
    events = runner.trace.events[start:]

    report = DynamicReport()
    # Replay: bracket stack of invocation indices.
    stack: list[int] = []
    next_index = 0
    touches: dict[tuple, list[tuple[int, str]]] = {}  # loc → [(invocation, kind)]
    for event in events:
        if event.kind == "annotate" and isinstance(event.detail, tuple):
            tag = event.detail[0]
            if tag == "invocation-begin":
                stack.append(next_index)
                next_index += 1
                continue
            if tag == "invocation-end":
                if stack:
                    stack.pop()
                continue
        if event.kind in ("read", "write") and stack:
            touches.setdefault(event.loc, []).append((stack[-1], event.kind))
    report.invocations = next_index

    for loc, uses in touches.items():
        seen_pairs: set[tuple[int, str, int, str]] = set()
        for i, (inv_a, kind_a) in enumerate(uses):
            for inv_b, kind_b in uses[i + 1:]:
                if inv_a == inv_b:
                    continue
                if kind_a == "read" and kind_b == "read":
                    continue
                key = (inv_a, kind_a, inv_b, kind_b)
                if key in seen_pairs:
                    continue
                seen_pairs.add(key)
                distance = abs(inv_b - inv_a)
                if kind_a == "write" and kind_b == "write":
                    kind = "output"
                elif (kind_a == "write") == (inv_a < inv_b):
                    kind = "flow"
                else:
                    kind = "anti"
                report.conflicts.append(DynamicConflict(loc, kind, distance))
                report.distance_histogram[distance] = (
                    report.distance_histogram.get(distance, 0) + 1
                )
    return report


@dataclass
class CrossCheck:
    ok: bool
    notes: list[str] = field(default_factory=list)


def cross_check(static_analysis, dynamic: DynamicReport) -> CrossCheck:
    """Static soundness against a dynamic observation.

    * If the dynamic run observed conflicts, the static analysis must
      not claim conflict-freedom, and its minimum distance must be ≤
      every observed distance (a sound under-approximation of the
      closest conflict).
    * A conflict-free static verdict must see a conflict-free trace.
    """
    check = CrossCheck(ok=True)
    static_min = static_analysis.min_distance()
    dynamic_min = dynamic.min_distance()
    if dynamic_min is not None:
        if static_analysis.conflict_free:
            check.ok = False
            check.notes.append(
                f"UNSOUND: static says conflict-free, dynamic observed a "
                f"conflict at distance {dynamic_min}"
            )
        elif static_min is not None and static_min > dynamic_min:
            check.ok = False
            check.notes.append(
                f"UNSOUND: static minimum {static_min} exceeds observed "
                f"distance {dynamic_min}"
            )
        else:
            check.notes.append(
                f"static min {static_min} ≤ observed min {dynamic_min} "
                f"over {dynamic.invocations} invocations"
            )
    else:
        if static_analysis.conflict_free:
            check.notes.append("both static and dynamic see no conflicts")
        else:
            check.notes.append(
                "static reports conflicts the workload did not exercise "
                "(conservative, not unsound)"
            )
    return check
