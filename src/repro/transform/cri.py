"""The CRI transform: recursive calls become asynchronous invocations.

Figure 7's shape: "a recursive call [is] the creation of a new process
to execute the subsequent invocation asynchronously."  Three call
treatments, by classification (§3.1):

* **free** calls (result unused)     → ``(spawn (f args...))``
* **tail** calls (result returned)   → also spawned, when the caller is
  known (or asserted) to call f for effect; the function's value
  becomes nil, which is recorded in the result so the §6 feedback shows
  it.
* **stored** calls (result stored,
  never inspected)                   → ``(future (f args...))`` — the
  Multilisp device (§3.1).

Strict calls are rejected here; the §5 transforms (iteration, DPS) may
remove them first.

After spawnification the spawn is *hoisted*: moved to the earliest
position in its statement sequence such that (a) the argument
computation still sees the same values and (b) no statement it passes
is involved in an active conflict or assigns a variable the arguments
read.  Hoisting shrinks |H| — "the only way to increase the concurrency
is to decrease the amount of code executed before a self-recursive
call" (§3.1).

Enqueue mode emits the Figure 9 server-pool shape instead: recursive
calls become ``(enqueue! *task-queue* (list args...))`` (one queue per
call site when there are several) and every terminating invocation
closes the queue(s) — the paper's kill tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.conflicts import FunctionAnalysis
from repro.analysis.recursion import CallClassification
from repro.ir import nodes as N
from repro.ir.visitors import copy_function, free_variables, rewrite
from repro.sexpr.datum import Symbol, intern


class TransformError(Exception):
    pass


@dataclass
class CRIResult:
    func: N.FuncDef
    mode: str
    spawned_sites: int = 0
    future_sites: int = 0
    hoisted: int = 0
    #: Enqueue mode: how many task queues the emitted code expects —
    #: 1 for a single call site, one per site otherwise (§4.1's ordered
    #: queues).  Pass this to run_server_pool(queues=...).
    queue_count: int = 0
    notes: list[str] = field(default_factory=list)


def spawnify(
    analysis: FunctionAnalysis,
    mode: str = "spawn",
    treat_tail_as_free: bool = True,
    hoist: bool = True,
    queue_var: str = "*task-queue*",
) -> CRIResult:
    """Produce the CRI form of ``analysis.func`` (a fresh FuncDef)."""
    if mode not in ("spawn", "enqueue"):
        raise TransformError(f"unknown CRI mode {mode!r}")
    recursion = analysis.recursion
    if not recursion.is_recursive:
        raise TransformError(f"{analysis.func.name} is not recursive")
    if recursion.has_strict_call:
        raise TransformError(
            f"{analysis.func.name} inspects a self-call result; apply a §5 "
            "transform (iteration or destination-passing) first"
        )
    func = copy_function(analysis.func)
    # Re-run marking on the copy (copy_function preserved flags, but be safe).
    result = CRIResult(func=func, mode=mode)

    classifications = {
        call.callsite_index: analysis.recursion.classification(call)
        for call in analysis.recursion.self_calls
    }
    multi_site = len(classifications) > 1
    # A function with any STORED site builds a value its callers consume;
    # its TAIL sites must return that value too, so they become futures
    # (Multilisp transparency resolves them on read).  Only when *every*
    # site is TAIL may the value be discarded (call-for-effect).
    value_producing = any(
        c is CallClassification.STORED for c in classifications.values()
    )

    def transform_call(node: N.Node) -> Optional[N.Node]:
        if not (isinstance(node, N.Call) and node.is_self_call):
            return None
        cls = classifications.get(node.callsite_index, CallClassification.FREE)
        if cls is CallClassification.TAIL and value_producing:
            cls = CallClassification.STORED
        if cls is CallClassification.TAIL and not treat_tail_as_free:
            raise TransformError(
                "tail call's value would be discarded; pass "
                "treat_tail_as_free=True to accept a nil-valued function"
            )
        if cls is CallClassification.STORED:
            result.future_sites += 1
            return N.FutureExpr(node, source=node.source)
        if cls is CallClassification.TAIL:
            result.notes.append(
                f"call site {node.callsite_index}: tail value discarded — "
                f"{func.name} now returns nil on recursive paths"
            )
        result.spawned_sites += 1
        if mode == "enqueue":
            qname = (
                intern(queue_var)
                if not multi_site
                else intern(f"{queue_var}-{node.callsite_index}")
            )
            return N.Call(
                intern("enqueue!"),
                [N.Var(qname), N.Call(intern("list"), node.args, source=node.source)],
                source=node.source,
            )
        return N.Spawn(node, source=node.source)

    func.body = [rewrite(n, transform_call) for n in func.body]

    if mode == "enqueue":
        result.queue_count = len(classifications) if multi_site else 1
        _add_termination(func, queue_var, multi_site, len(classifications))

    if hoist and mode == "spawn":
        result.hoisted = _hoist_spawns(func, analysis)

    return result


# ---------------------------------------------------------------------------
# Spawn hoisting
# ---------------------------------------------------------------------------


def _conflicting_node_ids(analysis: FunctionAnalysis) -> set[int]:
    """Node ids (of the *original* function) involved in active conflicts.

    copy_function preserves structure but renumbers nodes, so we match by
    source form identity instead: collect the source objects.
    """
    out: set[int] = set()
    for c in analysis.active_conflicts():
        for ref in (c.earlier, c.later):
            out.add(id(ref.node.source))
    return out


def _statement_writes(node: N.Node) -> set[Symbol]:
    writes: set[Symbol] = set()
    for sub in node.walk():
        if isinstance(sub, N.Setf) and isinstance(sub.place, N.VarPlace):
            writes.add(sub.place.name)
    return writes


def _has_heap_write(node: N.Node) -> bool:
    for sub in node.walk():
        if isinstance(sub, N.Setf) and isinstance(sub.place, N.FieldPlace):
            return True
        if isinstance(sub, N.Call) and sub.fn.name in ("rplaca", "rplacd", "puthash"):
            return True
    return False


#: Builtins with no effects a hoisted spawn could observe or disturb.
_HOISTABLE_BUILTIN_EXTRAS = frozenset({"print"})


def _has_opaque_call(node: N.Node, analysis: FunctionAnalysis) -> bool:
    """True when ``node`` calls something the analyzer cannot see through
    (a user function not known pure) — hoisting a spawn past it would
    reorder unknown side effects."""
    from repro.lisp.values import Builtin

    interp_functions = getattr(analysis, "_interp_functions", None)
    for sub in node.walk():
        if not isinstance(sub, N.Call) or sub.is_self_call:
            continue
        name = sub.fn.name
        if name in _HOISTABLE_BUILTIN_EXTRAS:
            continue
        fn = interp_functions.get(sub.fn) if interp_functions else None
        if isinstance(fn, Builtin):
            if fn.writes_memory:
                return True
            continue
        if name in analysis.pure_functions:
            continue
        return True
    return False


def _hoist_spawns(func: N.FuncDef, analysis: FunctionAnalysis) -> int:
    """Move Spawn statements leftward within their statement sequences."""
    conflict_sources = _conflicting_node_ids(analysis)
    hoists = 0

    def hoist_in_sequence(body: list[N.Node], has_value: bool) -> list[N.Node]:
        """``body`` with each spawn moved as far left as it may go.  A
        spawn that leaves the value position of a sequence whose value
        is used (not a ``while`` body) leaves ``nil`` behind: a spawn's
        value is nil, and the statement now last must not give the
        sequence its own."""
        nonlocal hoists
        out = list(body)
        for idx in range(len(out)):
            node = out[idx]
            if not isinstance(node, N.Spawn):
                continue
            args_free = set()
            for arg in node.call.args:
                args_free |= free_variables(arg)
            target = idx
            while target > 0:
                prev = out[target - 1]
                if isinstance(prev, (N.Spawn, N.FutureExpr)):
                    break  # keep spawn order (queue/temporal ordering)
                if _statement_writes(prev) & args_free:
                    break
                if _has_heap_write(prev):
                    break  # a heap write moved into the tail needs delay/lock
                if _has_opaque_call(prev, analysis):
                    break  # unknown side effects must not reorder
                if any(id(s.source) in conflict_sources for s in prev.walk()):
                    break
                target -= 1
            if target != idx:
                if has_value and idx == len(out) - 1:
                    out.append(N.Const(None))
                out.insert(target, out.pop(idx))
                hoists += 1
        return out

    def walk(node: N.Node) -> None:
        if isinstance(node, (N.Progn, N.Let, N.While)):
            node.body = hoist_in_sequence(
                node.body, has_value=not isinstance(node, N.While))
        for child in node.children():
            walk(child)

    for top in func.body:
        walk(top)
    func.body = hoist_in_sequence(func.body, has_value=True)
    return hoists


# ---------------------------------------------------------------------------
# Enqueue-mode termination (kill tokens)
# ---------------------------------------------------------------------------


def _add_termination(
    func: N.FuncDef, queue_var: str, multi_site: bool, sites: int
) -> None:
    """Wrap the body so a non-recursing invocation closes the queue.

    ``(let ((#:recursed nil)) <body with enqueues setting the flag>
       (unless #:recursed (close-queue! q)))``

    This is the paper's kill token, valid for a *single* call site:
    linear recursion has exactly one terminating invocation and it is
    enqueued last, so everything before it has already entered the FIFO
    queue.  With multiple call sites (tree recursion) a leaf terminates
    while work is still outstanding, so no close is emitted — the server
    pool instead uses the machine's quiescence detection (all servers
    blocked on empty task queues ⇒ recursion done), our rendering of the
    paper's "more elaborate arrangement".
    """
    if multi_site:
        return
    from repro.sexpr.datum import DEFAULT_SYMBOLS

    flag = DEFAULT_SYMBOLS.gensym("recursed")

    def mark_enqueues(node: N.Node) -> Optional[N.Node]:
        if (
            isinstance(node, N.Call)
            and node.fn.name == "enqueue!"
        ):
            return N.Progn(
                [
                    N.Setf(N.VarPlace(flag), N.Const(True)),
                    node,
                ]
            )
        return None

    new_body = [rewrite(n, mark_enqueues) for n in func.body]
    close = N.Call(intern("close-queue!"), [N.Var(intern(queue_var))])
    guard = N.If(N.Call(intern("not"), [N.Var(flag)]), close, None)
    func.body = [N.Let([(flag, N.Const(None))], new_body + [guard])]
