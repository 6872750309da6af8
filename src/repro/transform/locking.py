"""Lock insertion (§3.2.1).

For every unresolved conflict, each invocation must hold the lock on the
conflict's runtime location before the conflicting access and release it
afterwards.  The §3.2.1 protocol:

* ``Lock(M)`` goes in the **head**, before the spawn — the head of I_i
  runs before any part of I_{i+d}, so FIFO lock grants reproduce the
  sequential access order even when more than two invocations conflict;
* ``Unlock(M)`` runs after the invocation's last use of M and after all
  lock statements (two-phase, deadlock-free): one release on each
  path, right after that path's last use, for every lock kind
  (:func:`place_release`) — the remark that holding locks to the end
  of the invocation "is slightly pessimistic";
* nested conflict-location chains coalesce to the shortest word (one
  lock covers ``l.car``, ``l.car.cdr``, ...);
* a location only read by this invocation takes the read side of a
  read-write lock;
* a conflict whose references both run before the function's one
  spawn takes no lock: invocation i+1 starts only when invocation i
  reaches it (§3.1, Figure 7), so the spawn orders them already
  (:func:`_spawn_order`).  ``early_release=False`` is the paper's
  literal protocol instead: every active conflict locked, every lock
  held to the end of the invocation (benches A2, A7 and A8).

A location word like ``cdr.car`` is locked at runtime by evaluating the
base path and naming the final field: ``(lock-loc! (cdr l) 'car)``,
guarded by a cons check so base-case invocations (nil arguments) skip
locks on structure they don't have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis.conflicts import Conflict, FunctionAnalysis, MemoryRef
from repro.ir import nodes as N
from repro.ir.visitors import free_variables
from repro.paths.accessor import Accessor
from repro.sexpr.datum import DEFAULT_SYMBOLS, Symbol, intern
from repro.transform.cri import _has_opaque_call


@dataclass
class LockSpec:
    """One lock to insert: parameter, accessor word, and mode."""

    param: Symbol
    word: Accessor
    write: bool
    covers: list[Accessor] = field(default_factory=list)

    def describe(self) -> str:
        mode = "write" if self.write else "read"
        extra = f" (covers {len(self.covers)} nested)" if self.covers else ""
        return f"{mode}-lock {self.param}.{self.word}{extra}"


@dataclass
class ArrayLockSpec:
    """One array element lock: param[index_var + offset], mode."""

    array: Symbol
    index_var: Symbol
    offset: int
    write: bool

    def describe(self) -> str:
        mode = "write" if self.write else "read"
        off = f"+{self.offset}" if self.offset > 0 else (
            str(self.offset) if self.offset else ""
        )
        return f"{mode}-lock {self.array}[{self.index_var}{off}]"


@dataclass
class WholeArrayLockSpec:
    """A whole-array lock for arrays with unanalyzable element indices
    (A[A[i]] — paper §2's footnote 1): element-grained locking cannot
    name the location, so the whole object is serialized."""

    array: Symbol

    def describe(self) -> str:
        return f"whole-array lock {self.array} (unanalyzable subscripts)"


@dataclass
class SerializeLockSpec:
    """The universal fallback: a per-function token lock held up to the
    invocation's last statement that may touch shared state,
    serializing that part of the recursion when some conflict cannot be
    named by any finer lock.  §6's guarantee made literal: never
    incorrect, only slow."""

    function: Symbol
    #: What forced it: the analysis's unknowns, then unresolved conflicts.
    reasons: list[str] = field(default_factory=list)

    def describe(self) -> str:
        return (f"serialization lock (invocations of {self.function} touch "
                f"shared state one at a time)")


@dataclass
class VarLockSpec:
    """A free-variable lock: acquired in the head, released after the
    last use of the variable, ordering every invocation's accesses to
    the shared binding in invocation order (locking "is always able to
    order accesses", §3.2.1).  Used when no reorderable declaration
    dismisses the conflict."""

    name: Symbol
    write: bool

    def describe(self) -> str:
        mode = "write" if self.write else "read"
        return f"{mode}-lock variable {self.name}"


@dataclass
class LockingResult:
    func: N.FuncDef
    locks: list[LockSpec] = field(default_factory=list)
    array_locks: list[ArrayLockSpec] = field(default_factory=list)
    var_locks: list[VarLockSpec] = field(default_factory=list)
    whole_array_locks: list[WholeArrayLockSpec] = field(default_factory=list)
    serialize_lock: Optional[SerializeLockSpec] = None
    unresolved: list[str] = field(default_factory=list)
    #: min(d_i) over the locked conflicts: the most invocations the
    #: locks let run at once when every lock is held to the end of the
    #: invocation.  Last-use release can exceed it.
    concurrency_bound: Optional[int] = None
    #: Releases placed after a last use (0 when every lock is held to
    #: the end of the invocation).
    early_releases: int = 0
    #: The serialize lock is held to the end of every path: the emitted
    #: code runs one invocation at a time.
    serialized: bool = False
    #: Active conflicts the spawn already orders (§3.1): no lock.
    ordered: list[Conflict] = field(default_factory=list)

    @property
    def lock_count(self) -> int:
        return (
            len(self.locks) + len(self.array_locks) + len(self.var_locks)
            + len(self.whole_array_locks) + (1 if self.serialize_lock else 0)
        )


def plan_locks(conflicts: list[Conflict]) -> tuple[
    list[LockSpec], list[ArrayLockSpec], list[VarLockSpec],
    list[WholeArrayLockSpec], list[str],
]:
    """Decide the lock set from the conflicts to lock."""
    unresolved: list[str] = []
    # Gather (param, word) → needs-write?
    needs: dict[tuple[Symbol, Accessor], bool] = {}

    def note(ref: MemoryRef) -> bool:
        if not ref.is_heap or ref.accessor is None or ref.unbounded:
            return False
        key = (ref.param, ref.accessor)
        needs[key] = needs.get(key, False) or ref.is_write
        return True

    array_needs: dict[tuple[Symbol, Symbol, int], bool] = {}
    whole_array_needs: set[Symbol] = set()
    var_needs: dict[Symbol, bool] = {}
    for conflict in conflicts:
        ok = True
        for ref in (conflict.earlier, conflict.later):
            if ref.is_array:
                if ref.unknown_index or ref.index_var is None:
                    # The element cannot be named: lock the whole array.
                    whole_array_needs.add(ref.param)
                    continue
                key = (ref.param, ref.index_var, ref.index_offset)
                array_needs[key] = array_needs.get(key, False) or ref.is_write
            elif ref.is_heap:
                ok = note(ref) and ok
            elif ref.var is not None:
                # A reorderable declaration would have dismissed this
                # conflict; undismissed variable conflicts get a
                # variable lock held across the invocation.
                var_needs[ref.var] = var_needs.get(ref.var, False) or ref.is_write
        if not ok:
            unresolved.append(conflict.describe())

    # Coalesce nested words per parameter: keep the shortest prefixes.
    by_param: dict[Symbol, list[tuple[Accessor, bool]]] = {}
    for (param, word), write in needs.items():
        by_param.setdefault(param, []).append((word, write))
    specs: list[LockSpec] = []
    for param, words in by_param.items():
        words.sort(key=lambda pair: len(pair[0]))
        kept: list[LockSpec] = []
        for word, write in words:
            holder = None
            for spec in kept:
                if spec.word.is_prefix_of(word):
                    holder = spec
                    break
            if holder is not None:
                holder.covers.append(word)
                holder.write = holder.write or write
            else:
                kept.append(LockSpec(param, word, write))
        specs.extend(kept)
    # Deterministic emission order: per-param, then shortest word first —
    # the outermost-first order that makes the two-phase protocol acyclic
    # along accessor chains.
    specs.sort(key=lambda s: (s.param.name, len(s.word), str(s.word)))

    # Array element locks, ordered by offset: each invocation acquires
    # lower-indexed elements first, giving a globally consistent element
    # order (positive-step inductions climb the array).
    array_specs = [
        ArrayLockSpec(array, ivar, offset, write)
        for (array, ivar, offset), write in array_needs.items()
    ]
    array_specs.sort(key=lambda s: (s.array.name, s.offset))
    # Arrays with unanalyzable subscripts take the whole-array lock;
    # their element locks would use different keys (no mutual exclusion
    # with the cell lock), so they are subsumed.
    if whole_array_needs:
        array_specs = [a for a in array_specs if a.array not in whole_array_needs]
    whole_specs = [WholeArrayLockSpec(a) for a in sorted(whole_array_needs, key=lambda s: s.name)]
    var_specs = [VarLockSpec(name, write) for name, write in var_needs.items()]
    var_specs.sort(key=lambda s: s.name.name)
    return specs, array_specs, var_specs, whole_specs, unresolved


def _path_expr(param: Symbol, word: Accessor) -> tuple[N.Node, str]:
    """(base-expression, final-field) for ``param.word``."""
    assert len(word) >= 1
    base: N.Node = N.Var(param)
    if len(word) > 1:
        base = N.FieldAccess(base, word.fields[:-1])
    return base, word.fields[-1]


def _index_expr(spec: ArrayLockSpec) -> N.Node:
    if spec.offset == 0:
        return N.Var(spec.index_var)
    if spec.offset > 0:
        return N.Call(intern("+"), [N.Var(spec.index_var), N.Const(spec.offset)])
    return N.Call(intern("-"), [N.Var(spec.index_var), N.Const(-spec.offset)])


def _array_lock_stmt(spec: ArrayLockSpec, idx_var: Symbol, lock: bool) -> N.Node:
    """Guarded element lock: skip when the index is out of bounds (the
    boundary invocations reference elements that don't exist)."""
    if spec.write:
        op = "lock-aref!" if lock else "unlock-aref!"
    else:
        op = "read-lock-aref!" if lock else "read-unlock-aref!"
    call = N.Call(intern(op), [N.Var(spec.array), N.Var(idx_var)])
    guard = N.And(
        [
            N.Call(intern(">="), [N.Var(idx_var), N.Const(0)]),
            N.Call(
                intern("<"),
                [N.Var(idx_var), N.Call(intern("array-length"), [N.Var(spec.array)])],
            ),
        ]
    )
    return N.If(guard, call, None)


def _whole_array_lock_stmt(spec: WholeArrayLockSpec, lock: bool) -> N.Node:
    op = "lock-cell!" if lock else "unlock-cell!"
    call = N.Call(intern(op), [N.Var(spec.array)])
    return N.If(N.Call(intern("arrayp"), [N.Var(spec.array)]), call, None)


def _serialize_token(function: Symbol) -> Symbol:
    return intern(f"%serialize-{function.name}%")


def _serialize_lock_stmt(spec: SerializeLockSpec, lock: bool) -> N.Node:
    op = "lock-var!" if lock else "unlock-var!"
    return N.Call(intern(op), [N.Quote(_serialize_token(spec.function))])


def _var_lock_stmt(spec: VarLockSpec, lock: bool) -> N.Node:
    op = "lock-var!" if lock else "unlock-var!"
    return N.Call(intern(op), [N.Quote(spec.name)])


def _lock_stmt(spec: LockSpec, base_var: Symbol, lock: bool) -> N.Node:
    """Guarded lock/unlock through the pre-bound base variable."""
    fld = spec.word.fields[-1]
    if spec.write:
        op = "lock-loc!" if lock else "unlock-loc!"
    else:
        op = "read-lock-loc!" if lock else "read-unlock-loc!"
    call = N.Call(intern(op), [N.Var(base_var), N.Quote(intern(fld))])
    # Guard: the base must be a heap object (base cases pass nil).
    return N.If(N.Call(intern("heap-object-p"), [N.Var(base_var)]), call, None)


#: This pass's own lock vocabulary: the placement never counts a lock
#: or release statement as a use of another lock.
_LOCK_OPS = frozenset({
    "lock-loc!", "unlock-loc!", "read-lock-loc!", "read-unlock-loc!",
    "lock-aref!", "unlock-aref!", "read-lock-aref!", "read-unlock-aref!",
    "lock-cell!", "unlock-cell!", "lock-var!", "unlock-var!",
})

#: Builtins that reach a binding or a function named at run time.
_ESCAPES = frozenset({"set", "symbol-value", "eval", "funcall", "apply"})

Uses = Callable[[N.Node, frozenset], bool]


def _shared_use(analysis: FunctionAnalysis) -> Uses:
    """The serialize lock's use test: may the statement touch state
    another invocation can see?  A heap access, a spawn or future, a
    builtin with effects (memory, output, queues, ``set``/``eval``...),
    a non-local variable, or a call not known to be pure."""
    from repro.lisp.values import Builtin

    functions = analysis._interp_functions or {}

    def uses(stmt: N.Node, bound: frozenset) -> bool:
        for sub in stmt.walk():
            if isinstance(sub, (N.FieldAccess, N.Spawn, N.FutureExpr)):
                return True
            if isinstance(sub, N.Setf) and isinstance(sub.place, N.FieldPlace):
                return True
            if isinstance(sub, N.Call) and sub.fn.name not in _LOCK_OPS:
                fn = functions.get(sub.fn)
                if isinstance(fn, Builtin) and fn.is_generator:
                    return True
        return bool(free_variables(stmt, bound)) or _has_opaque_call(
            stmt, analysis
        )

    return uses


def _var_use(spec: VarLockSpec, analysis: FunctionAnalysis) -> Uses:
    """The variable itself, or anything that may reach a global binding
    it does not name: an escape or a call not known to be pure."""

    def uses(stmt: N.Node, bound: frozenset) -> bool:
        return (
            spec.name in free_variables(stmt, bound)
            or any(isinstance(sub, N.Call) and sub.fn.name in _ESCAPES
                   for sub in stmt.walk())
            or _has_opaque_call(stmt, analysis)
        )

    return uses


def _array_use(arrays: set[Symbol]) -> Uses:
    """Any mention of a locked array: element indices and aliasing
    between array parameters are not resolved here."""

    def uses(stmt: N.Node, bound: frozenset) -> bool:
        return any(
            isinstance(sub, N.Var) and sub.name in arrays for sub in stmt.walk()
        )

    return uses


def _location_use(spec: LockSpec, analysis: FunctionAnalysis) -> Uses:
    """The statements holding a reference that may touch a location
    ``spec`` covers: a word under one of its words, an unbounded
    reference (a list-walking builtin, a user call) above one, or any
    reference through a parameter that may alias ``spec.param``."""
    words = [spec.word, *spec.covers]
    aliases = {
        ref.param
        for c in analysis.active_conflicts() if c.kind == "alias"
        and spec.param in (c.earlier.param, c.later.param)
        for ref in (c.earlier, c.later)
    } - {spec.param}
    sources = {
        id(ref.node.source)
        for ref in analysis.heap_refs
        if ref.accessor is not None and (
            ref.param in aliases
            or ref.param is spec.param and any(
                w.is_prefix_of(ref.accessor)
                or ref.unbounded and ref.accessor.is_prefix_of(w)
                for w in words
            )
        )
    }

    def uses(stmt: N.Node, bound: frozenset) -> bool:
        return any(id(sub.source) in sources for sub in stmt.walk())

    return uses


def _trivial(stmt: N.Node) -> bool:
    return isinstance(stmt, (N.Const, N.Quote, N.Var))


def place_release(
    body: list[N.Node],
    uses: Uses,
    release: Callable[[], N.Node],
    bound: frozenset,
    released: set[int],
) -> tuple[list[N.Node], int, bool]:
    """Put one ``release()`` on each path through ``body``, right after
    that path's last use (on entry to a path with none).

    The lock is held on entry.  An ``if`` holding the last use gets a
    release in each arm (a missing arm becomes one); a ``progn`` or
    ``let`` is entered; anything else, a ``while`` or a ``lambda``
    included, is released after as a whole, so no release runs twice.
    A release after the statement that gives the function its value
    keeps the value: ``(let ((#:v <stmt>)) <release> #:v)``; elsewhere
    the value is discarded, so the release just follows.

    ``uses(stmt, bound)`` tests one statement; ``bound`` holds the
    names local at that point.  ``released`` holds the ids of the
    release statements placed so far, which are never uses; this call
    adds its own.  Returns the new body, the number of releases placed,
    and whether every one of them ends its path (only the value and
    other releases run after it: the lock is never given up early).
    """
    finals: list[bool] = []

    def make() -> N.Node:
        node = release()
        released.add(id(node))
        return node

    def idle(stmts: list[N.Node]) -> bool:
        return all(_trivial(s) or id(s) in released for s in stmts)

    def place(seq: list[N.Node], bound: frozenset, tail: bool) -> list[N.Node]:
        # ``tail``: ``seq`` ends its path and gives the function its value.
        last = None
        for idx, stmt in enumerate(seq):
            if id(stmt) not in released and uses(stmt, bound):
                last = idx
        if last is None:
            finals.append(tail and idle(seq))
            return [make(), *(seq or [N.Const(None)])]
        stmt = seq[last]
        value_of_f = tail and last == len(seq) - 1
        if isinstance(stmt, N.If):
            stmt.then = arm(stmt.then, bound, value_of_f)
            stmt.els = arm(stmt.els, bound, value_of_f)
        elif isinstance(stmt, N.Progn):
            stmt.body = place(list(stmt.body), bound, value_of_f)
        elif isinstance(stmt, N.Let):
            stmt.body = place(
                list(stmt.body), bound | stmt.bound_names(), value_of_f
            )
        elif value_of_f:
            value = DEFAULT_SYMBOLS.gensym("lockvalue")
            seq[last] = N.Let([(value, stmt)], [make(), N.Var(value)])
            finals.append(True)
        else:
            seq.insert(last + 1, make())
            finals.append(tail and idle(seq[last + 2:]))
        return seq

    def arm(node: Optional[N.Node], bound: frozenset, tail: bool) -> N.Node:
        if node is None:
            seq: list[N.Node] = []
        else:
            seq = list(node.body) if isinstance(node, N.Progn) else [node]
        seq = place(seq, bound, tail)
        return seq[0] if len(seq) == 1 else N.Progn(seq)

    placed = place(list(body), bound, True)
    return placed, len(finals), all(finals)


def _spawn_order(analysis: FunctionAnalysis, func: N.FuncDef):
    """What the function's one spawn already orders (§3.1, Figure 7).

    Invocation i+1 starts only when invocation i reaches its spawn, so
    whatever i runs before the spawn precedes every later invocation.
    Returns ``(early, after)``: the ids of the sources of the nodes
    that run before the spawn on every path and sit in no ``lambda``
    (a conflict is ordered when both its references are among them;
    per conflict, since two words can name one runtime lock), and each
    statement that may run after the spawn, with the names bound at
    it.  ``None`` unless the analyzed function has one self-call site,
    it became the one ``spawn`` (no ``future``, no ``enqueue!``), and
    neither a ``while`` nor a ``lambda`` holds it.
    """
    if len(analysis.recursion.self_calls) != 1:
        return None
    nodes = list(func.walk())
    spawns = [n for n in nodes if isinstance(n, N.Spawn)]
    if len(spawns) != 1 or not spawns[0].call.is_self_call or any(
        isinstance(n, N.FutureExpr)
        or isinstance(n, N.Call) and n.fn.name == "enqueue!" for n in nodes
    ):
        return None
    spawn = spawns[0]
    holders: set[int] = set()

    def find(node: N.Node) -> bool:
        if node is spawn or any(find(child) for child in node.children()):
            holders.add(id(node))
            return True
        return False

    for top in func.body:
        find(top)
    if any(isinstance(n, (N.While, N.Lambda)) and id(n) in holders
           for n in nodes):
        return None
    before: set[int] = set()
    after: list[tuple[N.Node, frozenset]] = []

    def run(seq: list[N.Node], bound: frozenset) -> bool:
        spawned = False
        for stmt in seq:
            spawned = step(stmt, bound, spawned)
        return spawned

    def step(node: N.Node, bound: frozenset, spawned: bool) -> bool:
        # Returns whether the spawn may have run once ``node`` is done.
        if not spawned:
            if id(node) not in holders or node is spawn:
                # The spawn's own arguments run before the child exists.
                before.update(id(sub.source) for sub in node.walk())
                return node is spawn
            if isinstance(node, N.Progn):
                return run(node.body, bound)
            if isinstance(node, N.If) and id(node.test) not in holders:
                before.update(id(sub.source) for sub in node.test.walk())
                then = run([node.then], bound)
                return run([node.els] if node.els else [], bound) or then
            if isinstance(node, N.Let) and not any(
                    id(init) in holders for _, init in node.bindings):
                before.update(id(sub.source) for _, init in node.bindings
                              for sub in init.walk())
                return run(node.body, bound | node.bound_names())
        # After the spawn, or holding it where this walk does not
        # follow it (an ``if`` test, a ``let`` init, a call argument).
        after.append((node, bound))
        return True

    run(func.body, frozenset(func.params))
    late = {id(sub.source) for stmt, _ in after for sub in stmt.walk()}
    late.update(id(sub.source) for n in nodes if isinstance(n, N.Lambda)
                for sub in n.walk())
    return before - late, after


def insert_locks(
    analysis: FunctionAnalysis,
    func: Optional[N.FuncDef] = None,
    early_release: bool = True,
) -> LockingResult:
    """Wrap ``func`` (default: a copy of the analyzed function) with the
    planned locks.

    Shape::

        (defun f (args)
          (let* ((#:lb0 <base path 0>) ...)              ; bind bases once
            (if (heap-object-p #:lb0) (lock-loc! #:lb0 'f0))   ; lock phase
            ...
            <original body, each lock released once on every path,
             right after that path's last use of it>))

    Conflicts the spawn already orders get no lock and are listed in
    ``LockingResult.ordered`` (see :func:`_spawn_order`).  Every lock
    kind (location, array, variable, serialize) goes through
    :func:`place_release`.  A lock with a use inside a ``lambda`` is
    held to the end of the invocation, since the closure may be called
    after the statement that makes it.  ``early_release=False`` is the
    literal §3.2.1 protocol: every active conflict is locked and every
    statement counts as a use, so each lock is held to the end of the
    invocation (the arm benches A2, A7 and A8 measure).

    Base paths are evaluated *once*, in the head, so a body that mutates
    an intermediate link cannot desynchronize lock and unlock.
    """
    from repro.ir.visitors import copy_function

    if func is None:
        func = copy_function(analysis.func)
    conflicts = analysis.active_conflicts()
    unknowns = analysis.unknowns
    ordered: list[Conflict] = []
    order = _spawn_order(analysis, func) if early_release else None
    if order is not None:
        early, after = order

        def spawn_ordered(c: Conflict) -> bool:
            return all(id(ref.node.source) in early
                       for ref in (c.earlier, c.later))

        ordered = [c for c in conflicts if spawn_ordered(c)]
        conflicts = [c for c in conflicts if not spawn_ordered(c)]
        shared = _shared_use(analysis)
        if not any(shared(stmt, names) for stmt, names in after):
            unknowns = []
    specs, array_specs, var_specs, whole_specs, unresolved = plan_locks(conflicts)
    result = LockingResult(
        func=func, locks=specs, array_locks=array_specs,
        var_locks=var_specs, whole_array_locks=whole_specs,
        unresolved=unresolved, ordered=ordered,
    )
    # Anything still unresolved (unbounded refs, unknown callees, ...)
    # falls back to full serialization — §6: never incorrect, only slow.
    if unresolved or unknowns:
        result.serialize_lock = SerializeLockSpec(
            analysis.func.name, [*unknowns, *unresolved]
        )
    distances = [c.distance for c in conflicts if c.distance is not None]
    result.concurrency_bound = min(distances) if distances else None
    if (not specs and not array_specs and not var_specs
            and not whole_specs and result.serialize_lock is None):
        return result

    bindings: list[tuple[Symbol, N.Node]] = []
    base_vars: list[Symbol] = []
    for spec in specs:
        base, _fld = _path_expr(spec.param, spec.word)
        var = DEFAULT_SYMBOLS.gensym("lockbase")
        bindings.append((var, base))
        base_vars.append(var)
    idx_vars: list[Symbol] = []
    for aspec in array_specs:
        var = DEFAULT_SYMBOLS.gensym("lockidx")
        bindings.append((var, _index_expr(aspec)))
        idx_vars.append(var)

    # (lock statement, release maker, use test), in acquisition order.
    arrays = {s.array for s in array_specs} | {s.array for s in whole_specs}
    phases: list[tuple[N.Node, Callable[[], N.Node], Uses]] = [
        (_lock_stmt(s, v, lock=True),
         lambda s=s, v=v: _lock_stmt(s, v, lock=False),
         _location_use(s, analysis))
        for s, v in zip(specs, base_vars)
    ] + [
        (_array_lock_stmt(s, v, lock=True),
         lambda s=s, v=v: _array_lock_stmt(s, v, lock=False),
         _array_use(arrays))
        for s, v in zip(array_specs, idx_vars)
    ] + [
        (_whole_array_lock_stmt(s, lock=True),
         lambda s=s: _whole_array_lock_stmt(s, lock=False),
         _array_use(arrays))
        for s in whole_specs
    ] + [
        (_var_lock_stmt(s, lock=True),
         lambda s=s: _var_lock_stmt(s, lock=False),
         _var_use(s, analysis))
        for s in var_specs
    ]
    serialize = result.serialize_lock
    if serialize is not None:
        phases.append((
            _serialize_lock_stmt(serialize, lock=True),
            lambda: _serialize_lock_stmt(serialize, lock=False),
            _shared_use(analysis),
        ))

    bound = frozenset(func.params) | frozenset(v for v, _ in bindings)
    body = list(func.body)
    closures = list(_closures(body, bound))
    released: set[int] = set()
    for _lock, release, uses in phases:
        # A closure can run after the statement that makes it (a let or
        # setq binds it, a later funcall or mapcar calls it), so a lock
        # used inside a lambda is held to the end of the invocation.
        if not early_release or any(uses(lam, names)
                                    for lam, names in closures):
            uses = _any_work
        body, placed, final = place_release(
            body, uses, release, bound, released
        )
        if uses is not _any_work:
            result.early_releases += placed
    # The serialize lock is placed last: ``final`` is its verdict.
    result.serialized = serialize is not None and final
    func.body = [
        N.Let(bindings, [lock for lock, _, _ in phases] + body, sequential=True)
    ]
    return result


def _any_work(stmt: N.Node, bound: frozenset) -> bool:
    """End-of-invocation "use": every statement but a bare value."""
    return not _trivial(stmt)


def _closures(nodes, bound: frozenset):
    """Each outermost lambda in ``nodes``, with the names bound at it."""
    for node in nodes:
        if isinstance(node, N.Lambda):
            yield node, bound
        elif isinstance(node, N.Let):
            inner = bound
            for name, init in node.bindings:
                yield from _closures(
                    [init], inner if node.sequential else bound
                )
                inner = inner | {name}
            yield from _closures(node.body, inner)
        else:
            yield from _closures(node.children(), bound)
