"""Conflict detection between recursive invocations (paper §2).

``analyze_function`` runs the whole §2 pipeline on one function:

1. recursion structure and call classification (§3.1),
2. head/tail partition with |H|/|T| (§3.1),
3. per-parameter transfer functions (§2.1),
4. collection of memory references — heap accessor words anchored at
   parameters, plus free-variable references,
5. the pairwise conflict computation ``A1 ⊙_d A2`` with minimum
   distances, in both orders (earlier-write and later-write),
6. declaration-based dismissal (§3.2.3: reorderable operations,
   unordered-collection writes) and aliasing checks (§6).

Everything the analyzer cannot resolve becomes an *unknown* with a
reason string; unknowns make the function conservatively untransformable
(locks on everything would be required), and the reasons feed the §6
feedback loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.analysis.headtail import HeadTail, partition_head_tail
from repro.analysis.recursion import RecursionInfo, analyze_recursion
from repro.analysis.variables import VariableInfo, parameter_transfers
from repro.declare.registry import DeclarationRegistry
from repro.ir import nodes as N
from repro.ir.cfg import build_cfg
from repro.lisp.interpreter import Interpreter
from repro.lisp.values import Builtin
from repro.paths.accessor import Accessor
from repro.paths.transfer import (
    TransferFunction,
    conflict_distances,
    conflict_distances_swept,
    conflicts_at_distance_memo,
    min_conflict_distance_memo,
)
from repro.perf.cache import LRUCache, perf_enabled
from repro.sexpr.datum import Symbol

#: Cap for the enumerated distances in reports (the min distance itself
#: comes from the exact BFS and is not capped).
DISTANCE_ENUM_CAP = 8

# A pair verdict depends only on the two refs' (accessor, is_write,
# unbounded) triples and the transfer regex; reference-dense corpora
# repeat those shapes heavily across functions, so the four underlying
# direction queries collapse to one lookup.
_PAIR_CACHE = LRUCache("analysis.pair", maxsize=65536)


@dataclass
class MemoryRef:
    """One static memory reference.

    Heap refs have ``param``/``accessor``; free-variable refs have
    ``var``.  ``unbounded`` marks refs that may touch an arbitrary
    suffix of the structure (a list-traversing builtin, an unanalyzed
    callee).  ``op`` is the operation name used by reorder declarations.
    """

    node: N.Node
    is_write: bool
    param: Optional[Symbol] = None
    accessor: Optional[Accessor] = None
    var: Optional[Symbol] = None
    unbounded: bool = False
    op: str = ""
    reorderable_update: bool = False
    user_call: bool = False  # ref induced by a call to an unanalyzed function
    # Array element references (FORTRAN-style constant-offset subscripts,
    # analysis/arrays.py): param holds the array, the index is
    # index_var + index_offset (or unknown).
    is_array: bool = False
    index_var: Optional[Symbol] = None
    index_offset: int = 0
    unknown_index: bool = False

    @property
    def is_heap(self) -> bool:
        return self.param is not None and not self.is_array

    def describe(self) -> str:
        rw = "write" if self.is_write else "read"
        if self.is_array:
            if self.unknown_index:
                return f"{rw} {self.param}[?]"
            off = (
                f"+{self.index_offset}" if self.index_offset > 0
                else (str(self.index_offset) if self.index_offset else "")
            )
            return f"{rw} {self.param}[{self.index_var}{off}]"
        if self.is_heap:
            star = "·Σ*" if self.unbounded else ""
            return f"{rw} {self.param}.{self.accessor}{star}"
        return f"{rw} variable {self.var}"


@dataclass
class Conflict:
    """A data-dependency between invocations.

    ``earlier``/``later`` are the refs as ordered by invocation index
    (the earlier invocation executes ``earlier``); ``kind`` follows the
    paper's taxonomy (§1.3) plus 'alias' for cross-parameter worst-case
    aliasing and 'variable' for free-variable conflicts.  ``distance``
    is the minimum invocation distance; ``distances`` enumerates up to
    DISTANCE_ENUM_CAP.  ``dismissed_by`` names the declaration that
    removed the constraint (§3.2.3), if any.
    """

    earlier: MemoryRef
    later: MemoryRef
    kind: str
    distance: Optional[int]
    distances: list[int] = field(default_factory=list)
    dismissed_by: Optional[str] = None

    @property
    def active(self) -> bool:
        return self.dismissed_by is None

    def describe(self) -> str:
        state = f" [dismissed: {self.dismissed_by}]" if self.dismissed_by else ""
        return (
            f"{self.kind}: {self.earlier.describe()} ⊙ {self.later.describe()}"
            f" at distance {self.distance}{state}"
        )


@dataclass
class FunctionAnalysis:
    func: N.FuncDef
    recursion: RecursionInfo
    headtail: HeadTail
    variables: VariableInfo
    heap_refs: list[MemoryRef] = field(default_factory=list)
    var_refs: list[MemoryRef] = field(default_factory=list)
    conflicts: list[Conflict] = field(default_factory=list)
    unknowns: list[str] = field(default_factory=list)
    sapp_assumed: list[Symbol] = field(default_factory=list)
    #: Per-parameter numeric induction steps (analysis/arrays.py) — used
    #: by the locking transform to emit array element locks.
    array_steps: dict = field(default_factory=dict)
    #: Names declared (pure f) — consumed by the spawn-hoisting pass.
    pure_functions: frozenset = frozenset()
    #: The interpreter's function table (builtin lookups during hoisting).
    _interp_functions: Optional[dict] = None

    # -- summary -----------------------------------------------------------

    def active_conflicts(self) -> list[Conflict]:
        return [c for c in self.conflicts if c.active]

    def dismissed_conflicts(self) -> list[Conflict]:
        return [c for c in self.conflicts if not c.active]

    @property
    def conflict_free(self) -> bool:
        return not self.active_conflicts() and not self.unknowns

    def min_distance(self) -> Optional[int]:
        """min(d_i) over active conflicts — the lock-concurrency bound
        (§3.2.1).  None when conflict-free (unbounded)."""
        distances = [c.distance for c in self.active_conflicts() if c.distance is not None]
        if self.unknowns:
            return 1  # worst case
        if not distances:
            return None
        return min(distances)

    def max_concurrency(self) -> float:
        """c_f = min((|H|+|T|)/|H|, min conflict distance) (§4.1)."""
        c = self.headtail.concurrency
        d = self.min_distance()
        if d is not None:
            c = min(c, float(d))
        return c

    def tail_conflicts(self) -> list[Conflict]:
        """Active conflicts with a reference in the function's tail.

        For these, the paper's correctness criterion — serial execution
        in *invocation* order (§3.1.1) — differs from the original
        depth-first unwind order: the untransformed recursion executes
        tail statements deepest-first.  Curare enforces the paper's
        invocation-serial semantics and reports the discrepancy.
        """
        out = []
        for c in self.active_conflicts():
            for ref in (c.earlier, c.later):
                node_ids = {n.node_id for n in ref.node.walk()}
                if node_ids & self.headtail.tail_ids:
                    out.append(c)
                    break
        return out

    @property
    def transformable(self) -> bool:
        """Can CRI concurrency be extracted at all?

        Strict self-calls block it (§5's transforms may fix that);
        unknowns force full locking but still allow the transform, so
        only strictness and non-recursion disqualify here.
        """
        return self.recursion.is_recursive and not self.recursion.has_strict_call


class _RefCollector:
    """Walks a function body collecting memory references."""

    def __init__(
        self,
        interp: Interpreter,
        func: N.FuncDef,
        variables: VariableInfo,
        decls: DeclarationRegistry,
    ):
        self.interp = interp
        self.func = func
        self.variables = variables
        self.decls = decls
        self.heap_refs: list[MemoryRef] = []
        self.var_refs: list[MemoryRef] = []
        self.unknowns: list[str] = []
        # Let-bound names whose init is a fresh allocation: direct-field
        # refs through them touch storage unique to this invocation (the
        # §5 DPS-cell provenance) and carry no conflict.  Only |word|=1
        # refs qualify — deeper paths may reach escaped shared structure.
        self.fresh_locals: set[Symbol] = set()

    def collect(self) -> None:
        bound = frozenset(self.func.params)
        for node in self.func.body:
            self._walk(node, bound)

    # -- helpers -----------------------------------------------------------

    def _resolve_base(self, node: N.Node) -> Optional[tuple[Symbol, Accessor]]:
        """Resolve a FieldAccess base to (parameter, accessor prefix)."""
        if isinstance(node, N.Var):
            return self.variables.resolve(node.name)
        if isinstance(node, N.FieldAccess):
            inner = self._resolve_base(node.base)
            if inner is None:
                return None
            return (inner[0], inner[1].compose(Accessor(node.fields)))
        return None

    def _note_unknown(self, reason: str) -> None:
        if reason not in self.unknowns:
            self.unknowns.append(reason)

    # -- walk ---------------------------------------------------------------

    def _walk(self, node: N.Node, bound: frozenset[Symbol]) -> None:
        if isinstance(node, (N.Const, N.Quote, N.FunctionRef)):
            return
        if isinstance(node, N.Var):
            # A name not lexically bound here is a free (global) variable:
            # every invocation touches the same binding.  (It may *also*
            # resolve as a derived accessor for transfer purposes, but the
            # shared-binding conflict is real regardless.)
            if node.name not in bound:
                self.var_refs.append(MemoryRef(node, is_write=False, var=node.name))
            return
        if isinstance(node, N.FieldAccess):
            self._walk(node.base, bound)
            if (
                isinstance(node.base, N.Var)
                and node.base.name in self.fresh_locals
                and len(node.fields) == 1
            ):
                return  # provenance-fresh cell: unique per invocation
            resolved = self._resolve_base(node.base)
            if resolved is not None:
                param, prefix = resolved
                self.heap_refs.append(
                    MemoryRef(
                        node,
                        is_write=False,
                        param=param,
                        accessor=prefix.compose(Accessor(node.fields)),
                        op=node.accessor_names[-1],
                    )
                )
            elif not _base_is_fresh(node.base):
                self._note_unknown(
                    f"access {node!r} has a base the analyzer cannot resolve"
                )
            return
        if isinstance(node, N.Setf):
            self._walk(node.value, bound)
            if isinstance(node.place, N.FieldPlace):
                self._walk(node.place.base, bound)
                if (
                    isinstance(node.place.base, N.Var)
                    and node.place.base.name in self.fresh_locals
                    and len(node.place.fields) == 1
                ):
                    return  # provenance-fresh cell: unique per invocation
                resolved = self._resolve_base(node.place.base)
                if resolved is not None:
                    param, prefix = resolved
                    self.heap_refs.append(
                        MemoryRef(
                            node,
                            is_write=True,
                            param=param,
                            accessor=prefix.compose(Accessor(node.place.fields)),
                            op="setf",
                        )
                    )
                elif not _base_is_fresh(node.place.base):
                    self._note_unknown(
                        f"store {node!r} has a base the analyzer cannot resolve"
                    )
            else:
                name = node.place.name
                if name not in bound:
                    self.var_refs.append(
                        MemoryRef(
                            node,
                            is_write=True,
                            var=name,
                            op=_update_op(node),
                            reorderable_update=self._is_reorderable_update(node),
                        )
                    )
            return
        if isinstance(node, N.Let):
            inner = bound
            for name, init in node.bindings:
                self._walk(init, bound if not node.sequential else inner)
                if _base_is_fresh(init):
                    self.fresh_locals.add(name)
                inner = inner | {name}
            for sub in node.body:
                self._walk(sub, inner)
            return
        if isinstance(node, N.Lambda):
            inner = bound | set(node.params)
            for sub in node.body:
                self._walk(sub, inner)
            return
        if isinstance(node, N.Call):
            for arg in node.args:
                self._walk(arg, bound)
            self._call_refs(node, bound)
            return
        if isinstance(node, N.Spawn):
            for arg in node.call.args:
                self._walk(arg, bound)
            self._call_refs(node.call, bound)
            return
        if isinstance(node, N.FutureExpr):
            self._walk(node.expr, bound)
            return
        for child in node.children():
            self._walk(child, bound)

    def _call_refs(self, node: N.Call, bound: frozenset[Symbol]) -> None:
        name = node.fn.name
        if node.is_self_call:
            return  # the recursion itself, not a memory reference
        # rplaca/rplacd are writes through their first argument.
        if name in ("rplaca", "rplacd") and node.args:
            resolved = self._resolve_base(node.args[0])
            fld = "car" if name == "rplaca" else "cdr"
            if resolved is not None:
                param, prefix = resolved
                self.heap_refs.append(
                    MemoryRef(
                        node,
                        is_write=True,
                        param=param,
                        accessor=prefix.compose(Accessor((fld,))),
                        op=name,
                    )
                )
            elif not _base_is_fresh(node.args[0]):
                self._note_unknown(f"{name} through unresolvable base")
            return
        if name in ("aref", "aset"):
            # Parameter arrays go through the constant-offset dependence
            # test (analysis/arrays.py); anything else is opaque.
            base = node.args[0] if node.args else None
            if isinstance(base, N.Var) and base.name in set(self.func.params):
                return
            self._note_unknown(
                f"{name} on a non-parameter array is not analyzable"
            )
            return
        fn = self.interp.functions.get(node.fn)
        if isinstance(fn, Builtin):
            if name in ("puthash",):
                # Unordered-collection write: target is the table (arg 1).
                self.heap_refs.append(
                    MemoryRef(node, is_write=True, unbounded=True, op=name)
                )
                return
            if fn.writes_memory:
                self._note_unknown(f"call to writing builtin {name}")
                return
            if fn.reads_memory:
                for arg in node.args:
                    resolved = self._resolve_base(arg)
                    if resolved is not None:
                        param, prefix = resolved
                        self.heap_refs.append(
                            MemoryRef(
                                node,
                                is_write=False,
                                param=param,
                                accessor=prefix,
                                unbounded=True,
                                op=name,
                            )
                        )
            return
        # A user function.  Pure declarations keep it transparent.
        if self.decls.is_pure(name):
            return
        touched = False
        for arg in node.args:
            resolved = self._resolve_base(arg)
            if resolved is not None:
                param, prefix = resolved
                touched = True
                self.heap_refs.append(
                    MemoryRef(node, is_write=True, param=param, accessor=prefix,
                              unbounded=True, op=name, user_call=True)
                )
                self.heap_refs.append(
                    MemoryRef(node, is_write=False, param=param, accessor=prefix,
                              unbounded=True, op=name, user_call=True)
                )
        if not touched:
            self._note_unknown(
                f"call to unanalyzed function {name} (declare it pure to dismiss)"
            )

    def _is_reorderable_update(self, setf: N.Setf) -> bool:
        """(setq a (op a E)) with op declared reorderable (§3.2.3).

        E may be any write-free expression (its heap reads are analyzed
        as ordinary refs elsewhere); the declaration asserts that the
        op's commutativity+associativity makes the *accumulation order*
        irrelevant.  Exactly one self-read keeps the shape a fold.
        """
        if not isinstance(setf.place, N.VarPlace):
            return False
        value = setf.value
        if not isinstance(value, N.Call) or not self.decls.is_reorderable(value.fn.name):
            return False
        var = setf.place.name
        self_reads = sum(
            1
            for sub in value.walk()
            if isinstance(sub, N.Var) and sub.name is var
        )
        has_writes = any(
            isinstance(sub, N.Setf)
            or (isinstance(sub, N.Call) and sub.fn.name in ("rplaca", "rplacd", "puthash"))
            for sub in value.walk()
        )
        return self_reads == 1 and not has_writes


def _update_op(setf: N.Setf) -> str:
    if isinstance(setf.value, N.Call):
        return setf.value.fn.name
    return "setq"


def _base_is_fresh(node: N.Node) -> bool:
    """True when the base expression denotes freshly allocated storage
    (cons/list/make-*), which cannot conflict across invocations."""
    if isinstance(node, N.Call):
        return node.fn.name in ("cons", "list") or node.fn.name.startswith("make-")
    return False


def collect_memory_refs(
    interp: Interpreter,
    func: N.FuncDef,
    variables: Optional[VariableInfo] = None,
    decls: Optional[DeclarationRegistry] = None,
) -> tuple[list[MemoryRef], list[MemoryRef], list[str]]:
    """(heap_refs, var_refs, unknown reasons) for ``func``."""
    if variables is None:
        variables = parameter_transfers(func)
    if decls is None:
        decls = DeclarationRegistry()
    collector = _RefCollector(interp, func, variables, decls)
    collector.collect()
    return collector.heap_refs, collector.var_refs, collector.unknowns


def _enum_distances_memo(a1, a2, tau, direction):
    if perf_enabled():
        # One swept BFS answers every distance in [1, cap]; proven
        # equivalent to the per-d enumeration by
        # tests/test_paths_dfa.py.
        return conflict_distances_swept(
            a1, a2, tau, DISTANCE_ENUM_CAP, direction=direction
        )
    return [
        d
        for d in range(1, DISTANCE_ENUM_CAP + 1)
        if conflicts_at_distance_memo(a1, a2, tau, d, direction=direction)
    ]


def _pair_conflicts_memo(
    a: MemoryRef,
    b: MemoryRef,
    tau: Optional[TransferFunction],
    canonicalizer=None,
) -> Optional[tuple[Optional[int], list[int]]]:
    """Memoized :func:`_pair_conflicts` for the identity-canonicalizer
    case (the non-identity variant's key would need the declared inverse
    pairs; it is rare and stays uncached).  Distances are stored as a
    tuple and re-listed per caller so the cached value is never aliased
    into a mutable :class:`Conflict`."""
    if canonicalizer is not None and not canonicalizer.is_identity():
        return _pair_conflicts(a, b, tau, canonicalizer)
    key = (
        a.accessor.fields if a.accessor is not None else None,
        a.is_write,
        a.unbounded,
        b.accessor.fields if b.accessor is not None else None,
        b.is_write,
        b.unbounded,
        tau.regex if tau is not None else None,
    )

    def compute() -> Optional[tuple[Optional[int], tuple[int, ...]]]:
        result = _pair_conflicts(a, b, tau)
        if result is None:
            return None
        return (result[0], tuple(result[1]))

    frozen = _PAIR_CACHE.get_or_compute(key, compute)
    if frozen is None:
        return None
    return (frozen[0], list(frozen[1]))


def _pair_conflicts(
    a: MemoryRef,
    b: MemoryRef,
    tau: Optional[TransferFunction],
    canonicalizer=None,
) -> Optional[tuple[Optional[int], list[int]]]:
    """Min distance and enumerated distances for refs on the *same*
    parameter, considering both invocation orders.  Returns None when
    provably conflict-free.

    When a non-identity ``canonicalizer`` applies (declared inverse
    fields, §2.1), distinct raw words can name the same location, so the
    canonical-path variant of the distance test is used.
    """
    if not (a.is_write or b.is_write):
        return None
    if a.unbounded or b.unbounded or tau is None:
        # Conservative: may touch overlapping structure at any distance.
        return (1, list(range(1, DISTANCE_ENUM_CAP + 1)))
    if canonicalizer is not None and not canonicalizer.is_identity():
        return _pair_conflicts_canonical(a, b, tau, canonicalizer)
    best: Optional[int] = None
    dists: set[int] = set()
    # Order 1: `a` in the earlier invocation.
    if a.is_write:
        d = min_conflict_distance_memo(a.accessor, b.accessor, tau, direction="write-first")
        if d is not None:
            best = d if best is None else min(best, d)
        dists.update(
            _enum_distances_memo(a.accessor, b.accessor, tau, "write-first")
        )
    if b.is_write:
        d = min_conflict_distance_memo(a.accessor, b.accessor, tau, direction="write-second")
        if d is not None:
            best = d if best is None else min(best, d)
        dists.update(
            _enum_distances_memo(a.accessor, b.accessor, tau, "write-second")
        )
    # Order 2: `b` in the earlier invocation (symmetric).
    if b.is_write:
        d = min_conflict_distance_memo(b.accessor, a.accessor, tau, direction="write-first")
        if d is not None:
            best = d if best is None else min(best, d)
        dists.update(
            _enum_distances_memo(b.accessor, a.accessor, tau, "write-first")
        )
    if a.is_write:
        d = min_conflict_distance_memo(b.accessor, a.accessor, tau, direction="write-second")
        if d is not None:
            best = d if best is None else min(best, d)
        dists.update(
            _enum_distances_memo(b.accessor, a.accessor, tau, "write-second")
        )
    if best is None and not dists:
        return None
    return (best, sorted(dists))


def _pair_conflicts_canonical(
    a: MemoryRef,
    b: MemoryRef,
    tau: TransferFunction,
    canonicalizer,
) -> Optional[tuple[Optional[int], list[int]]]:
    """Canonical-path distance test for declared-inverse-field structures."""
    from repro.paths.transfer import min_conflict_distance_canonical

    best: Optional[int] = None
    try:
        for x, y, direction in (
            (a, b, "write-first"),
            (a, b, "write-second"),
            (b, a, "write-first"),
            (b, a, "write-second"),
        ):
            writer = x if direction == "write-first" else y
            if not writer.is_write:
                continue
            d = min_conflict_distance_canonical(
                x.accessor, y.accessor, tau, canonicalizer, direction=direction
            )
            if d is not None:
                best = d if best is None else min(best, d)
    except ValueError:
        # τ is not a finite word set: conservative.
        return (1, list(range(1, DISTANCE_ENUM_CAP + 1)))
    if best is None:
        return None
    return (best, [best])


def _kind(a: MemoryRef, b: MemoryRef) -> str:
    if a.is_write and b.is_write:
        return "output"
    if a.is_write:
        return "flow"
    return "anti"


def analyze_function(
    interp: Interpreter,
    func_or_name: Any,
    decls: Optional[DeclarationRegistry] = None,
    assume_sapp: bool = False,
    fresh_params: Optional[set[str]] = None,
    sapp_of: Optional[str] = None,
) -> FunctionAnalysis:
    """Run the full §2 analysis on one function.

    ``assume_sapp=True`` treats every parameter as SAPP-declared — a
    convenience for experiments; the faithful default requires explicit
    ``(declaim (sapp f param))`` declarations, recording assumption gaps
    in ``analysis.unknowns``.

    ``fresh_params`` names parameters whose actual arguments are known —
    by transformation provenance, not analysis — to be freshly allocated
    per invocation (the DPS destination, §5): references through them
    never conflict across invocations and carry no SAPP obligation.

    ``sapp_of`` names the function whose ``sapp`` declarations cover
    this one's parameters, for a helper the transformer generated from
    it (the DPS function, §5): a parameter is SAPP exactly when the
    original's parameter of the same name is declared so, and a missing
    declaration is reported against the original, the name the user
    wrote.
    """
    from repro.ir.lower import lower_function

    if isinstance(func_or_name, N.FuncDef):
        func = func_or_name
    else:
        name = func_or_name if isinstance(func_or_name, Symbol) else interp.intern(str(func_or_name))
        func = lower_function(interp, name)
    if decls is None:
        decls = DeclarationRegistry()
    fresh = fresh_params if fresh_params is not None else set()

    recursion = analyze_recursion(func)
    headtail = partition_head_tail(func, build_cfg(func))
    variables = parameter_transfers(func, recursion)
    # Provenance-fresh parameters: discard the (unknowable) transfer and
    # its unknown-reason; every ref through them is conflict-free below.
    for param in func.params:
        if param.name in fresh:
            variables.unknown_reasons.pop(param, None)
    heap_refs, var_refs, unknowns = collect_memory_refs(interp, func, variables, decls)

    analysis = FunctionAnalysis(
        func=func,
        recursion=recursion,
        headtail=headtail,
        variables=variables,
        heap_refs=heap_refs,
        var_refs=var_refs,
        unknowns=list(unknowns),
        pure_functions=frozenset(decls._pure),
        _interp_functions=interp.functions,
    )

    fname = func.name.name
    declared = sapp_of if sapp_of is not None else fname
    # SAPP obligations: every parameter with heap refs needs the property.
    for param in func.params:
        if any(r.param is param for r in heap_refs):
            if decls.has_sapp(declared, param.name) or param.name in fresh:
                continue
            if assume_sapp:
                analysis.sapp_assumed.append(param)
            else:
                analysis.unknowns.append(
                    f"parameter {param} needs (declaim (sapp {declared} {param}))"
                )

    # Heap conflicts: same-parameter pairs via transfer functions;
    # cross-parameter pairs via aliasing declarations.  Declared inverse
    # fields switch the distance test to its canonical-path variant.
    canonicalizer = decls.canonicalizer()
    n = len(heap_refs)
    for i in range(n):
        for j in range(i, n):
            a, b = heap_refs[i], heap_refs[j]
            if not (a.is_write or b.is_write):
                continue
            if a.param is None or b.param is None:
                # puthash-style unbounded table writes: only conflict with
                # refs of the same op (the table is function-local state
                # otherwise invisible to accessor analysis).
                if a.op == b.op and decls.is_unordered_write(a.op):
                    conflict = Conflict(a, b, "output", 1, [1],
                                        dismissed_by=f"(unordered-writes {a.op})")
                    analysis.conflicts.append(conflict)
                elif a.op == b.op:
                    analysis.conflicts.append(Conflict(a, b, "output", 1, [1]))
                continue
            if a.param.name in fresh or b.param.name in fresh:
                # Fresh-destination provenance (§5): unique locations.
                continue
            if a.param is not b.param:
                if decls.no_alias(fname, a.param.name, b.param.name):
                    continue
                analysis.conflicts.append(
                    Conflict(
                        a, b, "alias", 1, [1],
                        dismissed_by=None,
                    )
                )
                continue
            if i == j and not a.is_write:
                continue
            tau = variables.transfer(a.param)
            result = _pair_conflicts_memo(a, b, tau, canonicalizer)
            if result is None:
                continue
            distance, distances = result
            conflict = Conflict(a, b, _kind(a, b), distance, distances)
            if (
                decls.is_unordered_write(a.op)
                and decls.is_unordered_write(b.op)
                and a.is_write
                and b.is_write
            ):
                conflict.dismissed_by = f"(unordered-writes {a.op})"
            analysis.conflicts.append(conflict)

    # Array conflicts: FORTRAN-style constant-offset dependence testing
    # (paper §2: "the techniques developed for FORTRAN can be applied to
    # Lisp arrays also").
    from repro.analysis.arrays import (
        array_conflicts,
        collect_array_refs,
        numeric_steps,
    )

    steps = numeric_steps(func)
    analysis.array_steps = steps
    array_refs = collect_array_refs(func, set(func.params))
    memrefs: dict[int, MemoryRef] = {}

    def as_memref(aref) -> MemoryRef:
        existing = memrefs.get(id(aref))
        if existing is None:
            existing = MemoryRef(
                aref.node,
                is_write=aref.is_write,
                param=aref.array,
                op="aset" if aref.is_write else "aref",
                is_array=True,
                index_var=aref.index_var,
                index_offset=aref.offset,
                unknown_index=aref.unknown_index,
            )
            memrefs[id(aref)] = existing
        return existing

    for ac in array_conflicts(array_refs, steps):
        analysis.conflicts.append(
            Conflict(
                as_memref(ac.earlier),
                as_memref(ac.later),
                ac.kind,
                ac.distance if ac.distance is not None else 1,
                [ac.distance] if ac.distance is not None else
                list(range(1, DISTANCE_ENUM_CAP + 1)),
            )
        )
    # Cross-parameter array aliasing: two array params may be the same
    # vector unless declared otherwise.
    arrays_used = {r.array for r in array_refs}
    writes_by_array = {r.array for r in array_refs if r.is_write}
    for a in sorted(arrays_used, key=lambda s: s.name):
        for b in sorted(arrays_used, key=lambda s: s.name):
            if a.name >= b.name:
                continue
            if a not in writes_by_array and b not in writes_by_array:
                continue
            if decls.no_alias(fname, a.name, b.name):
                continue
            ra = next(r for r in array_refs if r.array is a)
            rb = next(r for r in array_refs if r.array is b)
            analysis.conflicts.append(
                Conflict(as_memref(ra), as_memref(rb), "alias", 1, [1])
            )

    # Variable conflicts: every invocation touches the same binding.
    by_var: dict[Symbol, list[MemoryRef]] = {}
    for ref in var_refs:
        by_var.setdefault(ref.var, []).append(ref)
    for var, refs in by_var.items():
        writes = [r for r in refs if r.is_write]
        if not writes:
            continue
        all_reorderable = all(r.reorderable_update for r in writes) and all(
            r.is_write or _read_inside_update(r, writes) for r in refs
        )
        for i, a in enumerate(refs):
            for b in refs[i:]:
                if not (a.is_write or b.is_write):
                    continue
                conflict = Conflict(a, b, "variable", 1, [1])
                if all_reorderable:
                    # Reads inside the updates are part of the atomic
                    # read-modify-write; the whole group reorders freely.
                    op = next(w.op for w in writes)
                    conflict.dismissed_by = f"(reorderable {op})"
                analysis.conflicts.append(conflict)

    return analysis


def _read_inside_update(read: MemoryRef, writes: list[MemoryRef]) -> bool:
    """Is this var-read the self-read inside one of the reorderable
    updates (the ``a`` in ``(setq a (+ a 1))``)?"""
    for w in writes:
        if not isinstance(w.node, N.Setf):
            continue
        for sub in w.node.value.walk():
            if sub is read.node:
                return True
    return False
