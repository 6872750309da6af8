"""Property-based tests (hypothesis): the whole Curare pipeline on
*generated* recursive functions.

The generator builds random list-walking recursions from a pool of safe
statement shapes (car writes, cadr/caddr reads, prints, global
accumulation).  The property is the paper's §3.1.1 guarantee itself:
transform + machine run ≡ the sequential run of the same transformed
function (invocation-serial semantics), under random processor counts
and adversarial schedules — and where no tail statements conflict, also
≡ the untransformed original.

The last-use release protocol adds shapes: uses nested in ``if`` and
``progn`` before the spawn, ``funcall`` of a lambda argument, closures
bound by ``let`` or ``setq`` and called later by ``funcall`` or
``mapcar``, ``set``/``symbol-value``/``eval`` escapes, a pure busy
loop or a shared-counter bump after the recursive call, and a value
read as the function's result; with ``assume_sapp`` off, with and
without the ``sapp`` declaration, so the serialize lock is exercised.
Their conflicts never involve tail statements, so the sequential
interpreter is the oracle for final heap, globals, outputs and return
value.

Conflicts whose references all run before the spawn take no lock, so
the last two suites put references on both sides of it: tail
statements that reach a later invocation's cell through another word
and recursive calls in one arm of an ``if`` (oracle: invocation-serial
semantics), and tree walkers with two spawn sites on DAG inputs.
"""

from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lisp.interpreter import Interpreter
from repro.lisp.runner import SequentialRunner
from repro.runtime.machine import Machine
from repro.runtime.racecheck import RaceDetector
from repro.sexpr.printer import write_str
from repro.transform.pipeline import Curare

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Statement shapes for the function body.  Each is (template, head_ok).
# All are nil-safe (car writes only touch the current cell; cadr/caddr
# reads of short tails yield nil and feed only into nil-tolerant spots).
EXPRS = [
    "(car l)",
    "(cadr l)",
    "7",
    "(+ 1 2)",
]
STMTS = [
    "(print (car l))",
    "(print (cadr l))",
    "(setf (car l) {expr})",
    "(setq acc (+ acc 1))",
    "(print 0)",
]
#: Head shapes of the last-use protocol: nested uses, escapes, a
#: shared counter cell, closures bound by let or setq and called later
#: by funcall or mapcar.  The ``funcall fn`` shape makes ``f`` take a
#: lambda.  A closure shape holds the recursive call (``{recur}``)
#: after the closure's call, so the spawn is hoisted above that call.
PROTOCOL_STMTS = [
    "(if (> (car l) 0) (progn (setf (car l) (+ (car l) 1)) (burn 3))"
    " (print (car l)))",
    "(when (consp (cdr l)) (if (> (car l) 0)"
    " (setf (cadr l) (+ (cadr l) (car l))) (progn (burn 2) nil)))",
    "(setf (car l) (+ (car l) (symbol-value 'bias)))",
    "(set 'last (car l))",
    "(setf (car l) (eval (list '+ (car l) 'bias)))",
    "(setf (car counter) (+ (car counter) 1))",
    "(setf (car l) (funcall fn (car l)))",
    "(let ((bump (lambda () (when (consp (cdr l))"
    " (setf (cadr l) (+ (cadr l) (car l))))))) (funcall bump) {recur})",
    "(let ((bump nil)) (setq bump (lambda () (when (consp (cdr l))"
    " (setf (cadr l) (+ (cadr l) (car l)))))) (funcall bump) {recur})",
    "(let ((bump (lambda (x) (when (consp (cdr l)) (setf (cadr l)"
    " (+ (cadr l) (* x (car l)))))))) (mapcar bump (list 1)) {recur})",
    "(let ((g (lambda (x) (setq acc (+ acc x))))) (mapcar g (list 1))"
    " {recur})",
]
#: Tail shapes (after the recursive call).  None conflicts with another
#: invocation's statements: the counter bump commutes, and ``(car l)``
#: (a function value) reads a cell no later invocation writes.
TAILS = ["(burn {k})", "(setf (car counter) (+ (car counter) 1))"]

PRELUDE = """
(declaim (pure burn))
(defun burn (n) (let ((i 0)) (while (< i n) (setq i (1+ i))) i))
(setq acc 0)
(setq bias 3)
(setq last 0)
(setq counter (list 0))
"""


@st.composite
def bodies(draw):
    n = draw(st.integers(1, 4))
    stmts = []
    for _ in range(n):
        template = draw(st.sampled_from(STMTS))
        if "{expr}" in template:
            expr = draw(st.sampled_from(EXPRS))
            # (setf (car l) (car l)) is fine; avoid numeric ops on reads
            # that may be nil by wrapping reads in no arithmetic.
            template = template.format(expr=expr)
        stmts.append(template)
    return stmts


@dataclass(frozen=True)
class Shape:
    """One generated program: head statements, tail statements, whether
    ``f`` takes a lambda argument, and how SAPP is established
    (``"assume"``, ``"declared"`` or ``"none"``)."""

    stmts: tuple
    tail: tuple = ()
    hof: bool = False
    sapp: str = "assume"


@st.composite
def shapes(draw):
    # The protocol shapes do arithmetic on (car l): keep it a number.
    stmts = [s for s in draw(bodies()) if s != "(setf (car l) (cadr l))"]
    for _ in range(draw(st.integers(1, 3))):
        stmts.insert(draw(st.integers(0, len(stmts))),
                     draw(st.sampled_from(PROTOCOL_STMTS)))
    # A closure shape holds the recursive call: keep one, last.
    closures = [s for s in stmts if "{recur}" in s]
    stmts = [s for s in stmts if "{recur}" not in s] + closures[:1]
    tail = [draw(st.sampled_from(TAILS)).format(k=draw(st.integers(5, 60)))
            for _ in range(draw(st.integers(0, 2)))]
    # The counter's value depends on the order the bumps run in, so it
    # never gives the function its value.  A later invocation writes
    # l.car only through a cadr write.
    if draw(st.booleans()) and not any("(setf (cadr l)" in s for s in stmts):
        tail.append("(car l)")
    elif tail and "counter" in tail[-1]:
        tail.append("(burn 1)")
    return Shape(tuple(stmts), tuple(tail),
                 hof=any("funcall fn" in s for s in stmts),
                 sapp=draw(st.sampled_from(["assume", "declared", "none"])))


def build_source(stmts, tail=(), hof=False, sapp="assume") -> str:
    params = "l fn" if hof else "l"
    recur = "(f (cdr l) fn)" if hof else "(f (cdr l))"
    head = [*stmts, recur]
    if stmts and "{recur}" in stmts[-1]:  # a closure shape holds it
        head = [*stmts[:-1], stmts[-1].replace("{recur}", recur)]
    body = "\n    ".join([*head, *tail])
    decl = "(declaim (sapp f l))" if sapp == "declared" else ""
    return f"""{PRELUDE}{decl}
(defun f ({params})
  (when l
    {body}))
"""


def _call(hof: bool) -> str:
    return "(f d (lambda (x) (+ (* 2 x) 1)))" if hof else "(f d)"


def _data(values) -> str:
    return "(list " + " ".join(map(str, values)) + ")" if values else "nil"


@dataclass(frozen=True)
class Outcome:
    heap: str
    acc: int
    outputs: tuple
    state: tuple  # the other globals: last, counter, bias
    value: str  # the entry call's value


def _outcome(runner, outputs, value) -> Outcome:
    return Outcome(
        write_str(runner.eval_text("d")),
        runner.eval_text("acc"),
        tuple(outputs),
        tuple(write_str(runner.eval_text(g))
              for g in ("last", "counter", "bias")),
        write_str(value),
    )


def run_sequential(src: str, values: list[int], hof: bool = False) -> Outcome:
    interp = Interpreter()
    runner = SequentialRunner(interp, eval_mode="interpreter")
    runner.eval_text(src)
    runner.eval_text(f"(setq d {_data(values)})")
    value = runner.eval_text(_call(hof))
    return _outcome(runner, runner.outputs, value)


def run_concurrent(src: str, values: list[int], processors: int,
                   seed, hof: bool = False, assume_sapp: bool = True,
                   eval_mode=None, races=None):
    """Transform ``f`` and run it on the machine: FIFO when ``seed`` is
    None, else a random schedule.  Returns (outcome, Curare result), or
    (None, result) when the transform refused."""
    interp = Interpreter()
    curare = Curare(interp, assume_sapp=assume_sapp)
    curare.load_program(src)
    result = curare.transform("f")
    if not result.transformed:
        return None, result
    curare.runner.eval_text(f"(setq d {_data(values)})")
    policy = {} if seed is None else {"policy": "random", "seed": seed}
    machine = Machine(interp, processors=processors, eval_mode=eval_mode,
                      race_detector=races, **policy)
    main = machine.spawn_text(_call(hof).replace("(f ", "(f-cc ", 1))
    machine.run()
    return _outcome(curare.runner, machine.outputs, main.result), result


class TestGeneratedPrograms:
    @settings(max_examples=40, **COMMON)
    @given(
        bodies(),
        st.lists(st.integers(-9, 9), min_size=0, max_size=7),
        st.integers(1, 5),
        st.integers(0, 9999),
    )
    def test_heap_and_accumulator_state_match(self, stmts, values, procs, seed):
        src = build_source(stmts)
        seq = run_sequential(src, values)
        cc, _ = run_concurrent(src, values, procs, seed)
        # Heap state and the accumulator total are order-insensitive
        # observables of the invocation-serial semantics: they must match
        # the sequential run exactly (all statements here are head
        # statements, so invocation-serial == depth-first).
        assert cc.heap == seq.heap
        assert cc.acc == seq.acc
        # Outputs may interleave across processors but the multiset of
        # printed values is schedule-independent.
        assert sorted(map(repr, cc.outputs)) == sorted(map(repr, seq.outputs))

    @settings(max_examples=25, **COMMON)
    @given(
        bodies(),
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        st.integers(0, 9999),
    )
    def test_two_seeds_same_final_state(self, stmts, values, seed):
        """Determinism of the *final state* across schedules — the
        essence of sequentializability."""
        src = build_source(stmts)
        a = run_concurrent(src, values, 3, seed)[0]
        b = run_concurrent(src, values, 4, seed + 1)[0]
        assert (a.heap, a.acc) == (b.heap, b.acc)

    @settings(max_examples=25, **COMMON)
    @given(bodies())
    def test_transform_report_consistent(self, stmts):
        """Structural invariants of the transform output."""
        src = build_source(stmts)
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(src)
        result = curare.transform("f")
        assert result.transformed
        # The transformed function exists and is runnable.
        assert interp.intern("f-cc") in interp.functions
        # Lock count is consistent with the conflict set.
        if result.analysis.conflict_free:
            assert result.lock_count == 0
        # Spawn count: exactly one self-call site in the template.
        assert result.cri.spawned_sites == 1


class TestGeneratedConflictPrograms:
    """Programs with forced cross-invocation conflicts (cadr writes),
    guarded so the last cell isn't written through nil."""

    @st.composite
    @staticmethod
    def conflict_bodies(draw):
        writes = draw(st.integers(1, 2))
        stmts = []
        for _ in range(writes):
            expr = draw(st.sampled_from(["(car l)", "(+ (car l) 1)", "5"]))
            stmts.append(f"(if (consp (cdr l)) (setf (cadr l) {expr}))")
        # The (car l) read is what makes the cadr write a distance-1
        # conflict (write-only bodies touch disjoint cells — see
        # TestGeneratedPrograms for those).
        stmts.append("(print (car l))")
        return stmts

    @settings(max_examples=30, **COMMON)
    @given(
        conflict_bodies(),
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        st.integers(1, 4),
        st.integers(0, 9999),
    )
    def test_locked_conflicts_invocation_serial(self, stmts, values, procs, seed):
        # A tail read of the cell the previous invocation's head writes:
        # the conflict crosses the spawn.
        src = build_source(stmts, tail=("(print (car l))",))
        seq = run_sequential(src, values)
        cc, result = run_concurrent(src, values, procs, seed)
        assert cc.heap == seq.heap
        assert cc.acc == seq.acc
        # These programs genuinely conflict across the spawn; the
        # transform must have inserted locks.
        assert result.lock_count >= 1


class TestLastUseProtocol:
    """Every lock released once per path after its last use: the final
    state, outputs and value stay the sequential interpreter's, with no
    race, under FIFO and random schedules, P 2-8, both eval modes."""

    @settings(max_examples=60, **COMMON)
    @given(
        shapes(),
        st.lists(st.integers(-9, 9), min_size=0, max_size=5),
        st.integers(2, 8),
        st.integers(0, 9999),
    )
    def test_matches_sequential_without_races(self, shape, values, procs,
                                              seed):
        src = build_source(shape.stmts, shape.tail, shape.hof, shape.sapp)
        seq = run_sequential(src, values, shape.hof)
        for eval_mode in ("interpreter", "compiled"):
            for schedule in (None, seed, seed + 1, seed + 2):
                races = RaceDetector()
                cc, result = run_concurrent(
                    src, values, procs, schedule, shape.hof,
                    assume_sapp=shape.sapp == "assume",
                    eval_mode=eval_mode, races=races)
                if cc is None:  # a refusal must say why
                    assert result.reason
                    return
                where = f"{eval_mode}, schedule {schedule}"
                assert races.races == [], where
                assert cc.heap == seq.heap, where
                assert (cc.acc, cc.state) == (seq.acc, seq.state), where
                assert sorted(map(repr, cc.outputs)) == \
                    sorted(map(repr, seq.outputs)), where
                assert cc.value == seq.value, where

    @pytest.mark.parametrize("sapp", ["assume", "declared", "none"])
    def test_shapes_take_their_locks(self, sapp):
        """The serialize lock comes from an unknown: a missing sapp
        declaration, an escape, or an unresolvable base.  It stays when
        shared state is touched after the spawn."""
        src = build_source(
            ["(setf (car l) (+ (car l) (symbol-value 'bias)))"],
            ["(print (car l))", "(burn 20)"], sapp=sapp)
        _cc, result = run_concurrent(src, [1, 2, 3], 2, None,
                                     assume_sapp=sapp == "assume")
        assert (result.locking is not None
                and result.locking.serialize_lock is not None) \
            == (sapp == "none")
        src = build_source([], ["(setf (car counter) (+ (car counter) 1))"],
                           sapp=sapp)
        _cc, result = run_concurrent(src, [1, 2, 3], 2, None,
                                     assume_sapp=sapp == "assume")
        assert result.locking.serialize_lock is not None


# -- The spawn-order rule's safety net ---------------------------------------
#
# A conflict whose references all run before a function's only spawn
# takes no lock.  These shapes put references on both sides of the
# spawn: tail statements that reach, through another word, a cell a
# later invocation's head touches (``caddr`` after the spawn, ``car``
# in invocation i+2's head), and a recursive call in one arm of an
# ``if`` with uses after the ``if``.  Tails run deepest-first in the
# original recursion, so the oracle is invocation-serial semantics
# (§3.1.1): the same function with its recursive call turned into
# "run this invocation next", driven by a loop.

#: Head statements: the current cell through ``car``, the next cells
#: through ``cadr``, an unresolvable base and an escape.
ORDER_HEADS = [
    "(setf (car l) (+ (car l) 1))",
    "(print (car l))",
    "(when (consp (cdr l)) (setf (cadr l) (+ (cadr l) (car l))))",
    "(if (> (car l) 0) (setf (car l) (- (car l) 2)) (burn 2))",
    "(setf (car counter) (+ (* 2 (car counter)) (car l)))",
    "(set 'last (car l))",
]
#: Tail statements: each but the busy loop reaches a cell that a later
#: invocation's head touches.
ORDER_TAILS = [
    "(when (consp (cddr l)) (setf (caddr l) (* 2 (caddr l))))",
    "(when (consp (cdr l)) (setf (cadr l) (- (cadr l) 1)))",
    "(print (cadr l))",
    "(burn {k})",
]
#: The recursive call in one arm of an ``if``.
CONDITIONAL = "(if (> (car l) {t}) {recur} (print 0))"

SERIAL_DRIVER = """
(setq %next nil)
(defun %serial (args)
  (let ((value nil) (first t))
    (while args
      (setq %next nil)
      (let ((v (apply (function f) args)))
        (when first (setq value v) (setq first nil)))
      (setq args %next))
    value))
"""


@dataclass(frozen=True)
class OrderShape:
    head: tuple
    tail: tuple
    conditional: Optional[int]  # the if's threshold, or no if
    sapp: str

    def source(self, recur: str = "(f (cdr l))") -> str:
        call = (recur if self.conditional is None
                else CONDITIONAL.format(t=self.conditional, recur=recur))
        body = "\n    ".join([*self.head, call, *self.tail])
        decl = "(declaim (sapp f l))" if self.sapp == "declared" else ""
        return f"""{PRELUDE}{decl}
(defun f (l)
  (when l
    {body}))
"""

    @property
    def head_only(self) -> bool:
        """Nothing after the recursive call but a busy loop.  Every
        conflict then runs before the spawn, unless the spawn was
        hoisted above a head statement."""
        return all(s.startswith("(burn ") for s in self.tail)


@st.composite
def order_shapes(draw):
    head = draw(st.lists(st.sampled_from(ORDER_HEADS), min_size=1,
                         max_size=3))
    tail = [draw(st.sampled_from(ORDER_TAILS)).format(
                k=draw(st.integers(5, 40)))
            for _ in range(draw(st.integers(0, 2)))]
    conditional = draw(st.one_of(st.none(), st.integers(-5, 5)))
    if conditional is not None and not tail:
        tail = ["(print (car l))"]  # a use after the if
    return OrderShape(tuple(head), tuple(tail), conditional,
                      draw(st.sampled_from(["assume", "declared", "none"])))


def run_serial(shape: OrderShape, values: list[int]) -> Outcome:
    """Invocation-serial semantics: each invocation runs to its end
    before the next one starts."""
    runner = SequentialRunner(Interpreter(), eval_mode="interpreter")
    runner.eval_text(shape.source("(progn (setq %next (list (cdr l))) nil)")
                     + SERIAL_DRIVER)
    runner.eval_text(f"(setq d {_data(values)})")
    value = runner.eval_text("(%serial (list d))")
    return _outcome(runner, runner.outputs, value)


class TestSpawnOrderRule:
    """Either no race and the invocation-serial final state, or a
    refusal that says why; no lock when every conflict precedes the
    spawn."""

    @settings(max_examples=40, **COMMON)
    @given(
        order_shapes(),
        st.lists(st.integers(-9, 9), min_size=0, max_size=6),
        st.integers(2, 6),
        st.integers(0, 9999),
        st.sampled_from(["interpreter", "compiled"]),
    )
    def test_crossing_the_spawn(self, shape, values, procs, seed,
                                eval_mode):
        src = shape.source()
        want = run_serial(shape, values)
        for schedule in (None, seed, seed + 1):
            races = RaceDetector()
            cc, result = run_concurrent(
                src, values, procs, schedule,
                assume_sapp=shape.sapp == "assume",
                eval_mode=eval_mode, races=races)
            if cc is None:
                assert result.reason
                return
            where = f"{eval_mode}, schedule {schedule}"
            assert races.races == [], where
            assert cc.heap == want.heap, where
            assert (cc.acc, cc.state) == (want.acc, want.state), where
            assert sorted(map(repr, cc.outputs)) == \
                sorted(map(repr, want.outputs)), where
            assert cc.value == want.value, where
            if shape.head_only and not result.cri.hoisted:
                assert result.lock_count == 0, where


#: Tree walkers: two spawn sites, so sibling subtrees overlap and the
#: rule never applies.  Every update adds to the node's own field, so
#: on a DAG the final heap does not depend on which path reaches a
#: shared node first.
TREE_HEADS = [
    "(setf (nd-vl n) (+ (nd-vl n) {k}))",
    "(print (nd-vl n))",
    "(burn {k})",
]
TREE_TAILS = ["(burn {k})", "(setf (nd-vl n) (+ (nd-vl n) 1))"]


@st.composite
def dags(draw):
    """Node i's children are later nodes or nil: a DAG rooted at node
    0, with shared nodes wherever two edges meet."""
    size = draw(st.integers(1, 7))
    child = st.one_of(st.none(), st.integers(0, size - 1))
    edges = []
    for i in range(size):
        lf, rt = draw(child), draw(child)
        edges.append(tuple(c if c is not None and c > i else None
                           for c in (lf, rt)))
    return edges


def tree_source(head, between, tail, declared) -> str:
    body = "\n    ".join([*head, "(f (nd-lf n))", *between,
                          "(f (nd-rt n))", *tail])
    decl = "(declaim (sapp f n))" if declared else ""
    return f"""{PRELUDE}(defstruct nd lf rt vl)
{decl}
(defun f (n)
  (when n
    {body}))
"""


def dag_setup(edges) -> str:
    def name(i):
        return "nil" if i is None else f"n{i}"

    return " ".join(
        f"(setq n{i} (make-nd {name(lf)} {name(rt)} {i}))"
        for i, (lf, rt) in reversed(list(enumerate(edges))))


def _tree_outcome(runner, outputs, value, size) -> Outcome:
    heap = write_str(runner.eval_text(
        "(list " + " ".join(f"(nd-vl n{i})" for i in range(size)) + ")"))
    return Outcome(heap, 0, tuple(outputs), (), write_str(value))


class TestTreeWalkersOnDags:
    @settings(max_examples=30, **COMMON)
    @given(
        st.lists(st.sampled_from(TREE_HEADS), min_size=1, max_size=2),
        st.lists(st.sampled_from(TREE_HEADS), max_size=1),
        st.lists(st.sampled_from(TREE_TAILS), max_size=1),
        dags(),
        st.integers(2, 6),
        st.integers(0, 9999),
        st.integers(1, 9),
    )
    def test_matches_sequential_without_races(self, head, between, tail,
                                              edges, procs, seed, k):
        head, between, tail = ([s.format(k=k) for s in part]
                               for part in (head, between, tail))
        # sapp is declared only where it holds: no node is shared.
        targets = [c for pair in edges for c in pair if c is not None]
        declared = len(targets) == len(set(targets))
        src = tree_source(head, between, tail, declared)
        setup = dag_setup(edges)
        runner = SequentialRunner(Interpreter(), eval_mode="interpreter")
        runner.eval_text(src)
        runner.eval_text(setup)
        value = runner.eval_text("(f n0)")
        want = _tree_outcome(runner, runner.outputs, value, len(edges))
        for schedule in (None, seed):
            interp = Interpreter()
            curare = Curare(interp)
            curare.load_program(src)
            result = curare.transform("f")
            if not result.transformed:
                assert result.reason
                return
            assert result.cri.spawned_sites == 2
            assert result.locking is None or not result.locking.ordered
            curare.runner.eval_text(setup)
            races = RaceDetector()
            policy = {} if schedule is None else {
                "policy": "random", "seed": schedule}
            machine = Machine(interp, processors=procs, race_detector=races,
                              **policy)
            main = machine.spawn_text("(f-cc n0)")
            machine.run()
            got = _tree_outcome(curare.runner, machine.outputs, main.result,
                                len(edges))
            where = f"schedule {schedule}"
            assert races.races == [], where
            assert got.heap == want.heap, where
            assert sorted(map(repr, got.outputs)) == \
                sorted(map(repr, want.outputs)), where
            assert got.value == want.value, where
