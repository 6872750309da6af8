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
"""

from dataclasses import dataclass

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
        src = build_source(stmts)
        seq = run_sequential(src, values)
        cc, result = run_concurrent(src, values, procs, seed)
        assert cc.heap == seq.heap
        assert cc.acc == seq.acc
        # These programs genuinely conflict; the transform must have
        # inserted locks.
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
        declaration, an escape, or an unresolvable base."""
        src = build_source(
            ["(setf (car l) (+ (car l) (symbol-value 'bias)))"],
            ["(burn 20)"], sapp=sapp)
        _cc, result = run_concurrent(src, [1, 2, 3], 2, None,
                                     assume_sapp=sapp == "assume")
        assert (result.locking is not None
                and result.locking.serialize_lock is not None) \
            == (sapp == "none")
        src = build_source(["(setf (car counter) (+ (car counter) 1))"],
                           sapp=sapp)
        _cc, result = run_concurrent(src, [1, 2, 3], 2, None,
                                     assume_sapp=sapp == "assume")
        assert result.locking.serialize_lock is not None
