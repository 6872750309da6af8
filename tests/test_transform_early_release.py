"""Unit tests: last-use lock release (§3.2.1), the locking protocol.

Every lock is released once on each path, right after that path's
last use; ``early_release=False`` keeps the end-of-invocation arm that
bench A8 compares against.
"""

import pytest

from repro.analysis.conflicts import analyze_function
from repro.ir.unparse import unparse_function
from repro.lisp.interpreter import Interpreter
from repro.lisp.runner import SequentialRunner
from repro.runtime.machine import Machine
from repro.runtime.racecheck import RaceDetector
from repro.sexpr.printer import write_str
from repro.transform.locking import insert_locks
from repro.transform.pipeline import Curare

SRC = """
(defun f (l)
  (cond ((null l) nil)
        ((null (cdr l)) nil)
        (t (setf (cadr l) (+ (car l) (cadr l)))
           (f (cdr l)))))
"""


def analyzed(interp, runner, src=SRC, name="f"):
    runner.eval_text(src)
    return analyze_function(interp, interp.intern(name), assume_sapp=True)


class TestInsertion:
    def test_early_releases_inserted(self, interp, runner):
        a = analyzed(interp, runner)
        result = insert_locks(a)
        assert result.early_releases >= 1
        text = write_str(unparse_function(result.func))
        assert "(unlock-loc! " in text
        assert "if-held" not in text

    def test_early_release_precedes_recursion(self, interp, runner):
        a = analyzed(interp, runner)
        result = insert_locks(a)
        text = write_str(unparse_function(result.func))
        # In the mutating branch, the release comes right after the
        # setf and before the recursive call.
        branch = text[text.index("(setf (cadr l)"):]
        assert branch.index("(unlock-loc! ") < branch.index("(f (cdr l))")

    def test_default_has_no_early_releases(self, interp, runner):
        a = analyzed(interp, runner)
        result = insert_locks(a, early_release=False)
        assert result.early_releases == 0
        assert "if-held" not in write_str(unparse_function(result.func))

    def test_no_early_release_inside_while(self, interp, runner):
        src = """
        (defun f (l)
          (when l
            (let ((n 0))
              (while (< n 2)
                (setf (cadr l) (car l))
                (setq n (1+ n))))
            (f (cdr l))))
        """
        a = analyzed(interp, runner, src)
        result = insert_locks(a)
        text = write_str(unparse_function(result.func))
        # The release must come after the whole while, not inside it.
        while_at = text.index("(while")
        loop_end = text.index("(setq n (1+ n))")
        mutating = text.index("(let ((n 0))")
        release_at = text.index("(unlock-loc! ", mutating)
        assert release_at > loop_end
        assert "unlock" not in text[while_at:loop_end]


class TestSemantics:
    def test_sequential_equivalence(self, interp, runner):
        from repro.ir import nodes as N

        a = analyzed(interp, runner)
        result = insert_locks(a, early_release=True)
        result.func.name = interp.intern("f-er")
        for node in result.func.walk():
            if isinstance(node, N.Call) and node.is_self_call:
                node.fn = interp.intern("f-er")
        runner.eval_form(unparse_function(result.func))
        runner.eval_text("(setq x (list 1 2 3 4 5)) (setq y (list 1 2 3 4 5))")
        runner.eval_text("(f x) (f-er y)")
        assert write_str(runner.eval_text("x")) == write_str(runner.eval_text("y"))

    @pytest.mark.parametrize("seed", range(4))
    def test_machine_equivalence_random_schedules(self, seed):
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(SRC)
        curare.transform("f", early_release=True)
        curare.runner.eval_text("(setq d (list 1 2 3 4 5 6 7 8))")
        machine = Machine(interp, processors=4, policy="random", seed=seed)
        machine.spawn_text("(f-cc d)")
        machine.run()
        assert (
            write_str(curare.runner.eval_text("d")) == "(1 3 6 10 15 21 28 36)"
        )

    def test_early_release_improves_concurrency(self):
        from repro.runtime.clock import FREE_SYNC

        src = """
        (declaim (pure burn))
        (defun burn (n) (let ((i 0)) (while (< i n) (setq i (1+ i))) i))
        (defun f (l)
          (cond ((null l) nil)
                ((null (cdr l)) nil)
                (t (setf (cadr l) (+ (car l) (cadr l)))
                   (f (cdr l))
                   (burn 50))))
        """
        concs = {}
        for early in (False, True):
            interp = Interpreter()
            curare = Curare(interp, assume_sapp=True)
            curare.load_program(src)
            curare.transform("f", early_release=early)
            curare.runner.eval_text("(setq d (list 1 2 3 4 5 6 7 8 9 10))")
            machine = Machine(interp, processors=6, cost_model=FREE_SYNC)
            machine.spawn_text("(f-cc d)")
            stats = machine.run()
            concs[early] = stats.mean_concurrency
        assert concs[True] > concs[False] * 1.5


class TestPlacementDefects:
    """Two defects of the earlier per-sequence placement (if-held
    releases), pinned on the programs that showed them."""

    def test_release_keeps_the_value_of_its_sequence(self):
        # The clause's last statement is its last use of l.car: a
        # release appended after it made the function return nil.
        src = """
        (defun h (l)
          (cond ((null (cdr l)) 0)
                (t (setf (cadr l) (+ (car l) (cadr l)))
                   (h (cdr l))
                   (car l))))
        """
        want = SequentialRunner(Interpreter()).eval_text(
            src + " (h (list 1 2 3 4))")
        assert want == 1
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(src)
        curare.transform("h", early_release=True)
        curare.runner.eval_text("(setq d (list 1 2 3 4))")
        machine = Machine(interp, processors=4)
        main = machine.spawn_text("(h-cc d)")
        machine.run()
        assert main.result == want

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
    def test_nested_release_waits_for_later_uses(self, seed):
        # The inner progn's last use of l.cddr.car is not the path's
        # last: the tail setf after the spawn uses it again, so the
        # lock may only go after that (the end-of-invocation result).
        src = """
        (declaim (pure burn))
        (defun burn (n) (let ((i 0)) (while (< i n) (setq i (1+ i))) i))
        (defun f (l)
          (when (cddr l)
            (if (> (car l) 0)
                (progn (setf (caddr l) (+ (caddr l) (car l))) (burn 30))
                nil)
            (f (cdr l))
            (burn 200)
            (setf (caddr l) (* 2 (caddr l)))))
        """
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(src)
        curare.transform("f", early_release=True)
        curare.runner.eval_text("(setq d (list 1 2 3 4 5 6 7 8))")
        detector = RaceDetector()
        policy = {} if seed is None else {"policy": "random", "seed": seed}
        machine = Machine(interp, processors=4, race_detector=detector,
                          **policy)
        machine.spawn_text("(f-cc d)")
        machine.run()
        assert detector.races == []
        assert write_str(curare.runner.eval_text("d")) == \
            "(1 2 8 12 26 36 66 88)"


#: A closure made in one statement and called in a later one (through a
#: let or setq binding, by funcall or mapcar): the lock its body uses
#: must outlive the call, not just the statement that makes it.
CLOSURE_SRCS = {
    "let-funcall": """
    (defun f (l)
      (when (cdr l)
        (let ((bump (lambda () (setf (cadr l) (+ (car l) (cadr l))))))
          (funcall bump)
          (f (cdr l)))))
    """,
    "setq-funcall": """
    (defun f (l)
      (when (cdr l)
        (let ((bump nil))
          (setq bump (lambda () (setf (cadr l) (+ (car l) (cadr l)))))
          (funcall bump)
          (f (cdr l)))))
    """,
    "let-mapcar": """
    (defun f (l)
      (when (cdr l)
        (let ((bump (lambda (x) (setf (cadr l) (+ (car l) (cadr l))))))
          (mapcar bump (list 1))
          (f (cdr l)))))
    """,
}


class TestClosureUses:
    """A lock used inside a lambda is held to the end of the invocation."""

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    @pytest.mark.parametrize("shape", sorted(CLOSURE_SRCS))
    def test_location_lock_outlives_the_closure_call(self, shape, seed):
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(CLOSURE_SRCS[shape])
        result = curare.transform("f")
        assert result.locking.locks and result.locking.serialize_lock is None
        curare.runner.eval_text("(setq d (list 1 2 3 4 5 6 7 8))")
        detector = RaceDetector()
        policy = {} if seed is None else {"policy": "random", "seed": seed}
        machine = Machine(interp, processors=4, race_detector=detector,
                          **policy)
        machine.spawn_text("(f-cc d)")
        machine.run()
        assert detector.races == []
        assert write_str(curare.runner.eval_text("d")) == \
            "(1 3 6 10 15 21 28 36)"

    def test_variable_lock_outlives_a_mapcar_closure(self):
        src = """
        (setq acc 0)
        (defun f (l)
          (when l
            (let ((g (lambda (x) (setq acc (+ (* 2 acc) x)))))
              (mapcar g (list (car l)))
              (f (cdr l)))))
        """
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(src)
        result = curare.transform("f")
        assert [s.name.name for s in result.locking.var_locks] == ["acc"]
        text = write_str(result.final_form)
        branch = text[text.index("(let ((g "):]
        assert branch.index("(mapcar g ") < branch.index("(unlock-var! 'acc)")


#: SRC with a tail read of the cell the previous invocation writes:
#: the conflict crosses the spawn, so both protocols lock it.
TAIL_READ_SRC = """
(defun f (l)
  (cond ((null l) nil)
        ((null (cdr l)) nil)
        (t (setf (cadr l) (+ (car l) (cadr l)))
           (f (cdr l))
           (car l))))
"""


class TestReport:
    def test_bound_printed_only_while_locks_are_held_to_the_end(self):
        # min(d_i) bounds the overlap of end-of-invocation locking;
        # last-use release runs past it (bench A8).
        for early, shown in ((True, False), (False, True)):
            interp = Interpreter()
            curare = Curare(interp, assume_sapp=True)
            curare.load_program(TAIL_READ_SRC)
            result = curare.transform("f", early_release=early)
            assert result.locking.concurrency_bound == 1
            assert ("lock-limited concurrency" in result.report()) == shown


class TestSerializeRelease:
    def test_serialize_lock_released_before_pure_tail(self):
        src = """
        (declaim (pure burn))
        (defun burn (n) (let ((i 0)) (while (< i n) (setq i (1+ i))) i))
        (defun g (l)
          (when l (setf (car l) (+ 1 (car l))) (g (cdr l)) (print (car l))
            (burn 40)))
        """
        interp = Interpreter()
        curare = Curare(interp)
        curare.load_program(src)
        result = curare.transform("g")
        # The print after the spawn touches shared state, so the lock
        # the missing sapp declaration forces stays, up to the print.
        assert result.locking.serialize_lock is not None
        assert not result.locking.serialized
        text = write_str(result.final_form)
        tail = text[text.index("(spawn"):]
        assert tail.index("(unlock-var! '%serialize-g%)") \
            < tail.index("(burn 40)")
        assert "runs serialized" not in result.report()

    def test_report_says_when_code_runs_serialized(self):
        # The misdeclared benchmark family without its lying
        # declaration: its last shared-state use is its last statement.
        src = """
        (declaim (pure burn))
        (defun burn (n) (let ((i 0)) (while (< i n) (setq i (1+ i))) i))
        (defun f (l)
          (when l (burn 5) (f (cdr l)) (setf (car l) 0)
            (when (cdr l) (setf (cadr l) 1))))
        """
        interp = Interpreter()
        curare = Curare(interp)
        curare.load_program(src)
        report = curare.transform("f").report()
        assert "runs serialized" in report
        assert "parameter l needs (declaim (sapp f l))" in report
