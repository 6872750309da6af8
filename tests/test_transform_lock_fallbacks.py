"""Unit tests: whole-array and serialization lock fallbacks.

§6's guarantee made literal: whatever the analyzer cannot name finely it
must still synchronize — "the absence of declarations will not cause it
to produce incorrect programs — only slow ones."
"""

import pytest

from repro.analysis.conflicts import analyze_function
from repro.ir.unparse import unparse_function
from repro.lisp.interpreter import Interpreter
from repro.runtime.machine import Machine
from repro.sexpr.printer import write_str
from repro.transform.locking import insert_locks, plan_locks
from repro.transform.pipeline import Curare


def analyzed(interp, runner, src, name="f", **kw):
    runner.eval_text(src)
    kw.setdefault("assume_sapp", True)
    return analyze_function(interp, interp.intern(name), **kw)


INDIRECT = """
(defun f (v i n)
  (when (< i n)
    (setf (aref v (aref v i)) 0)
    (f v (1+ i) n)))
"""

UNKNOWN_CALLEE = """
(defun helper (l) (setf (car l) 0))
(defun f (l)
  (when l
    (helper l)
    (f (cdr l))))
"""

#: The unknown callee after the spawn: what it touches may cross into a
#: later invocation, so the serialization lock is held to the end.
#: (Before the spawn, the spawn itself orders it: no lock.)
UNKNOWN_CALLEE_TAIL = """
(defun helper (l) (setf (car l) 0))
(defun f (l)
  (when l
    (f (cdr l))
    (helper l)))
"""


class TestWholeArrayLock:
    def test_planned_for_unknown_index(self, interp, runner):
        a = analyzed(interp, runner, INDIRECT)
        _specs, arrays, _vars, whole, _unres = plan_locks(a.active_conflicts())
        assert whole and whole[0].array.name == "v"
        # Element locks on v are subsumed.
        assert not any(s.array.name == "v" for s in arrays)

    def test_emitted_with_arrayp_guard(self, interp, runner):
        a = analyzed(interp, runner, INDIRECT)
        result = insert_locks(a)
        text = write_str(unparse_function(result.func))
        assert "(lock-cell! v)" in text and "(unlock-cell! v)" in text
        assert "(arrayp v)" in text

    def test_serializes_on_machine(self):
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(INDIRECT)
        curare.transform("f")
        # v[i] values are valid indices; the permutation writes must be
        # applied in invocation order.
        curare.runner.eval_text("(setq v (make-array 6 0))")
        curare.runner.eval_text(
            "(setf (aref v 0) 3) (setf (aref v 1) 4) (setf (aref v 2) 5)"
        )
        machine = Machine(interp, processors=4)
        machine.spawn_text("(f-cc v 0 3)")
        machine.run()
        v = interp.globals.lookup("v")
        # Sequential reference.
        i2 = Interpreter()
        from repro.lisp.runner import SequentialRunner

        r2 = SequentialRunner(i2)
        r2.eval_text(INDIRECT)
        r2.eval_text("(setq v (make-array 6 0))")
        r2.eval_text(
            "(setf (aref v 0) 3) (setf (aref v 1) 4) (setf (aref v 2) 5)"
        )
        r2.eval_text("(f v 0 3)")
        ref = i2.globals.lookup("v")
        assert v.items == ref.items


class TestSerializationFallback:
    def test_planned_when_unknowns_remain(self, interp, runner):
        a = analyzed(interp, runner, UNKNOWN_CALLEE)
        result = insert_locks(a)
        assert result.serialize_lock is not None
        text = write_str(unparse_function(result.func))
        assert "%serialize-f%" in text

    def test_not_planned_when_clean(self, interp, runner, fig3_src):
        a = analyzed(interp, runner, fig3_src, name="f3")
        result = insert_locks(a)
        assert result.serialize_lock is None

    def test_serialized_machine_run_correct(self):
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(UNKNOWN_CALLEE_TAIL)
        result = curare.transform("f")
        assert result.locking.serialize_lock is not None
        assert result.locking.serialized
        curare.runner.eval_text("(setq d (list 1 2 3 4 5))")
        machine = Machine(interp, processors=4)
        machine.spawn_text("(f-cc d)")
        stats = machine.run()
        assert write_str(curare.runner.eval_text("d")) == "(0 0 0 0 0)"
        # Serialization: never more than ~1 busy invocation at a time
        # (the head before acquiring the token is tiny).
        assert stats.mean_concurrency < 1.8

    def test_pure_declaration_removes_fallback(self):
        from repro.declare import DeclarationRegistry, PureDecl

        # `helper` writes, so pure would be a LIE here — use a truly
        # pure helper to show the fallback lifting.
        src = """
        (declaim (pure peek))
        (defun peek (l) (car l))
        (defun f (l)
          (when l
            (peek l)
            (f (cdr l))))
        """
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(src)
        result = curare.transform("f")
        assert result.lock_count == 0

    def test_report_mentions_serialization(self):
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(UNKNOWN_CALLEE_TAIL)
        result = curare.transform("f")
        assert "serialization lock" in result.report()
