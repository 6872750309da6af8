"""Unit tests: the Lisp prelude macros and the §2 set/eval escapes."""

import pytest

from repro.sexpr.printer import write_str


def ev(runner, text):
    return runner.eval_text(text)


class TestIncfDecf:
    def test_incf_default(self, runner):
        assert ev(runner, "(let ((x 1)) (incf x) x)") == 2

    def test_incf_delta(self, runner):
        assert ev(runner, "(let ((x 1)) (incf x 10) x)") == 11

    def test_decf(self, runner):
        assert ev(runner, "(let ((x 5)) (decf x 2) x)") == 3

    def test_incf_heap_place(self, runner):
        ev(runner, "(setq l (list 1 2)) (incf (cadr l) 5)")
        assert write_str(ev(runner, "l")) == "(1 7)"

    def test_incf_returns_new_value(self, runner):
        assert ev(runner, "(let ((x 1)) (incf x 4))") == 5


class TestPushPop:
    def test_push_builds_list(self, runner):
        ev(runner, "(setq s nil) (push 1 s) (push 2 s)")
        assert write_str(ev(runner, "s")) == "(2 1)"

    def test_pop_returns_head(self, runner):
        ev(runner, "(setq s (list 7 8 9))")
        assert ev(runner, "(pop s)") == 7
        assert write_str(ev(runner, "s")) == "(8 9)"

    def test_push_heap_place(self, runner):
        ev(runner, "(setq cell (cons nil nil)) (push 1 (car cell)) (push 2 (car cell))")
        assert write_str(ev(runner, "(car cell)")) == "(2 1)"

    def test_pop_empty_gives_nil(self, runner):
        ev(runner, "(setq s nil)")
        assert ev(runner, "(pop s)") is None


class TestDotimes:
    def test_counts(self, runner):
        assert ev(runner, "(setq n 0) (dotimes (i 5) (incf n)) n") == 5

    def test_index_values(self, runner):
        assert ev(runner, "(setq n 0) (dotimes (i 4) (incf n i)) n") == 6

    def test_result_form(self, runner):
        assert ev(runner, "(setq n 0) (dotimes (i 3 n) (incf n 2))") == 6

    def test_zero_iterations(self, runner):
        assert ev(runner, "(setq n 0) (dotimes (i 0) (incf n)) n") == 0

    def test_fills_array(self, runner):
        ev(runner, "(setq v (make-array 4 0)) (dotimes (i 4) (setf (aref v i) (* i i)))")
        v = runner.eval_text("v")
        assert v.items == [0, 1, 4, 9]


class TestAccessorsAliases:
    def test_first_rest_second_third(self, runner):
        ev(runner, "(setq l (list 10 20 30))")
        assert ev(runner, "(first l)") == 10
        assert write_str(ev(runner, "(rest l)")) == "(20 30)"
        assert ev(runner, "(second l)") == 20
        assert ev(runner, "(third l)") == 30


class TestMacrosExpandBeforeAnalysis:
    def test_incf_visible_to_conflict_detector(self, interp, runner):
        from repro.analysis.conflicts import analyze_function

        runner.eval_text(
            "(defun f (l) (when l (print (cadr l)) (incf (car l)) (f (cdr l))))"
        )
        a = analyze_function(interp, interp.intern("f"), assume_sapp=True)
        # The expanded incf writes car; the cadr read names the next
        # invocation's car → distance-1 conflict, visible only because
        # the macro expanded before analysis.
        assert a.min_distance() == 1

    def test_dotimes_lowered_to_core(self, interp, runner):
        from repro.ir.lower import lower_function
        from repro.ir import nodes as N

        runner.eval_text("(defun g (n) (dotimes (i n) (print i)))")
        func = lower_function(interp, interp.intern("g"))
        kinds = {type(x).__name__ for x in func.walk()}
        assert "While" in kinds


class TestSetEval:
    def test_set_and_symbol_value(self, runner):
        assert ev(runner, "(set 'dyn 42)") == 42
        assert ev(runner, "(symbol-value 'dyn)") == 42
        assert ev(runner, "dyn") == 42

    def test_set_computed_symbol(self, runner):
        ev(runner, "(setq which 'target) (set which 9)")
        assert ev(runner, "target") == 9

    def test_eval_data_as_code(self, runner):
        assert ev(runner, "(eval '(+ 1 2 3))") == 6
        assert ev(runner, "(eval (list '+ 4 5))") == 9

    def test_set_requires_symbol(self, runner):
        from repro.lisp.errors import WrongType

        with pytest.raises(WrongType):
            ev(runner, "(set 5 1)")

    def test_analysis_assumes_worst_for_set(self, interp, runner):
        """§2: 'a program analyzer can reasonably assume the worst about
        their side-effects' — a set-calling recursion serializes."""
        from repro.analysis.conflicts import analyze_function
        from repro.transform.locking import insert_locks

        runner.eval_text(
            "(defun f (l) (when l (set 'g (car l)) (f (cdr l))))"
        )
        a = analyze_function(interp, interp.intern("f"), assume_sapp=True)
        assert a.unknowns
        result = insert_locks(a)
        assert result.serialize_lock is not None

    def test_analysis_assumes_worst_for_eval(self, interp, runner):
        from repro.analysis.conflicts import analyze_function

        runner.eval_text(
            "(defun f (l) (when l (eval (car l)) (f (cdr l))))"
        )
        a = analyze_function(interp, interp.intern("f"), assume_sapp=True)
        assert a.unknowns

    def test_set_eval_program_still_correct_when_transformed(self):
        """The fallback in action: transformed, serialized, correct."""
        from repro.lisp.interpreter import Interpreter
        from repro.runtime.machine import Machine
        from repro.transform.pipeline import Curare

        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(
            "(setq total 0)"
            "(defun f (l) (when l (set 'total (+ (symbol-value 'total) (car l))) (f (cdr l))))"
        )
        result = curare.transform("f")
        assert result.transformed
        curare.runner.eval_text("(setq d (list 1 2 3 4 5))")
        machine = Machine(interp, processors=4)
        machine.spawn_text("(f-cc d)")
        machine.run()
        assert interp.globals.lookup("total") == 15
