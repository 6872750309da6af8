"""Unit tests: FORTRAN-style array dependence analysis (§2)."""

import pytest

from repro.analysis.arrays import (
    ArrayRef,
    NumericStep,
    array_conflicts,
    collect_array_refs,
    numeric_steps,
    resolve_index,
)
from repro.analysis.conflicts import analyze_function
from repro.ir.lower import lower_expr, lower_function


def lower1(interp, text):
    return lower_expr(interp, interp.load(text)[0])


class TestResolveIndex:
    def test_bare_var(self, interp):
        node = lower1(interp, "i")
        var, off = resolve_index(node)
        assert var.name == "i" and off == 0

    def test_plus_const(self, interp):
        assert resolve_index(lower1(interp, "(+ i 2)"))[1] == 2
        assert resolve_index(lower1(interp, "(+ 3 i)"))[1] == 3

    def test_minus_const(self, interp):
        assert resolve_index(lower1(interp, "(- i 2)"))[1] == -2

    def test_incr_decr(self, interp):
        assert resolve_index(lower1(interp, "(1+ i)"))[1] == 1
        assert resolve_index(lower1(interp, "(1- i)"))[1] == -1

    def test_unresolvable(self, interp, runner):
        runner.eval_text("(defun g (x) x)")
        assert resolve_index(lower1(interp, "(g i)")) is None
        assert resolve_index(lower1(interp, "(* i 2)")) is None
        assert resolve_index(lower1(interp, "(+ i j)")) is None


class TestNumericSteps:
    def test_unit_step(self, interp, runner):
        runner.eval_text("(defun f (v i) (when (< i 5) (f v (1+ i))))")
        func = lower_function(interp, interp.intern("f"))
        steps = numeric_steps(func)
        assert steps[interp.intern("i")] == NumericStep(1)
        assert steps[interp.intern("v")] == NumericStep(0)

    def test_step_two(self, interp, runner):
        runner.eval_text("(defun f (i) (when (< i 5) (f (+ i 2))))")
        func = lower_function(interp, interp.intern("f"))
        assert numeric_steps(func)[interp.intern("i")] == NumericStep(2)

    def test_negative_step(self, interp, runner):
        runner.eval_text("(defun f (i) (when (> i 0) (f (1- i))))")
        func = lower_function(interp, interp.intern("f"))
        assert numeric_steps(func)[interp.intern("i")] == NumericStep(-1)

    def test_mixed_sites_poisoned(self, interp, runner):
        runner.eval_text("(defun f (i) (if (evenp i) (f (1+ i)) (f (+ i 2))))")
        func = lower_function(interp, interp.intern("f"))
        assert numeric_steps(func)[interp.intern("i")] is None

    def test_non_numeric_arg_poisoned(self, interp, runner):
        runner.eval_text("(defun g (x) x) (defun f (i) (when i (f (g i))))")
        func = lower_function(interp, interp.intern("f"))
        assert numeric_steps(func)[interp.intern("i")] is None


class TestConflicts:
    def analyze(self, interp, runner, src):
        runner.eval_text(src)
        return analyze_function(interp, interp.intern("f"), assume_sapp=True)

    def test_stencil_distance_one(self, interp, runner):
        a = self.analyze(
            interp, runner,
            """(defun f (v i n)
                 (when (< i n)
                   (setf (aref v (1+ i)) (aref v i))
                   (f v (1+ i) n)))""",
        )
        assert a.min_distance() == 1
        kinds = {c.kind for c in a.active_conflicts()}
        assert "flow" in kinds

    @pytest.mark.parametrize("gap,expected", [(1, 1), (2, 2), (3, 3)])
    def test_distance_scales_with_offset(self, interp, runner, gap, expected):
        a = self.analyze(
            interp, runner,
            f"""(defun f (v i n)
                  (when (< i n)
                    (setf (aref v (+ i {gap})) (aref v i))
                    (f v (1+ i) n)))""",
        )
        assert a.min_distance() == expected

    def test_step_two_halves_distance(self, interp, runner):
        a = self.analyze(
            interp, runner,
            """(defun f (v i n)
                 (when (< i n)
                   (setf (aref v (+ i 4)) (aref v i))
                   (f v (+ i 2) n)))""",
        )
        assert a.min_distance() == 2

    def test_offset_not_multiple_of_step_no_conflict(self, interp, runner):
        a = self.analyze(
            interp, runner,
            """(defun f (v i n)
                 (when (< i n)
                   (setf (aref v (+ i 3)) (aref v i))
                   (f v (+ i 2) n)))""",
        )
        # 3 is not a multiple of 2: disjoint element sets... except the
        # read at i and write at i+3 hit odd/even interleavings — the
        # GCD test says gcd(2)=2 ∤ 3 → no dependence.
        assert a.conflict_free

    def test_same_offset_no_cross_invocation_conflict(self, interp, runner):
        a = self.analyze(
            interp, runner,
            """(defun f (v i n)
                 (when (< i n)
                   (setf (aref v i) (+ (aref v i) 1))
                   (f v (1+ i) n)))""",
        )
        assert a.conflict_free

    def test_read_only_no_conflict(self, interp, runner):
        a = self.analyze(
            interp, runner,
            """(defun f (v i n)
                 (when (< i n)
                   (print (aref v i))
                   (print (aref v (1+ i)))
                   (f v (1+ i) n)))""",
        )
        assert a.conflict_free

    def test_unknown_index_conservative(self, interp, runner):
        runner.eval_text("(declaim (pure h)) (defun h (x) x)")
        a = self.analyze(
            interp, runner,
            """(defun f (v i n)
                 (when (< i n)
                   (setf (aref v (h i)) 0)
                   (f v (1+ i) n)))""",
        )
        assert not a.conflict_free

    def test_double_indirection_conservative(self, interp, runner):
        # A[A[i]] — the paper's footnote 1: pointers-in-arrays defeat the
        # FORTRAN techniques; we degrade to unknown index.
        a = self.analyze(
            interp, runner,
            """(defun f (v i n)
                 (when (< i n)
                   (setf (aref v (aref v i)) 0)
                   (f v (1+ i) n)))""",
        )
        assert not a.conflict_free

    def test_two_arrays_alias_by_default(self, interp, runner):
        a = self.analyze(
            interp, runner,
            """(defun f (src dst i n)
                 (when (< i n)
                   (setf (aref dst i) (aref src i))
                   (f src dst (1+ i) n)))""",
        )
        assert any(c.kind == "alias" for c in a.active_conflicts())

    def test_no_alias_declaration_clears(self, interp, runner):
        from repro.declare import DeclarationRegistry, NoAliasDecl

        runner.eval_text(
            """(defun f (src dst i n)
                 (when (< i n)
                   (setf (aref dst i) (aref src i))
                   (f src dst (1+ i) n)))"""
        )
        a = analyze_function(
            interp, interp.intern("f"),
            decls=DeclarationRegistry([NoAliasDecl("f")]),
            assume_sapp=True,
        )
        assert a.conflict_free


class TestEndToEndArrays:
    def test_stencil_pipeline_machine_equivalence(self):
        from repro.lisp.interpreter import Interpreter
        from repro.runtime.machine import Machine
        from repro.transform.pipeline import Curare

        # The tail read of v[i] meets the write of v[i] by the previous
        # invocation across the spawn, so the element locks stay.
        SRC = """
        (defun stencil (v i n)
          (when (< i n)
            (setf (aref v (1+ i)) (+ (aref v (1+ i)) (aref v i)))
            (stencil v (1+ i) n)
            (aref v i)))
        """
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(SRC)
        result = curare.transform("stencil")
        assert result.transformed
        assert result.locking is not None and result.locking.array_locks
        curare.runner.eval_text(
            "(setq a (make-array 10 1)) (setq b (make-array 10 1))"
        )
        curare.runner.eval_text("(stencil a 0 9)")
        machine = Machine(interp, processors=4)
        machine.spawn_text("(stencil-cc b 0 9)")
        machine.run()
        a = interp.globals.lookup("a")
        b = interp.globals.lookup("b")
        assert a.items == b.items == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]

    def test_random_schedules(self):
        from repro.lisp.interpreter import Interpreter
        from repro.runtime.machine import Machine
        from repro.transform.pipeline import Curare

        SRC = """
        (defun fill-back (v i)
          (when (>= i 0)
            (setf (aref v i) (+ (aref v i) i))
            (fill-back v (1- i))))
        """
        expected = None
        for seed in range(5):
            interp = Interpreter()
            curare = Curare(interp, assume_sapp=True)
            curare.load_program(SRC)
            curare.transform("fill-back")
            curare.runner.eval_text("(setq v (make-array 8 10))")
            machine = Machine(interp, processors=3, policy="random", seed=seed)
            machine.spawn_text("(fill-back-cc v 7)")
            machine.run()
            v = interp.globals.lookup("v")
            if expected is None:
                expected = list(v.items)
            assert v.items == expected == [10 + i for i in range(8)]
