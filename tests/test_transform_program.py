"""Unit tests: whole-program transformation (§4.1)."""

import pytest

from repro.runtime.machine import Machine
from repro.sexpr.printer import write_str
from repro.transform.program import transform_program

PROGRAM = """
(defun scale (l)
  (when l (setf (car l) (* 2 (car l))) (scale (cdr l))))
(defun zero (l)
  (when l (setf (car l) 0) (zero (cdr l))))
(defun process (a b)
  (scale a)
  (zero b))
(defun ping (n) (when (> n 0) (pong (1- n))))
(defun pong (n) (when (> n 0) (ping (1- n))))
(defun plain (x) (* x x))
"""


class TestDriver:
    def test_transforms_direct_recursions(self, curare):
        curare.load_program(PROGRAM)
        result = transform_program(curare)
        assert set(result.transformed) == {"scale", "zero"}

    def test_mutual_group_reported_not_transformed(self, curare):
        curare.load_program(PROGRAM)
        result = transform_program(curare)
        assert {"ping", "pong"} in result.mutual_groups
        assert "ping" in result.skipped and "pong" in result.skipped

    def test_non_recursive_skipped(self, curare):
        curare.load_program(PROGRAM)
        result = transform_program(curare)
        assert result.skipped["plain"] == "not recursive"

    def test_callers_retargeted(self, curare):
        curare.load_program(PROGRAM)
        result = transform_program(curare)
        assert "process" in result.retargeted_callers
        # process now drives the -cc versions.
        from repro.ir.lower import lower_function
        from repro.ir import nodes as N

        func = lower_function(curare.interp, curare.interp.intern("process"))
        called = {n.fn.name for n in func.walk() if isinstance(n, N.Call)}
        assert "scale-cc" in called and "zero-cc" in called

    def test_retarget_disabled(self, curare):
        curare.load_program(PROGRAM)
        transform_program(curare, retarget_callers=False)
        from repro.ir.lower import lower_function
        from repro.ir import nodes as N

        func = lower_function(curare.interp, curare.interp.intern("process"))
        called = {n.fn.name for n in func.walk() if isinstance(n, N.Call)}
        assert "scale" in called and "scale-cc" not in called

    def test_name_subset(self, curare):
        curare.load_program(PROGRAM)
        result = transform_program(curare, names=["scale"])
        assert set(result.transformed) == {"scale"}

    def test_allocations_cover_budget(self, curare):
        curare.load_program(PROGRAM)
        result = transform_program(curare, processor_budget=8)
        assert set(result.allocations) == {"scale", "zero"}
        assert all(v >= 1 for v in result.allocations.values())

    def test_report_renders(self, curare):
        curare.load_program(PROGRAM)
        result = transform_program(curare)
        text = result.report()
        assert "scale → scale-cc" in text
        assert "mutual recursion" in text


class TestEndToEnd:
    def test_retargeted_program_correct_on_machine(self, curare):
        curare.load_program(PROGRAM)
        transform_program(curare)
        curare.runner.eval_text("(setq a (list 1 2 3 4)) (setq b (list 7 8 9))")
        machine = Machine(curare.interp, processors=4)
        machine.spawn_text("(process a b)")
        machine.run()
        a = curare.interp.globals.lookup("a")
        b = curare.interp.globals.lookup("b")
        assert write_str(a) == "(2 4 6 8)"
        assert write_str(b) == "(0 0 0)"

    def test_transform_kwargs_forwarded(self, curare):
        curare.load_program(PROGRAM)
        result = transform_program(curare, suffix="-par")
        assert result.transformed["scale"].transformed_name == "scale-par"
