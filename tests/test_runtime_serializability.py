"""Unit tests: sequentializability checking (§3.1.1)."""

import pytest

from repro.lisp.interpreter import Interpreter
from repro.lisp.runner import SequentialRunner
from repro.lisp.trace import Trace
from repro.runtime.machine import Machine
from repro.runtime.serializability import (
    check_conflict_order,
    check_sequentializable,
    snapshot_structure,
)
from repro.sexpr.datum import cons, intern, lisp_list


class TestSnapshot:
    def test_atoms(self):
        assert snapshot_structure(42) == ("atom", 42)
        assert snapshot_structure(None) == ("atom", None)
        assert snapshot_structure(intern("sym")) == ("sym", "sym")

    def test_identical_structures_equal(self):
        assert snapshot_structure(lisp_list(1, 2)) == snapshot_structure(lisp_list(1, 2))

    def test_different_structures_differ(self):
        assert snapshot_structure(lisp_list(1, 2)) != snapshot_structure(lisp_list(2, 1))

    def test_identity_ignored(self):
        shared = lisp_list(1)
        a = cons(shared, shared)
        b = cons(lisp_list(1), lisp_list(1))
        # Sharing is visible: a has a backref, b does not.
        assert snapshot_structure(a) != snapshot_structure(b)

    def test_cycles_terminate(self):
        c = cons(1, None)
        c.cdr = c
        snap = snapshot_structure(c)
        assert "backref" in str(snap)

    def test_structs(self, runner, interp):
        runner.eval_text("(defstruct p x) (setq a (make-p 1)) (setq b (make-p 1))")
        a = interp.globals.lookup("a")
        b = interp.globals.lookup("b")
        assert snapshot_structure(a) == snapshot_structure(b)


class TestCheckSequentializable:
    def test_equal_results_pass(self):
        report = check_sequentializable(lisp_list(1, 2), lisp_list(1, 2))
        assert report.ok

    def test_unequal_results_fail(self):
        report = check_sequentializable(lisp_list(1), lisp_list(2))
        assert not report.ok and report.violations

    def test_heap_roots_compared(self):
        report = check_sequentializable(
            None, None,
            sequential_roots=[lisp_list(1, 2)],
            concurrent_roots=[lisp_list(1, 3)],
        )
        assert not report.ok


class TestConflictOrder:
    def test_empty_trace_ok(self):
        assert check_conflict_order(Trace()).ok

    def test_ordered_writes_ok(self):
        t = Trace()
        t.record(1, 1, "write", (10, "car"))
        t.record(2, 2, "write", (10, "car"))
        assert check_conflict_order(t).ok

    def test_inverted_writes_violate(self):
        t = Trace()
        t.record(1, 2, "write", (10, "car"))
        t.record(2, 1, "write", (10, "car"))
        report = check_conflict_order(t)
        assert not report.ok

    def test_reads_do_not_conflict_with_reads(self):
        t = Trace()
        t.record(1, 2, "read", (10, "car"))
        t.record(2, 1, "read", (10, "car"))
        assert check_conflict_order(t).ok

    def test_late_write_before_early_read_violates(self):
        t = Trace()
        t.record(1, 2, "write", (10, "car"))
        t.record(2, 1, "read", (10, "car"))
        assert not check_conflict_order(t).ok

    def test_custom_order_function(self):
        t = Trace()
        t.record(1, 7, "write", (10, "car"))
        t.record(2, 3, "write", (10, "car"))
        # With ranks inverted relative to proc ids, this is fine.
        assert check_conflict_order(t, order_of=lambda p: -p).ok

    def test_different_locations_independent(self):
        t = Trace()
        t.record(1, 2, "write", (10, "car"))
        t.record(2, 1, "write", (11, "car"))
        assert check_conflict_order(t).ok


class TestEndToEndOracle:
    """The full oracle: sequential original vs concurrent transformed."""

    def test_fig5_conflict_order_holds_on_machine(self, fig5_src):
        from repro.transform.pipeline import Curare

        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(fig5_src)
        curare.transform("f5")
        curare.runner.eval_text("(setq d (list 1 2 3 4 5 6))")
        machine = Machine(interp, processors=4)
        machine.spawn_text("(f5-cc d)")
        machine.run()
        report = check_conflict_order(machine.trace)
        assert report.ok, report.violations

    def test_unsynchronized_race_detected(self):
        # Two processes writing the same cell in inverted order produce a
        # conflict-order violation the checker must flag.
        interp = Interpreter()
        runner = SequentialRunner(interp)
        runner.eval_text(
            """
            (setq cell (cons 0 nil))
            (defun slow-write ()
              (let ((i 0)) (while (< i 40) (setq i (1+ i))))
              (setf (car cell) 'slow))
            (defun fast-write ()
              (setf (car cell) 'fast))
            """
        )
        machine = Machine(interp, processors=2)
        machine.spawn_text("(slow-write)")  # proc 1: writes LATE
        machine.spawn_text("(fast-write)")  # proc 2: writes EARLY
        machine.run()
        report = check_conflict_order(machine.trace)
        assert not report.ok
