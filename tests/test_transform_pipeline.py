"""Unit tests: the end-to-end Curare driver."""

import pytest

from repro.declare import (
    DeclarationRegistry,
    ParallelizeDecl,
    ReorderableDecl,
    AssociativeDecl,
)
from repro.runtime.machine import Machine
from repro.sexpr.printer import write_str
from repro.transform.pipeline import Curare


class TestDriverDecisions:
    def test_non_recursive_not_transformed(self, curare):
        curare.load_program("(defun g (x) (* x 2))")
        result = curare.transform("g")
        assert not result.transformed
        assert "not recursive" in result.reason

    def test_parallelize_nil_respected(self, interp):
        decls = DeclarationRegistry([ParallelizeDecl("w", False)])
        curare = Curare(interp, decls=decls, assume_sapp=True)
        curare.load_program("(defun w (l) (when l (w (cdr l))))")
        result = curare.transform("w")
        assert not result.transformed
        assert "forbids" in result.reason

    def test_clean_function_spawnified_without_locks(self, curare, fig3_src):
        curare.load_program(fig3_src)
        result = curare.transform("f3")
        assert result.transformed and result.lock_count == 0
        assert result.cri.spawned_sites == 1

    def test_conflicting_function_gets_locks(self, curare, fig5_src):
        curare.load_program(fig5_src)
        result = curare.transform("f5")
        assert result.transformed and result.lock_count == 2
        assert result.locking.concurrency_bound == 1

    def test_strict_function_iterated(self, curare):
        curare.decls.add(AssociativeDecl("*"))
        curare.load_program("(defun fac (n) (if (<= n 1) 1 (* n (fac (1- n)))))")
        result = curare.transform("fac")
        assert result.transformed
        assert result.iteration is not None
        # Fully iterative: callable and correct.
        assert curare.runner.eval_text("(fac-cc 5)") == 120

    def test_strict_without_declaration_fails_with_reason(self, curare):
        curare.load_program("(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
        result = curare.transform("fib")
        assert not result.transformed
        assert "iteration failed" in result.reason

    def test_stored_function_goes_dps(self, curare, remq_src):
        curare.load_program(remq_src)
        result = curare.transform("remq")
        assert result.transformed and result.dps is not None
        assert result.lock_count == 0  # freshness provenance

    def test_stored_function_futures_when_dps_disabled(self, curare, remq_src):
        curare.load_program(remq_src)
        result = curare.transform("remq", prefer_dps=False, suffix="-fut")
        assert result.transformed and result.dps is None
        assert result.cri.future_sites >= 1

    def test_report_renders(self, curare, fig5_src):
        curare.load_program(fig5_src)
        result = curare.transform("f5")
        report = result.report()
        assert "f5-cc" in report and "lock" in report

    def test_post_headtail_available(self, curare, fig3_src):
        curare.load_program(fig3_src)
        result = curare.transform("f3")
        assert result.post_headtail is not None
        # After hoisting, the head shrank: tail is non-empty now.
        assert result.post_headtail.t_size > 0


class TestDefinedFunctions:
    def test_transformed_function_defined(self, curare, fig3_src):
        curare.load_program(fig3_src)
        curare.transform("f3")
        assert curare.interp.intern("f3-cc") in curare.interp.functions

    def test_custom_suffix(self, curare, fig3_src):
        curare.load_program(fig3_src)
        curare.transform("f3", suffix="-par")
        assert curare.interp.intern("f3-par") in curare.interp.functions

    def test_define_false_leaves_interp_untouched(self, curare, fig3_src):
        curare.load_program(fig3_src)
        curare.transform("f3", suffix="-ghost", define=False)
        assert curare.interp.intern("f3-ghost") not in curare.interp.functions


class TestEndToEndEquivalence:
    def test_fig5_machine_equals_sequential(self, curare, fig5_src):
        curare.load_program(fig5_src)
        curare.transform("f5")
        curare.runner.eval_text(
            "(setq a (list 5 1 4 2 3)) (setq b (list 5 1 4 2 3)) (f5 a)"
        )
        m = Machine(curare.interp, processors=4)
        m.spawn_text("(f5-cc b)")
        m.run()
        assert write_str(curare.runner.eval_text("a")) == write_str(
            curare.runner.eval_text("b")
        )

    def test_remq_machine_equals_sequential(self, curare, remq_src):
        curare.load_program(remq_src)
        curare.transform("remq")
        seq = write_str(curare.runner.eval_text("(remq 1 (list 1 2 1 3))"))
        curare.runner.eval_text("(setq src (list 1 2 1 3))")
        m = Machine(curare.interp, processors=4)
        p = m.spawn_text("(setq got (remq-cc 1 src))")
        m.run()
        assert write_str(curare.runner.eval_text("got")) == seq

    def test_reorderable_accumulator_end_to_end(self, interp):
        decls = DeclarationRegistry([ReorderableDecl("+")])
        curare = Curare(interp, decls=decls, assume_sapp=True)
        curare.load_program(
            "(defun tally (l) (when l (setq total (+ total (car l))) (tally (cdr l))))"
        )
        result = curare.transform("tally")
        assert result.transformed
        assert result.reorder is not None and result.reorder.atomicized == 1
        curare.runner.eval_text("(setq total 0) (setq d (list 1 2 3 4 5 6))")
        m = Machine(interp, processors=4)
        m.spawn_text("(tally-cc d)")
        m.run()
        assert interp.globals.lookup("total") == 21

    def test_enqueue_mode_with_server_pool(self, curare, fig3_src):
        from repro.runtime.servers import run_server_pool
        from repro.sexpr.datum import lisp_list

        curare.load_program(fig3_src)
        result = curare.transform("f3", mode="enqueue")
        assert result.transformed
        curare.runner.eval_text("(setq d (list 1 2 3 4 5))")
        d = curare.interp.globals.lookup("d")
        pool = run_server_pool(curare.interp, "f3-cc", [d], servers=3)
        assert pool.total_invocations == 6  # 5 cells + the nil base case

    def test_random_schedule_stress(self, fig5_src):
        from repro.lisp.interpreter import Interpreter

        results = set()
        for seed in range(6):
            interp = Interpreter()
            curare = Curare(interp, assume_sapp=True)
            curare.load_program(fig5_src)
            curare.transform("f5")
            curare.runner.eval_text("(setq d (list 1 2 3 4 5 6))")
            m = Machine(interp, processors=3, policy="random", seed=seed)
            m.spawn_text("(f5-cc d)")
            m.run()
            results.add(write_str(curare.runner.eval_text("d")))
        assert results == {"(1 3 6 10 15 21)"}
