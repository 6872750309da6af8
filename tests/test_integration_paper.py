"""Integration tests: every worked example in the paper, end to end.

Each test class is one figure; the assertions restate what the paper
says about it.
"""

import pytest

from repro.analysis.conflicts import analyze_function
from repro.declare import DeclarationRegistry, ReorderableDecl
from repro.harness.workloads import (
    fig3_source,
    fig4_source,
    fig5_source,
    fig8_source,
    make_int_list,
    remq_d_source,
    remq_source,
)
from repro.lisp.interpreter import Interpreter
from repro.lisp.runner import SequentialRunner
from repro.paths.accessor import parse_accessor
from repro.paths.transfer import TransferFunction, min_conflict_distance
from repro.runtime.machine import Machine
from repro.runtime.serializability import check_conflict_order
from repro.sexpr.printer import write_str
from repro.transform.pipeline import Curare


class TestFigure2:
    """(setf (cadr x) ...) conflicts with (caddar? ...) — the statement
    pair whose destination x.cdr.car appears on the other's path."""

    def test_statement_pair_conflict(self):
        # destination of stmt 1: cdr.car; path of stmt 2: cdr.car.car.
        a1 = parse_accessor("cdr.car")
        a2 = parse_accessor("cdr.car.car")
        tau = TransferFunction.identity()  # same variable, same invocation
        assert min_conflict_distance(a1, a2, tau, min_d=0) == 0


class TestFigure3:
    def test_transfer_function_is_cdr_plus(self):
        interp = Interpreter()
        runner = SequentialRunner(interp)
        runner.eval_text(fig3_source())
        from repro.analysis.variables import parameter_transfers
        from repro.ir.lower import lower_function
        from repro.paths.regex import Sym

        info = parameter_transfers(lower_function(interp, interp.intern("f3")))
        # step = cdr; the paper's τ_l = cdr⁺ is its transitive closure.
        assert info.step[interp.intern("l")] == Sym("cdr")

    def test_f3_runs_and_prints_in_order(self):
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(fig3_source())
        curare.transform("f3")
        curare.runner.eval_text(make_int_list(5))
        machine = Machine(interp, processors=3)
        machine.spawn_text("(f3-cc data)")
        machine.run()
        # All five elements printed (order may interleave — printing is
        # not a synchronized location; the *set* is complete).
        assert sorted(machine.outputs) == [1, 2, 3, 4, 5]


class TestFigure4:
    def test_conflict_at_distance_one(self):
        interp = Interpreter()
        runner = SequentialRunner(interp)
        runner.eval_text(fig4_source())
        a = analyze_function(interp, interp.intern("f4"), assume_sapp=True)
        assert a.min_distance() == 1


class TestFigure5:
    def test_sequential_result_is_prefix_sums(self):
        interp = Interpreter()
        runner = SequentialRunner(interp)
        runner.eval_text(fig5_source())
        runner.eval_text(make_int_list(6))
        runner.eval_text("(f5 data)")
        assert write_str(runner.eval_text("data")) == "(1 3 6 10 15 21)"

    def test_paper_conflict_analysis(self):
        interp = Interpreter()
        runner = SequentialRunner(interp)
        runner.eval_text(fig5_source())
        a = analyze_function(interp, interp.intern("f5"), assume_sapp=True)
        active = a.active_conflicts()
        assert len(active) == 1 and active[0].distance == 1

    @pytest.mark.parametrize("processors", [1, 2, 4, 8])
    def test_transformed_equivalent_any_width(self, processors):
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(fig5_source())
        curare.transform("f5")
        curare.runner.eval_text(make_int_list(8))
        machine = Machine(interp, processors=processors)
        machine.spawn_text("(f5-cc data)")
        machine.run()
        assert write_str(curare.runner.eval_text("data")) == "(1 3 6 10 15 21 28 36)"
        assert check_conflict_order(machine.trace).ok


class TestFigure6and7:
    """Sequential vs CRI timelines: the spawned version overlaps
    invocations when the tail is non-trivial."""

    WORK = """
    (declaim (pure burn))
    (defun burn (n) (let ((i 0)) (while (< i n) (setq i (1+ i))) i))
    (defun walkw (l)
      (when l
        (walkw (cdr l))
        (burn 40)))
    """

    def test_cri_overlaps_invocations(self):
        from repro.runtime.clock import FREE_SYNC

        # Sequential.
        i1 = Interpreter()
        r1 = SequentialRunner(i1)
        r1.eval_text(self.WORK + make_int_list(8))
        t0 = r1.time
        r1.eval_text("(walkw data)")
        seq_time = r1.time - t0

        # CRI on 4 processors.
        i2 = Interpreter()
        curare = Curare(i2, assume_sapp=True)
        curare.load_program(self.WORK)
        curare.transform("walkw")
        curare.runner.eval_text(make_int_list(8))
        machine = Machine(i2, processors=4, cost_model=FREE_SYNC)
        machine.spawn_text("(walkw-cc data)")
        stats = machine.run()
        assert stats.total_time < seq_time
        assert stats.mean_concurrency > 1.5


class TestFigure8:
    def test_reorderable_updates_commute(self):
        interp = Interpreter()
        decls = DeclarationRegistry([ReorderableDecl("+")])
        curare = Curare(interp, decls=decls, assume_sapp=True)
        curare.load_program("(setq a 0)" + fig8_source())
        result = curare.transform("f8")
        assert result.transformed
        dismissed = result.analysis.dismissed_conflicts()
        assert dismissed and all("reorderable" in c.dismissed_by for c in dismissed)
        curare.runner.eval_text(make_int_list(10))
        machine = Machine(interp, processors=4)
        machine.spawn_text("(f8-cc data)")
        machine.run()
        assert interp.globals.lookup("a") == 55


class TestFigures12and13:
    def test_hand_written_remq_d_matches_remq(self):
        interp = Interpreter()
        runner = SequentialRunner(interp)
        runner.eval_text(remq_source())
        runner.eval_text(remq_d_source())
        ref = write_str(runner.eval_text("(remq 1 (list 1 2 1 3 1))"))
        got = write_str(
            runner.eval_text(
                "(let ((head (cons nil nil))) (remq-d head 1 (list 1 2 1 3 1)) (cdr head))"
            )
        )
        assert got == ref == "(2 3)"

    def test_curare_dps_equals_hand_written(self):
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(remq_source() + remq_d_source())
        curare.transform("remq")
        ref = write_str(curare.runner.eval_text("(remq 2 (list 2 9 2 8))"))
        got = write_str(curare.runner.eval_text("(remq-cc 2 (list 2 9 2 8))"))
        assert got == ref

    def test_dps_concurrent_machine_run(self):
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(remq_source())
        curare.transform("remq")
        curare.runner.eval_text("(setq src (list 1 2 1 3 1 4 1 5 1 6))")
        machine = Machine(interp, processors=4)
        machine.spawn_text("(setq out (remq-cc 1 src))")
        stats = machine.run()
        assert write_str(curare.runner.eval_text("out")) == "(2 3 4 5 6)"
        assert stats.processes > 1  # invocations really ran as processes


class TestSection5Iteration:
    def test_factorial_pipeline(self):
        from repro.declare import AssociativeDecl

        interp = Interpreter()
        decls = DeclarationRegistry([AssociativeDecl("*")])
        curare = Curare(interp, decls=decls, assume_sapp=True)
        curare.load_program("(defun fac (n) (if (<= n 1) 1 (* n (fac (1- n)))))")
        result = curare.transform("fac")
        assert result.transformed and result.iteration is not None
        for n, expected in [(0, 1), (1, 1), (5, 120), (10, 3628800)]:
            assert curare.runner.eval_text(f"(fac-cc {n})") == expected


class TestSection6Feedback:
    def test_tuning_loop_monotonically_removes_locks(self):
        """The §6 workflow: each added declaration removes obligations."""
        program = """
        (defun zip (a b)
          (when a
            (setf (car a) (+ (car a) (car b)))
            (zip (cdr a) (cdr b))))
        """
        lock_counts = []
        for decls in (
            DeclarationRegistry(),
            DeclarationRegistry(
                [d for d in _parse("(declaim (sapp zip a) (sapp zip b))")]
            ),
            DeclarationRegistry(
                [d for d in _parse(
                    "(declaim (sapp zip a) (sapp zip b) (no-alias zip))"
                )]
            ),
        ):
            interp = Interpreter()
            curare = Curare(interp, decls=decls, assume_sapp=False)
            curare.load_program(program)
            result = curare.transform("zip")
            unknowns = len(result.analysis.unknowns)
            active = len(result.analysis.active_conflicts())
            lock_counts.append((unknowns, active))
        # Unknowns then conflicts fall as declarations are added.
        assert lock_counts[0][0] > lock_counts[1][0]
        assert lock_counts[1][1] > lock_counts[2][1]
        assert lock_counts[2] == (0, 0)


def _parse(text):
    from repro.declare.parser import parse_declaim
    from repro.sexpr.reader import read

    return parse_declaim(read(text))
