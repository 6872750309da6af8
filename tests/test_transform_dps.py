"""Unit tests: the destination-passing-style transform (§5, Fig 12→13)."""

import pytest

from repro.analysis.conflicts import analyze_function
from repro.ir import nodes as N
from repro.ir.unparse import unparse_function
from repro.sexpr.printer import write_str
from repro.transform.dps import DPSError, to_destination_passing


def analyzed(interp, runner, src, name):
    runner.eval_text(src)
    return analyze_function(interp, interp.intern(name), assume_sapp=True)


def install_both(runner, result):
    runner.eval_form(unparse_function(result.func))
    runner.eval_form(unparse_function(result.wrapper))


class TestShape:
    def test_remq_produces_figure13_shape(self, interp, runner, remq_src):
        a = analyzed(interp, runner, remq_src, "remq")
        result = to_destination_passing(a)
        text = write_str(unparse_function(result.func))
        assert result.func.name.name == "remq-d"
        assert "dest" in text
        assert "(setf (cdr dest) nil)" in text
        assert "(remq-d dest obj (cdr lst))" in text  # threading clause
        assert "(cons (car lst) nil)" in text  # fresh cell clause

    def test_dest_is_first_parameter(self, interp, runner, remq_src):
        a = analyzed(interp, runner, remq_src, "remq")
        result = to_destination_passing(a)
        assert result.func.params[0].name == "dest"
        assert [p.name for p in result.func.params[1:]] == ["obj", "lst"]

    def test_wrapper_restores_interface(self, interp, runner, remq_src):
        a = analyzed(interp, runner, remq_src, "remq")
        result = to_destination_passing(a)
        assert result.wrapper.name.name == "remq"
        assert [p.name for p in result.wrapper.params] == ["obj", "lst"]
        text = write_str(unparse_function(result.wrapper))
        assert "(sync)" in text

    def test_converted_site_count(self, interp, runner, remq_src):
        a = analyzed(interp, runner, remq_src, "remq")
        result = to_destination_passing(a)
        assert result.converted_sites == 2


class TestSemantics:
    def test_remq_behaviour_preserved(self, interp, runner, remq_src):
        a = analyzed(interp, runner, remq_src, "remq")
        result = to_destination_passing(a)
        result.wrapper.name = interp.intern("remq-w")
        install_both(runner, result)
        out = runner.eval_text("(remq-w 1 (list 1 2 1 3 1))")
        assert write_str(out) == "(2 3)"
        assert runner.eval_text("(remq-w 9 nil)") is None
        out2 = runner.eval_text("(remq-w 1 (list 1 1 1))")
        assert out2 is None

    def test_keeps_everything_when_no_match(self, interp, runner, remq_src):
        a = analyzed(interp, runner, remq_src, "remq")
        result = to_destination_passing(a)
        result.wrapper.name = interp.intern("remq-w")
        install_both(runner, result)
        assert write_str(runner.eval_text("(remq-w 9 (list 1 2 3))")) == "(1 2 3)"

    def test_copy_list_style(self, interp, runner):
        a = analyzed(
            interp, runner,
            "(defun cp (l) (if (null l) nil (cons (car l) (cp (cdr l)))))",
            "cp",
        )
        result = to_destination_passing(a)
        result.wrapper.name = interp.intern("cp-w")
        install_both(runner, result)
        runner.eval_text("(setq src (list 1 2 3)) (setq out (cp-w src))")
        assert write_str(runner.eval_text("out")) == "(1 2 3)"
        assert runner.eval_text("(eq out src)") is None  # fresh cells


class TestProvenance:
    def test_dps_output_conflict_free_with_freshness(self, interp, runner, remq_src):
        a = analyzed(interp, runner, remq_src, "remq")
        result = to_destination_passing(a)
        dps_analysis = analyze_function(
            interp, result.func, assume_sapp=True,
            fresh_params={result.dest_param.name},
        )
        assert dps_analysis.conflict_free

    def test_dps_output_conservative_without_freshness(self, interp, runner, remq_src):
        """The paper's exact point: a blank-slate flow-insensitive
        analysis of the DPS function must conclude it needs
        synchronization — the provenance annotation is what rescues it."""
        a = analyzed(interp, runner, remq_src, "remq")
        result = to_destination_passing(a)
        dps_analysis = analyze_function(interp, result.func, assume_sapp=True)
        assert not dps_analysis.conflict_free


class TestRejections:
    def test_effect_only_function_rejected(self, interp, runner, fig3_src):
        a = analyzed(interp, runner, fig3_src, "f3")
        # f3's call is TAIL, not STORED — DPS accepts tail threading, so
        # build a genuinely effect-only function instead.
        a2 = analyzed(
            interp, runner,
            "(defun fx (l) (when l (fx (cdr l)) (print 1)))", "fx",
        )
        with pytest.raises(DPSError):
            to_destination_passing(a2)

    def test_strict_function_rejected(self, interp, runner):
        a = analyzed(
            interp, runner,
            "(defun fs (n) (if (<= n 1) 1 (* n (fs (1- n)))))", "fs",
        )
        with pytest.raises(DPSError):
            to_destination_passing(a)

    def test_non_recursive_rejected(self, interp, runner):
        a = analyzed(interp, runner, "(defun g (x) x)", "g")
        with pytest.raises(DPSError):
            to_destination_passing(a)

    def test_multi_store_shape_rejected(self, interp, runner):
        # Self-calls stored deep inside (list ...) have no single
        # destination slot; DPS must refuse so the driver uses futures.
        a = analyzed(
            interp, runner,
            """(defun tr (e)
                 (if (atom e)
                     e
                     (list 'n (tr (car e)) (tr (cdr e)))))""",
            "tr",
        )
        with pytest.raises(DPSError):
            to_destination_passing(a)

    def test_pipeline_falls_back_to_futures(self, interp):
        from repro.transform.pipeline import Curare

        curare = Curare(interp, assume_sapp=True)
        curare.load_program(
            """(defun tr (e)
                 (if (atom e)
                     e
                     (list 'n (tr (car e)) (tr (cdr e)))))"""
        )
        result = curare.transform("tr")
        assert result.transformed
        assert result.dps is None
        assert result.cri.future_sites >= 2


class TestDeclaredSapp:
    """The DPS helper walks the original's lists, so the original's
    ``(declaim (sapp remq lst))`` covers the helper's ``lst``."""

    DECL = "(declaim (sapp remq lst))"

    def transformed(self, remq_src, declared):
        from repro.lisp.interpreter import Interpreter
        from repro.transform.pipeline import Curare

        interp = Interpreter()
        curare = Curare(interp)
        curare.load_program((self.DECL if declared else "") + remq_src)
        result = curare.transform("remq")
        assert result.transformed and result.dps is not None
        return curare, result

    def test_declared_helper_takes_no_lock(self, remq_src):
        _curare, result = self.transformed(remq_src, declared=True)
        assert result.lock_count == 0
        assert "runs serialized" not in result.report()
        assert result.analysis.unknowns == []

    def test_declared_runs_match_the_interpreter_without_races(self, remq_src):
        from repro.lisp.interpreter import Interpreter
        from repro.lisp.runner import SequentialRunner
        from repro.runtime.machine import Machine
        from repro.runtime.racecheck import RaceDetector

        data = "(list 1 2 1 3 1 4 5 1 6)"
        seq = SequentialRunner(Interpreter(), eval_mode="interpreter")
        seq.eval_text(remq_src)
        want = write_str(seq.eval_text(f"(remq 1 {data})"))
        assert want == "(2 3 4 5 6)"
        for schedule in (None, 11, 12, 13):
            curare, _result = self.transformed(remq_src, declared=True)
            races = RaceDetector()
            policy = {} if schedule is None else {"policy": "random",
                                                  "seed": schedule}
            machine = Machine(curare.interp, processors=4,
                              race_detector=races, **policy)
            main = machine.spawn_text(f"(remq-cc 1 {data})")
            machine.run()
            assert write_str(main.result) == want, schedule
            assert races.races == [], schedule

    def test_undeclared_report_names_the_original(self, remq_src):
        _curare, result = self.transformed(remq_src, declared=False)
        report = result.report()
        assert "(declaim (sapp remq lst))" in report
        assert "remq-d lst" not in report
        assert "runs serialized" in report
