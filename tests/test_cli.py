"""Unit tests: the command-line interface."""

import pytest

from repro.cli import main

FIG5 = """
(declaim (sapp f5 l))
(defun f5 (l)
  (cond ((null l) nil)
        ((null (cdr l)) (f5 (cdr l)))
        (t (setf (cadr l) (+ (car l) (cadr l)))
           (f5 (cdr l)))))
(setq data (list 1 2 3 4))
"""


@pytest.fixture
def fig5_file(tmp_path):
    path = tmp_path / "fig5.lisp"
    path.write_text(FIG5)
    return str(path)


class TestAnalyze:
    def test_report_printed(self, fig5_file, capsys):
        assert main(["analyze", fig5_file, "-f", "f5"]) == 0
        out = capsys.readouterr().out
        assert "distance 1" in out
        assert "2 self-call site(s)" in out

    def test_sapp_declaration_honored(self, fig5_file, capsys):
        main(["analyze", fig5_file, "-f", "f5"])
        out = capsys.readouterr().out
        assert "needs (declaim (sapp" not in out


class TestTransform:
    def test_prints_transformed_source(self, fig5_file, capsys):
        assert main(["transform", fig5_file, "-f", "f5"]) == 0
        out = capsys.readouterr().out
        assert "(defun f5-cc (l)" in out
        assert "lock-loc!" in out

    def test_custom_suffix(self, fig5_file, capsys):
        main(["transform", fig5_file, "-f", "f5", "--suffix=-par"])
        assert "(defun f5-par" in capsys.readouterr().out

    def test_enqueue_mode(self, fig5_file, capsys):
        main(["transform", fig5_file, "-f", "f5", "--mode", "enqueue"])
        assert "enqueue!" in capsys.readouterr().out

    def test_early_release_flag(self, fig5_file, capsys):
        # Last-use release is the protocol, so the flag is gone.
        main(["transform", fig5_file, "-f", "f5"])
        out = capsys.readouterr().out
        branch = out[out.index("(setf (cadr l)"):]
        assert branch.index("(unlock-loc! ") < branch.index("(spawn")
        with pytest.raises(SystemExit):
            main(["transform", fig5_file, "-f", "f5", "--early-release"])

    def test_untransformable_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "plain.lisp"
        path.write_text("(defun g (x) (* x 2))")
        assert main(["transform", str(path), "-f", "g"]) == 1
        assert "NOT transformed" in capsys.readouterr().out

    def test_whole_program(self, tmp_path, capsys):
        path = tmp_path / "prog.lisp"
        path.write_text(
            """
            (defun a (l) (when l (setf (car l) 0) (a (cdr l))))
            (defun b (l) (when l (b (cdr l))))
            (defun main (l) (a l) (b l))
            """
        )
        assert main(["transform", str(path), "-f", "a",
                     "--whole-program", "--assume-sapp"]) == 0
        out = capsys.readouterr().out
        assert "a → a-cc" in out and "b → b-cc" in out
        assert "retargeted calls inside main" in out


class TestRun:
    def test_transform_and_run(self, fig5_file, capsys):
        code = main([
            "run", fig5_file, "--transform", "f5",
            "-e", "(progn (f5-cc data) (identity data))", "-p", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert ";; value: (1 3 6 10)" in out
        assert "mean concurrency" in out

    def test_plain_run(self, fig5_file, capsys):
        assert main(["run", fig5_file, "-e", "(+ 20 22)"]) == 0
        assert ";; value: 42" in capsys.readouterr().out

    def test_outputs_printed(self, tmp_path, capsys):
        path = tmp_path / "p.lisp"
        path.write_text("(defun go () (print 'hello) 1)")
        main(["run", str(path), "-e", "(go)"])
        assert ";; output: hello" in capsys.readouterr().out

    def test_seeded_random_schedule(self, fig5_file, capsys):
        code = main([
            "run", fig5_file, "--transform", "f5",
            "-e", "(progn (f5-cc data) (identity data))",
            "--seed", "7",
        ])
        assert code == 0
        assert ";; value: (1 3 6 10)" in capsys.readouterr().out

    def test_timeline_rendering(self, fig5_file, capsys):
        main([
            "run", fig5_file, "--transform", "f5",
            "-e", "(f5-cc data)", "--timeline",
        ])
        out = capsys.readouterr().out
        assert "busy processors" in out
        assert "time →" in out

    def test_failed_transform_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "p.lisp"
        path.write_text("(defun g (x) x)")
        assert main(["run", str(path), "--transform", "g", "-e", "(g 1)"]) == 1


class TestRunRobustnessFlags:
    def test_seed_echoed_in_report(self, fig5_file, capsys):
        main([
            "run", fig5_file, "--transform", "f5",
            "-e", "(f5-cc data)", "--seed", "9",
        ])
        assert ";; seed: 9" in capsys.readouterr().out

    def test_seed_also_seeds_fault_plan(self, fig5_file, capsys):
        code = main([
            "run", fig5_file, "--transform", "f5",
            "-e", "(progn (f5-cc data) (identity data))",
            "--seed", "3", "--faults", "mixed",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert ";; value: (1 3 6 10)" in out  # still sequentializable
        assert ";; seed: 3 (scheduling + fault plan)" in out
        assert ";; faults: mixed:" in out

    def test_race_check_summary(self, fig5_file, capsys):
        main([
            "run", fig5_file, "--transform", "f5",
            "-e", "(f5-cc data)", "--race-check",
        ])
        assert ";; races: no races" in capsys.readouterr().out

    def test_unknown_fault_plan_rejected(self, fig5_file, capsys):
        code = main([
            "run", fig5_file, "-e", "(+ 1 2)", "--faults", "nope",
        ])
        assert code == 2
        assert "unknown fault plan" in capsys.readouterr().err


class TestChaos:
    def test_smoke_sweep_passes(self, capsys):
        code = main([
            "chaos", "--size", "5", "--plans", "mixed", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] no silent wrong answers" in out
        assert "fig5-prefix-sum" in out

    def test_misdeclared_recovers_not_fails(self, capsys):
        code = main([
            "chaos", "--size", "5", "--plans", "stall-storm",
            "--misdeclared",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "wipe-misdeclared" in out

    def test_unknown_plan_rejected(self, capsys):
        assert main(["chaos", "--plans", "bogus"]) == 2
        assert "unknown fault plan" in capsys.readouterr().err


class TestTrace:
    def test_list_workloads(self, capsys):
        assert main(["trace", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig06", "fig07", "fig10"):
            assert name in out

    def test_missing_workload_is_usage_error(self, capsys):
        assert main(["trace"]) == 2
        assert "workload name required" in capsys.readouterr().err

    def test_unknown_workload_is_usage_error(self, capsys):
        assert main(["trace", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err and "fig07" in err

    def test_trace_prints_profile_by_default(self, capsys):
        assert main(["trace", "fig07"]) == 0
        out = capsys.readouterr().out
        assert ";; workload: fig07" in out
        assert ";; profile" in out
        assert "mean concurrency" in out

    def test_trace_out_chrome_validates(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "fig07.json"
        assert main(["trace", "fig07", "--trace-out", str(out_path)]) == 0
        assert f";; trace (chrome): {out_path}" in capsys.readouterr().out
        trace = json.loads(out_path.read_text())
        assert validate_chrome_trace(trace) == []
        assert trace["traceEvents"]

    def test_trace_out_jsonl(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "fig07.jsonl"
        code = main([
            "trace", "fig07",
            "--trace-out", str(out_path), "--trace-format", "jsonl",
        ])
        assert code == 0
        lines = out_path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == "repro-obs-jsonl"
        assert header["version"] == 1
        assert json.loads(lines[-1])["metrics"]

    def test_unwritable_trace_path_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "no" / "such" / "dir" / "out.json"
        assert main(["trace", "fig07", "--trace-out", str(bad)]) == 2
        assert "cannot write trace" in capsys.readouterr().err

    def test_seeded_trace_echoes_seed(self, capsys):
        assert main(["trace", "fig06", "--seed", "5"]) == 0
        assert ";; seed: 5" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_run_profile(self, fig5_file, capsys):
        code = main([
            "run", fig5_file, "--transform", "f5",
            "-e", "(f5-cc data)", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert ";; profile" in out
        assert "machine.steps" in out

    def test_run_trace_out(self, fig5_file, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "run.json"
        code = main([
            "run", fig5_file, "--transform", "f5",
            "-e", "(f5-cc data)", "--trace-out", str(out_path),
        ])
        assert code == 0
        assert validate_chrome_trace(json.loads(out_path.read_text())) == []

    def test_run_unwritable_trace_path_exits_2(self, fig5_file, tmp_path,
                                               capsys):
        bad = tmp_path / "missing-dir" / "out.json"
        code = main([
            "run", fig5_file, "-e", "(+ 1 1)", "--trace-out", str(bad),
        ])
        assert code == 2
        assert "cannot write trace" in capsys.readouterr().err

    def test_run_without_flags_prints_no_profile(self, fig5_file, capsys):
        assert main(["run", fig5_file, "-e", "(+ 1 1)"]) == 0
        assert ";; profile" not in capsys.readouterr().out

    def test_chaos_trace_out(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "chaos.json"
        code = main([
            "chaos", "--size", "5", "--plans", "mixed", "--seed", "1",
            "--trace-out", str(out_path),
        ])
        assert code == 0
        trace = json.loads(out_path.read_text())
        assert validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert "chaos.cell" in names and "chaos.sweep" in names


SUBCOMMANDS = ["analyze", "transform", "run", "serve", "chaos", "bench",
               "sweep", "trace"]


class TestHelpAndExitCodes:
    """The CLI's exit-code contract: bare ``repro`` prints help and
    exits 2; ``--help`` always exits 0."""

    def test_no_subcommand_prints_help_and_exits_2(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        for name in SUBCOMMANDS:
            assert name in err

    def test_top_level_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_every_subcommand_help_exits_0(self, name, capsys):
        with pytest.raises(SystemExit) as info:
            main([name, "--help"])
        assert info.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_serve_rejects_zero_workers(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_serve_rejects_negative_backlog(self, capsys):
        assert main(["serve", "--backlog", "-1"]) == 2
        assert "backlog" in capsys.readouterr().err
