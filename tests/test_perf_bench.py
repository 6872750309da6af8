"""The perf bench harness: report structure, regression gate, CLI."""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.cli import main
from repro.envelope import KIND_PERF, unwrap
from repro.perf.bench import (
    BENCH_CASES,
    _measure,
    compare_reports,
    format_report,
    run_suite,
    validate_report,
)

COMMITTED = pathlib.Path(__file__).resolve().parents[1] / "BENCH_perf.json"


@pytest.fixture(scope="module")
def small_report():
    """One cheap real suite run shared by the structure tests."""
    return run_suite(repeats=1, cases=["a12_sapp", "fig07_replay"])


class TestRunSuite:
    def test_report_structure(self, small_report):
        report = small_report
        # run_suite returns the *body*; writers wrap it in the envelope.
        assert "schema_version" not in report
        assert report["repeats"] == 1
        assert report["python"] == sys.version.split()[0]
        assert set(report["cases"]) == {"a12_sapp", "fig07_replay"}
        for case in report["cases"].values():
            assert case["ms"] > 0
            assert case["yardstick_ms"] > 0
            assert case["normalized"] > 0
            assert all(isinstance(v, int) and v > 0
                       for v in case["counts"].values())

    def test_cache_hit_rates_present(self, small_report):
        # Each cache's hits and misses in a cold iteration are counted
        # work, beside the recorder's counters.
        counts = small_report["cases"]["fig07_replay"]["counts"]
        assert counts["perf.cache.paths.sweep.misses"] > 0
        assert counts["machine.steps"] > 0
        assert counts["harness.runs"] == 1

    def test_counts_repeat_across_runs(self, small_report):
        again = run_suite(repeats=2, cases=["fig07_replay"])
        assert again["cases"]["fig07_replay"]["counts"] == \
            small_report["cases"]["fig07_replay"]["counts"]

    def test_measure_raises_when_iterations_count_differently(self):
        calls = iter(range(1, 10))

        def drifting(recorder):
            recorder.count("machine.steps", next(calls))

        with pytest.raises(RuntimeError, match="machine.steps"):
            _measure(drifting, 2)

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            run_suite(repeats=1, cases=["nope"])

    def test_format_report_renders(self, small_report):
        lines = format_report(small_report).splitlines()
        assert "normalized" in lines[0]
        assert len(lines) == 2 + len(small_report["cases"])
        assert lines[2].startswith("| `a12_sapp` |")

    def test_full_suite_has_all_cases(self):
        # The committed baseline covers every case, so the CI gate
        # checks them all.
        baseline = unwrap(json.loads(COMMITTED.read_text(encoding="utf-8")),
                          KIND_PERF)
        assert validate_report(baseline) == []
        assert set(baseline["cases"]) == set(BENCH_CASES)


def _fake_report(counts=None, **normalized):
    """A synthetic report body with given per-case normalized times."""
    return {
        "python": sys.version.split()[0],
        "cases": {
            name: {
                "ms": 10.0 * norm,
                "normalized": norm,
                "counts": dict(counts or {"machine.steps": 100}),
            }
            for name, norm in normalized.items()
        },
    }


class TestCompareReports:
    def test_identical_reports_pass(self):
        report = _fake_report(pipeline=0.4, fig10_replay=0.9)
        assert compare_reports(report, report, 30.0) == []

    def test_small_drift_within_threshold_passes(self):
        baseline = _fake_report(pipeline=0.4)
        current = _fake_report(pipeline=0.5)  # +25% < 30%
        assert compare_reports(current, baseline, 30.0) == []

    def test_synthetic_2x_regression_fails(self):
        baseline = _fake_report(pipeline=0.4, fig10_replay=0.9)
        current = _fake_report(pipeline=0.8, fig10_replay=1.8)
        failures = compare_reports(current, baseline, 30.0)
        assert len(failures) == 2
        assert any("pipeline" in f for f in failures)

    def test_count_changed_by_one_fails(self):
        baseline = _fake_report(pipeline=0.4)
        current = _fake_report({"machine.steps": 101}, pipeline=0.4)
        assert compare_reports(current, baseline, 30.0) == [
            "pipeline: machine.steps counted 101, baseline 100"]

    def test_new_counter_fails(self):
        baseline = _fake_report(pipeline=0.4)
        current = _fake_report({"machine.steps": 100, "machine.runs": 1},
                               pipeline=0.4)
        assert compare_reports(current, baseline, 30.0) == [
            "pipeline: machine.runs counted 1, baseline 0"]

    def test_missing_case_fails(self):
        baseline = _fake_report(pipeline=0.4, fig10_replay=0.9)
        current = _fake_report(pipeline=0.4)
        failures = compare_reports(current, baseline, 30.0)
        assert failures == ["fig10_replay: case missing from current report"]

    def test_extra_current_cases_ignored(self):
        baseline = _fake_report(pipeline=0.4)
        current = _fake_report(pipeline=0.4, brand_new=5.0)
        assert compare_reports(current, baseline, 30.0) == []


def _bench(tmp_path, name, *extra):
    """Run ``repro bench`` on fig07_replay; return (exit code, out path)."""
    out = tmp_path / name
    code = main(["bench", "--cases", "fig07_replay", "--repeats", "5",
                 "--out", str(out), *extra])
    return code, out


def _doctor(tmp_path, source, edit):
    doc = json.loads(source.read_text())
    edit(doc["body"])
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doc))
    return path


class TestCliBench:
    def test_writes_report_and_passes_self_compare(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--cases", "a12_sapp", "--repeats", "1",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["kind"] == "perf-bench"
        assert "a12_sapp" in report["body"]["cases"]
        assert main(["bench", "--cases", "a12_sapp", "--repeats", "1",
                     "--out", str(tmp_path / "second.json"),
                     "--compare", str(out),
                     "--max-regress", "400"]) == 0
        assert "no perf regressions" in capsys.readouterr().out

    def test_compare_without_out_writes_no_file(self, tmp_path,
                                                monkeypatch, capsys):
        # A gate run must leave the committed reference alone: with no
        # --out, the report goes to stdout only.
        code, out = _bench(tmp_path, "bench.json")
        assert code == 0
        baseline = out.read_bytes()
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        capsys.readouterr()
        assert main(["bench", "--cases", "fig07_replay", "--repeats", "5",
                     "--compare", str(out), "--max-regress", "400"]) == 0
        assert list(run_dir.iterdir()) == []
        assert out.read_bytes() == baseline
        assert ";; report:" not in capsys.readouterr().out

    def test_exits_nonzero_on_synthetic_regression(self, tmp_path, capsys):
        # Halving the committed normalized time is a doctored 2x
        # regression: the same code must fail the 30% bound.
        code, out = _bench(tmp_path, "bench.json")
        assert code == 0

        def halve(body):
            for case in body["cases"].values():
                case["normalized"] /= 2.0

        baseline = _doctor(tmp_path, out, halve)
        code, _ = _bench(tmp_path, "cur.json", "--compare", str(baseline),
                         "--max-regress", "30")
        assert code == 1
        assert "normalized time" in capsys.readouterr().out

    def test_exits_nonzero_on_count_changed_by_one(self, tmp_path, capsys):
        code, out = _bench(tmp_path, "bench.json")
        assert code == 0

        def bump(body):
            body["cases"]["fig07_replay"]["counts"]["machine.steps"] += 1

        baseline = _doctor(tmp_path, out, bump)
        code, _ = _bench(tmp_path, "cur.json", "--compare", str(baseline),
                         "--max-regress", "400")
        assert code == 1
        assert "fig07_replay: machine.steps counted" in \
            capsys.readouterr().out

    def test_other_python_version_exits_2(self, tmp_path, capsys):
        code, out = _bench(tmp_path, "bench.json")
        assert code == 0

        def other_python(body):
            major, minor = sys.version_info[:2]
            body["python"] = f"{major}.{minor + 1}.0"

        baseline = _doctor(tmp_path, out, other_python)
        assert main(["bench", "--cases", "fig07_replay", "--repeats", "1",
                     "--out", "", "--compare", str(baseline)]) == 2
        err = capsys.readouterr().err
        assert "was made with Python" in err
        assert len(err.strip().splitlines()) == 1, "one-line diagnostic"

    def test_unknown_case_is_usage_error(self, capsys):
        assert main(["bench", "--cases", "nope", "--out", ""]) == 2

    def test_unreadable_baseline_is_usage_error(self, tmp_path):
        assert main(["bench", "--cases", "a12_sapp", "--repeats", "1",
                     "--out", "", "--compare",
                     str(tmp_path / "missing.json")]) == 2

    def test_malformed_json_baseline_exits_2(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{not valid json", encoding="utf-8")
        assert main(["bench", "--cases", "a12_sapp", "--repeats", "1",
                     "--out", "", "--compare", str(baseline)]) == 2
        err = capsys.readouterr().err
        assert "cannot read baseline" in err
        assert len(err.strip().splitlines()) == 1, "one-line diagnostic"

    def test_wrong_schema_baseline_exits_2(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "schema_version": 1, "kind": KIND_PERF, "body": {
                "python": sys.version.split()[0],
                "cases": {"pipeline": {"normalized": "fast", "counts": {}}},
            }}), encoding="utf-8")
        assert main(["bench", "--cases", "a12_sapp", "--repeats", "1",
                     "--out", "", "--compare", str(baseline)]) == 2
        err = capsys.readouterr().err
        assert "invalid baseline" in err
        assert "normalized" in err
        assert len(err.strip().splitlines()) == 1, "one-line diagnostic"


class TestValidateReport:
    def test_real_report_is_valid(self, small_report):
        assert validate_report(small_report) == []

    def test_non_object_report(self):
        assert validate_report([1, 2]) == [
            "report must be a JSON object, got list"]

    def test_missing_cases(self):
        assert validate_report({}) == ["missing or empty 'cases' object"]
        assert validate_report({"cases": {}}) == [
            "missing or empty 'cases' object"]

    def test_non_object_case(self):
        problems = validate_report({"python": "3.11.7",
                                    "cases": {"pipeline": 3}})
        assert problems == ["cases['pipeline'] is not an object"]

    def test_bad_timing_fields(self):
        problems = validate_report({"python": "3.11.7", "cases": {
            "a": {"counts": {}},                       # missing
            "b": {"normalized": True, "counts": {}},   # bool
            "c": {"normalized": 0.0, "counts": {}},    # non-positive
        }})
        assert len(problems) == 3
        assert all("normalized" in p for p in problems)

    def test_bad_counts_and_python(self):
        problems = validate_report({"cases": {
            "a": {"normalized": 1.0},
            "b": {"normalized": 1.0, "counts": {"machine.steps": 1.5}},
        }})
        assert problems == [
            "missing 'python' version string",
            "cases['a'].counts missing or not an object of integers",
            "cases['b'].counts missing or not an object of integers",
        ]
