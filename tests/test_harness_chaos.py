"""Integration tests: the chaos sweep and graceful degradation.

The sweep contract under test is the tentpole acceptance criterion:
every paper workload, attacked by every seeded fault plan, either
passes the final-state sequentializability check or records a recovery
that re-executed sequentially and matched the oracle — **zero silent
wrong answers**.
"""

import pytest

from repro.harness.chaos import (
    ChaosOutcome,
    ChaosWorkload,
    RobustnessReport,
    chaos_sweep,
    misdeclared_workload,
    paper_workloads,
    run_chaos_case,
)
from repro.harness.report import format_robustness
from repro.harness.runner import run_with_recovery
from repro.runtime.faults import NullFaultPlan, fault_matrix


class TestChaosSweep:
    def test_paper_workloads_survive_the_fault_matrix(self):
        """The headline: ≥5 distinct seeded plans × every paper
        workload, all ok (correct programs never even need recovery)."""
        report = chaos_sweep(paper_workloads(6), seed=2)
        plans = {o.plan for o in report.outcomes}
        assert len(plans) >= 5
        assert report.ok
        assert report.failed == 0
        assert report.passed == report.runs  # no recoveries needed
        assert report.total_faults > 0  # the matrix actually attacked

    def test_sweep_includes_misdeclared_recovery(self):
        workloads = [paper_workloads(5)[2], misdeclared_workload(5)]
        report = chaos_sweep(workloads, seed=4,
                             plans=fault_matrix(4)[:2])
        assert report.ok  # recovered ≠ failed
        assert report.recovered == 2  # misdeclared cell per plan
        assert report.passed == 2
        assert report.total_races >= 2
        assert bool(report) is True

    def test_report_rendering(self):
        report = chaos_sweep([paper_workloads(5)[1]], seed=0,
                             plans=fault_matrix(0)[:1])
        text = format_robustness(report)
        assert "fig4-shift" in text
        assert "stall-storm" in text
        assert "[PASS] no silent wrong answers" in text

    def test_failed_cell_fails_the_report(self):
        report = RobustnessReport(outcomes=[
            ChaosOutcome("w", "p", 0, None, status="FAILED"),
        ])
        assert not report.ok
        assert bool(report) is False
        assert report.outcomes[0].silent_wrong_answer
        assert "[FAIL]" in format_robustness(report)


class TestRunChaosCase:
    def test_null_plan_cell_ok(self):
        outcome = run_chaos_case(paper_workloads(5)[2], NullFaultPlan())
        assert outcome.status == "ok"
        assert outcome.faults_injected == 0
        assert outcome.races == 0
        assert outcome.concurrent_time > 0

    def test_cross_check_recorded_for_head_ordered(self):
        outcome = run_chaos_case(paper_workloads(5)[2], NullFaultPlan())
        assert outcome.cross_check_agrees is True

    def test_output_set_comparison_for_print_workload(self):
        """fig3 prints from concurrent processes: output *order* differs
        from sequential, but the multiset must match."""
        outcome = run_chaos_case(paper_workloads(6)[0],
                                 fault_matrix(1)[3])  # preempt-storm
        assert outcome.status == "ok"


_SEARCH = ChaosWorkload(
    name="search",
    program="(declaim (any-result probe) (pure hit))\n"
            "(defun hit (x) (= x 42))\n"
            "(defun probe (lst)\n"
            "  (cond ((null lst) nil)\n"
            "        ((hit (car lst)) (car lst))\n"
            "        (t (probe (cdr lst)))))",
    fname="probe",
    setup="(setq d (list 5 17 42 8 23 11))",
    call="({fn} d)",
    head_ordered=False,
)

# Prints the outcomes of the misdeclared cell and of the search cell
# (its fields in argv[1]) from a fresh process.
_FRESH = """
import json, sys
from repro.harness.chaos import (ChaosWorkload, misdeclared_workload,
                                 run_chaos_case)
from repro.runtime.faults import fault_matrix
search = ChaosWorkload(**json.loads(sys.argv[1]))
print(json.dumps([repr(run_chaos_case(cell, fault_matrix(3)[0], sched_seed=3))
                  for cell in (misdeclared_workload(6), search)]))
"""


class TestOutcomeIsAFunctionOfTheCell:
    """Race locations are named by first-seen order within the cell, not
    by process-global cons-cell ids, so an outcome does not depend on
    what ran earlier in the process."""

    def test_equal_fresh_and_after_another_seeds_cells(self):
        import dataclasses
        import json
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        env = dict(os.environ,
                   PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", _FRESH,
             json.dumps(dataclasses.asdict(_SEARCH))],
            capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 0, done.stderr[-2000:]
        fresh = json.loads(done.stdout)
        chaos_sweep(paper_workloads(5)[2:5], seed=8,
                    plans=fault_matrix(8)[:2])
        later = [run_chaos_case(cell, fault_matrix(3)[0], sched_seed=3)
                 for cell in (misdeclared_workload(6), _SEARCH)]
        assert [repr(outcome) for outcome in later] == fresh
        for outcome in later:
            assert outcome.status == "recovered"
            assert outcome.recovery_cause.startswith("race: race at loc (")
            assert outcome.detail == outcome.recovery_cause


class TestRunWithRecovery:
    def test_correct_program_passes(self):
        outcome = run_with_recovery(
            "(defun f5 (l)\n"
            "  (cond ((null l) nil)\n"
            "        ((null (cdr l)) (f5 (cdr l)))\n"
            "        (t (setf (cadr l) (+ (car l) (cadr l)))\n"
            "           (f5 (cdr l)))))",
            "f5",
            "(setq data (list 1 2 3 4 5))",
            "({fn} data)",
            read_back="(identity data)",
        )
        assert outcome.status == "ok"

    def test_misdeclared_program_recovers(self):
        w = misdeclared_workload(5)
        outcome = run_with_recovery(
            w.program, w.fname, w.setup, w.call,
            read_back=w.read_back,
            faults=fault_matrix(6)[5],  # mixed
        )
        assert outcome.status == "recovered"
        assert outcome.races >= 1
