"""Perf-suite entry point: ``python benchmarks/perf.py [args...]``.

A thin wrapper over ``python -m repro bench`` (see
:mod:`repro.perf.bench` for the cases and methodology), kept next to
the paper-artifact benchmarks so one directory holds every measured
result.  Also runnable under pytest like its siblings: the test runs a
single-repeat suite and records the human-readable table to
``benchmarks/results/``.
"""

from __future__ import annotations

import sys


def main(argv=None) -> int:
    from repro.cli import main as cli_main

    return cli_main(["bench"] + list(sys.argv[1:] if argv is None else argv))


def test_perf_suite(record_table):
    from repro.perf.bench import BENCH_CASES, format_report, run_suite

    report = run_suite(repeats=2)
    record_table("perf_suite", format_report(report))
    assert set(report["cases"]) == set(BENCH_CASES)
    for case in report["cases"].values():
        assert case["ms"] > 0
        assert case["normalized"] > 0
        # run_suite raises when two iterations count different work, so
        # every case reports one set of counts.
        assert case["counts"]


if __name__ == "__main__":
    raise SystemExit(main())
