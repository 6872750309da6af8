"""OBS — flight-recorder overhead on the figure-10 workload.

The observability layer is pay-for-what-you-use: with no recorder the
hook sites are a ``None`` check, and with one armed the cost must stay
small relative to the run itself.  This benchmark times the figure-10
trace workload (transform + machine run, the ``repro trace fig10``
path) with the recorder off and on, interleaved to be fair to both, and
writes the measured overhead to ``benchmarks/results/observability.json``
(enveloped, ``kind: obs-bench``).  The committed
``BENCH_observability.json`` at the repo root is a copy of one such
run; a run never overwrites it.

Acceptance bar (ISSUE 2): recorded-run overhead **< 25 %**.
"""

from __future__ import annotations

import pathlib
import statistics
import time

from repro.envelope import KIND_OBS, dumps, wrap
from repro.harness.report import format_table, shape_check
from repro.obs import Recorder
from repro.obs.workloads import run_trace_workload, trace_workloads

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULT_JSON = RESULTS_DIR / "observability.json"
ROUNDS = 7
OVERHEAD_BAR = 0.25


def one_run(recorded: bool) -> tuple[float, int]:
    """Time one full fig10 run; returns (seconds, events recorded)."""
    workload = trace_workloads()["fig10"]
    recorder = Recorder() if recorded else None
    start = time.perf_counter()
    run = run_trace_workload(workload, recorder)
    elapsed = time.perf_counter() - start
    assert run.result_text is not None
    return elapsed, len(recorder.events) if recorder else 0


def measure() -> dict:
    one_run(False)  # warm both paths (imports, first-touch caches)
    one_run(True)
    off_times: list[float] = []
    on_times: list[float] = []
    events = 0
    for _ in range(ROUNDS):  # interleaved: drift hits both paths alike
        t_off, _ = one_run(False)
        t_on, n = one_run(True)
        off_times.append(t_off)
        on_times.append(t_on)
        events = n
    off = statistics.median(off_times)
    on = statistics.median(on_times)
    overhead = on / off - 1.0
    return {
        "workload": "fig10",
        "rounds": ROUNDS,
        "recorder_off_s": round(off, 6),
        "recorder_on_s": round(on, 6),
        "overhead_fraction": round(overhead, 4),
        "overhead_bar": OVERHEAD_BAR,
        "events_per_recorded_run": events,
    }


def test_obs_overhead(benchmark, record_table):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    RESULT_JSON.write_text(dumps(wrap(KIND_OBS, result)),
                           encoding="utf-8")
    table = format_table(
        ["recorder", "median s", "overhead"],
        [
            ("off", f"{result['recorder_off_s']:.4f}", "—"),
            ("on", f"{result['recorder_on_s']:.4f}",
             f"{result['overhead_fraction']:+.1%}"),
        ],
    )
    under_bar = result["overhead_fraction"] < OVERHEAD_BAR
    emits = result["events_per_recorded_run"] > 0
    checks = [
        shape_check(
            f"recorded-run overhead {result['overhead_fraction']:+.1%} "
            f"< {OVERHEAD_BAR:.0%}",
            under_bar,
        ),
        shape_check(
            f"a recorded fig10 run emits events "
            f"(got {result['events_per_recorded_run']})",
            emits,
        ),
    ]
    record_table("bench_obs_overhead", table + "\n" + "\n".join(checks))
    assert under_bar, checks[0]
    assert emits, checks[1]
