"""Machine-level differential: merged tick runs change no machine run.

The compiled evaluator's trampoline hands the machine each run of
adjacent ticks as one charge (``repro.lisp.trampoline``); the
interpreter still yields one ``Tick`` per operation.  A run of ticks is
invisible to every other process, so both must drive the machine to
the same end: the same outcome, clock and message, the same trace and
``MachineStats``, and the same fault-plan injections and RNG state —
under every plan of the fault matrix, FIFO and seeded-random
scheduling, and at ``max_time`` and lock-watchdog limits on either side
of the merge cap.

The second half pins the run-length concurrency record
(``MachineStats.concurrency_runs``) against the per-tick sample list it
replaced: the mean, the peak and the occupancy sparkline must not move.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.harness.timeline import _BLOCKS, occupancy_sparkline
from repro.lisp.errors import LispError
from repro.lisp.interpreter import Interpreter
from repro.lisp.runner import SequentialRunner
from repro.lisp.trampoline import TICK_RUN_CAP
from repro.obs import Recorder
from repro.obs.golden import diff_projections
from repro.runtime import machine as machine_module
from repro.runtime.faults import fault_matrix
from repro.runtime.machine import (
    LockWaitTimeout,
    Machine,
    MachineStats,
    MachineTimeout,
)
from tests import test_machine_differential as differential
from tests.test_machine_differential import _plan_state, _run_trace_workload
from tests.test_runtime_machine_errors import STOP_PROGRAM, _cells, _stop_run

WORKLOADS = ("fig06", "fig07", "fig10")
FAULT_SEED = 5
PLANS = ["none"] + [plan.name for plan in fault_matrix(FAULT_SEED)]
SCHEDULES = {"fifo": None, "sched3": 3, "sched11": 11}
LIMITS = (TICK_RUN_CAP - 1, TICK_RUN_CAP, TICK_RUN_CAP + 1,
          2 * TICK_RUN_CAP + 3)


def _make_plan(plan_name):
    """A fresh plan each call, so each eval mode starts from one seed."""
    if plan_name == "none":
        return lambda: None
    index = PLANS.index(plan_name) - 1
    return lambda: fault_matrix(FAULT_SEED)[index]


def _schedule(sched):
    seed = SCHEDULES[sched]
    if seed is None:
        return {}
    return {"policy": "random", "rng": random.Random(seed)}


# -- golden workloads -----------------------------------------------------


@pytest.mark.parametrize("sched", sorted(SCHEDULES))
@pytest.mark.parametrize("plan_name", PLANS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_match_across_eval_modes(name, plan_name, sched):
    runs = {}
    for mode in ("interpreter", "compiled"):
        plan = _make_plan(plan_name)()
        run = _run_trace_workload(name, "heap", plan, SCHEDULES[sched],
                                  Recorder(), eval_mode=mode)
        if plan is not None:
            run.update(_plan_state(plan))
        runs[mode] = run
    compiled, interpreted = runs["compiled"], runs["interpreter"]
    assert diff_projections(interpreted.pop("projection"),
                            compiled.pop("projection")) == []
    assert compiled == interpreted


# -- exact stops around the merge cap --------------------------------------

STOPS = {
    # A lone endless pure loop: every charge is a capped run.
    "spin": ("max_time", [("spin", "(let ((i 0)) (while t (setq i (1+ i))))")]),
    # A busy loop next to a parked process.
    "hog": ("max_time", [("parked", "(dequeue! q)"), ("hog", "(hog)")]),
    # A lock waiter starved by a long pure loop.
    "starved": ("lock_wait_timeout",
                [("hog", "(hog)"), ("starved", "(late-waiter)")]),
}


def _both_modes(plan_name, sched, spawns, **limits):
    runs = {}
    for mode in ("interpreter", "compiled"):
        runs[mode] = _stop_run("heap", _make_plan(plan_name), spawns,
                               eval_mode=mode, **_schedule(sched), **limits)
    assert runs["compiled"] == runs["interpreter"]
    return runs["compiled"]


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("sched", sorted(SCHEDULES))
@pytest.mark.parametrize("plan_name", PLANS)
@pytest.mark.parametrize("stop", sorted(STOPS))
def test_limits_around_the_cap(stop, plan_name, sched, limit):
    kind, spawns = STOPS[stop]
    raised, _ = _both_modes(plan_name, sched, spawns, **{kind: limit})
    assert raised is not None
    error, clock, _, _ = raised
    if kind == "max_time":
        assert error is MachineTimeout and clock == limit
    else:
        assert error is LockWaitTimeout and clock > limit


def _failing_run(mode, plan_name, sched):
    interp = Interpreter()
    SequentialRunner(interp).eval_text(STOP_PROGRAM)
    plan = _make_plan(plan_name)()
    machine = Machine(interp, processors=2, faults=plan, eval_mode=mode,
                      **_schedule(sched))
    machine.spawn_text(
        "(let ((i 0)) (while (< i 300) (setq i (1+ i))) (car i))",
        label="boom")
    machine.spawn_text("(churn 20)", label="churn")
    with pytest.raises(LispError) as err:
        machine.run()
    return (_cells(str(err.value)), machine.time, machine.stats,
            [(e.time, e.proc, e.kind) for e in machine.trace],
            None if plan is None else _plan_state(plan))


@pytest.mark.parametrize("sched", sorted(SCHEDULES))
@pytest.mark.parametrize("plan_name", PLANS)
def test_error_after_a_long_run_keeps_its_clock(plan_name, sched):
    compiled = _failing_run("compiled", plan_name, sched)
    assert compiled == _failing_run("interpreter", plan_name, sched)
    message = compiled[0]
    assert re.search(r"process \d+ \(boom\) failed at t=\d+", message)


# -- run-length concurrency samples vs the per-tick list -------------------


class _PerTickStats(MachineStats):
    """Also keeps the per-tick sample list the runs replaced."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.per_tick: list[int] = []

    def sample(self, busy, ticks=1):
        super().sample(busy, ticks)
        self.per_tick.extend([busy] * ticks)


def _oracle_sparkline(samples, stats, width=72, processors=None):
    """``occupancy_sparkline`` as it was over the per-tick list."""
    if not samples:
        return "(no samples)"
    peak = processors if processors is not None else max(samples) or 1
    if len(samples) <= width:
        buckets = [float(s) for s in samples]
    else:
        buckets = []
        step = len(samples) / width
        for col in range(width):
            lo = int(col * step)
            hi = max(lo + 1, int((col + 1) * step))
            window = samples[lo:hi]
            buckets.append(sum(window) / len(window))
    line = "".join(
        _BLOCKS[min(len(_BLOCKS) - 1, round(v / peak * (len(_BLOCKS) - 1)))]
        for v in buckets
    )
    mean = sum(samples) / stats.total_time
    return (f"busy processors (peak {peak}, mean "
            f"{mean:.2f}) over {stats.total_time} steps:\n{line}")


def _runs_of(samples):
    runs: list[tuple[int, int]] = []
    for busy in samples:
        if runs and runs[-1][0] == busy:
            runs[-1] = (busy, runs[-1][1] + 1)
        else:
            runs.append((busy, 1))
    return runs


def _check_against_per_tick(stats, processors):
    samples = stats.per_tick
    assert len(samples) == stats.total_time > 0
    assert stats.concurrency_runs == _runs_of(samples)
    assert stats.mean_concurrency == sum(samples) / stats.total_time
    assert max(busy for busy, _ in stats.concurrency_runs) == max(samples)
    total = len(samples)
    for width in (1, 7, 72, total - 1, total, total + 1, 2 * total):
        for peak in (None, processors):
            assert occupancy_sparkline(stats, width, peak) \
                == _oracle_sparkline(samples, stats, width, peak)


@pytest.mark.parametrize("stepper", ["heap", "ticker"])
@pytest.mark.parametrize("plan_name", ["none", "stall-storm",
                                       "preempt-storm", "mixed"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_runs_match_the_per_tick_samples(monkeypatch, name, plan_name,
                                         stepper):
    machines = []

    class Recording(Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            machines.append(self)

    monkeypatch.setattr(machine_module, "MachineStats", _PerTickStats)
    monkeypatch.setattr(differential, "Machine", Recording)
    _run_trace_workload(name, stepper, _make_plan(plan_name)(), 7,
                        Recorder())
    (machine,) = machines
    _check_against_per_tick(machine.stats, machine.processors)


def test_a_long_lone_loop_is_a_handful_of_runs():
    interp = Interpreter()
    SequentialRunner(interp).eval_text(
        "(defun spin (n) (let ((i 0)) (while (< i n) (setq i (1+ i)))))")
    machine = Machine(interp, processors=4, eval_mode="compiled")
    machine.spawn_text("(spin 40000)")
    stats = machine.run()
    assert stats.total_time > 200_000
    assert len(stats.concurrency_runs) <= 3
    assert stats.concurrency_runs[-1][0] == 1
