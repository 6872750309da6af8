"""Differential test: the event-heap stepper is observationally
identical to the per-tick ticker.

The heap stepper (``Machine``'s own) batches ticks between scheduler
events; the ticker (``tests.ticker.TickerMachine``) polls every tick,
and a test picks one by class.  The heap stepper's correctness
argument: the batch delta never crosses a counter expiry, so every
skipped tick would have been a pure decrement.  This test is the
empirical lock-down — for every golden workload, both steppers must
produce the *same effect trace, outputs, result, and machine
statistics*, with and without a flight recorder.

Effect traces are compared after canonicalizing process-global cons-cell
ids (the interpreter allocates them from one process-wide counter, so
their absolute values differ between in-process runs; the golden-trace
projection handles them the same way).

Fault plans run on the heap stepper too: it asks the plan how many
ticks are quiet and calls ``on_tick`` only where a draw fires.  The
faulted cases below additionally pin the plan's side of the contract —
the same injections and the same final RNG state as under the ticker.
"""

from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness import chaos, runner
from repro.harness.chaos import (
    misdeclared_workload,
    paper_workloads,
    run_chaos_case,
)
from repro.lisp.interpreter import Interpreter
from repro.obs import Recorder, chrome_trace_dict
from repro.obs.golden import diff_projections, structural_projection
from repro.obs.workloads import run_trace_workload, trace_workloads
from repro.runtime.faults import SeededFaultPlan, fault_matrix
from repro.runtime.machine import MachineError
from repro.sexpr.printer import write_str
from repro.transform.pipeline import Curare
from tests.test_property_obs import fault_plans
from tests.ticker import STEPPERS

WORKLOADS = ("fig06", "fig07", "fig10")


def _canonical_trace(machine):
    """The effect trace with first-seen canonical ids in place of the
    process-global integers inside ``loc`` tuples."""
    ids: dict[int, str] = {}

    def canon(value):
        if isinstance(value, int):
            if value not in ids:
                ids[value] = f"#{len(ids)}"
            return ids[value]
        return value

    events = []
    for e in machine.trace:
        loc = tuple(canon(x) for x in e.loc) if e.loc is not None else None
        detail = write_str(e.detail) if e.kind == "output" else repr(e.detail)
        events.append((e.seq, e.time, e.proc, e.kind, loc, detail))
    return events


def _runs_on(machine, stepper: str) -> bool:
    """Whether ``machine`` steps with the stepper named ``stepper``."""
    return type(machine)._step is STEPPERS[stepper]._step


def _run(monkeypatch, name: str, stepper: str, with_recorder: bool):
    recorder = Recorder() if with_recorder else None
    monkeypatch.setattr(runner, "Machine", STEPPERS[stepper])
    run = run_trace_workload(trace_workloads()[name], recorder)
    machine = run.extra["machine"]
    assert _runs_on(machine, stepper)
    stats = run.stats
    return {
        "result": run.result_text,
        "trace": _canonical_trace(machine),
        "outputs": [write_str(o) for o in machine.outputs],
        "stats": (
            stats.total_time,
            stats.processes,
            stats.spawns,
            stats.context_switches,
            stats.lock_acquisitions,
            stats.lock_contentions,
            stats.cpu_busy,
            stats.concurrency_runs,
            stats.peak_live_processes,
        ),
        "projection": (
            structural_projection(chrome_trace_dict(recorder))
            if recorder is not None
            else None
        ),
    }


@pytest.mark.parametrize("with_recorder", [False, True],
                         ids=["bare", "recorded"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_heap_stepper_matches_ticker(monkeypatch, name, with_recorder):
    ticker = _run(monkeypatch, name, "ticker", with_recorder)
    heap = _run(monkeypatch, name, "heap", with_recorder)
    assert heap["result"] == ticker["result"]
    assert heap["outputs"] == ticker["outputs"]
    assert heap["stats"] == ticker["stats"]
    assert heap["trace"] == ticker["trace"]
    if with_recorder:
        assert diff_projections(ticker["projection"],
                                heap["projection"]) == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_heap_stepper_matches_ticker_random_schedule(monkeypatch, name):
    """Same equivalence under the seeded random scheduling policy."""
    monkeypatch.setattr(runner, "Machine", STEPPERS["ticker"])
    ticker = run_trace_workload(trace_workloads()[name], Recorder(), seed=7)
    monkeypatch.setattr(runner, "Machine", STEPPERS["heap"])
    heap = run_trace_workload(trace_workloads()[name], Recorder(), seed=7)
    assert heap.result_text == ticker.result_text
    assert heap.stats.total_time == ticker.stats.total_time
    assert (_canonical_trace(heap.extra["machine"])
            == _canonical_trace(ticker.extra["machine"]))


# -- fault plans on the heap stepper ------------------------------------

CHAOS_WORKLOADS = {
    w.name: w for w in paper_workloads() + [misdeclared_workload()]
}
FAULT_SEED = 5
PLANS = [plan.name for plan in fault_matrix(FAULT_SEED)]


def _machine_state(machine):
    """Everything a (possibly aborted) run leaves on the machine."""
    return {
        "trace": _canonical_trace(machine),
        "outputs": [write_str(o) for o in machine.outputs],
        "stats": dataclasses.astuple(machine.stats),
        "clock": machine.time,
        "cpu_busy": [cpu.busy_time for cpu in machine.cpus],
    }


def _plan_state(plan):
    return {"injected": dict(plan.injected), "rng": plan.rng.getstate()}


def _recording_machine(stepper, machines):
    """The class that runs ``stepper``, remembering its instances."""

    class RecordingMachine(STEPPERS[stepper]):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            machines.append(self)

    return RecordingMachine


def _chaos_cell(monkeypatch, workload, plan_index, sched_seed, stepper):
    machines = []
    monkeypatch.setattr(chaos, "Machine",
                        _recording_machine(stepper, machines))
    plan = fault_matrix(FAULT_SEED)[plan_index]
    outcome = run_chaos_case(workload, plan, sched_seed=sched_seed)
    (machine,) = machines
    assert _runs_on(machine, stepper)
    # Failure messages name cells by their process-global ids.
    outcome = {
        key: re.sub(r"\d+(?=, ')", "#", value)
        if isinstance(value, str) else value
        for key, value in dataclasses.asdict(outcome).items()
    }
    return {"outcome": outcome, **_machine_state(machine),
            **_plan_state(plan)}


@pytest.mark.parametrize("sched_seed", [None, 3, 11],
                         ids=["fifo", "sched3", "sched11"])
@pytest.mark.parametrize("plan_index", range(len(PLANS)), ids=PLANS)
@pytest.mark.parametrize("name", sorted(CHAOS_WORKLOADS))
def test_faulted_heap_matches_ticker(monkeypatch, name, plan_index,
                                     sched_seed):
    """Every chaos cell — paper workloads plus the misdeclared one,
    every plan of the fault matrix, FIFO and two schedule seeds — ends
    the same way on both steppers, down to the plan's RNG state."""
    workload = CHAOS_WORKLOADS[name]
    ticker = _chaos_cell(monkeypatch, workload, plan_index, sched_seed,
                         "ticker")
    heap = _chaos_cell(monkeypatch, workload, plan_index, sched_seed,
                       "heap")
    assert heap == ticker


@pytest.mark.parametrize("stepper", ["heap", "ticker"])
def test_a_detected_race_keeps_the_samples_of_every_tick(monkeypatch,
                                                        stepper):
    """The misdeclared cell's race is raised inside a kick; the tick it
    is raised on still counts in ``concurrency_runs``."""
    machines = []
    monkeypatch.setattr(chaos, "Machine",
                        _recording_machine(stepper, machines))
    plan = fault_matrix(FAULT_SEED)[PLANS.index("mixed")]
    outcome = run_chaos_case(CHAOS_WORKLOADS["wipe-misdeclared"], plan,
                             sched_seed=3)
    (machine,) = machines
    assert outcome.recovery_cause.startswith("race:")
    runs = machine.stats.concurrency_runs
    assert sum(ticks for _, ticks in runs) == machine.time > 0


class _CountingPlan(SeededFaultPlan):
    """Counts ``on_tick`` calls, and the calls in which a draw fired."""

    def __init__(self, seed, rates):
        super().__init__(seed, rates)
        self.calls = 0
        self.firing_ticks = 0
        self._fired_now = False

    def on_tick(self, machine):
        self.calls += 1
        self._fired_now = False
        super().on_tick(machine)
        self.firing_ticks += self._fired_now

    def _fires(self, draw, fired, rate):
        fires = super()._fires(draw, fired, rate)
        self._fired_now = self._fired_now or fires
        return fires


@pytest.mark.parametrize("plan_index", range(len(PLANS)), ids=PLANS)
def test_heap_calls_on_tick_only_where_a_draw_fires(monkeypatch,
                                                     plan_index):
    workload = CHAOS_WORKLOADS["fig5-prefix-sum"]
    template = fault_matrix(FAULT_SEED)[plan_index]
    plans = {}
    for stepper in ("ticker", "heap"):
        plans[stepper] = plan = _CountingPlan(template.seed, template.rates)
        monkeypatch.setattr(chaos, "Machine", STEPPERS[stepper])
        outcome = run_chaos_case(workload, plan, sched_seed=3)
        assert outcome.status == "ok"
    ticker, heap = plans["ticker"], plans["heap"]
    assert ticker.calls == outcome.concurrent_time
    assert heap.calls == ticker.firing_ticks
    assert heap.calls < ticker.calls


def _run_trace_workload(name, stepper, plan, seed, recorder,
                        eval_mode=None):
    """A trace workload under a fault plan on one stepper (and, if
    given, one eval mode); the run may abort with a MachineError, which
    is part of what is compared."""
    workload = trace_workloads()[name]
    interp = Interpreter()
    curare = Curare(interp, assume_sapp=True, recorder=recorder)
    curare.load_program(workload.program)
    curare.transform(workload.fname)
    curare.runner.eval_text(workload.setup)
    machine = STEPPERS[stepper](
        interp, processors=workload.processors,
        policy="random" if seed is not None else "fifo",
        rng=random.Random(seed) if seed is not None else None,
        faults=plan, recorder=recorder,
        eval_mode=eval_mode, lock_wait_timeout=5_000, max_time=400_000,
    )
    main = machine.spawn_text(
        workload.call.format(fn=workload.fname + "-cc"))
    try:
        machine.run()
        ending = write_str(main.result)
    except MachineError as err:
        ending = (type(err).__name__, err.clock,
                  re.sub(r"\d+(?=, ')", "#", str(err)))
    return {"ending": ending, **_machine_state(machine),
            "projection": structural_projection(chrome_trace_dict(recorder))}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(WORKLOADS), plan=fault_plans,
       seed=st.one_of(st.none(), st.integers(0, 2**16)))
def test_faulted_heap_matches_ticker_property(name, plan, seed):
    """Hypothesis over fault rates on fig06/07/10, with a recorder."""
    twin = (None if plan is None
            else SeededFaultPlan(plan.seed, plan.rates, name=plan.name))
    ticker = _run_trace_workload(name, "ticker", plan, seed, Recorder())
    heap = _run_trace_workload(name, "heap", twin, seed, Recorder())
    assert diff_projections(ticker.pop("projection"),
                            heap.pop("projection")) == []
    assert heap == ticker
    if plan is not None:
        assert _plan_state(twin) == _plan_state(plan)
