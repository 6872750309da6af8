"""Chaos harness: attack every paper workload, verify or recover.

The trust-but-verify loop, end to end:

1. run the *original* program sequentially — the oracle;
2. transform it with Curare and run it on a machine armed with a seeded
   :class:`~repro.runtime.faults.FaultPlan`, the online
   :class:`~repro.runtime.racecheck.RaceDetector`, and the lock-wait
   watchdog;
3. if the run completes, check final-state sequentializability against
   the oracle (and cross-validate the detector against the post-hoc
   conflict-order checker);
4. if the run aborts (race flagged, deadlock, watchdog, machine
   timeout) **or** the check fails, degrade gracefully: re-execute the
   original program sequentially in a fresh world and verify *that*
   matches the oracle.

The contract the sweep asserts: **zero silent wrong answers**.  Every
(workload × fault plan) cell either passes the sequentializability
check or records a recovery that re-executed sequentially and passed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.harness.workloads import (
    fig3_source,
    fig5_source,
    make_int_list,
    make_tree,
    remq_source,
    tree_sum_source,
)
from repro.lisp.errors import LispError
from repro.lisp.interpreter import Interpreter
from repro.lisp.runner import SequentialRunner
from repro.obs.recorder import PID_HARNESS, Recorder
from repro.runtime.faults import FaultPlan, fault_matrix
from repro.runtime.machine import Machine, MachineError
from repro.runtime.racecheck import RaceDetected, RaceDetector, cross_validate
from repro.sexpr.printer import write_str
from repro.transform.pipeline import Curare, rewrite_fallback_call


@dataclass(frozen=True)
class ChaosWorkload:
    """One paper workload in chaos-sweep form.

    ``call`` contains ``{fn}``, formatted with the original name for
    the oracle run and the transformed name for the machine run.
    ``compare='output-set'`` compares the multiset of printed outputs
    instead of a read-back value (for print-only workloads like Figure
    3, where output *order* is legitimately unordered across
    processes).
    """

    name: str
    program: str
    fname: str
    setup: str
    call: str
    read_back: Optional[str] = None
    compare: str = "value"  # "value" | "output-set"
    head_ordered: bool = True  # sequential conflict order == invocation order


def paper_workloads(n: int = 8) -> list[ChaosWorkload]:
    """The paper's worked examples, sized for a fast sweep."""
    return [
        ChaosWorkload(
            name="fig3-print",
            program=fig3_source(),
            fname="f3",
            setup=make_int_list(n),
            call="({fn} data)",
            compare="output-set",
        ),
        ChaosWorkload(
            # Figure 4's shifter, with the last-cell guard the paper
            # elides (the bare figure crashes on ``(cadr l)`` of a
            # one-element list); the distance-1 conflict is unchanged.
            name="fig4-shift",
            program="(defun f4 (l)\n"
                    "  (when (cdr l)\n"
                    "    (setf (cadr l) (car l))\n"
                    "    (f4 (cdr l))))",
            fname="f4",
            setup=make_int_list(n),
            call="({fn} data)",
            read_back="(identity data)",
        ),
        ChaosWorkload(
            name="fig5-prefix-sum",
            program=fig5_source(),
            fname="f5",
            setup=make_int_list(n),
            call="({fn} data)",
            read_back="(identity data)",
        ),
        ChaosWorkload(
            name="fig8-accumulate",
            program="(declaim (reorderable +))\n"
                    "(defun f8 (l)\n"
                    "  (when l\n"
                    "    (setq a (+ a (car l)))\n"
                    "    (f8 (cdr l))))",
            fname="f8",
            setup=f"(setq a 0) {make_int_list(n)}",
            call="({fn} data)",
            read_back="(identity a)",
        ),
        ChaosWorkload(
            name="remq-rebuild",
            program=remq_source(),
            fname="remq",
            setup=make_int_list(n),
            call="({fn} 3 data)",
            head_ordered=False,  # DPS tail stores commit deepest-first
        ),
        ChaosWorkload(
            name="tree-scale",
            program=tree_sum_source(),
            fname="tree-scale",
            setup=make_tree(3),
            call="({fn} tree)",
            read_back="(identity tree)",
        ),
    ]


def misdeclared_workload(n: int = 6) -> ChaosWorkload:
    """A workload whose declaration *lies*: the ``unordered-writes``
    claim dismisses a real distance-1 write-write conflict, Curare
    inserts no lock, and the tail writes of adjacent invocations race.
    The sequential answer is ``(0 1 1 ... 1)``; the unsynchronized
    concurrent runs converge on ``(0 0 ... 0)`` — a silent wrong answer
    unless the race detector catches it."""
    return ChaosWorkload(
        name="wipe-misdeclared",
        program="(declaim (unordered-writes setf))\n"
                "(defun wipe (l)\n"
                "  (when l\n"
                "    (wipe (cdr l))\n"
                "    (setf (car l) 0)\n"
                "    (when (cdr l) (setf (cadr l) 1))))",
        fname="wipe",
        setup=make_int_list(n, start=9),
        call="({fn} data)",
        read_back="(identity data)",
        head_ordered=False,
    )


@dataclass
class ChaosOutcome:
    """One (workload × plan) cell of the sweep.

    A function of the cell alone: ``detail`` and ``recovery_cause`` name
    a race's location by the order the cell's detector first saw it,
    not by a process-global cell id.
    """

    workload: str
    plan: str
    fault_seed: int
    sched_seed: Optional[int]
    status: str = "ok"  # ok | recovered | FAILED
    detail: str = ""
    races: int = 0
    faults_injected: int = 0
    recovery_cause: str = ""
    concurrent_time: int = 0
    cross_check_agrees: Optional[bool] = None

    @property
    def silent_wrong_answer(self) -> bool:
        return self.status == "FAILED"


@dataclass
class RobustnessReport:
    """Aggregate of a chaos sweep — what ``repro chaos`` prints."""

    outcomes: list[ChaosOutcome] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.outcomes)

    @property
    def passed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")

    @property
    def recovered(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "recovered")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "FAILED")

    @property
    def total_faults(self) -> int:
        return sum(o.faults_injected for o in self.outcomes)

    @property
    def total_races(self) -> int:
        return sum(o.races for o in self.outcomes)

    @property
    def ok(self) -> bool:
        """The sweep contract: no silent wrong answers."""
        return self.failed == 0

    def __bool__(self) -> bool:
        return self.ok


def _sequential_oracle(workload: ChaosWorkload) -> tuple[str, list]:
    """Run the original program sequentially; return (shown, outputs)."""
    interp = Interpreter()
    runner = SequentialRunner(interp)
    runner.eval_text(workload.program)
    runner.eval_text(workload.setup)
    value = runner.eval_text(workload.call.format(fn=workload.fname))
    shown = (
        runner.eval_text(workload.read_back) if workload.read_back else value
    )
    return write_str(shown), list(runner.outputs)


def _compare(workload: ChaosWorkload, oracle: tuple[str, list],
             shown: str, outputs: list) -> bool:
    if workload.compare == "output-set":
        return sorted(map(write_str, outputs)) == sorted(map(write_str, oracle[1]))
    return shown == oracle[0]


def run_chaos_case(
    workload: ChaosWorkload,
    plan: FaultPlan,
    processors: int = 4,
    sched_seed: Optional[int] = None,
    lock_wait_timeout: int = 100_000,
    max_time: int = 2_000_000,
    oracle: Optional[tuple[str, list]] = None,
    recorder: Optional[Recorder] = None,
) -> ChaosOutcome:
    """One cell: transformed run under ``plan``, verify or recover."""
    if oracle is None:
        oracle = _sequential_oracle(workload)
    outcome = ChaosOutcome(
        workload=workload.name,
        plan=plan.name,
        fault_seed=getattr(plan, "seed", 0),
        sched_seed=sched_seed,
    )
    detector = RaceDetector(raise_on_race=True)
    interp = Interpreter()
    curare = Curare(interp, assume_sapp=True, recorder=recorder)
    failure: Optional[str] = None
    machine: Optional[Machine] = None
    try:
        curare.load_program(workload.program)
        result = curare.transform(workload.fname)
        if not result.transformed:
            raise LispError(f"transform refused: {result.reason}")
        curare.runner.eval_text(workload.setup)
        # Scheduling randomness comes from this explicit stream, never
        # the process-global `random` state (which fault plans and user
        # code may touch): equal sched_seed ⇒ equal schedule, always.
        machine = Machine(
            interp,
            processors=processors,
            policy="random" if sched_seed is not None else "fifo",
            seed=sched_seed,
            rng=(random.Random(sched_seed)
                 if sched_seed is not None else None),
            faults=plan,
            race_detector=detector,
            lock_wait_timeout=lock_wait_timeout,
            max_time=max_time,
            recorder=recorder,
        )
        main = machine.spawn_text(
            workload.call.format(fn=result.transformed_name)
        )
        stats = machine.run()
        outcome.concurrent_time = stats.total_time
        shown = (
            write_str(SequentialRunner(interp).eval_text(workload.read_back))
            if workload.read_back
            else write_str(main.result)
        )
        if not _compare(workload, oracle, shown, machine.outputs):
            failure = f"sequentializability violated: {shown} != {oracle[0]}"
        elif workload.head_ordered:
            validation = cross_validate(detector, machine.trace)
            outcome.cross_check_agrees = validation.agree
    except RaceDetected as err:
        failure = f"race: {detector.local_race(err.race)}"
    except MachineError as err:
        failure = f"{type(err).__name__} at t={err.clock}"
    except LispError as err:
        failure = f"error: {err}"
    outcome.races = detector.race_count
    outcome.faults_injected = plan.total_injected
    if failure is None:
        outcome.status = "ok"
        return outcome
    # Graceful degradation: abort the concurrent world entirely and
    # re-execute the original program sequentially in a fresh one.
    outcome.recovery_cause = failure
    fallback_call = rewrite_fallback_call(
        workload.call.format(fn=workload.fname + "-cc"),
        curare.transformed_map or {workload.fname + "-cc": workload.fname},
    )
    try:
        interp2 = Interpreter()
        runner2 = SequentialRunner(interp2)
        runner2.eval_text(workload.program)
        runner2.eval_text(workload.setup)
        value = runner2.eval_text(fallback_call)
        shown = (
            write_str(runner2.eval_text(workload.read_back))
            if workload.read_back
            else write_str(value)
        )
        if _compare(workload, oracle, shown, list(runner2.outputs)):
            outcome.status = "recovered"
            outcome.detail = failure
        else:
            outcome.status = "FAILED"
            outcome.detail = (
                f"{failure}; sequential fallback ALSO diverged: {shown}"
            )
    except LispError as err:
        outcome.status = "FAILED"
        outcome.detail = f"{failure}; sequential fallback died: {err}"
    return outcome


def _record_cell(recorder: Recorder, outcome: ChaosOutcome) -> None:
    """Per-cell rollup for the sweep trace."""
    recorder.count("chaos.cells")
    recorder.count(f"chaos.{outcome.status.lower()}")
    recorder.count("chaos.faults_injected", outcome.faults_injected)
    recorder.count("chaos.races", outcome.races)
    recorder.event(
        "chaos.cell", "harness", pid=PID_HARNESS,
        args={
            "workload": outcome.workload,
            "plan": outcome.plan,
            "status": outcome.status,
            "races": outcome.races,
            "faults_injected": outcome.faults_injected,
            "recovery_cause": outcome.recovery_cause,
        },
    )


def chaos_sweep(
    workloads: Optional[list[ChaosWorkload]] = None,
    seed: int = 0,
    plans: Optional[list[FaultPlan]] = None,
    processors: int = 4,
    sched_seed: Optional[int] = None,
    lock_wait_timeout: int = 100_000,
    recorder: Optional[Recorder] = None,
) -> RobustnessReport:
    """Every workload × every fault plan.  Fresh plans per workload so
    budgets and RNG streams never leak across cells."""
    if workloads is None:
        workloads = paper_workloads()
    report = RobustnessReport()
    for workload in workloads:
        oracle = _sequential_oracle(workload)
        cell_plans = plans if plans is not None else fault_matrix(seed)
        for plan in cell_plans:
            if plans is not None:
                # Caller-supplied plans are stateful; re-derive a fresh
                # instance per cell when possible.
                plan = _fresh_plan(plan)
            outcome = run_chaos_case(
                workload, plan, processors=processors,
                sched_seed=sched_seed,
                lock_wait_timeout=lock_wait_timeout, oracle=oracle,
                recorder=recorder,
            )
            if recorder is not None:
                _record_cell(recorder, outcome)
            report.outcomes.append(outcome)
    if recorder is not None:
        recorder.event(
            "chaos.sweep", "harness", pid=PID_HARNESS,
            args={
                "runs": report.runs,
                "passed": report.passed,
                "recovered": report.recovered,
                "failed": report.failed,
                "total_faults": report.total_faults,
                "total_races": report.total_races,
            },
        )
    return report


def _fresh_plan(plan: FaultPlan) -> FaultPlan:
    from repro.runtime.faults import NullFaultPlan, SeededFaultPlan

    if isinstance(plan, SeededFaultPlan):
        return SeededFaultPlan(plan.seed, plan.rates, name=plan.name)
    if isinstance(plan, NullFaultPlan):
        return NullFaultPlan()
    return plan
