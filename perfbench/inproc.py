"""The in-process workloads: ``transform``, ``simulate`` and ``chaos``.

Each workload turns the generated programs into a list of ops (one
facade or harness call each), knows how to check an op's outcome
against the reference interpreter, and reports its deterministic
figures.  The engine is imported lazily, so ``setup_s`` can time the
first ``repro`` import.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from gen import Program, option_plan

#: Chaos families whose conflicts are head-ordered, so the harness also
#: cross-validates the detector against the post-hoc checker.
HEAD_ORDERED = frozenset({"walk1", "walk2"})


@dataclass
class Reference:
    """The sequential result of a program's run expression, from the
    reference interpreter (never from the code under test)."""

    value: str
    ticks: int


def reference(program: Program) -> Reference:
    from repro.lisp.interpreter import Interpreter
    from repro.lisp.runner import SequentialRunner
    from repro.sexpr.printer import write_str

    runner = SequentialRunner(Interpreter(), eval_mode="interpreter")
    runner.eval_text(program.program)
    start = runner.time
    value = runner.eval_text(program.expr(program.name))
    ticks = runner.time - start
    if program.read_back:
        value = runner.eval_text(program.read_back)
    return Reference(write_str(value), ticks)


#: Result fields holding pretty-printed code.  Their line breaks depend
#: on the digits of the engine's process-global gensym counter (see
#: ``layout_key``), so they are compared token by token.
RENDERED = ("forms", "report_text", "text")


def layout_key(body: Dict[str, Any]) -> Dict[str, Any]:
    """A facade result minus ``wall``, with the whitespace inside
    rendered code collapsed.

    ``api`` renumbers gensyms (``#:lockbase1234`` -> ``#:lockbase0``)
    after ``pretty_str`` has chosen line breaks for the long names, so
    one request renders with different line breaks once the counter
    has grown a digit.  Everything else must match byte for byte.
    """
    out = {k: v for k, v in body.items() if k != "wall"}
    for key in RENDERED:
        if key in out:
            out[key] = _collapse(out[key])
    return out


def _collapse(value: Any) -> Any:
    if isinstance(value, str):
        return " ".join(value.split())
    if isinstance(value, (list, tuple)):
        return [_collapse(v) for v in value]
    return value


def result_digest(body: Dict[str, Any]) -> str:
    from repro import api

    return api.canonical_json(layout_key(body))


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Workload:
    """One in-process workload over a fixed op list."""

    name = ""

    def __init__(self, programs: List[Program]):
        self.programs = programs

    def ops(self) -> List[Callable[[], Any]]:
        raise NotImplementedError

    def digest(self, outcome: Any) -> str:
        """The deterministic part of an op's outcome."""
        raise NotImplementedError

    def check(self, outcomes: List[Any]) -> Tuple[List[str], Dict[str, Any]]:
        """Check one pass's outcomes (index-aligned with the op list;
        ``None`` where the op raised) against the references; returns
        (failure message or "" per op, deterministic figures)."""
        raise NotImplementedError


class TransformWorkload(Workload):
    """``api.transform`` on each program, with its declaim forms."""

    name = "transform"

    def ops(self) -> List[Callable[[], Any]]:
        from repro import api

        plan = option_plan(len(self.programs))
        out = []
        for program, options in zip(self.programs, plan):
            opts = api.TransformOptions(**options)
            out.append(_bind(api.transform, program.program, program.name,
                             opts))
        return out

    def digest(self, outcome: Any) -> str:
        return result_digest(outcome.to_dict())

    def check(self, outcomes: List[Any]) -> Tuple[List[str], Dict[str, Any]]:
        from repro import api

        failures: List[str] = [""] * len(outcomes)
        speedups: List[float] = []
        ticks = 0
        locks = 0
        refused: Dict[str, int] = {}
        transformed = 0
        for i, (program, result) in enumerate(zip(self.programs, outcomes)):
            if result is None:  # the op raised; already counted
                continue
            if not result.transformed:
                if not result.reason:
                    failures[i] = "refusal without a reason"
                key = _refusal_key(result.reason)
                refused[key] = refused.get(key, 0) + 1
                continue
            transformed += 1
            locks += result.lock_count
            # Run the emitted code itself once on the machine.
            emitted = "\n".join(form for group in result.forms
                                for form in group)
            ref = reference(program)
            try:
                run = api.run(program.program + "\n" + emitted,
                              program.expr(result.transformed_name),
                              api.RunOptions(processors=program.processors))
            except api.ApiError as err:
                failures[i] = f"emitted code failed: {err}"
                continue
            if run.value != ref.value:
                failures[i] = (f"final state {run.value[:60]} != "
                               f"reference {ref.value[:60]}")
                continue
            ticks += run.total_time
            speedups.append(ref.ticks / run.total_time)
        figures = {
            "transformed_share": transformed / len(outcomes),
            "sim_speedup": geomean(speedups),
            "verified_share": 1.0,
            "runtime.sim_ticks": ticks,
            "transform.locks": locks,
            "transform.refused": refused,
        }
        return failures, figures


class SimulateWorkload(Workload):
    """``api.run`` with the program's function transformed first, on
    the default FIFO policy with no faults."""

    name = "simulate"

    def ops(self) -> List[Callable[[], Any]]:
        from repro import api

        out = []
        for program in self.programs:
            opts = api.RunOptions(transform=(program.name,),
                                  processors=program.processors)
            out.append(_bind(api.run, program.program,
                             program.expr(program.name + "-cc"), opts))
        return out

    def digest(self, outcome: Any) -> str:
        return result_digest(outcome.to_dict())

    def check(self, outcomes: List[Any]) -> Tuple[List[str], Dict[str, Any]]:
        failures: List[str] = [""] * len(outcomes)
        speedups = []
        ticks = 0
        for i, (program, result) in enumerate(zip(self.programs, outcomes)):
            if result is None:  # the op raised; already counted
                continue
            ref = reference(program)
            if result.value != ref.value:
                failures[i] = (f"value {result.value[:60]} != reference "
                               f"{ref.value[:60]}")
                continue
            ticks += result.total_time
            speedups.append(ref.ticks / result.total_time)
        figures = {
            "transformed_share": 1.0,
            "sim_speedup": geomean(speedups),
            "verified_share": 1.0,
            "runtime.sim_ticks": ticks,
        }
        return failures, figures


class ChaosWorkload(Workload):
    """``run_chaos_case`` cells: each program under one plan of
    ``fault_matrix``, an explicit schedule seed, the race detector and
    the lock-wait watchdog."""

    name = "chaos"

    def ops(self) -> List[Callable[[], Any]]:
        from repro.harness import chaos
        from repro.runtime.faults import fault_matrix

        out = []
        for program in self.programs:
            cell = chaos.ChaosWorkload(
                name=program.name,
                program=program.source,
                fname=program.name,
                setup=program.setup,
                call=program.call,
                read_back=program.read_back,
                head_ordered=program.family in HEAD_ORDERED,
            )
            # Plan and schedule follow the program's slot in its family,
            # not the benchmark seed: every seed puts the same adversary
            # on the same slot, so a seed does not change how much
            # per-tick work a pass does.
            slot_seed = zlib.crc32(f"{program.family}/{program.slot}"
                                   .encode())

            def op(cell=cell, slot_seed=slot_seed,
                   processors=program.processors) -> Any:
                # Plans are stateful (RNG, budget): a fresh one per cell.
                plans = fault_matrix(slot_seed)
                plan = plans[slot_seed % len(plans)]
                return chaos.run_chaos_case(cell, plan,
                                            processors=processors,
                                            sched_seed=slot_seed)

            out.append(op)
        return out

    def digest(self, outcome: Any) -> str:
        return (f"{outcome.plan}|{outcome.status}|{outcome.races}|"
                f"{outcome.faults_injected}|{outcome.concurrent_time}|"
                f"{outcome.cross_check_agrees}")

    def check(self, outcomes: List[Any]) -> Tuple[List[str], Dict[str, Any]]:
        failures: List[str] = [""] * len(outcomes)
        speedups = []
        ticks = 0
        ok = 0
        transformed = 0
        for i, (program, outcome) in enumerate(zip(self.programs, outcomes)):
            if outcome is None:  # the op raised; already counted
                continue
            if outcome.status == "FAILED":
                failures[i] = f"cell FAILED: {outcome.detail[:80]}"
                continue
            # The lie of a misdeclared program hides a real race between
            # invocations: the race detector must catch it, and the cell
            # must fall back to sequential re-execution.
            if program.family == "misdeclared" and (
                    outcome.status != "recovered"
                    or not outcome.recovery_cause.startswith("race:")):
                failures[i] = (f"misdeclared cell ended {outcome.status} "
                               f"({outcome.recovery_cause or 'no failure'}),"
                               f" not recovered from a detected race")
                continue
            if not outcome.recovery_cause.startswith(
                    "error: transform refused"):
                transformed += 1
            if outcome.status == "ok":
                ok += 1
                ref = reference(program)
                ticks += outcome.concurrent_time
                speedups.append(ref.ticks / outcome.concurrent_time)
        figures = {
            "transformed_share": transformed / len(outcomes),
            "sim_speedup": geomean(speedups),
            "verified_share": ok / len(outcomes),
            "recovered_share": 1.0 - ok / len(outcomes),
            "runtime.sim_ticks": ticks,
        }
        return failures, figures


def _bind(fn: Callable, *args: Any) -> Callable[[], Any]:
    def op() -> Any:
        return fn(*args)

    return op


def _refusal_key(reason: str) -> str:
    if "neither tail-recursive nor an associative-op" in reason:
        return "strict_self_call"
    if reason == "not recursive":
        return "not_recursive"
    return "other"


def make(workload: str, programs: List[Program]) -> Workload:
    if workload == "transform":
        return TransformWorkload(programs)
    if workload == "simulate":
        return SimulateWorkload(programs)
    if workload == "chaos":
        return ChaosWorkload(programs)
    raise ValueError(f"not an in-process workload: {workload!r}")


def warm_up_programs(programs: List[Program]) -> List[Program]:
    """The first program of each family."""
    seen = set()
    picked = []
    for program in programs:
        if program.family not in seen:
            seen.add(program.family)
            picked.append(program)
    return picked
