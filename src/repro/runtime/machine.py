"""The discrete-event simulated multiprocessor.

Model (paper §1.2, Figure 1): P autonomous processors share one Lisp
address space; processes are cheap to run but costly to create and
switch (the :class:`CostModel`).  Multiprogramming is allowed — there
may be more processes than processors; excess ready processes wait in a
FIFO ready queue.

Execution: each process is an effect-generator from the shared
evaluator.  A processor runs its process by resuming the generator and
charging each effect's cost to the clock; blocking effects (lock waits,
empty queues, unresolved futures) park the process and free the
processor (charging a context switch when it picks up different work).

Determinism: the default FIFO policy is fully deterministic.  A seeded
``random`` policy exists to stress the synchronization under adversarial
interleavings in tests — randomization may only *reorder ready picks*,
never violate lock FIFO order, so transformed programs must still
produce sequential results under it.

Stepping: two steppers produce identical effect traces and statistics.

* ``"ticker"`` — the original per-tick polling loop: advance the clock
  one tick, call the fault plan's ``on_tick``, decrement every busy
  processor, resume whoever hit zero.  Kept verbatim as the
  differential-testing reference.
* ``"heap"`` (default) — an event scheduler.  Every engaged processor
  has a known remaining charge (its busy time or context-switch
  overhead); the minimum over those charges yields the next
  interesting instant (a direct scan — the cpu count is small enough
  that a min-heap costs more to maintain than to recompute), and the
  machine advances the clock in one batch, charging each processor
  ``delta`` ticks at once and skipping the idle decrement loop in
  between.  The same one scan per step finds whether exactly one
  processor is engaged; if so and the ready queue is empty, its
  process *runs ahead*: each charge goes straight onto the clock and
  the process resumes at once, with no scheduler pass, until it
  blocks, finishes, or makes anything else able to act.  A
  fault plan reports how many upcoming ticks inject nothing
  (:meth:`FaultPlan.quiet_ticks`), so ``on_tick`` runs only on the
  ticks where a draw fires.  Batches and run-ahead stop short of
  ``max_time`` and of the earliest lock-watchdog deadline (read off an
  index of the lock waiters, not a walk of every process), so both
  raise at exactly the tick the ticker would.  Per-tick statistics
  (concurrency samples, peak-live, busy counters) are reconstructed
  exactly; nothing observable distinguishes the two steppers.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.lisp.effects import (
    Annotate,
    WaitChildren,
    LockAcquire,
    LockRelease,
    MemRead,
    MemWrite,
    Output,
    QUEUE_CLOSED,
    QueueClose,
    QueueGet,
    QueueGetAny,
    QueuePut,
    SpawnProcess,
    Tick,
    VarRead,
    VarWrite,
    WaitFuture,
)
from repro.lisp.errors import LispError
from repro.lisp.interpreter import Interpreter
from repro.lisp.trace import Trace, location_of
from repro.lisp.values import Future, TaskQueue
from repro.obs.recorder import PID_MACHINE, Recorder
from repro.runtime.clock import CostModel
from repro.runtime.faults import SPURIOUS_WAKE, FaultPlan
from repro.runtime.locks import LockTable
from repro.runtime.racecheck import RaceDetector


class MachineError(LispError):
    """A machine-level failure.  Carries the simulated clock and a
    per-process snapshot of block reasons so a chaos-run failure is
    diagnosable from the exception alone."""

    def __init__(
        self,
        message: str,
        clock: int = 0,
        blocked: Optional[list["Process"]] = None,
    ):
        super().__init__(message)
        self.clock = clock
        self.blocked = list(blocked or [])
        self.block_reasons: dict[int, Any] = {
            p.proc_id: p.block_reason for p in self.blocked
        }


class DeadlockDetected(MachineError):
    def __init__(self, message: str, blocked: list["Process"], clock: int = 0):
        super().__init__(message, clock=clock, blocked=blocked)


class LockWaitTimeout(MachineError):
    """The lock-wait watchdog fired: a process waited on one lock for
    longer than ``lock_wait_timeout`` ticks."""


class MachineTimeout(MachineError):
    """The run exceeded ``max_time`` ticks."""


@dataclass(slots=True)
class Process:
    """One simulated Lisp process."""

    proc_id: int
    gen: Any
    label: str = ""
    future: Optional[Future] = None
    parent: Optional[int] = None
    state: str = "ready"  # ready | running | blocked | done
    busy_remaining: int = 0
    block_since: int = 0
    #: Tick at which the process entered a lock wait queue.  Set *only*
    #: by the LockAcquire-blocked path (unlike ``block_since``, which any
    #: blocking effect refreshes), so the lock-wait watchdog and the
    #: ``machine.lock.wait_ticks`` histogram count lock-queue ticks only
    #: and can never be inflated by an earlier future/queue block.
    lock_wait_since: int = 0
    pending_reply: Any = None
    wake_reply: Any = None
    block_reason: Any = None
    result: Any = None
    children: list[int] = field(default_factory=list)
    spawn_time: int = 0
    finish_time: int = 0
    busy_total: int = 0

    def __repr__(self) -> str:
        return f"<proc {self.proc_id} {self.label or ''} {self.state}>"


@dataclass(slots=True)
class _Cpu:
    index: int
    proc: Optional[Process] = None
    overhead: int = 0  # remaining context-switch charge
    last_proc_id: Optional[int] = None
    busy_time: int = 0


@dataclass
class MachineStats:
    """What benchmarks read off a finished run."""

    total_time: int = 0
    processes: int = 0
    spawns: int = 0
    context_switches: int = 0
    lock_acquisitions: int = 0
    lock_contentions: int = 0
    cpu_busy: list[int] = field(default_factory=list)
    #: How many processors were busy on each tick, run-length encoded:
    #: ``(busy, ticks)`` pairs, adjacent pairs never with equal ``busy``.
    concurrency_runs: list[tuple[int, int]] = field(default_factory=list)
    peak_live_processes: int = 0

    def sample(self, busy: int, ticks: int = 1) -> None:
        """Record ``ticks`` ticks on which ``busy`` processors were busy."""
        runs = self.concurrency_runs
        if runs and runs[-1][0] == busy:
            runs[-1] = (busy, runs[-1][1] + ticks)
        else:
            runs.append((busy, ticks))

    @property
    def utilization(self) -> float:
        if not self.cpu_busy or self.total_time == 0:
            return 0.0
        return sum(self.cpu_busy) / (len(self.cpu_busy) * self.total_time)

    @property
    def mean_concurrency(self) -> float:
        """Average number of busy processors — the measured counterpart of
        the paper's (|H|+|T|)/|H| concurrency."""
        if self.total_time == 0:
            return 0.0
        return sum(busy * ticks for busy, ticks in self.concurrency_runs) \
            / self.total_time


class Machine:
    def __init__(
        self,
        interp: Interpreter,
        processors: int = 4,
        cost_model: Optional[CostModel] = None,
        policy: str = "fifo",
        seed: Optional[int] = None,
        trace: Optional[Trace] = None,
        max_time: int = 10_000_000,
        quiesce_queues: Optional[set[int]] = None,
        faults: Optional[FaultPlan] = None,
        race_detector: Optional[RaceDetector] = None,
        lock_wait_timeout: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        rng: Optional[_random.Random] = None,
        stepper: Optional[str] = None,
        eval_mode: Optional[str] = None,
    ):
        if processors < 1:
            raise ValueError("need at least one processor")
        self.interp = interp
        self.processors = processors
        self.costs = cost_model if cost_model is not None else CostModel()
        self.costs.validate()
        if policy not in ("fifo", "random"):
            raise ValueError(f"unknown scheduling policy {policy!r}")
        self.policy = policy
        #: Scheduling randomness is always a private stream: either the
        #: caller hands in its own ``random.Random`` (so concurrent
        #: harness drivers never interleave draws) or one is derived
        #: from ``seed``.  The global ``random`` module is never touched.
        self.rng = rng if rng is not None else _random.Random(seed)
        self.trace = trace if trace is not None else Trace()
        self.max_time = max_time
        if stepper is None:
            from repro.perf import default_stepper

            stepper = default_stepper()
        if stepper not in ("heap", "ticker"):
            raise ValueError(f"unknown stepper {stepper!r}")
        self.stepper = stepper
        if eval_mode is None:
            from repro.perf import default_eval_mode

            eval_mode = default_eval_mode()
        from repro.perf import EVAL_MODES

        if eval_mode not in EVAL_MODES:
            raise ValueError(f"unknown eval mode {eval_mode!r}")
        self.eval_mode = eval_mode

        self.time = 0
        self.locks = LockTable()
        self.cpus = [_Cpu(i) for i in range(processors)]
        self.processes: dict[int, Process] = {}
        self.ready: list[Process] = []
        self._next_proc_id = 1
        self._future_waiters: dict[int, list[Process]] = {}
        self._queue_waiters: dict[int, list[Process]] = {}
        self._any_waiters: list[tuple[Process, list]] = []  # (proc, queues)
        self._children_waiters: list[Process] = []
        #: Processes queued on a lock, by pid: the watchdog and the
        #: horizon read these instead of every process ever spawned.  A
        #: spuriously woken waiter stays here (it is still queued).
        self._lock_waiters: dict[int, Process] = {}
        self.outputs: list[Any] = []
        self.stats = MachineStats()
        #: Queue ids with quiescence-termination: when every live process
        #: is blocked getting from one of these queues, the recursion is
        #: over and the machine closes them (the server pool's
        #: termination-detection protocol for tree recursion, cf. §4.1's
        #: kill tokens).
        self.quiesce_queues = quiesce_queues if quiesce_queues is not None else set()
        self._registered_queues: dict[int, TaskQueue] = {}
        #: Trust-but-verify hooks.  All default to off; the machine's
        #: behavior (traces, timings) is bit-identical when they are.
        self.faults = faults
        self.race_detector = race_detector
        self.lock_wait_timeout = lock_wait_timeout
        #: Flight recorder (repro.obs).  Same pay-for-what-you-use rule:
        #: with no recorder the machine's behavior and effect trace are
        #: byte-identical to an uninstrumented run.
        self.recorder = recorder
        #: Fault plans run on either stepper; the heap stepper calls
        #: ``on_tick`` only on the ticks its look-ahead says inject.
        self._step: Callable[[], None] = (
            self._step_batched if stepper == "heap" else self._tick
        )
        #: Incrementally-maintained count of processes not yet done —
        #: replaces the ticker's O(processes) scan per loop iteration.
        self._live = 0
        #: While a lone process runs ahead, the tick its charges must
        #: stay below (``_horizon``); 0 otherwise.
        self._ahead_limit = 0

    # -- process management -----------------------------------------------

    def spawn(
        self,
        gen: Any,
        label: str = "",
        future: Optional[Future] = None,
        parent: Optional[int] = None,
    ) -> Process:
        proc = Process(
            proc_id=self._next_proc_id,
            gen=gen,
            label=label,
            future=future,
            parent=parent,
            spawn_time=self.time,
        )
        self._next_proc_id += 1
        self.processes[proc.proc_id] = proc
        self._live += 1
        if parent is not None and parent in self.processes:
            self.processes[parent].children.append(proc.proc_id)
        self.ready.append(proc)
        self.stats.processes += 1
        self.trace.record(self.time, parent or 0, "spawn", None, proc.proc_id)
        if self.race_detector is not None:
            self.race_detector.on_spawn(parent, proc.proc_id)
        rec = self.recorder
        if rec is not None:
            rec.count("machine.spawns")
            rec.event(
                "proc.spawn", "machine", ts=self.time,
                pid=PID_MACHINE, tid=parent or 0,
                args={"child": proc.proc_id, "label": label},
            )
            rec.begin(
                f"proc:{label or proc.proc_id}", "machine", ts=self.time,
                pid=PID_MACHINE, tid=proc.proc_id,
                args={"proc": proc.proc_id},
            )
        return proc

    def spawn_call(self, fname: str, *args: Any, label: str = "") -> Process:
        """Spawn a process applying a defined function to arguments."""
        fn = self.interp.lookup_function(self.interp.intern(fname))
        if self.eval_mode == "compiled":
            from repro.lisp.compile import compiled_apply_gen

            gen = compiled_apply_gen(self.interp, fn, list(args))
        else:
            gen = self.interp.apply_gen(fn, list(args))
        return self.spawn(gen, label=label or fname)

    def spawn_form(self, form: Any, label: str = "main") -> Process:
        if self.eval_mode == "compiled":
            from repro.lisp.compile import compiled_eval_gen

            gen = compiled_eval_gen(self.interp, form, self.interp.globals)
        else:
            gen = self.interp.eval_gen(form, self.interp.globals)
        return self.spawn(gen, label=label)

    def spawn_text(self, text: str, label: str = "main") -> Process:
        forms = self.interp.load(text)
        if self.eval_mode == "compiled":
            from repro.lisp.compile import compiled_eval_sequence

            gen = compiled_eval_sequence(self.interp, forms, self.interp.globals)
        else:
            gen = self.interp.eval_sequence(forms, self.interp.globals)
        return self.spawn(gen, label=label)

    # -- the clock loop ------------------------------------------------------

    def run(self) -> MachineStats:
        """Run until every process is done (or deadlock / time cap)."""
        while True:
            if self.ready:
                self._assign_cpus()
            if self._live == 0:
                break
            engaged = False
            for cpu in self.cpus:
                if cpu.proc is not None or cpu.overhead > 0:
                    engaged = True
                    break
            if not engaged:
                blocked = [
                    p for p in self.processes.values() if p.state == "blocked"
                ]
                if blocked and not self.ready:
                    if self._try_quiesce(blocked):
                        continue
                    raise DeadlockDetected(
                        f"deadlock at t={self.time}: "
                        + "; ".join(self._describe_block(p) for p in blocked),
                        blocked,
                        clock=self.time,
                    )
            if self.time >= self.max_time:
                blocked = [
                    p for p in self.processes.values() if p.state == "blocked"
                ]
                raise MachineTimeout(
                    f"machine exceeded max_time={self.max_time} at "
                    f"t={self.time}; "
                    + (
                        "blocked: "
                        + "; ".join(self._describe_block(p) for p in blocked)
                        if blocked
                        else "no process blocked"
                    ),
                    clock=self.time,
                    blocked=blocked,
                )
            if self.lock_wait_timeout is not None:
                self._check_watchdog()
            self._step()
        self.stats.total_time = self.time
        self.stats.cpu_busy = [cpu.busy_time for cpu in self.cpus]
        self.stats.lock_acquisitions = self.locks.acquisitions
        self.stats.lock_contentions = self.locks.contentions
        if self.recorder is not None:
            self._record_rollup(self.recorder)
        return self.stats

    def run_main(self, proc: Process) -> Any:
        """Run to completion; return the result of ``proc``."""
        self.run()
        return proc.result

    def _assign_cpus(self) -> None:
        for cpu in self.cpus:
            if cpu.proc is not None or cpu.overhead > 0:
                continue
            if not self.ready:
                break
            proc = self._pick_ready()
            cpu.proc = proc
            proc.state = "running"
            if cpu.last_proc_id is not None and cpu.last_proc_id != proc.proc_id:
                cpu.overhead = self.costs.context_switch
                self.stats.context_switches += 1
            cpu.last_proc_id = proc.proc_id
            if cpu.overhead == 0:
                self._kick(cpu)

    def _try_quiesce(self, blocked: list[Process]) -> bool:
        """Quiescence termination: if every blocked process is waiting on a
        quiesce-registered queue, close those queues and wake everyone."""
        if not self.quiesce_queues:
            return False
        for p in blocked:
            reason = p.block_reason
            if isinstance(reason, tuple) and reason[0] == "queue" \
                    and reason[1] in self.quiesce_queues:
                continue
            if isinstance(reason, tuple) and reason[0] == "queue-any" \
                    and all(qid in self.quiesce_queues for qid in reason[1]):
                continue
            return False
        woke = False
        for qid in list(self.quiesce_queues):
            queue = self._registered_queues.get(qid)
            if queue is not None:
                queue.closed = True
            for waiter in self._queue_waiters.pop(qid, []):
                waiter.state = "ready"
                waiter.block_reason = None
                waiter.pending_reply = QUEUE_CLOSED
                waiter.busy_remaining = self.costs.queue_op
                self.ready.append(waiter)
                woke = True
        for proc_w, _queues in self._any_waiters:
            proc_w.state = "ready"
            proc_w.block_reason = None
            proc_w.pending_reply = QUEUE_CLOSED
            proc_w.busy_remaining = self.costs.queue_op
            self.ready.append(proc_w)
            woke = True
        self._any_waiters = []
        return woke

    def register_quiesce_queue(self, queue: TaskQueue) -> None:
        self.quiesce_queues.add(queue.queue_id)
        self._registered_queues[queue.queue_id] = queue

    def _pick_ready(self) -> Process:
        if self.faults is not None and self.ready:
            index = self.faults.pick_ready(self, self.ready)
            if index is not None:
                return self.ready.pop(index)
        if self.policy == "random" and len(self.ready) > 1:
            index = self.rng.randrange(len(self.ready))
            return self.ready.pop(index)
        return self.ready.pop(0)

    def _describe_block(self, proc: Process) -> str:
        """One human line: who is blocked, on what, and who holds it."""
        who = f"proc {proc.proc_id}" + (f" ({proc.label})" if proc.label else "")
        reason = proc.block_reason
        if isinstance(reason, tuple) and reason and reason[0] == "lock":
            key = reason[1]
            writer, readers = self.locks.owners(key)
            holders = []
            if writer is not None:
                holders.append(f"writer proc {writer}")
            if readers:
                holders.append(
                    "reader(s) " + ", ".join(str(r) for r in sorted(readers))
                )
            held = " held by " + " and ".join(holders) if holders else " (unheld)"
            return (
                f"{who} waiting {self.time - proc.lock_wait_since} tick(s) "
                f"on lock {key!r}{held}"
            )
        if isinstance(reason, tuple) and reason:
            return f"{who} on {reason[0]} {reason[1:]!r}"
        return f"{who} on {reason!r}"

    def _check_watchdog(self) -> None:
        """Raise when any lock wait exceeds the configured timeout.

        Counts ticks since the process entered the lock queue
        (``lock_wait_since``), never since some earlier block on a
        future or queue — only lock-queue ticks can trip the watchdog.
        """
        limit = self.lock_wait_timeout
        for proc in self._lock_waiters.values():
            if proc.state == "blocked" and self.time - proc.lock_wait_since > limit:
                blocked = [
                    p for p in self.processes.values() if p.state == "blocked"
                ]
                raise LockWaitTimeout(
                    f"lock-wait watchdog (timeout={limit}) at t={self.time}: "
                    + "; ".join(self._describe_block(p) for p in blocked),
                    clock=self.time,
                    blocked=blocked,
                )

    def _record_rollup(self, rec: Recorder) -> None:
        """End-of-run rollup: the stats benchmarks read, as counters and
        one summary event."""
        stats = self.stats
        rec.count("machine.runs")
        rec.count("machine.steps", stats.total_time)
        rec.count("machine.context_switches", stats.context_switches)
        rec.count("machine.lock.acquisitions", stats.lock_acquisitions)
        rec.count("machine.lock.contentions", stats.lock_contentions)
        args = {
            "steps": stats.total_time,
            "processes": stats.processes,
            "spawns": stats.spawns,
            "context_switches": stats.context_switches,
            "lock_acquisitions": stats.lock_acquisitions,
            "lock_contentions": stats.lock_contentions,
            "peak_live_processes": stats.peak_live_processes,
        }
        if self.race_detector is not None:
            races = self.race_detector.race_count
            args["races"] = races
            args["verdict"] = "race" if races else "clean"
            rec.event(
                "race.verdict", "machine", ts=self.time,
                pid=PID_MACHINE, tid=0,
                args={"verdict": args["verdict"], "races": races},
            )
        rec.event("machine.run", "machine", ts=self.time,
                  pid=PID_MACHINE, tid=0, args=args)

    def _checked_access(self, kind: str, proc: Process, loc: tuple) -> None:
        """Feed one memory access to the race detector, recording a
        ``race.verdict`` event for every newly flagged race."""
        detector = self.race_detector
        rec = self.recorder
        if rec is None:
            if kind == "read":
                detector.on_read(proc.proc_id, loc, self.time)
            else:
                detector.on_write(proc.proc_id, loc, self.time)
            return
        before = detector.race_count
        try:
            if kind == "read":
                detector.on_read(proc.proc_id, loc, self.time)
            else:
                detector.on_write(proc.proc_id, loc, self.time)
        finally:
            if detector.race_count > before:
                rec.count("machine.races.flagged",
                          detector.race_count - before)
                rec.event(
                    "race.verdict", "machine", ts=self.time,
                    pid=PID_MACHINE, tid=proc.proc_id,
                    args={"verdict": "race", "kind": kind,
                          "key": loc, "races": detector.race_count},
                )

    def _record_grant(self, rec: Recorder, pid: int, waiter: Process,
                      effect: Any) -> None:
        """Close a waiter's ``lock.wait`` span and record the grant.

        ``waited`` counts lock-queue ticks only (``lock_wait_since``),
        keeping the wait histogram honest for processes that blocked on
        a future or queue earlier in their life.
        """
        waited = self.time - waiter.lock_wait_since
        rec.count("machine.lock.grants")
        rec.observe("machine.lock.wait_ticks", waited)
        rec.end("lock.wait", "machine", ts=self.time,
                pid=PID_MACHINE, tid=pid)
        rec.event(
            "lock.grant", "machine", ts=self.time,
            pid=PID_MACHINE, tid=pid,
            args={"key": effect.key, "shared": effect.shared,
                  "waited": waited},
        )

    def _kick(self, cpu: _Cpu) -> None:
        """If the cpu's process has no pending busy time, resume it now."""
        proc = cpu.proc
        while proc is not None and proc.busy_remaining == 0:
            self._resume(cpu, proc)
            proc = cpu.proc

    def _tick(self) -> None:
        """The per-tick reference stepper (``stepper="ticker"``)."""
        self.time += 1
        if self.faults is not None:
            self.faults.on_tick(self)
        busy_count = 0
        for cpu in self.cpus:
            if cpu.overhead > 0:
                cpu.overhead -= 1
                cpu.busy_time += 1
                busy_count += 1
                if cpu.overhead == 0 and cpu.proc is not None:
                    self._kick(cpu)
                continue
            proc = cpu.proc
            if proc is None:
                continue
            busy_count += 1
            cpu.busy_time += 1
            proc.busy_total += 1
            if proc.busy_remaining > 0:
                proc.busy_remaining -= 1
            if proc.busy_remaining == 0:
                self._kick(cpu)
        self.stats.sample(busy_count)
        live = sum(1 for p in self.processes.values() if p.state != "done")
        self.stats.peak_live_processes = max(self.stats.peak_live_processes, live)

    # -- the event stepper -------------------------------------------------

    def _horizon(self) -> int:
        """The first tick at which ``run`` must raise: ``max_time``, or
        the earliest tick at which the lock-wait watchdog would fire."""
        horizon = self.max_time
        limit = self.lock_wait_timeout
        if limit is not None:
            for proc in self._lock_waiters.values():
                if proc.state == "blocked":
                    horizon = min(horizon, proc.lock_wait_since + limit + 1)
        return horizon

    def _step_batched(self) -> None:
        """One event step: run a lone process ahead, or advance straight
        to the next event.

        The batch is capped so that ``max_time`` and the lock-wait
        watchdog still observe exactly the tick at which the per-tick
        loop would have raised.  With a fault plan, the batch stops at
        the first tick the plan injects on; that tick runs the plan's
        ``on_tick`` as the ticker would.

        One scan of the cpus counts the engaged ones and finds the
        smallest charge among them: the machine simulates a handful of
        processors, so the minimum is cheaper to recompute per step than
        to maintain in an event heap.
        """
        engaged = 0
        lone: Any = None
        delta = 0
        for cpu in self.cpus:
            if cpu.overhead > 0:
                remaining = cpu.overhead
            else:
                proc = cpu.proc
                if proc is None:
                    continue
                remaining = proc.busy_remaining
            engaged += 1
            lone = cpu
            if remaining > 0 and (delta == 0 or remaining < delta):
                delta = remaining
        if engaged == 1 and not self.ready and lone.overhead == 0 \
                and lone.proc.busy_remaining > 0 and self._run_ahead(lone):
            return
        if delta == 0:
            delta = 1
        if delta > 1:
            cap = self._horizon() - self.time
            if delta > cap:
                delta = cap if cap > 1 else 1
        faults = self.faults
        if faults is not None:
            quiet = faults.quiet_ticks(self, delta)
            if quiet < delta:
                if quiet:
                    self._advance(quiet)
                self._advance(1, faults)
                return
        self._advance(delta)

    def _run_ahead(self, cpu: _Cpu) -> bool:
        """Run a lone process ahead of the scheduler loop.

        While its cpu is the only engaged one, with no overhead and a
        charge pending, and the ready queue is empty, nothing else can
        act: each charge goes straight onto the clock and the process
        resumes at once (``_charge_ahead``) until it blocks, finishes,
        fills the ready queue, or a charge would reach the horizon or a
        fault tick.  The ticks record what ``_advance`` would.  Returns
        False if no tick was charged; the cpus are then as the caller's
        scan found them.
        """
        proc = cpu.proc
        start = self.time
        live = self._live
        self._ahead_limit = self._horizon()
        try:
            proc.busy_remaining = self._charge_ahead(
                cpu, proc, proc.busy_remaining)
            if proc.busy_remaining == 0:
                self._resume(cpu, proc)
        finally:
            self._ahead_limit = 0
        ticks = self.time - start
        if ticks:
            stats = self.stats
            stats.peak_live_processes = max(
                stats.peak_live_processes, self._live,
                live if ticks > 1 else 0)
        return ticks > 0

    def _charge_ahead(self, cpu: _Cpu, proc: Process, cost: int) -> int:
        """Put a running-ahead process's ``cost`` straight onto the
        clock: none of it if the ready queue is non-empty or the charge
        would reach the horizon, and with a fault plan only the ticks
        before its next injection.  Returns the part left uncharged."""
        if self.ready or self.time + cost >= self._ahead_limit:
            return cost
        faults = self.faults
        quiet = cost if faults is None else faults.quiet_ticks(self, cost)
        if quiet:
            self.time += quiet
            cpu.busy_time += quiet
            proc.busy_total += quiet
            self.stats.sample(1, quiet)
        return cost - quiet

    def _advance(self, delta: int,
                 faults: Optional[FaultPlan] = None) -> None:
        """Charge every engaged cpu ``delta`` ticks at once.

        Equivalent to ``delta`` ticker iterations: by construction no
        charge expires strictly inside the batch, so the intermediate
        ticks are pure decrements — engagement, the busy count, and the
        live-process count are all constant until the final tick's
        kicks.  Per-tick statistics are therefore reconstructible: each
        of the ``delta`` concurrency samples equals the batch's busy
        count, mid-batch ticks observe the pre-kick live count, and the
        final tick observes the post-kick one — matching the ticker's
        sample-after-kick order.  ``faults`` is passed for a one-tick
        batch on which the plan injects: its ``on_tick`` runs after the
        clock moves and before any cpu is charged, as in ``_tick``.
        """
        self.time += delta
        if faults is not None:
            faults.on_tick(self)
        live_before = self._live
        busy_count = 0
        for cpu in self.cpus:
            if cpu.overhead > 0:
                cpu.overhead -= delta
                cpu.busy_time += delta
                busy_count += 1
                if cpu.overhead == 0 and cpu.proc is not None:
                    self._kick(cpu)
                continue
            proc = cpu.proc
            if proc is None:
                continue
            busy_count += 1
            cpu.busy_time += delta
            proc.busy_total += delta
            if proc.busy_remaining > 0:
                proc.busy_remaining -= delta
            if proc.busy_remaining == 0:
                self._kick(cpu)
        self.stats.sample(busy_count, delta)
        if delta > 1 and live_before > self.stats.peak_live_processes:
            self.stats.peak_live_processes = live_before
        if self._live > self.stats.peak_live_processes:
            self.stats.peak_live_processes = self._live

    # -- effect handling ---------------------------------------------------

    def _resume(self, cpu: _Cpu, proc: Process) -> None:
        """Resume the generator until it finishes, blocks, or gets busy."""
        reply = proc.pending_reply
        proc.pending_reply = None
        if reply is SPURIOUS_WAKE:
            # Spurious wakeup (fault injection): the wait condition is
            # unchanged and the process never left its lock wait list —
            # re-block without resuming the generator.  The cost was the
            # context switch the processor paid to look at it.
            proc.state = "blocked"
            cpu.proc = None
            return
        send = proc.gen.send
        while True:
            try:
                effect = send(reply)
            except StopIteration as stop:
                self._finish(proc, stop.value)
                cpu.proc = None
                return
            except LispError as err:
                # Fail fast, but say which simulated process died and
                # when — a bare interpreter traceback names neither.
                raise LispError(
                    f"process {proc.proc_id} ({proc.label or 'unnamed'}) "
                    f"failed at t={self.time}: {err}"
                ) from err
            # Ticks dominate the effect stream; handle them without the
            # dispatch chain (same outcome as _handle's Tick arm).
            if effect.__class__ is Tick:
                cost = effect.cost
                if cost > 0 and self._ahead_limit:
                    cost = self._charge_ahead(cpu, proc, cost)
                if cost > 0:
                    proc.busy_remaining = cost
                    proc.pending_reply = None
                    return
                reply = None
                continue
            cost, blocked, reply = self._handle(proc, effect)
            if blocked:
                proc.state = "blocked"
                proc.block_since = self.time
                cpu.proc = None
                return
            if cost > 0 and self._ahead_limit:
                cost = self._charge_ahead(cpu, proc, cost)
            if cost > 0:
                proc.busy_remaining = cost
                proc.pending_reply = reply
                return
            # zero-cost effect, or a charge already run ahead: keep
            # going within this instant

    def _finish(self, proc: Process, value: Any) -> None:
        proc.state = "done"
        proc.result = value
        proc.finish_time = self.time
        self._live -= 1
        detector = self.race_detector
        if detector is not None:
            detector.on_finish(proc.proc_id)
        rec = self.recorder
        if rec is not None:
            rec.end(
                f"proc:{proc.label or proc.proc_id}", "machine",
                ts=self.time, pid=PID_MACHINE, tid=proc.proc_id,
            )
            rec.observe("machine.proc.busy_ticks", proc.busy_total)
            rec.observe(
                "machine.proc.lifetime_ticks", self.time - proc.spawn_time
            )
        # Wake any sync-joiners whose descendant set just drained.
        if self._children_waiters:
            still = []
            for waiter in self._children_waiters:
                if waiter.state == "blocked" and not self._live_descendants(waiter.proc_id):
                    waiter.state = "ready"
                    waiter.block_reason = None
                    waiter.pending_reply = None
                    waiter.busy_remaining = 1
                    self.ready.append(waiter)
                    if detector is not None:
                        detector.on_join_children(
                            waiter.proc_id, self._descendant_ids(waiter.proc_id)
                        )
                else:
                    still.append(waiter)
            self._children_waiters = still
        if proc.future is not None:
            proc.future.resolve(value)
            if detector is not None:
                detector.on_future_resolve(proc.proc_id, proc.future.future_id)
            if rec is not None:
                rec.count("machine.futures.resolved")
                rec.event(
                    "future.resolve", "machine", ts=self.time,
                    pid=PID_MACHINE, tid=proc.proc_id,
                    args={
                        "future": proc.future.future_id,
                        "woke": len(
                            self._future_waiters.get(proc.future.future_id, [])
                        ),
                    },
                )
            for waiter in self._future_waiters.pop(proc.future.future_id, []):
                waiter.wake_reply = value
                waiter.pending_reply = value
                waiter.state = "ready"
                waiter.block_reason = None
                self.ready.append(waiter)
                if detector is not None:
                    detector.on_future_wait(
                        waiter.proc_id, proc.future.future_id
                    )

    def _close_wake_any(self, queue: TaskQueue) -> None:
        """After closing ``queue``, wake any-waiters whose whole queue set
        is now closed and drained."""
        still: list[tuple[Process, list]] = []
        for proc_w, queues in self._any_waiters:
            if all(q.closed and not q.items for q in queues):
                proc_w.state = "ready"
                proc_w.block_reason = None
                proc_w.pending_reply = QUEUE_CLOSED
                proc_w.busy_remaining = self.costs.queue_op
                self.ready.append(proc_w)
            else:
                still.append((proc_w, queues))
        self._any_waiters = still

    def _descendant_ids(self, proc_id: int) -> list[int]:
        out: list[int] = []
        stack = list(self.processes[proc_id].children)
        while stack:
            pid = stack.pop()
            child = self.processes.get(pid)
            if child is None:
                continue
            out.append(pid)
            stack.extend(child.children)
        return out

    def _live_descendants(self, proc_id: int) -> bool:
        stack = list(self.processes[proc_id].children)
        while stack:
            pid = stack.pop()
            child = self.processes.get(pid)
            if child is None:
                continue
            if child.state != "done":
                return True
            stack.extend(child.children)
        return False

    def _handle(self, proc: Process, effect: Any) -> tuple[int, bool, Any]:
        """Returns (cost, blocked, reply)."""
        if isinstance(effect, Tick):
            return effect.cost, False, None
        if isinstance(effect, MemRead):
            loc = location_of(effect.cell, effect.field)
            self.trace.record(self.time, proc.proc_id, "read", loc)
            if self.race_detector is not None:
                self._checked_access("read", proc, loc)
            return 1, False, None
        if isinstance(effect, MemWrite):
            loc = location_of(effect.cell, effect.field)
            self.trace.record(self.time, proc.proc_id, "write", loc)
            if self.race_detector is not None:
                self._checked_access("write", proc, loc)
            return 1, False, None
        if isinstance(effect, (VarRead, VarWrite)):
            return 0, False, None
        if isinstance(effect, LockAcquire):
            got = self.locks.acquire(proc.proc_id, effect.key, effect.shared)
            self.trace.record(
                self.time, proc.proc_id,
                "lock" if got else "lock-wait", effect.key, effect.shared,
            )
            rec = self.recorder
            if got:
                if self.race_detector is not None:
                    self.race_detector.on_acquire(proc.proc_id, effect.key)
                if rec is not None:
                    rec.count("machine.lock.grants")
                    rec.event(
                        "lock.grant", "machine", ts=self.time,
                        pid=PID_MACHINE, tid=proc.proc_id,
                        args={"key": effect.key, "shared": effect.shared,
                              "waited": 0},
                    )
                return self.costs.lock_acquire, False, None
            if rec is not None:
                rec.count("machine.lock.waits")
                rec.begin(
                    "lock.wait", "machine", ts=self.time,
                    pid=PID_MACHINE, tid=proc.proc_id,
                    args={"key": effect.key, "shared": effect.shared},
                )
            proc.block_reason = ("lock", effect.key)
            proc.lock_wait_since = self.time
            proc.pending_reply = None
            self._lock_waiters[proc.proc_id] = proc
            return 0, True, None
        if isinstance(effect, LockRelease):
            if self.race_detector is not None:
                self.race_detector.on_release(proc.proc_id, effect.key)
            granted = self.locks.release(proc.proc_id, effect.key, effect.shared)
            self.trace.record(self.time, proc.proc_id, "unlock", effect.key, effect.shared)
            rec = self.recorder
            if rec is not None:
                rec.count("machine.lock.releases")
                rec.event(
                    "lock.release", "machine", ts=self.time,
                    pid=PID_MACHINE, tid=proc.proc_id,
                    args={"key": effect.key, "shared": effect.shared},
                )
            for pid in granted:
                waiter = self._lock_waiters.pop(pid)
                if self.race_detector is not None:
                    self.race_detector.on_acquire(pid, effect.key)
                # The grantee still pays its lock_acquire cost on wake;
                # a fault plan may stretch the grant further (FIFO order
                # is already fixed by the lock table).
                wake_cost = self.costs.lock_acquire
                if self.faults is not None:
                    wake_cost += self.faults.grant_delay(self, pid, effect.key)
                if waiter.pending_reply is SPURIOUS_WAKE:
                    # It was spuriously awake when the real grant landed:
                    # convert in place — it is already in the ready queue
                    # (or on a cpu paying switch overhead).
                    waiter.pending_reply = None
                    waiter.block_reason = None
                    waiter.busy_remaining = wake_cost
                    self.trace.record(self.time, pid, "lock", effect.key, effect.shared)
                    if rec is not None:
                        self._record_grant(rec, pid, waiter, effect)
                    continue
                waiter.state = "ready"
                waiter.block_reason = None
                waiter.busy_remaining = wake_cost
                waiter.pending_reply = None
                self.ready.append(waiter)
                self.trace.record(self.time, pid, "lock", effect.key, effect.shared)
                if rec is not None:
                    self._record_grant(rec, pid, waiter, effect)
            return self.costs.lock_release, False, None
        if isinstance(effect, SpawnProcess):
            future = effect.future
            child = self.spawn(
                effect.thunk(), label=effect.label, future=future,
                parent=proc.proc_id,
            )
            self.stats.spawns += 1
            reply = future if future is not None else None
            return self.costs.spawn, False, reply
        if isinstance(effect, WaitChildren):
            if self._live_descendants(proc.proc_id):
                proc.block_reason = ("children", proc.proc_id)
                self._children_waiters.append(proc)
                return 0, True, None
            if self.race_detector is not None:
                self.race_detector.on_join_children(
                    proc.proc_id, self._descendant_ids(proc.proc_id)
                )
            return 1, False, None
        if isinstance(effect, WaitFuture):
            fut: Future = effect.future
            if fut.resolved:
                if self.race_detector is not None:
                    self.race_detector.on_future_wait(proc.proc_id, fut.future_id)
                return self.costs.future_touch, False, fut.value
            proc.block_reason = ("future", fut.future_id)
            self._future_waiters.setdefault(fut.future_id, []).append(proc)
            return 0, True, None
        if isinstance(effect, QueuePut):
            queue: TaskQueue = effect.queue
            if self.race_detector is not None:
                self.race_detector.on_queue_put(proc.proc_id, queue.queue_id)
            waiters = self._queue_waiters.get(queue.queue_id)
            handed = False
            if waiters:
                # Hand the item directly to the first blocked consumer.
                waiter = waiters.pop(0)
                waiter.state = "ready"
                waiter.block_reason = None
                waiter.pending_reply = effect.item
                waiter.busy_remaining = self.costs.queue_op
                self.ready.append(waiter)
                if self.race_detector is not None:
                    self.race_detector.on_queue_get(
                        waiter.proc_id, queue.queue_id
                    )
                handed = True
            else:
                for idx, (proc_w, queues) in enumerate(self._any_waiters):
                    if any(q is queue for q in queues):
                        self._any_waiters.pop(idx)
                        proc_w.state = "ready"
                        proc_w.block_reason = None
                        proc_w.pending_reply = effect.item
                        proc_w.busy_remaining = self.costs.queue_op
                        self.ready.append(proc_w)
                        if self.race_detector is not None:
                            self.race_detector.on_queue_get(
                                proc_w.proc_id, queue.queue_id
                            )
                        handed = True
                        break
            if not handed:
                queue.put(effect.item)
            self.trace.record(self.time, proc.proc_id, "annotate", None,
                              ("enqueue", queue.label))
            return self.costs.queue_op, False, None
        if isinstance(effect, QueueGet):
            queue = effect.queue
            ok, item = queue.try_get()
            if ok:
                if self.race_detector is not None:
                    self.race_detector.on_queue_get(proc.proc_id, queue.queue_id)
                return self.costs.queue_op, False, item
            if queue.closed:
                return self.costs.queue_op, False, QUEUE_CLOSED
            proc.block_reason = ("queue", queue.queue_id)
            self._queue_waiters.setdefault(queue.queue_id, []).append(proc)
            return 0, True, None
        if isinstance(effect, QueueGetAny):
            for queue in effect.queues:
                ok, item = queue.try_get()
                if ok:
                    if self.race_detector is not None:
                        self.race_detector.on_queue_get(
                            proc.proc_id, queue.queue_id
                        )
                    return self.costs.queue_op, False, item
            if all(q.closed for q in effect.queues):
                return self.costs.queue_op, False, QUEUE_CLOSED
            proc.block_reason = ("queue-any", tuple(q.queue_id for q in effect.queues))
            self._any_waiters.append((proc, list(effect.queues)))
            return 0, True, None
        if isinstance(effect, QueueClose):
            queue = effect.queue
            queue.closed = True
            for waiter in self._queue_waiters.pop(queue.queue_id, []):
                waiter.state = "ready"
                waiter.block_reason = None
                waiter.pending_reply = QUEUE_CLOSED
                waiter.busy_remaining = self.costs.queue_op
                self.ready.append(waiter)
            self._close_wake_any(queue)
            return self.costs.queue_op, False, None
        if isinstance(effect, Output):
            self.outputs.append(effect.value)
            self.trace.record(self.time, proc.proc_id, "output", None, effect.value)
            return 1, False, effect.value
        if isinstance(effect, Annotate):
            self.trace.record(self.time, proc.proc_id, "annotate", None,
                              (effect.kind, effect.data))
            return 0, False, None
        raise LispError(f"machine: unknown effect {effect!r}")
