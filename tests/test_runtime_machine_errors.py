"""Unit tests: machine error reporting and trace query helpers."""

import re

import pytest

from repro.lisp.effects import QueueGet, SpawnProcess, Tick
from repro.lisp.errors import LispError
from repro.lisp.interpreter import Interpreter
from repro.lisp.runner import SequentialRunner
from repro.lisp.trace import Trace
from repro.lisp.values import TaskQueue
from repro.runtime.clock import FREE_SYNC
from repro.runtime.faults import (
    FaultPlan,
    FaultRates,
    NullFaultPlan,
    SeededFaultPlan,
)
from repro.runtime.machine import (
    DeadlockDetected,
    LockWaitTimeout,
    Machine,
    MachineError,
    MachineTimeout,
)


class TestErrorContext:
    def test_failure_names_process_and_time(self):
        interp = Interpreter()
        runner = SequentialRunner(interp)
        runner.eval_text("(defun boom (x) (+ x 'not-a-number))")
        machine = Machine(interp, processors=2)
        machine.spawn_text("(boom 1)", label="exploder")
        with pytest.raises(LispError) as exc:
            machine.run()
        message = str(exc.value)
        assert "exploder" in message
        assert "failed at t=" in message

    def test_failure_in_spawned_child(self):
        interp = Interpreter()
        runner = SequentialRunner(interp)
        runner.eval_text(
            """
            (defun parent (l)
              (when l
                (spawn (child (car l)))
                (parent (cdr l))))
            (defun child (x) (car x))
            """
        )
        machine = Machine(interp, processors=2)
        machine.spawn_text("(parent (list 5))")  # (car 5) → WrongType
        with pytest.raises(LispError) as exc:
            machine.run()
        assert "child" in str(exc.value)

    def test_original_error_chained(self):
        interp = Interpreter()
        machine = Machine(interp, processors=1)
        machine.spawn_text("(undefined-function-xyz)")
        with pytest.raises(LispError) as exc:
            machine.run()
        assert exc.value.__cause__ is not None


class TestTraceQueries:
    def _trace(self) -> Trace:
        t = Trace()
        t.record(1, 1, "read", (10, "car"))
        t.record(2, 1, "write", (10, "car"))
        t.record(3, 2, "read", (11, "cdr"))
        t.record(4, 2, "output", None, 42)
        t.record(5, 1, "lock", ("loc", 10, "car"))
        return t

    def test_memory_events(self):
        t = self._trace()
        assert len(t.memory_events()) == 3
        assert len(t.writes()) == 1
        assert len(t.reads()) == 2

    def test_outputs(self):
        assert self._trace().outputs() == [42]

    def test_locations(self):
        assert self._trace().locations() == {(10, "car"), (11, "cdr")}

    def test_events_at(self):
        events = self._trace().events_at((10, "car"))
        assert [e.kind for e in events] == ["read", "write"]

    def test_by_proc(self):
        groups = self._trace().by_proc()
        assert set(groups) == {1, 2}
        assert len(groups[1]) == 3

    def test_seq_monotone(self):
        t = self._trace()
        seqs = [e.seq for e in t]
        assert seqs == sorted(seqs)
        assert len(t) == 5


class TestMachineErrorContext:
    """Satellite: DeadlockDetected (and friends) carry the clock and
    per-process block reasons, and the message names lock holders."""

    def _deadlocked_machine(self):
        interp = Interpreter()
        runner = SequentialRunner(interp)
        runner.eval_text("(setq c (cons 1 nil)) (setq q (make-queue))")
        machine = Machine(interp, processors=2)
        # holder: takes the location lock, then blocks forever on the queue
        machine.spawn_text("(progn (lock-loc! c 'car) (dequeue! q))",
                           label="holder")
        # waiter: blocks on the same lock
        machine.spawn_text("(lock-loc! c 'car)", label="waiter")
        return machine

    def test_deadlock_carries_clock_and_block_reasons(self):
        from repro.runtime.machine import DeadlockDetected

        machine = self._deadlocked_machine()
        with pytest.raises(DeadlockDetected) as exc:
            machine.run()
        err = exc.value
        assert err.clock > 0
        assert len(err.blocked) == 2
        reasons = {r[0] for r in err.block_reasons.values()}
        assert reasons == {"queue", "lock"}

    def test_deadlock_message_names_lock_holder(self):
        from repro.runtime.machine import DeadlockDetected

        machine = self._deadlocked_machine()
        with pytest.raises(DeadlockDetected) as exc:
            machine.run()
        message = str(exc.value)
        assert "deadlock at t=" in message
        assert "waiter" in message and "holder" in message
        assert "held by writer proc" in message
        assert "tick(s) on lock" in message

    def test_lock_wait_watchdog_fires(self):
        from repro.runtime.machine import LockWaitTimeout

        interp = Interpreter()
        runner = SequentialRunner(interp)
        runner.eval_text(
            """
            (setq c (cons 1 nil))
            (defun hog ()
              (lock-loc! c 'car)
              (let ((i 0)) (while (< i 2000) (setq i (1+ i))))
              (unlock-loc! c 'car))
            (defun late-waiter ()
              (let ((i 0)) (while (< i 5) (setq i (1+ i))))
              (lock-loc! c 'car))
            """
        )
        machine = Machine(interp, processors=2, lock_wait_timeout=40)
        machine.spawn_text("(hog)")
        machine.spawn_text("(late-waiter)", label="starved")
        with pytest.raises(LockWaitTimeout) as exc:
            machine.run()
        assert exc.value.clock > 40
        assert "starved" in str(exc.value)

    def test_machine_timeout_carries_clock(self):
        from repro.lisp.errors import LispError
        from repro.runtime.machine import MachineTimeout

        interp = Interpreter()
        runner = SequentialRunner(interp)
        runner.eval_text("(defun spin () (while t nil))")
        machine = Machine(interp, processors=1, max_time=60)
        machine.spawn_text("(spin)")
        with pytest.raises(MachineTimeout) as exc:
            machine.run()
        assert exc.value.clock >= 60
        assert isinstance(exc.value, LispError)  # old catch sites still work


# -- the heap stepper stops exactly where the ticker raises ---------------

STOP_PROGRAM = """
(setq c (cons 1 nil))
(setq q (make-queue))
(defun churn (n)
  (let ((i 0))
    (while (< i n)
      (lock-loc! c 'car)
      (setq i (1+ i))
      (unlock-loc! c 'car))))
(defun hog ()
  (lock-loc! c 'car)
  (let ((i 0)) (while (< i 2000) (setq i (1+ i))))
  (unlock-loc! c 'car))
(defun late-waiter ()
  (let ((i 0)) (while (< i 5) (setq i (1+ i))))
  (lock-loc! c 'car))
"""

PLANS = {
    "none": lambda: None,
    "null": NullFaultPlan,
    "seeded": lambda: SeededFaultPlan(7, FaultRates(
        stall_rate=0.05, grant_delay_rate=0.3, spurious_rate=0.1,
        preempt_rate=0.05, shuffle_rate=0.2)),
}


def _cells(text):
    """Cons-cell and queue ids are process-global: mask them."""
    text = re.sub(r"(queue'?,? \(?)\d+", r"\1#", text)
    return re.sub(r"\d+(?=, ')", "#", text)


def _stop_run(stepper, make_plan, spawns, processors=2, **limits):
    """Run ``spawns`` ((label, form) pairs) on one stepper; returns what
    the run raised and everything it left on the machine and plan."""
    interp = Interpreter()
    SequentialRunner(interp).eval_text(STOP_PROGRAM)
    plan = make_plan()
    machine = Machine(interp, processors=processors, faults=plan,
                      stepper=stepper, **limits)
    for label, form in spawns:
        machine.spawn_text(form, label=label)
    try:
        machine.run()
        raised = None
    except MachineError as err:
        raised = (type(err), err.clock, _cells(str(err)),
                  _cells(repr(err.block_reasons)))
    state = {
        "trace": [(e.time, e.proc, e.kind, _cells(repr(e.loc)),
                   _cells(repr(e.detail))) for e in machine.trace],
        "clock": machine.time,
        "stats": machine.stats,
        "cpu_busy": [cpu.busy_time for cpu in machine.cpus],
        "injected": getattr(plan, "injected", None),
        "rng": plan.rng.getstate() if hasattr(plan, "rng") else None,
    }
    return raised, state


def _both(make_plan, spawns, **kwargs):
    """Run on both steppers; they must raise and leave the same."""
    ticker = _stop_run("ticker", make_plan, spawns, **kwargs)
    heap = _stop_run("heap", make_plan, spawns, **kwargs)
    assert heap[0] == ticker[0]
    assert heap[1] == ticker[1]
    return ticker[0]


class TestRunAheadStopsExactly:
    """A lone process runs ahead of the scheduler loop; it must hand
    over at ``max_time`` and at the lock-watchdog deadline so both
    steppers raise the same error at the same clock."""

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    @pytest.mark.parametrize("max_time", [50, 51, 52, 53, 97, 300])
    def test_lone_busy_process_hits_max_time(self, plan_name, max_time):
        spawns = [("parked", "(dequeue! q)"), ("busy", "(churn 1000)")]
        raised = _both(PLANS[plan_name], spawns, max_time=max_time)
        assert raised is not None
        kind, clock, message, reasons = raised
        assert kind is MachineTimeout
        assert clock == max_time
        assert "parked" in message and "queue" in reasons

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    @pytest.mark.parametrize("timeout", [40, 41, 57, 190])
    def test_lone_process_with_peer_past_lock_timeout(self, plan_name,
                                                      timeout):
        spawns = [("hog", "(hog)"), ("starved", "(late-waiter)")]
        raised = _both(PLANS[plan_name], spawns, lock_wait_timeout=timeout)
        assert raised is not None
        kind, clock, message, reasons = raised
        assert kind is LockWaitTimeout
        assert clock > timeout
        assert "starved" in message and "lock" in reasons

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    def test_one_cpu_with_a_waiting_ready_queue(self, plan_name):
        spawns = [("a", "(churn 30)"), ("b", "(churn 30)"),
                  ("c", "(churn 5)")]
        raised = _both(PLANS[plan_name], spawns, processors=1)
        assert raised is None

    def test_plan_overriding_only_on_tick_is_called_every_tick(self):
        class EveryTick(FaultPlan):
            def __init__(self):
                super().__init__()
                self.ticks = []

            def on_tick(self, machine):
                self.ticks.append(machine.time)
                if machine.time % 13 == 0:
                    machine.cpus[0].overhead += 2
                    self.count("stall")

        plans = []

        def make():
            plans.append(EveryTick())
            return plans[-1]

        _both(make, [("a", "(churn 40)"), ("b", "(churn 25)")])
        ticker, heap = plans
        assert heap.injected["stall"] > 0
        assert heap.ticks == ticker.ticks
        assert heap.ticks == list(range(1, heap.ticks[-1] + 1))

    def test_peak_live_counts_processes_parked_at_run_ahead_start(self):
        """With free synchronization a process can spawn a child and
        both park in the same instant; the lone process that then runs
        ahead must still count them live on every tick it charges."""
        queue = TaskQueue()

        def busy():
            for _ in range(10):
                yield Tick(2)

        def parked():
            yield QueueGet(queue)

        def spawner():
            yield SpawnProcess(thunk=parked, label="child")
            yield QueueGet(queue)

        runs = {}
        for stepper in ("ticker", "heap"):
            machine = Machine(Interpreter(), processors=3,
                              cost_model=FREE_SYNC, stepper=stepper)
            machine.spawn(busy(), label="busy")
            machine.spawn(spawner(), label="spawner")
            with pytest.raises(DeadlockDetected) as err:
                machine.run()
            runs[stepper] = (err.value.clock, machine.stats)
        assert runs["heap"] == runs["ticker"]
        assert runs["heap"][1].peak_live_processes == 3
