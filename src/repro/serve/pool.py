"""The worker-process farm behind ``repro serve --executor process``
and ``repro sweep --workers N``.

The paper runs recursive invocations on a fixed pool of servers that
repeatedly execute one piece of code, each taking the next
invocation's arguments from a queue (§4, Figure 9).  :class:`Farm` is
that pool over OS processes, generic over the handler its workers run:

* each slot owns a process, a private task queue and a private result
  queue.  Terminating a worker while its queue feeder thread holds a
  pipe lock can corrupt that queue (a documented ``multiprocessing``
  hazard); with per-slot queues the damage stays in the slot being
  killed, and a respawn closes both of its queues and makes new ones;
* :meth:`Farm.call` checks an idle slot out (thread-safe), hands it one
  task and blocks on that slot's result queue, which returns as soon as
  the result lands.  Between waits it checks the cancel event, the
  task's deadline and the worker's liveness, and before it gives the
  slot up for any of the three it reads the result queue once more, so
  a result that arrived in time still counts;
* a slot found dead while idle is respawned before it gets a task;
* a worker exits when its parent dies, but it notices only between
  tasks: it watches its parent pid while it waits for the next one.

``setup`` runs inside each worker and returns a context manager that
yields the handler: a sweep worker opens its result store there for
its whole life and closes it at the shutdown sentinel.  A handler turns
every failure of a task into a message; only a hard death (crash,
``kill -9``, termination) leaves a task unanswered.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import threading
import time
from typing import Any, Callable, ContextManager, List, Optional, Tuple

#: How often a blocked call re-checks cancellation, deadline and death.
_POLL_S = 0.05
#: Worker-side idle poll; bounds how long an idle orphan outlives its parent.
_PARENT_POLL_S = 1.0

#: What :meth:`Farm.call` reports: the handler answered, or the slot was
#: given up because the deadline passed, the caller cancelled, or the
#: worker died.
DONE = "done"
TIMEOUT = "timeout"
CANCELLED = "cancelled"
CRASHED = "crashed"

Setup = Callable[[], ContextManager[Callable[[Any], Any]]]


def _worker_main(setup: Setup, task_q, result_q) -> None:
    """Answer tasks until the ``None`` sentinel, or until the parent is
    gone."""
    parent = os.getppid()
    with setup() as handle:
        while True:
            try:
                task = task_q.get(timeout=_PARENT_POLL_S)
            except queue_mod.Empty:
                if os.getppid() != parent:
                    result_q.cancel_join_thread()  # nobody reads it now
                    return
                continue
            if task is None:
                return
            result_q.put(handle(task))


class _Slot:
    """One worker: a process and its private task and result queues."""

    def __init__(self, ctx, setup: Setup):
        self.task_q = ctx.Queue()
        self.result_q = ctx.Queue()
        self.proc = ctx.Process(target=_worker_main,
                                args=(setup, self.task_q, self.result_q),
                                daemon=True)
        self.proc.start()

    def kill(self) -> None:
        """Terminate the worker (if alive) and release both queues
        without waiting on their feeder threads."""
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=2.0)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(timeout=2.0)
        for q in (self.task_q, self.result_q):
            q.close()
            q.cancel_join_thread()


class Farm:
    """A fixed number of worker processes, each running the handler
    ``setup()`` yields.  ``on_respawn`` is called once per respawn."""

    def __init__(self, workers: int, setup: Setup,
                 on_respawn: Optional[Callable[[], Any]] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._ctx = multiprocessing.get_context("spawn")
        self._setup = setup
        self._on_respawn = on_respawn
        self._lock = threading.Lock()
        self._closed = False
        self._slots = [_Slot(self._ctx, setup) for _ in range(workers)]
        self._idle: "queue_mod.Queue[_Slot]" = queue_mod.Queue()
        for slot in self._slots:
            self._idle.put(slot)

    def worker_pids(self) -> List[int]:
        """Live worker pids (test/chaos hook: kill one to prove
        isolation)."""
        with self._lock:
            return [s.proc.pid for s in self._slots if s.proc.is_alive()]

    def _respawn(self, old: _Slot) -> _Slot:
        old.kill()
        with self._lock:
            slot = _Slot(self._ctx, self._setup)
            self._slots[self._slots.index(old)] = slot
        if self._on_respawn is not None:
            self._on_respawn()
        return slot

    def call(self, task: Any, timeout: Optional[float] = None,
             cancel: Optional[threading.Event] = None) -> Tuple[str, Any]:
        """Run ``task`` on an idle worker and wait for it.

        Returns ``(DONE, message)`` with the handler's message, or
        ``(TIMEOUT | CANCELLED | CRASHED, pid)`` when the slot was given
        up; its worker (that pid) was then killed and respawned."""
        slot = self._idle.get()
        if not slot.proc.is_alive():
            slot = self._respawn(slot)  # died idle: nothing was lost
        try:
            slot, outcome = self._run(slot, task, timeout, cancel)
        finally:
            self._idle.put(slot)
        return outcome

    def _run(self, slot: _Slot, task: Any, timeout: Optional[float],
             cancel: Optional[threading.Event]) -> Tuple[_Slot, Tuple]:
        deadline = None if timeout is None else time.monotonic() + timeout
        slot.task_q.put(task)
        while True:
            wait = _POLL_S
            if deadline is not None:
                wait = max(0.0, min(wait, deadline - time.monotonic()))
            try:
                return slot, (DONE, slot.result_q.get(timeout=wait))
            except queue_mod.Empty:
                pass
            if cancel is not None and cancel.is_set():
                kind = CANCELLED
            elif deadline is not None and time.monotonic() >= deadline:
                kind = TIMEOUT
            elif not slot.proc.is_alive():
                kind = CRASHED
            else:
                continue
            try:  # a result that landed in time still counts
                return slot, (DONE, slot.result_q.get_nowait())
            except queue_mod.Empty:
                pid = slot.proc.pid
                return self._respawn(slot), (kind, pid)

    def close(self) -> None:
        """Take every idle slot back, then stop each worker: sentinel,
        short join, then force."""
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + 5.0
        for _ in range(len(self._slots)):  # respawns replace in place
            try:
                self._idle.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue_mod.Empty:
                break
        with self._lock:
            slots = list(self._slots)
        for slot in slots:
            slot.task_q.put(None)
        for slot in slots:
            slot.proc.join(timeout=2.0)
            slot.kill()
