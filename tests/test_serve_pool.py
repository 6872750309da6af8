"""The worker-process farm (:mod:`repro.serve.pool`) that both
``repro serve --executor process`` and ``repro sweep --workers N`` run
on.

Interleavings real processes cannot hit on demand are replayed on fake
processes and queues; the rest runs on real workers: a ``kill -9``
that must not cost a sibling its result, and a parent killed mid-run
whose workers must not outlive it.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import queue as queue_mod
import signal
import subprocess
import sys
import threading
import time
import types

import pytest

import repro
from repro.serve import pool
from repro.serve.pool import CRASHED, DONE, TIMEOUT, Farm
from tests.blockers import SPIN_SRC, spins_for


class _FakeQueue:
    """``items`` are what a get sees; ``late`` items land just after
    the next blocking get gives up (posted right at the wait's end)."""

    def __init__(self):
        self.items = []
        self.late = []
        self.closed = False
        self.on_put = None

    def put(self, item) -> None:
        self.items.append(item)
        if self.on_put is not None:
            self.on_put(item)

    def get(self, timeout=None):
        if self.items:
            return self.items.pop(0)
        self.items, self.late = self.late, []
        raise queue_mod.Empty

    def get_nowait(self):
        if not self.items:
            raise queue_mod.Empty
        return self.items.pop(0)

    def close(self) -> None:
        self.closed = True

    def cancel_join_thread(self) -> None:
        pass


class _FakeProcess:
    _pids = iter(range(1000, 2000))

    def __init__(self, args):
        _setup, self.task_q, self.result_q = args
        self.pid = next(self._pids)
        self.alive = True
        self.terminated = False

    def start(self) -> None:
        pass

    def is_alive(self) -> bool:
        return self.alive

    def terminate(self) -> None:
        self.terminated = True
        self.alive = False

    kill = terminate

    def join(self, timeout=None) -> None:
        pass


class _FakeContext:
    """A multiprocessing context whose workers react synchronously, via
    ``behave(process, task)``, to each task put on their queue."""

    def __init__(self, behave):
        self.behave = behave
        self.procs = []

    def Queue(self):
        return _FakeQueue()

    def Process(self, target, args, daemon):
        proc = _FakeProcess(args)
        proc.task_q.on_put = lambda task: (
            task is not None and self.behave(proc, task))
        self.procs.append(proc)
        return proc


@pytest.fixture
def fake_farm(monkeypatch):
    """Build a farm on fake processes; returns (context, farm, respawns)."""
    farms = []

    def build(workers, behave):
        ctx = _FakeContext(behave)
        monkeypatch.setattr(pool, "multiprocessing", types.SimpleNamespace(
            get_context=lambda method: ctx))
        respawns = []
        farm = Farm(workers, contextlib.nullcontext,
                    on_respawn=lambda: respawns.append(1))
        farms.append(farm)
        return ctx, farm, respawns

    yield build
    for farm in farms:
        farm.close()


class TestFarmRaces:
    def test_killing_a_slot_leaves_a_sibling_result(self, fake_farm):
        # Worker 0 dies without answering "a"; in the same window its
        # sibling posts its answer to "b" on its own queue.  Giving up
        # on worker 0 kills it and closes its queues only.
        def behave(proc, task):
            if task == "a":
                proc.alive = False
                ctx.procs[1].result_q.items.append("b-done")

        ctx, farm, respawns = fake_farm(2, behave)
        victim, sibling = ctx.procs
        assert farm.call("a") == (CRASHED, victim.pid)
        assert victim.task_q.closed and victim.result_q.closed
        assert respawns == [1]
        assert sibling.result_q.items == ["b-done"]
        assert not (sibling.result_q.closed or sibling.terminated)
        assert farm.call("b") == (DONE, "b-done")  # the sibling's slot

    def test_slot_dead_while_idle_is_respawned_before_its_task(
            self, fake_farm):
        # Worker 0 posts its answer in its final breath: the read after
        # the death counts it, and the slot goes back idle with a dead
        # process behind it.  The next task must go to a new worker.
        def behave(proc, task):
            if task == "a":
                proc.result_q.late.append("a-done")
                proc.alive = False
            else:
                proc.result_q.items.append(f"{task}-done")

        ctx, farm, respawns = fake_farm(1, behave)
        dead = ctx.procs[0]
        assert farm.call("a") == (DONE, "a-done")  # no crash record
        assert respawns == []
        assert farm.call("b") == (DONE, "b-done")
        assert respawns == [1]
        fresh = ctx.procs[1]
        assert fresh.task_q.items == ["b"]
        assert dead.task_q.items == ["a"]  # nothing landed on the dead queue

    def test_result_posted_at_the_deadline_wins(self, fake_farm):
        def behave(proc, task):
            if task == "a":
                proc.result_q.late.append("a-done")

        ctx, farm, respawns = fake_farm(1, behave)
        worker = ctx.procs[0]
        assert farm.call("a", timeout=0.0) == (DONE, "a-done")
        assert not worker.terminated and respawns == []
        # With no answer at all the deadline gives the slot up.
        assert farm.call("never", timeout=0.0) == (TIMEOUT, worker.pid)
        assert worker.terminated and respawns == [1]

    def test_result_posted_at_the_cancel_wins(self, fake_farm):
        ctx, farm, respawns = fake_farm(
            1, lambda proc, task: proc.result_q.late.append(f"{task}-done"))
        cancel = threading.Event()
        cancel.set()
        assert farm.call("a", cancel=cancel) == (DONE, "a-done")
        assert not ctx.procs[0].terminated and respawns == []


@contextlib.contextmanager
def _pid_then_sleep():
    """Real-worker handler: write this worker's pid to the task's file,
    then sleep the task's seconds."""

    def handle(task):
        path, seconds = task
        pathlib.Path(path).write_text(str(os.getpid()))
        time.sleep(seconds)
        return os.getpid()

    yield handle


def _read_pid(path: pathlib.Path, timeout: float = 10.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        text = path.read_text() if path.exists() else ""
        if text:
            return int(text)
        time.sleep(0.01)
    raise AssertionError(f"no worker wrote {path}")


class TestFarmProcesses:
    def test_sigkill_mid_task_keeps_the_sibling_result(self, tmp_path):
        farm = Farm(2, _pid_then_sleep)
        outcomes = {}

        def call(name, seconds):
            outcomes[name] = farm.call((str(tmp_path / name), seconds))

        threads = [threading.Thread(target=call, args=("victim", 60.0)),
                   threading.Thread(target=call, args=("sibling", 1.0))]
        try:
            for thread in threads:
                thread.start()
            victim = _read_pid(tmp_path / "victim")
            sibling = _read_pid(tmp_path / "sibling")
            os.kill(victim, signal.SIGKILL)
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            assert outcomes["victim"] == (CRASHED, victim)
            assert outcomes["sibling"] == (DONE, sibling)
            assert len(farm.worker_pids()) == 2  # the victim's slot respawned
        finally:
            farm.close()


def _children(pid: int) -> set:
    """Child pids of every thread of ``pid``."""
    found = set()
    for children in pathlib.Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            found.update(int(c) for c in children.read_text().split())
        except OSError:
            pass  # that thread just exited
    return found


def _exited(pid: int) -> bool:
    """Gone, or a zombie its new parent has not reaped (an init process
    need not reap)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def _kill_parent_mid_run(code: str, workers: int) -> None:
    """Run ``code`` in a child, ``kill -9`` it while a job runs on one
    of its ``workers`` worker processes, and require every worker to
    exit within 10 s."""
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
    child = subprocess.Popen([sys.executable, "-c", code], env=env)
    pids: set = set()
    try:
        deadline = time.monotonic() + 60.0
        while len(pids) < workers:
            assert child.poll() is None, "the parent exited too early"
            assert time.monotonic() < deadline, "workers never started"
            time.sleep(0.01)
            pids = _children(child.pid)
        time.sleep(0.2)  # the job reaches its worker
        child.kill()
        # Killed mid-run: a parent that had already finished would have
        # stopped its workers itself.
        assert child.wait(timeout=10.0) == -signal.SIGKILL
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and \
                not all(_exited(pid) for pid in pids):
            time.sleep(0.05)
        assert sorted(pid for pid in pids if not _exited(pid)) == []
    finally:
        child.kill()
        child.wait()
        for pid in pids:
            if not _exited(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not pathlib.Path("/proc/self/task").is_dir(),
                    reason="needs /proc/<pid>/task/<tid>/children")
class TestOrphans:
    def test_sweep_workers_exit_when_the_parent_is_killed(self):
        _kill_parent_mid_run("""
from repro.scale.driver import run_jobs
from repro.scale.jobs import SweepJob
run_jobs([SweepJob(id="probe/sleep", family="probe",
                   params={"behavior": "sleep", "seconds": 1.5}),
          SweepJob(id="probe/ok", family="probe", params={"value": 1})],
         workers=2)
""", workers=2)

    def test_serve_workers_exit_when_the_parent_is_killed(self):
        _kill_parent_mid_run(f"""
from repro.serve import AnalysisService, Request, ServeConfig
service = AnalysisService(ServeConfig(workers=2, executor="process"))
service.handle(Request(id=1, op="run", deadline_ms=600_000, params={{
    "source": {SPIN_SRC!r}, "expr": "(spin {spins_for(1500.0)})",
    "processors": 1}}))
""", workers=2)
