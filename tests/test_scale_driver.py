"""The sharded driver: fault isolation, respawn, span accounting.

Probe jobs (family ``probe``) let the tests inject each failure mode
deterministically: a raise (worker survives → ``failed``), a hard
``os._exit`` (worker dies → ``crashed``), and a sleep past the deadline
(worker terminated → ``timeout``).  Sweeps must absorb all three and
keep going.
"""

from __future__ import annotations

import queue as queue_mod
import time

import pytest

from repro.obs import Recorder, check_span_balance
from repro.scale.driver import (
    CRASHED,
    FAILED,
    OK,
    TIMEOUT,
    JobOutcome,
    _check_health,
    _collect,
    _dispatch,
    _SweepState,
    run_jobs,
)
from repro.scale.jobs import SweepJob


def _probe(pid: str, **params) -> SweepJob:
    return SweepJob(id=f"probe/{pid}", family="probe", params=params)


class TestInline:
    def test_ok_and_failed(self):
        outcomes = run_jobs([_probe("a", value=1),
                             _probe("b", behavior="raise")], workers=0)
        assert [o.status for o in outcomes] == [OK, FAILED]
        assert outcomes[0].payload == {"value": 1}
        assert "RuntimeError" in outcomes[1].error
        assert all(o.cache == "off" for o in outcomes)

    def test_failed_job_through_a_store_misses_and_stores_nothing(
            self, tmp_path):
        outcomes = run_jobs([_probe("b", behavior="raise")], workers=0,
                            cache_dir=str(tmp_path))
        assert [(o.status, o.cache) for o in outcomes] == [(FAILED, "miss")]
        assert list(tmp_path.rglob("*.json")) == []

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            run_jobs([], workers=-1)

    def test_outcome_ok_property(self):
        assert JobOutcome(_probe("x"), OK).ok
        assert not JobOutcome(_probe("x"), FAILED).ok


class TestShardedFaults:
    def test_survives_raise_crash_and_timeout(self):
        jobs = [
            _probe("ok1", value=1),
            _probe("boom", behavior="raise"),
            _probe("die", behavior="exit"),
            _probe("hang", behavior="sleep", seconds=300.0),
            _probe("ok2", value=2),
            _probe("ok3", value=3),
        ]
        recorder = Recorder()
        # The deadline must beat the 300 s sleep by a mile yet leave
        # instant jobs lots of headroom on a loaded CI machine.
        outcomes = run_jobs(jobs, workers=2, job_timeout=5.0,
                            recorder=recorder)
        assert [o.status for o in outcomes] == [
            OK, FAILED, CRASHED, TIMEOUT, OK, OK]
        # Results come back in grid order regardless of which worker
        # computed them, and later jobs still ran after the faults.
        assert [o.payload for o in outcomes if o.ok] == [
            {"value": 1}, {"value": 2}, {"value": 3}]
        assert "worker process died" in outcomes[2].error
        assert "deadline exceeded" in outcomes[3].error

        counters = recorder.metrics.counter_values()
        assert counters["scale.job.ok"] == 3
        assert counters["scale.job.failed"] == 1
        assert counters["scale.job.crashed"] == 1
        assert counters["scale.job.timeout"] == 1
        assert counters["scale.worker.respawns"] == 2
        # Every scale.job B span gets its E, even for killed workers.
        assert check_span_balance(recorder.events) == []

    def test_cache_off_reports_off_even_on_faults(self):
        outcomes = run_jobs([_probe("x", behavior="raise")], workers=1)
        assert outcomes[0].cache == "off"


class _FakeProc:
    def __init__(self, alive: bool):
        self.alive = alive

    def is_alive(self) -> bool:
        return self.alive


class _FakeTaskQ:
    def __init__(self):
        self.items = []

    def put(self, item) -> None:
        self.items.append(item)


class _FakeHandle:
    """Stands in for _WorkerHandle so queue races replay deterministically."""

    def __init__(self, worker_id: int, alive: bool, results=()):
        self.worker_id = worker_id
        self.proc = _FakeProc(alive)
        self.task_q = _FakeTaskQ()
        self.result_q = _FakeResultQ(results)
        self.cache_dir = None
        self.cache_server = None

    def respawn(self) -> "_FakeHandle":
        return _FakeHandle(self.worker_id, alive=True)


class _FakeResultQ:
    def __init__(self, items=()):
        self.items = list(items)

    def get_nowait(self):
        if not self.items:
            raise queue_mod.Empty
        return self.items.pop(0)


class TestHealthCheckRaces:
    """Replays of interleavings real processes can't hit on demand."""

    def test_dead_worker_cannot_touch_peer_results(self):
        # Worker 0 died without answering; worker 1 posted its result
        # on its own queue in the same window.  Result pipes are
        # per-worker, so worker 0's termination and respawn can only
        # drain worker 0's queue: worker 1's posted result stays
        # untouched for the ordinary collect pass — the shared-queue
        # poisoning hazard is gone by construction.
        jobs = [_probe("a", value=1), _probe("b", value=2)]
        pool = {0: _FakeHandle(0, alive=False),
                1: _FakeHandle(1, alive=True,
                               results=[(1, 1, OK, {"value": 2}, "",
                                         "off")])}
        now = time.monotonic()
        state = _SweepState(outcomes=[None, None],
                            busy={0: (0, None, now), 1: (1, None, now)},
                            next_job=2)
        _check_health(pool, state, jobs, recorder=None)
        assert state.outcomes[0].status == CRASHED
        assert state.outcomes[1] is None  # not resolved by the health pass
        assert 1 in state.busy
        assert state.respawns == 1  # only the dead worker
        assert _collect(pool, state, jobs, recorder=None)
        assert state.outcomes[1].status == OK
        assert state.outcomes[1].payload == {"value": 2}
        assert state.done == 2
        assert state.busy == {}

    def test_dispatch_respawns_dead_idle_worker(self):
        # A dead worker whose final result the drain recovered goes
        # back on the idle list; the next dispatch must respawn it
        # rather than strand a job on a task queue nothing reads.
        jobs = [_probe("a", value=1), _probe("b", value=2)]
        dead = _FakeHandle(0, alive=False,
                           results=[(0, 0, OK, {"value": 1}, "", "off")])
        pool = {0: dead}
        now = time.monotonic()
        state = _SweepState(outcomes=[None, None],
                            busy={0: (0, None, now)}, next_job=1)
        _check_health(pool, state, jobs, recorder=None)
        assert state.outcomes[0].status == OK  # drain won, no crash record
        assert state.idle == [0]
        _dispatch(pool, state, jobs, job_timeout=None, recorder=None)
        assert pool[0] is not dead
        assert pool[0].proc.is_alive()
        assert state.respawns == 1
        assert pool[0].task_q.items == [(1, jobs[1])]
        assert dead.task_q.items == []  # nothing landed on the dead queue

    def test_timed_out_worker_with_posted_result_is_not_terminated(self):
        # The result arrived right at the deadline: the drain must win
        # and the (alive) worker must survive untouched.
        jobs = [_probe("a", value=1)]
        handle = _FakeHandle(0, alive=True,
                             results=[(0, 0, OK, {"value": 1}, "", "off")])
        pool = {0: handle}
        started = time.monotonic() - 10.0
        state = _SweepState(outcomes=[None],
                            busy={0: (0, started + 1.0, started)},
                            next_job=1)
        _check_health(pool, state, jobs, recorder=None)
        assert state.outcomes[0].status == OK
        assert state.respawns == 0
        assert pool[0] is handle


class TestShardedHappyPath:
    def test_matches_inline(self):
        jobs = [_probe(f"j{i}", value=i) for i in range(5)]
        inline = run_jobs(jobs, workers=0)
        sharded = run_jobs(jobs, workers=3)
        assert [o.payload for o in sharded] == [o.payload for o in inline]
        assert all(o.ok for o in sharded)

    def test_pool_never_exceeds_job_count(self):
        # One job, many workers: must not hang waiting on idle slots.
        outcomes = run_jobs([_probe("solo", value=9)], workers=8)
        assert outcomes[0].payload == {"value": 9}
