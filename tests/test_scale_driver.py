"""The sharded driver: fault isolation, respawn, span accounting.

Probe jobs (family ``probe``) let the tests inject each failure mode
deterministically: a raise (worker survives → ``failed``), a hard
``os._exit`` (worker dies → ``crashed``), and a sleep past the deadline
(worker terminated → ``timeout``).  Sweeps must absorb all three and
keep going.
"""

from __future__ import annotations

import sys

import pytest

from repro.obs import Recorder, check_span_balance
from repro.scale.driver import (
    CRASHED,
    FAILED,
    OK,
    TIMEOUT,
    JobOutcome,
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

    def test_one_span_lane_per_slot(self):
        recorder = Recorder()
        jobs = [_probe(f"j{i}", value=i) for i in range(6)]
        run_jobs(jobs, workers=2, recorder=recorder)
        spans = [e for e in recorder.events if e.name == "scale.job"]
        assert {e.tid for e in spans} <= {0, 1}
        assert len(spans) == 2 * len(jobs)
        assert check_span_balance(recorder.events) == []

    def test_more_lanes_than_cores_lose_no_outcome(self):
        # The lanes share the job iterator, the outcome list and the
        # recorder under one lock; switch threads as often as possible.
        jobs = [_probe(f"j{i}", value=i) for i in range(40)]
        recorder = Recorder()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcomes = run_jobs(jobs, workers=4, job_timeout=60.0,
                                recorder=recorder)
        finally:
            sys.setswitchinterval(interval)
        assert [o.payload for o in outcomes] == [{"value": i}
                                                 for i in range(40)]
        assert recorder.metrics.counter_values()["scale.job.ok"] == 40
        assert check_span_balance(recorder.events) == []
