"""The sharded fan-out driver: sweep jobs across worker processes.

``workers=N`` runs a grid on the worker-process farm
(:mod:`repro.serve.pool`, shared with ``repro serve --executor
process``): N threads, one per farm slot, each take the next grid point
and call the farm with the job deadline.

* a job that raises is caught in the worker and reported as ``failed``
  (the worker survives);
* a job past its deadline gets its worker terminated and is marked
  ``timeout``; a worker that *dies* (hard crash, ``os._exit``) marks
  its job ``crashed``.  In both cases the farm respawns the slot and
  the sweep continues: one bad point cannot take down a grid.

Results are deterministic: job payloads are pure functions of the job
spec (simulated ticks only), outcomes are returned in grid order, and
which worker computed a point is deliberately *not* part of the
outcome.  ``workers=0`` runs the same job runner inline (no
subprocesses, no timeouts) — the reference path the byte-identity tests
compare against.

The inline path and each worker compute through one
:class:`~repro.scale.cache.ResultCache` over the tiers they are given,
opened for the worker's whole life: the ``cache_dir`` directory and,
with ``cache_server=`` set (``host:port`` of ``repro cache-serve``),
the fleet-shared server behind it.  Server hits are verified and
written through to the directory, stores go to both, and a dead or
poisoned server degrades to per-machine caching.

Observability: with a recorder attached the parent emits one
``scale.job`` span per job (wall clock, ``pid=PID_SCALE``, one track
per thread), ``scale.job.*`` status counters, ``scale.worker.respawns``,
``scale.cache.*`` counters aggregated from the workers' cache
interactions, and a final ``scale.sweep`` rollup event.  The recorder
is not thread-safe, so the threads make those calls under one lock.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.scale.cache import INVALID, MISS, OFF, ResultCache
from repro.scale.jobs import SweepJob, job_cache_key, run_job

#: Job outcome statuses (the ``scale.job.*`` counter vocabulary).
#: ``timeout`` and ``crashed`` are also the farm's words for a slot it
#: gave up on.
OK = "ok"
FAILED = "failed"  # the job raised; the worker survived
TIMEOUT = "timeout"  # deadline exceeded; the worker was terminated
CRASHED = "crashed"  # the worker died under the job

#: The error text of a job whose slot the farm gave up on.
_GAVE_UP = {
    TIMEOUT: "job deadline exceeded; worker terminated",
    CRASHED: "worker process died; job marked failed, worker respawned",
}


@dataclass
class JobOutcome:
    """What the driver knows about one executed grid point."""

    job: SweepJob
    status: str = OK
    payload: Optional[dict] = None
    error: str = ""
    cache: str = OFF  # hit | miss | invalid | off
    wall_ms: float = 0.0  # parent-observed, *not* part of the report body

    @property
    def ok(self) -> bool:
        return self.status == OK


@contextlib.contextmanager
def _job_runner(cache_dir: Optional[str], cache_server: Optional[str]
                ) -> Iterator[Callable[[SweepJob], Tuple]]:
    """Yield a function that runs one job through the store (None: the
    sweep runs uncached) and returns its outcome fields ``(status,
    payload, error, cache)``; cache is hit, miss, invalid (a poisoned
    entry was discarded) or off.  The store closes on exit."""
    store = (ResultCache(cache_dir, server=cache_server)
             if cache_dir or cache_server else None)

    def run(job: SweepJob) -> Tuple:
        try:
            if store is None:
                return OK, run_job(job), "", OFF
            payload, status, _ = store.get_or_compute(
                job_cache_key(job), lambda: run_job(job))
            return OK, payload, "", status
        except Exception as err:
            return (FAILED, None, f"{type(err).__name__}: {err}",
                    MISS if store is not None else OFF)

    try:
        yield run
    finally:
        if store is not None:
            store.close()


def run_jobs(
    jobs: List[SweepJob],
    workers: int = 1,
    job_timeout: Optional[float] = None,
    cache_dir: Optional[str] = None,
    cache_server: Optional[str] = None,
    recorder: Any = None,
) -> List[JobOutcome]:
    """Execute a grid; returns outcomes in grid order.

    ``workers=0`` executes inline in this process (reference path; no
    crash isolation, ``job_timeout`` ignored).  ``workers>=1`` fans out
    across that many OS worker processes, never more than there are
    jobs.  ``cache_server`` fronts the local cache with a shared
    ``repro cache-serve`` instance.
    """
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if workers == 0:
        outcomes = _run_inline(jobs, cache_dir, cache_server, recorder)
    else:
        outcomes = _run_sharded(jobs, workers, job_timeout, cache_dir,
                                cache_server, recorder)
    _record_rollup(recorder, outcomes, workers)
    return outcomes


def _run_inline(jobs: List[SweepJob], cache_dir: Optional[str],
                cache_server: Optional[str],
                recorder: Any) -> List[JobOutcome]:
    outcomes: List[JobOutcome] = []
    with _job_runner(cache_dir, cache_server) as run:
        for job in jobs:
            start = time.perf_counter()
            _span_begin(recorder, job, tid=0)
            outcome = JobOutcome(job, *run(job))
            outcome.wall_ms = (time.perf_counter() - start) * 1000.0
            _span_end(recorder, outcome, tid=0)
            outcomes.append(outcome)
    return outcomes


def _run_sharded(
    jobs: List[SweepJob],
    workers: int,
    job_timeout: Optional[float],
    cache_dir: Optional[str],
    cache_server: Optional[str],
    recorder: Any,
) -> List[JobOutcome]:
    from concurrent.futures import ThreadPoolExecutor

    from repro.serve.pool import DONE, Farm

    if not jobs:
        return []
    # Guards the job iterator and the recorder, which is not thread-safe.
    lock = threading.Lock()

    def on_respawn() -> None:
        if recorder is not None:
            with lock:
                recorder.count("scale.worker.respawns")

    slots = min(workers, len(jobs))
    # The initial workers fork here, before any thread starts.
    farm = Farm(slots, functools.partial(_job_runner, cache_dir,
                                         cache_server),
                on_respawn=on_respawn)
    gave_up_cache = MISS if cache_dir or cache_server else OFF
    outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
    pending = iter(range(len(jobs)))

    def lane(tid: int) -> None:
        while True:
            with lock:
                index = next(pending, None)
                if index is None:
                    return
                _span_begin(recorder, jobs[index], tid)
            started = time.monotonic()
            kind, value = farm.call(jobs[index], timeout=job_timeout or None)
            if kind == DONE:
                outcome = JobOutcome(jobs[index], *value)
            else:
                outcome = JobOutcome(jobs[index], kind, None,
                                     _GAVE_UP[kind], gave_up_cache)
            outcome.wall_ms = (time.monotonic() - started) * 1000.0
            with lock:
                outcomes[index] = outcome
                _span_end(recorder, outcome, tid)

    try:
        with ThreadPoolExecutor(max_workers=slots) as lanes:
            for done in [lanes.submit(lane, tid) for tid in range(slots)]:
                done.result()
    finally:
        farm.close()
    return outcomes  # type: ignore[return-value]


# -- observability ----------------------------------------------------------

def _span_begin(recorder, job: SweepJob, tid: int) -> None:
    if recorder is None:
        return
    from repro.obs.recorder import PID_SCALE

    recorder.begin("scale.job", "scale", pid=PID_SCALE, tid=tid,
                   args={"job": job.id, "family": job.family})


def _span_end(recorder, outcome: JobOutcome, tid: int) -> None:
    if recorder is None:
        return
    from repro.obs.recorder import PID_SCALE

    recorder.end("scale.job", "scale", pid=PID_SCALE, tid=tid,
                 args={"job": outcome.job.id, "status": outcome.status,
                       "cache": outcome.cache})
    recorder.count(f"scale.job.{outcome.status}")
    recorder.observe("scale.job.ms", outcome.wall_ms)


def _record_rollup(recorder, outcomes: List[JobOutcome],
                   workers: int) -> None:
    if recorder is None:
        return
    from repro.obs.recorder import PID_SCALE

    for outcome in outcomes:
        if outcome.cache != OFF:
            recorder.count(f"scale.cache.{outcome.cache}")
            if outcome.ok and outcome.cache in (MISS, INVALID):
                recorder.count("scale.cache.stores")
    recorder.event(
        "scale.sweep", "scale", pid=PID_SCALE,
        args={
            "jobs": len(outcomes),
            "workers": workers,
            "ok": sum(1 for o in outcomes if o.status == OK),
            "failed": sum(1 for o in outcomes if o.status == FAILED),
            "timeout": sum(1 for o in outcomes if o.status == TIMEOUT),
            "crashed": sum(1 for o in outcomes if o.status == CRASHED),
        },
    )
