"""The sharded fan-out driver: sweep jobs across worker processes.

This is the first subsystem in the repository that uses real OS
parallelism rather than the simulated machine.  The shape is the
classic work-queue farm, hardened with the trust-but-verify vocabulary
of the PR-1 robustness runtime:

* each worker process owns a private task queue *and* a private result
  queue, and loops ``get job → execute (through the persistent cache) →
  post result``;
* the parent dispatches one job at a time to idle workers, tracks a
  per-job deadline, and polls every worker's result queue;
* a job that exceeds its deadline gets its worker terminated and is
  marked ``timeout``; a worker that *dies* (hard crash, ``os._exit``)
  marks its in-flight job ``crashed``; in both cases the worker is
  **respawned** and the sweep continues — one bad point cannot take
  down a grid;
* a job that raises inside the worker is caught there and reported as
  ``failed`` (the worker survives).

Results are deterministic: job payloads are pure functions of the job
spec (simulated ticks only), outcomes are returned in grid order, and
which worker computed a point is deliberately *not* part of the
outcome.  ``workers=0`` runs the same loop inline (no subprocesses, no
timeouts) — the reference path the byte-identity tests compare against.

Termination is safe by construction: result pipes are per-worker, so
``terminate()`` landing while a worker's queue feeder thread holds its
pipe lock (the ``multiprocessing`` docs' corruption hazard) can only
ever poison that worker's *own* queue — never a sibling's — and a
respawn replaces both of the slot's queues, so nothing stale survives
into the replacement.  The health check still drains the affected
worker's queue immediately before terminating it, to keep any result
posted at the deadline instead of discarding it.

Each worker (and the inline path) computes through one
:class:`~repro.scale.cache.ResultCache` over the tiers it is given: the
``cache_dir`` directory and, with ``cache_server=`` set (``host:port``
of ``repro cache-serve``), the fleet-shared server behind it.  Server
hits are verified and written through to the directory, stores go to
both, and a dead or poisoned server degrades to per-machine caching.

Observability: with a recorder attached the parent emits one
``scale.job`` span per job (wall clock, ``pid=PID_SCALE``, one track
per worker slot), ``scale.job.*`` status counters, ``scale.cache.*``
counters aggregated from the workers' cache interactions, and a final
``scale.sweep`` rollup event.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.scale.cache import INVALID, MISS, OFF, ResultCache
from repro.scale.jobs import SweepJob, job_cache_key, run_job

#: Job outcome statuses (the ``scale.job.*`` counter vocabulary).
OK = "ok"
FAILED = "failed"  # the job raised; the worker survived
TIMEOUT = "timeout"  # deadline exceeded; the worker was terminated
CRASHED = "crashed"  # the worker died under the job

#: Parent poll interval while waiting on the result queue, seconds.
_POLL = 0.05


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


def _execute(job: SweepJob,
             store: Optional[ResultCache]) -> "tuple[dict, str]":
    """Run one job through the store (None: the sweep runs uncached);
    returns (payload, cache status): hit, miss, invalid (a poisoned
    entry was discarded) or off."""
    if store is None:
        return run_job(job), OFF
    payload, status, _ = store.get_or_compute(job_cache_key(job),
                                              lambda: run_job(job))
    return payload, status


def _worker_main(worker_id: int, task_q, result_q,
                 cache_dir: Optional[str],
                 cache_server: Optional[str]) -> None:
    """Worker loop: execute jobs until the ``None`` sentinel arrives.

    Exceptions are converted to ``failed`` messages here — only a hard
    death (crash, kill, timeout termination) leaves a job unanswered.
    """
    store = (ResultCache(cache_dir, server=cache_server)
             if cache_dir or cache_server else None)
    while True:
        item = task_q.get()
        if item is None:
            if store is not None:
                store.close()
            return
        index, job = item
        try:
            payload, cache_status = _execute(job, store)
            result_q.put((worker_id, index, OK, payload, "", cache_status))
        except Exception as err:
            result_q.put((worker_id, index, FAILED, None,
                          f"{type(err).__name__}: {err}",
                          MISS if store is not None else OFF))


class _WorkerHandle:
    """One worker slot: process + private task *and* result queues,
    respawnable.  Owning both pipes is the queue-poisoning fix: a
    terminated worker can only ever corrupt its own queues, and
    :meth:`respawn` replaces them wholesale."""

    def __init__(self, ctx, worker_id: int,
                 cache_dir: Optional[str],
                 cache_server: Optional[str] = None):
        self.worker_id = worker_id
        self.ctx = ctx
        self.cache_dir = cache_dir
        self.cache_server = cache_server
        self.task_q = ctx.Queue()
        self.result_q = ctx.Queue()
        self.proc = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.task_q, self.result_q, cache_dir,
                  cache_server),
            daemon=True,
        )
        self.proc.start()

    def respawn(self) -> "_WorkerHandle":
        self.kill()
        self.close_queues()
        return _WorkerHandle(self.ctx, self.worker_id, self.cache_dir,
                             self.cache_server)

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=2.0)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(timeout=2.0)

    def stop(self) -> None:
        """Graceful shutdown: sentinel, short join, then force."""
        try:
            self.task_q.put(None)
        except (OSError, ValueError):
            pass
        self.proc.join(timeout=2.0)
        self.kill()
        self.close_queues()

    def close_queues(self) -> None:
        """Release the slot's pipes; never blocks on the feeder."""
        for q in (self.task_q, self.result_q):
            try:
                q.close()
                q.cancel_join_thread()
            except (OSError, ValueError):
                pass


@dataclass
class _SweepState:
    """Parent-side bookkeeping shared by the dispatch/collect loop."""

    outcomes: List[Optional[JobOutcome]]
    busy: dict = field(default_factory=dict)  # worker_id -> (index, deadline, start)
    idle: List[int] = field(default_factory=list)
    next_job: int = 0
    done: int = 0
    respawns: int = 0


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
    across that many OS worker processes.  ``cache_server`` fronts the
    local cache with a shared ``repro cache-serve`` instance.
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
    store = (ResultCache(cache_dir, server=cache_server)
             if cache_dir or cache_server else None)
    outcomes: List[JobOutcome] = []
    for job in jobs:
        start = time.perf_counter()
        _span_begin(recorder, job, tid=0)
        try:
            payload, cache_status = _execute(job, store)
            outcome = JobOutcome(job, OK, payload, "", cache_status)
        except Exception as err:
            outcome = JobOutcome(job, FAILED, None,
                                 f"{type(err).__name__}: {err}",
                                 MISS if store is not None else OFF)
        outcome.wall_ms = (time.perf_counter() - start) * 1000.0
        _span_end(recorder, outcome, tid=0)
        outcomes.append(outcome)
    if store is not None:
        store.close()
    return outcomes


def _run_sharded(
    jobs: List[SweepJob],
    workers: int,
    job_timeout: Optional[float],
    cache_dir: Optional[str],
    cache_server: Optional[str],
    recorder: Any,
) -> List[JobOutcome]:
    # fork shares the warmed parent image where available (Linux/macOS
    # CPython 3.x); spawn is the portable fallback.
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        ctx = multiprocessing.get_context("spawn")
    pool = {
        wid: _WorkerHandle(ctx, wid, cache_dir, cache_server)
        for wid in range(min(workers, max(1, len(jobs))))
    }
    state = _SweepState(outcomes=[None] * len(jobs),
                        idle=sorted(pool, reverse=True))
    try:
        while state.done < len(jobs):
            _dispatch(pool, state, jobs, job_timeout, recorder)
            progressed = _collect(pool, state, jobs, recorder)
            _check_health(pool, state, jobs, recorder)
            if not progressed:
                time.sleep(_POLL)
    finally:
        for handle in pool.values():
            handle.stop()
    return [o if o is not None else JobOutcome(jobs[i], CRASHED)
            for i, o in enumerate(state.outcomes)]


def _collect(pool, state: _SweepState, jobs, recorder) -> bool:
    """Drain every worker's result queue; True if anything resolved."""
    progressed = False
    for wid in list(pool):
        handle = pool[wid]
        while True:
            try:
                msg = handle.result_q.get_nowait()
            except queue_mod.Empty:
                break
            except (OSError, ValueError):
                break  # slot's queue is gone; health check handles it
            _finish(pool, state, jobs, msg, recorder)
            progressed = True
    return progressed


def _dispatch(pool, state: _SweepState, jobs, job_timeout, recorder) -> None:
    while state.idle and state.next_job < len(jobs):
        wid = state.idle.pop()
        if not pool[wid].proc.is_alive():
            # A slot can reach the idle list with a dead process when a
            # health-check drain resolved the worker's final result
            # after the process exited.  Dispatching to its (unread)
            # task queue would strand the job, so replace the worker
            # first.
            pool[wid] = pool[wid].respawn()
            state.respawns += 1
            if recorder is not None:
                recorder.count("scale.worker.respawns")
        index = state.next_job
        state.next_job += 1
        now = time.monotonic()
        deadline = now + job_timeout if job_timeout else None
        pool[wid].task_q.put((index, jobs[index]))
        state.busy[wid] = (index, deadline, now)
        _span_begin(recorder, jobs[index], tid=wid)


def _finish(pool, state: _SweepState, jobs, msg, recorder) -> None:
    wid, index, status, payload, error, cache_status = msg
    claimed = state.busy.get(wid)
    if claimed is None or claimed[0] != index or state.outcomes[index]:
        return  # stale message from a worker we already gave up on
    _, _, started = claimed
    outcome = JobOutcome(jobs[index], status, payload, error, cache_status)
    outcome.wall_ms = (time.monotonic() - started) * 1000.0
    state.outcomes[index] = outcome
    state.done += 1
    del state.busy[wid]
    state.idle.append(wid)
    _span_end(recorder, outcome, tid=wid)


def _check_health(pool, state: _SweepState, jobs, recorder) -> None:
    now = time.monotonic()
    for wid in list(state.busy):
        # Re-read instead of trusting the snapshot: the drain below runs
        # _finish, which can resolve (and delete) busy entries before
        # the loop reaches them.
        claimed = state.busy.get(wid)
        if claimed is None:
            continue  # an earlier drain this pass already resolved it
        index, deadline, started = claimed
        timed_out = deadline is not None and now > deadline
        dead = not pool[wid].proc.is_alive()
        if not (timed_out or dead):
            continue
        # The worker may have posted its result just before dying or
        # right at its deadline; drain ITS queue once before giving up
        # on the job.  Only this worker's queue can be affected by the
        # termination below — result pipes are per-worker.
        try:
            while True:
                _finish(pool, state, jobs,
                        pool[wid].result_q.get_nowait(), recorder)
        except (queue_mod.Empty, OSError, ValueError):
            pass
        if wid not in state.busy:
            # The drain resolved this worker's job.  If the process is
            # dead, _finish still put the slot on the idle list — that
            # is fine: _dispatch respawns dead idle workers before
            # handing them a job.
            continue
        status = TIMEOUT if timed_out else CRASHED
        outcome = JobOutcome(
            jobs[index], status, None,
            "job deadline exceeded; worker terminated" if timed_out
            else "worker process died; job marked failed, worker respawned",
            MISS if (pool[wid].cache_dir or pool[wid].cache_server) else OFF,
        )
        outcome.wall_ms = (now - started) * 1000.0
        state.outcomes[index] = outcome
        state.done += 1
        del state.busy[wid]
        pool[wid] = pool[wid].respawn()
        state.respawns += 1
        state.idle.append(wid)
        if recorder is not None:
            recorder.count("scale.worker.respawns")
        _span_end(recorder, outcome, tid=wid)


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
