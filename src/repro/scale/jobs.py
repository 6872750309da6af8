"""Sweep job specs and their (deterministic) execution.

A :class:`SweepJob` is a picklable value — family name + parameter
dict — so the same spec can be executed inline, shipped to a
``multiprocessing`` worker, or hashed into a cache key.  ``run_job``
dispatches on the family and returns a JSON-serializable payload whose
every field is derived from the *simulated* machine (ticks, process
counts, analytic predictions) — never from wall time — which is what
makes sweep reports byte-identical across worker counts and what makes
caching them sound.

Families:

* ``fig06`` — the figure-5 recursion on one processor vs the
  sequential reference, over workload sizes (Figure 6's timeline
  collapsed to its observables).
* ``fig07`` — CRI concurrency over a (head, tail, processors) grid:
  predicted (|H|+|T|)/|H| vs the machine's measured mean concurrency.
* ``fig10`` — the §4.1 server pool over S, measured makespan vs the
  analytic T(S) = (⌈d/S⌉−1)(h+t) + (Sh+t).
* ``model`` — the S* = √(d(h+t)/h) validation: a full server sweep in
  one job, comparing the analytic argmin against the empirical one.
* ``analyze`` — distance-stage only: load a synthetic program and run
  the §2/§3.1 analysis (:mod:`repro.scale.analysis_job`), no transform.
  Its cache keys carry the ``distance`` stage fingerprint, so these
  points stay warm across transform edits.
* ``probe`` — a test/chaos fixture (sleep, raise, hard-exit) used by
  the driver tests to exercise timeout handling and crash isolation;
  the same trust-but-verify vocabulary as the PR-1 fault plans.

``job_cache_key`` is the staged-cache entry point: it folds
``job_stage(job)``'s code fingerprint into the key material, replacing
the old whole-package ``code_version`` field.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from repro.runtime.clock import FREE_SYNC, CostModel

#: Fixed per-invocation overheads beyond the burn loops (call, test,
#: let, spawn/queue bookkeeping), calibrated once for the synthetic
#: workloads — the same constants the figure benchmarks use.
FIG07_OVERHEAD = 14
FIG10_OVERHEAD = 16


@dataclass(frozen=True)
class SweepJob:
    """One grid point: ``family`` selects the experiment, ``params``
    its coordinates.  ``id`` must be unique within a grid (it keys the
    report and the per-point wall-time table)."""

    id: str
    family: str
    params: Dict[str, Any] = field(default_factory=dict)


def _calibrate(extra_overhead: int) -> "tuple[float, float]":
    """(base, per-unit) dynamic cost of one ``burn`` unit — measured on
    the sequential interpreter, deterministic."""
    from repro.harness.workloads import burn_cost

    base = burn_cost(0)
    per_unit = (burn_cost(100) - base) / 100.0
    return base + extra_overhead, per_unit


def _run_fig06(params: Dict[str, Any]) -> dict:
    from repro.harness.runner import run_sequential, run_transformed
    from repro.harness.workloads import fig5_source, make_int_list

    size = params["size"]
    sequential = run_sequential(
        fig5_source(), make_int_list(size), "(f5 data)",
        read_back="(identity data)",
    )
    concurrent = run_transformed(
        fig5_source(), "f5", make_int_list(size), "(f5-cc data)",
        read_back="(identity data)", processors=params.get("processors", 1),
    )
    stats = concurrent.stats
    return {
        "result": concurrent.result_text,
        "sequential_result": sequential.result_text,
        "results_match": concurrent.result_text == sequential.result_text,
        "sequential_time": sequential.time,
        "total_time": stats.total_time,
        "processes": stats.processes,
        "mean_concurrency": round(stats.mean_concurrency, 4),
        "utilization": round(stats.utilization, 4),
        "context_switches": stats.context_switches,
        "lock_contentions": stats.lock_contentions,
    }


def _run_fig07(params: Dict[str, Any]) -> dict:
    from repro.harness.workloads import make_int_list, make_synthetic
    from repro.lisp.interpreter import Interpreter
    from repro.model.concurrency import cri_concurrency
    from repro.runtime.machine import Machine
    from repro.transform.pipeline import Curare

    head, tail = params["head"], params["tail"]
    depth, processors = params["depth"], params["processors"]
    base, per_unit = _calibrate(FIG07_OVERHEAD)
    h_dyn = base + per_unit * head
    t_dyn = base - FIG07_OVERHEAD + per_unit * tail
    predicted = cri_concurrency(h_dyn, t_dyn)

    work = make_synthetic(head, tail, name="f")
    interp = Interpreter()
    curare = Curare(interp, assume_sapp=True)
    curare.load_program(work.source)
    curare.transform("f")
    curare.runner.eval_text(make_int_list(depth))
    machine = Machine(interp, processors=processors, cost_model=FREE_SYNC)
    machine.spawn_text("(f-cc data)")
    stats = machine.run()
    observed = stats.mean_concurrency
    return {
        "h_dyn": round(h_dyn, 4),
        "t_dyn": round(t_dyn, 4),
        "predicted_concurrency": round(predicted, 4),
        "observed_concurrency": round(observed, 4),
        "ratio": round(observed / predicted, 4),
        "total_time": stats.total_time,
        "processes": stats.processes,
        "utilization": round(stats.utilization, 4),
    }


def _fig10_point(depth: int, head: int, tail: int, servers: int,
                 h_dyn: float, t_dyn: float) -> dict:
    from repro.harness.workloads import make_int_list, make_synthetic
    from repro.lisp.interpreter import Interpreter
    from repro.model.allocation import execution_time
    from repro.runtime.servers import run_server_pool
    from repro.transform.pipeline import Curare

    work = make_synthetic(head, tail, name="f")
    interp = Interpreter()
    curare = Curare(interp, assume_sapp=True)
    curare.load_program(work.source)
    curare.transform("f", mode="enqueue")
    curare.runner.eval_text(make_int_list(depth))
    data = interp.globals.lookup("data")
    pool = run_server_pool(
        interp, "f-cc", [data], servers=servers, cost_model=FREE_SYNC
    )
    analytic = execution_time(depth, servers, h_dyn, t_dyn)
    return {
        "measured": pool.makespan,
        "analytic": round(analytic, 4),
        "ratio": round(pool.makespan / analytic, 4),
        "invocations": pool.total_invocations,
    }


def _run_fig10(params: Dict[str, Any]) -> dict:
    from repro.model.allocation import optimal_servers

    depth, head, tail = params["depth"], params["head"], params["tail"]
    servers = params["servers"]
    base, per_unit = _calibrate(FIG10_OVERHEAD)
    h_dyn = base + per_unit * head
    t_dyn = base - FIG10_OVERHEAD + per_unit * tail
    point = _fig10_point(depth, head, tail, servers, h_dyn, t_dyn)
    point.update(
        h_dyn=round(h_dyn, 4),
        t_dyn=round(t_dyn, 4),
        s_star=optimal_servers(depth, h_dyn, t_dyn),
    )
    return point


def _run_model(params: Dict[str, Any]) -> dict:
    from repro.model.validation import validate_allocation_model

    depth, head, tail = params["depth"], params["head"], params["tail"]
    base, per_unit = _calibrate(FIG10_OVERHEAD)
    h_dyn = base + per_unit * head
    t_dyn = base - FIG10_OVERHEAD + per_unit * tail
    measured = {
        s: _fig10_point(depth, head, tail, s, h_dyn, t_dyn)["measured"]
        for s in params["servers"]
    }
    return validate_allocation_model(depth, h_dyn, t_dyn, measured)


def _run_analyze(params: Dict[str, Any]) -> dict:
    from repro.harness.workloads import make_synthetic
    from repro.scale.analysis_job import run_analysis_job

    work = make_synthetic(params["head"], params["tail"], name="f")
    return run_analysis_job(
        work.source, "f", assume_sapp=params.get("assume_sapp", True)
    )


def _run_probe(params: Dict[str, Any]) -> dict:
    behavior = params.get("behavior", "ok")
    if behavior == "raise":
        raise RuntimeError(params.get("message", "probe job failure"))
    if behavior == "exit":
        import os

        os._exit(int(params.get("code", 3)))  # simulate a worker crash
    if behavior == "sleep":
        import time

        time.sleep(float(params.get("seconds", 60.0)))
    return {"value": params.get("value", 0)}


_FAMILIES: Dict[str, Callable[[Dict[str, Any]], dict]] = {
    "fig06": _run_fig06,
    "fig07": _run_fig07,
    "fig10": _run_fig10,
    "model": _run_model,
    "analyze": _run_analyze,
    "probe": _run_probe,
}

#: Family → pipeline stage, for fingerprint selection.  Families that
#: run the full transform + simulated machine depend on (nearly) the
#: whole package, so they key on the ``sweep`` closure; ``analyze``
#: stops at conflict distances and keys on the ``distance`` closure.
JOB_STAGES: Dict[str, str] = {"analyze": "distance"}


def job_stage(job: SweepJob) -> str:
    return JOB_STAGES.get(job.family, "sweep")


def run_job(job: SweepJob) -> dict:
    """Execute one grid point; returns the deterministic payload."""
    runner = _FAMILIES.get(job.family)
    if runner is None:
        raise ValueError(f"unknown sweep family {job.family!r}")
    return runner(dict(job.params))


def _program_source(job: SweepJob) -> str:
    """The Lisp source a job analyzes/transforms (declaim forms
    included), for the cache key.  Probe jobs have none."""
    from repro.harness.workloads import fig5_source, make_synthetic

    if job.family == "fig06":
        return fig5_source()
    if job.family in ("fig07", "fig10", "model", "analyze"):
        return make_synthetic(job.params["head"], job.params["tail"],
                              name="f").source
    return ""


def job_key_material(job: SweepJob) -> dict:
    """Everything a cached result depends on *except code*, as one
    canonical dict: the program source (with its ``declaim``
    declarations), the family + grid coordinates, the pipeline
    configuration, the cost-model charges, and the calibration
    overheads.  Code enters the key via :func:`job_cache_key`, which
    wraps this material with the job's stage fingerprint.
    """
    cost = FREE_SYNC if job.family in ("fig07", "fig10", "model") \
        else CostModel()
    return {
        "family": job.family,
        "params": dict(job.params),
        "program": _program_source(job),
        "pipeline": {
            "assume_sapp": True,
            "mode": "enqueue" if job.family in ("fig10", "model")
            else "spawn",
            "suffix": "-cc",
            "overheads": {"fig07": FIG07_OVERHEAD, "fig10": FIG10_OVERHEAD},
        },
        "cost_model": dataclasses.asdict(cost),
    }


def job_cache_key(job: SweepJob,
                  fingerprints: "Dict[str, str] | None" = None) -> str:
    """The staged cache key: stage name + that stage's code fingerprint
    + the job's key material.  ``fingerprints`` overrides the live
    package's fingerprints (the differential tests and the cache bench
    pass fingerprints computed from an edited copy of the tree)."""
    from repro.scale.cache import cache_key
    from repro.scale.fingerprint import stage_fingerprints

    stage = job_stage(job)
    prints = fingerprints if fingerprints is not None \
        else stage_fingerprints()
    return cache_key({
        "stage": stage,
        "fingerprint": prints[stage],
        "material": job_key_material(job),
    })
