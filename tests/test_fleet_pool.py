"""The process executor of ``repro serve`` (engine calls on the
worker-process farm, :mod:`repro.serve.pool`): executor parity, typed
errors, crash isolation (kill -9 a worker), respawn, and cancellation."""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro import api
from repro.serve import AnalysisService, ServeConfig
from repro.serve.pool import Farm
from repro.serve.server import WorkerCrash, engine_call, engine_worker
from tests.blockers import SPIN_SRC, spins_for

FIG5 = """
(declaim (sapp f5 l))
(defun f5 (l)
  (cond ((null l) nil)
        ((null (cdr l)) (f5 (cdr l)))
        (t (setf (cadr l) (+ (car l) (cadr l)))
           (f5 (cdr l)))))
(setq data (list 1 2 3 4))
"""



class _Executor:
    """One process-executor service, driven at its engine-call seam."""

    def __init__(self, workers: int):
        self.service = AnalysisService(ServeConfig(workers=workers,
                                                   executor="process"))

    def call(self, op, params, cancel=None):
        return self.service._engine_call(op, params,
                                         cancel or threading.Event())

    def worker_pids(self):
        return self.service._farm.worker_pids()

    def counters(self):
        return self.service.counters()

    def close(self):
        self.service.close()


@pytest.fixture
def engine():
    executor = _Executor(workers=1)
    yield executor
    executor.close()


def slow_params(ms=500.0):
    """A run long enough to kill or cancel mid-computation."""
    return {"source": SPIN_SRC, "expr": f"(spin {spins_for(ms)})",
            "processors": 1}


class TestParity:
    def test_result_matches_inline_executor_byte_for_byte(self, engine):
        """The fleet contract at the pool layer: a worker process and
        the in-thread dispatch produce identical results modulo wall —
        they literally run the same ``engine_call``."""
        params = {"source": FIG5, "function": "f5"}
        inline = engine_call("analyze", dict(params))
        pooled = engine.call("analyze", dict(params))
        assert api.canonical_json(api.strip_wall(pooled)) == \
            api.canonical_json(api.strip_wall(inline))

    def test_run_op(self, engine):
        result = engine.call("run", {
            "source": FIG5,
            "expr": "(progn (f5-cc data) (identity data))",
            "transform": ["f5"],
        })
        assert result["value"] == "(1 3 6 10)"


class TestTypedErrors:
    def test_bad_request_crosses_the_process_boundary(self, engine):
        with pytest.raises(api.BadRequest):
            engine.call("analyze", {"source": FIG5})  # missing function

    def test_unknown_op_is_bad_request(self, engine):
        with pytest.raises(api.BadRequest):
            engine.call("mystery", {})

    def test_worker_survives_a_failed_request(self, engine):
        with pytest.raises(api.ApiError):
            engine.call("analyze", {"source": "(((", "function": "f"})
        # Same worker, next request fine — errors never kill workers.
        result = engine.call("analyze", {"source": FIG5, "function": "f5"})
        assert result["function"] == "f5"


class TestCrashIsolation:
    def test_kill_mid_computation_yields_typed_error_and_respawn(
            self, engine):
        outcome = {}

        def call():
            try:
                outcome["result"] = engine.call("run", slow_params())
            except api.ApiError as err:
                outcome["error"] = err

        thread = threading.Thread(target=call)
        thread.start()
        deadline = time.monotonic() + 5.0
        victim = None
        while time.monotonic() < deadline and victim is None:
            pids = engine.worker_pids()
            victim = pids[0] if pids else None
        assert victim is not None
        time.sleep(0.1)  # let the request reach the worker
        os.kill(victim, signal.SIGKILL)
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert "error" in outcome, f"call returned {outcome.get('result')}"
        err = outcome["error"]
        assert isinstance(err, WorkerCrash)
        assert err.code == "engine_error"
        assert "died" in str(err)
        assert engine.counters().get("serve.pool.crashes") == 1
        assert engine.counters().get("serve.pool.respawns", 0) >= 1

    def test_pool_keeps_working_after_a_crash(self, engine):
        pids = engine.worker_pids()
        os.kill(pids[0], signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and engine.worker_pids():
            time.sleep(0.02)  # wait until the death is observable
        # Idle kill: nothing was lost, the next call respawns silently
        # and succeeds.
        result = engine.call("analyze", {"source": FIG5, "function": "f5"})
        assert result["function"] == "f5"
        new_pids = engine.worker_pids()
        assert new_pids and new_pids != pids


class TestCancellation:
    def test_cancel_terminates_the_worker_mid_computation(self, engine):
        cancel = threading.Event()
        outcome = {}

        def call():
            try:
                outcome["result"] = engine.call("run", slow_params(1000.0),
                                                cancel=cancel)
            except api.ApiError as err:
                outcome["error"] = err

        thread = threading.Thread(target=call)
        thread.start()
        time.sleep(0.2)  # the worker is now computing
        before = set(engine.worker_pids())
        cancel.set()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert "error" in outcome
        assert "cancelled" in str(outcome["error"])
        assert engine.counters().get("serve.pool.cancelled_kills") == 1
        # The computing worker was terminated and replaced.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            after = set(engine.worker_pids())
            if after and after != before:
                break
        assert set(engine.worker_pids()) != before


class TestLifecycle:
    def test_close_reaps_every_worker(self):
        pool = _Executor(workers=2)
        pids = pool.worker_pids()
        assert len(pids) == 2
        pool.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and pool.worker_pids():
            time.sleep(0.05)
        assert pool.worker_pids() == []

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            Farm(0, engine_worker)
