"""The concurrent analysis service: protocol, admission backpressure,
deadlines + cancellation, single-flight coalescing, chaos request
faults, graceful drain, and facade parity."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import api
from repro.serve import (
    AnalysisService,
    ReproServer,
    Request,
    RequestFaultPlan,
    ServeConfig,
    decode_response,
    parse_request,
    request_line,
)
from repro.serve.protocol import ProtocolError
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



def _run_params(expr="(progn (f5-cc data) (identity data))", **extra):
    return {"source": FIG5, "expr": expr, "transform": ["f5"], **extra}


def _slow_params(ms=150.0, **extra):
    """A run that holds a worker for about ``ms`` milliseconds."""
    return {"source": SPIN_SRC, "expr": f"(spin {spins_for(ms)})",
            "processors": 1, **extra}


def _hold_200ms():
    """A chaos plan that holds the worker of the first request for
    200 ms by time (an interruptible wait, not CPU work), whatever the
    host's speed."""
    return RequestFaultPlan(0, reject_rate=0.0, delay_rate=1.0,
                            delay_ms=(200.0, 200.0), budget=1)


def _request(op, params, request_id="r", deadline_ms=None):
    return Request(id=request_id, op=op, params=params,
                   deadline_ms=deadline_ms)


@pytest.fixture
def service():
    svc = AnalysisService(ServeConfig(workers=2, backlog=4))
    yield svc
    svc.close()


class TestProtocol:
    def test_parse_valid(self):
        req = parse_request('{"id": 7, "op": "run", "params": {"a": 1},'
                            ' "deadline_ms": 250}')
        assert req == Request(id=7, op="run", params={"a": 1},
                              deadline_ms=250.0)

    def test_malformed_json(self):
        with pytest.raises(ProtocolError, match="malformed JSON"):
            parse_request("{nope")

    def test_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_request("[1, 2]")

    def test_unknown_op_keeps_id(self):
        with pytest.raises(ProtocolError) as info:
            parse_request('{"id": "x", "op": "explode"}')
        assert info.value.request_id == "x"

    def test_bad_deadline(self):
        for bad in ("-5", "0", "true", '"soon"'):
            with pytest.raises(ProtocolError, match="deadline_ms"):
                parse_request('{"op": "health", "deadline_ms": %s}' % bad)

    def test_bad_params(self):
        with pytest.raises(ProtocolError, match="params"):
            parse_request('{"op": "run", "params": [1]}')


class TestServiceBasics:
    def test_run_matches_facade_modulo_wall(self, service):
        response = service.handle(_request("run", _run_params()))
        assert response["ok"] is True
        facade = api.run(FIG5, "(progn (f5-cc data) (identity data))",
                         api.RunOptions(transform=("f5",))).to_dict()
        assert api.strip_wall(response["result"]) == api.strip_wall(facade)

    def test_analyze_and_transform_ops(self, service):
        analyzed = service.handle(_request(
            "analyze", {"source": FIG5, "function": "f5"}))
        assert analyzed["result"]["transformable"] is True
        transformed = service.handle(_request(
            "transform", {"source": FIG5, "function": "f5",
                          "suffix": "-par"}))
        assert transformed["result"]["transformed_name"] == "f5-par"

    def test_sweep_op_inline_only(self, service):
        refused = service.handle(_request(
            "sweep", {"grid": "model", "workers": 2}))
        assert refused["error"]["code"] == "bad_request"
        ok = service.handle(_request("sweep", {"grid": "model"}))
        assert ok["ok"] is True
        assert ok["result"]["kind"] == "sweep"

    def test_missing_and_unknown_params(self, service):
        missing = service.handle(_request("run", {"source": FIG5}))
        assert missing["error"]["code"] == "bad_request"
        assert "params.expr" in missing["error"]["message"]
        unknown = service.handle(_request(
            "run", {"source": FIG5, "expr": "(+ 1 1)", "bogus": True}))
        assert unknown["error"]["code"] == "bad_request"
        assert "bogus" in unknown["error"]["message"]

    def test_engine_errors_are_structured(self, service):
        refused = service.handle(_request(
            "run", {"source": "(defun g (x) x)", "expr": "(g 1)",
                    "transform": ["g"]}))
        assert refused["error"]["code"] == "transform_refused"
        failed = service.handle(_request(
            "run", {"source": FIG5, "expr": "(no-such-fn)"}))
        assert failed["error"]["code"] == "engine_error"

    def test_health_and_stats(self, service):
        service.handle(_request("run", _run_params()))
        health = service.handle(_request("health", {}))
        assert health["result"] == {"kind": "health", "status": "ok",
                                    "in_flight": 0}
        stats = service.handle(_request("stats", {}))["result"]
        assert stats["counters"]["serve.request.ok"] == 1
        assert stats["workers"] == 2
        assert stats["perf_caches"], "shared perf caches should be warm"


class TestBackpressure:
    def test_admission_queue_full_rejects(self):
        service = AnalysisService(ServeConfig(workers=1, backlog=0))
        try:
            responses = {}
            slow = threading.Thread(
                target=lambda: responses.update(
                    slow=service.handle(_request("run", _slow_params()))))
            slow.start()
            deadline = time.time() + 5.0
            while service.in_flight == 0 and time.time() < deadline:
                time.sleep(0.005)
            rejected = service.handle(
                _request("run", _run_params(), request_id="r2"))
            slow.join()
            assert responses["slow"]["ok"] is True
            assert rejected["ok"] is False
            assert rejected["error"]["code"] == "overloaded"
            assert "retry" in rejected["error"]["message"]
        finally:
            service.close()

    def test_control_ops_never_rejected(self):
        service = AnalysisService(ServeConfig(workers=1, backlog=0))
        try:
            done = []
            slow = threading.Thread(
                target=lambda: done.append(
                    service.handle(_request("run", _slow_params()))))
            slow.start()
            while service.in_flight == 0:
                time.sleep(0.005)
            health = service.handle(_request("health", {}))
            assert health["ok"] is True
            assert health["result"]["in_flight"] == 1
            slow.join()
        finally:
            service.close()


class TestDeadlines:
    def test_deadline_exceeded_and_cancelled(self):
        service = AnalysisService(ServeConfig(workers=1, backlog=2))
        try:
            # Occupy the single worker so the timed-out request's
            # compute is still queued when its waiter gives up.
            occupied = []
            slow = threading.Thread(
                target=lambda: occupied.append(
                    service.handle(_request("run", _slow_params()))))
            slow.start()
            while service.in_flight == 0:
                time.sleep(0.005)
            expired = service.handle(_request(
                "run", _slow_params(140.0), request_id="late",
                deadline_ms=10.0))
            assert expired["error"]["code"] == "deadline_exceeded"
            slow.join()
            # The abandoned flight must be cancelled before computing.
            deadline = time.time() + 5.0
            while service.in_flight and time.time() < deadline:
                time.sleep(0.01)
            counters = service.counters()
            assert counters["serve.request.deadline_exceeded"] == 1
            assert counters.get("serve.request.cancelled", 0) == 1
        finally:
            service.close()

    def test_default_deadline_applies(self):
        service = AnalysisService(
            ServeConfig(workers=1, backlog=1, default_deadline_ms=1.0,
                        chaos=_hold_200ms()))
        try:
            response = service.handle(_request("run", _run_params()))
            assert response["error"]["code"] == "deadline_exceeded"
        finally:
            service.close()


class TestQueueWait:
    def test_stats_reports_admission_queue_wait(self, service):
        service.handle(_request("run", _run_params()))
        stats = service.handle(_request("stats", {}))["result"]
        wait = stats["queue_wait"]
        assert wait["count"] == 1
        assert wait["mean_ms"] >= 0.0
        assert wait["max_ms"] >= 0.0

    def test_queued_request_accrues_wait(self):
        service = AnalysisService(ServeConfig(workers=1, backlog=2,
                                              chaos=_hold_200ms()))
        try:
            blocker = threading.Thread(
                target=lambda: service.handle(
                    _request("run", _run_params(seed=1))))
            blocker.start()
            while service.in_flight == 0:
                time.sleep(0.005)
            # This one sits in admission behind the blocker.
            service.handle(_request("run", _run_params(), request_id="q"))
            blocker.join()
            wait = service.queue_wait_stats()
            assert wait["count"] == 2
            # The queued request waited for most of the blocker's run.
            assert wait["max_ms"] > 50.0
        finally:
            service.close()


class TestExpiredInQueue:
    def test_doomed_flight_is_refused_not_executed(self):
        """A flight whose every waiter deadline passed while it sat in
        admission must not reach the engine.  The natural trigger is a
        race window (worker dequeues between deadline expiry and the
        last waiter's cancel), so this drives the worker path directly
        with an already-expired flight."""
        service = AnalysisService(ServeConfig(workers=1, backlog=1))
        try:
            flight, leader = service._flights.join(
                "doomed", time.perf_counter() - 1.0)  # already past
            assert leader
            assert service._slots.acquire(blocking=False)
            service._compute(flight, "run", _run_params(), 0.0)
            assert flight.outcome is not None
            ok, code, message = flight.outcome
            assert ok is False
            assert code == "deadline_exceeded"
            assert "while queued" in message
            counters = service.counters()
            assert counters["serve.request.expired_in_queue"] == 1
            assert counters["serve.request.cancelled"] == 1
        finally:
            service.close()


class TestCoalescing:
    def test_identical_inflight_requests_compute_once(self):
        service = AnalysisService(ServeConfig(workers=1, backlog=4))
        try:
            blocker = threading.Thread(
                target=lambda: service.handle(
                    _request("run", _slow_params())))
            blocker.start()
            while service.in_flight == 0:
                time.sleep(0.005)
            # Both identical requests queue behind the blocker: the
            # second must join the first's flight, not occupy a slot.
            results = []
            params = _run_params(seed=42)
            waiters = [
                threading.Thread(target=lambda i=i: results.append(
                    service.handle(_request("run", params, request_id=i))))
                for i in range(2)
            ]
            for w in waiters:
                w.start()
            for w in waiters:
                w.join()
            blocker.join()
            assert all(r["ok"] for r in results)
            assert api.strip_wall(results[0]["result"]) == \
                api.strip_wall(results[1]["result"])
            counters = service.counters()
            assert counters["serve.request.coalesced"] == 1
            # 2 engine computations total: blocker + one shared flight.
            assert counters["serve.request.accepted"] == 2
        finally:
            service.close()

    def test_digest_key_separates_different_params(self, service):
        a = service.handle(_request("run", _run_params(seed=1)))
        b = service.handle(_request("run", _run_params(seed=2)))
        assert a["result"]["seed"] == 1
        assert b["result"]["seed"] == 2
        assert service.counters().get("serve.request.coalesced", 0) == 0


class TestChaosFaults:
    def test_reject_fault_is_tagged_overloaded(self):
        chaos = RequestFaultPlan(seed=1, reject_rate=1.0, delay_rate=0.0)
        service = AnalysisService(ServeConfig(workers=2, chaos=chaos))
        try:
            response = service.handle(_request("run", _run_params()))
            assert response["error"]["code"] == "overloaded"
            assert response["error"]["fault"] == "inject-reject"
            # Control ops bypass chaos entirely.
            assert service.handle(_request("health", {}))["ok"] is True
        finally:
            service.close()

    def test_delay_fault_drives_deadline_path(self):
        chaos = RequestFaultPlan(seed=1, reject_rate=0.0, delay_rate=1.0,
                                 delay_ms=(200.0, 250.0))
        service = AnalysisService(ServeConfig(workers=2, chaos=chaos))
        try:
            response = service.handle(Request(
                id="d", op="run", params=_run_params(), deadline_ms=20.0))
            assert response["error"]["code"] == "deadline_exceeded"
            assert service.counters()["serve.request.fault_injected"] == 1
        finally:
            service.close()

    def test_budget_bounds_injection(self):
        chaos = RequestFaultPlan(seed=1, reject_rate=1.0, delay_rate=0.0,
                                 budget=2)
        service = AnalysisService(ServeConfig(workers=2, chaos=chaos))
        try:
            codes = [
                service.handle(
                    _request("run", _run_params(seed=i), request_id=i)
                )["ok"]
                for i in range(4)
            ]
            assert codes == [False, False, True, True]
            assert chaos.total_injected == 2
        finally:
            service.close()

    def test_fault_plan_is_deterministic(self):
        rolls_a = [RequestFaultPlan(seed=9).on_request() for _ in range(20)]
        rolls_b = [RequestFaultPlan(seed=9).on_request() for _ in range(20)]
        # Rebuild plan each roll → compare whole-stream determinism:
        plan_a, plan_b = RequestFaultPlan(seed=9), RequestFaultPlan(seed=9)
        stream_a = [plan_a.on_request() for _ in range(50)]
        stream_b = [plan_b.on_request() for _ in range(50)]
        assert stream_a == stream_b
        assert rolls_a == rolls_b


class TestServer:
    """Socket-level behavior: wire protocol, drain, worker hygiene."""

    @pytest.fixture
    def server(self):
        srv = ReproServer(ServeConfig(workers=2, backlog=4))
        srv.start()
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv
        srv.stop(timeout=10)

    def _connect(self, server):
        sock = socket.create_connection(server.address, timeout=10)
        return sock, sock.makefile("rwb")

    def test_ndjson_round_trip(self, server):
        sock, stream = self._connect(server)
        stream.write(request_line(
            "run", _run_params(), request_id="wire-1"))
        stream.flush()
        response = decode_response(stream.readline())
        sock.close()
        assert response["v"] == 1
        assert response["id"] == "wire-1"
        assert response["ok"] is True
        assert response["result"]["value"] == "(1 3 6 10)"

    def test_malformed_line_gets_error_not_disconnect(self, server):
        sock, stream = self._connect(server)
        stream.write(b"{never json\n")
        stream.flush()
        first = decode_response(stream.readline())
        assert first["ok"] is False
        assert first["error"]["code"] == "bad_request"
        # The connection survives for the next, valid request.
        stream.write(request_line("health", request_id=2))
        stream.flush()
        assert decode_response(stream.readline())["ok"] is True
        sock.close()

    def test_responses_are_canonical_json(self, server):
        sock, stream = self._connect(server)
        stream.write(request_line("health", request_id=1))
        stream.flush()
        raw = stream.readline().decode("utf-8")
        sock.close()
        doc = json.loads(raw)
        assert raw == json.dumps(doc, sort_keys=True,
                                 separators=(",", ":"),
                                 ensure_ascii=False) + "\n"

    def test_graceful_drain_completes_inflight(self):
        server = ReproServer(ServeConfig(workers=2, backlog=4))
        server.start()
        runner = threading.Thread(target=server.serve_forever, daemon=True)
        runner.start()
        sock, stream = self._connect(server)
        stream.write(request_line("run", _slow_params(), request_id="in"))
        stream.flush()
        while server.service.in_flight == 0:
            time.sleep(0.005)
        server.request_drain()
        # The in-flight response must still arrive, completed.
        response = decode_response(stream.readline())
        assert response["ok"] is True
        assert response["id"] == "in"
        sock.close()
        assert server.stop(timeout=10) is True
        assert server.service.in_flight == 0
        assert server.service.draining is True

    def test_draining_service_refuses_new_engine_work(self):
        service = AnalysisService(ServeConfig(workers=2))
        service.begin_drain()
        refused = service.handle(_request("run", _run_params()))
        assert refused["error"]["code"] == "shutting_down"
        # Control ops still answer (and report the drain).
        health = service.handle(_request("health", {}))
        assert health["result"]["status"] == "draining"
        service.close()

    def test_drain_control_op_over_the_wire(self):
        server = ReproServer(ServeConfig(workers=2, backlog=4))
        server.start()
        runner = threading.Thread(target=server.serve_forever, daemon=True)
        runner.start()
        sock, stream = self._connect(server)
        stream.write(request_line("drain", request_id="bye"))
        stream.flush()
        response = decode_response(stream.readline())
        sock.close()
        assert response["ok"] is True
        assert response["result"]["status"] == "draining"
        # The op both answers and actually drains the server.
        assert server.stop(timeout=10) is True
        runner.join(timeout=10)
        assert server.service.draining is True

    def test_no_worker_thread_leak_after_drain(self):
        server = ReproServer(ServeConfig(workers=4, backlog=4))
        server.start()
        runner = threading.Thread(target=server.serve_forever, daemon=True)
        runner.start()
        sock, stream = self._connect(server)
        stream.write(request_line("run", _run_params(), request_id=1))
        stream.flush()
        assert decode_response(stream.readline())["ok"] is True
        sock.close()
        assert server.stop(timeout=10) is True
        runner.join(timeout=10)
        deadline = time.time() + 5.0
        while time.time() < deadline:
            leaked = [t for t in threading.enumerate()
                      if t.name.startswith("repro-serve")
                      and t.is_alive()]
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked, f"leaked worker threads: {leaked}"


class TestProcessExecutor:
    """The process-pool backend mode end-to-end: same wire protocol,
    crash isolation under SIGKILL."""

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            AnalysisService(ServeConfig(workers=1, executor="bogus"))

    def test_round_trip_and_idle_crash_recovery(self):
        import os
        import signal

        server = ReproServer(ServeConfig(workers=1, backlog=4,
                                         executor="process"))
        server.start()
        runner = threading.Thread(target=server.serve_forever, daemon=True)
        runner.start()
        try:
            sock = socket.create_connection(server.address, timeout=30)
            stream = sock.makefile("rwb")
            stream.write(request_line("run", _run_params(),
                                      request_id="p1"))
            stream.flush()
            first = decode_response(stream.readline())
            assert first["ok"] is True
            assert first["result"]["value"] == "(1 3 6 10)"
            # kill -9 the (idle) engine worker: the next request must
            # still be served, by a silently respawned worker.
            pids = server.service._farm.worker_pids()
            assert pids
            os.kill(pids[0], signal.SIGKILL)
            deadline = time.time() + 5.0
            while time.time() < deadline and \
                    server.service._farm.worker_pids():
                time.sleep(0.02)
            stream.write(request_line(
                "analyze", {"source": FIG5, "function": "f5"},
                request_id="p2"))
            stream.flush()
            second = decode_response(stream.readline())
            assert second["ok"] is True, second
            assert second["result"]["transformable"] is True
            sock.close()
            counters = server.service.counters()
            assert counters.get("serve.pool.respawns", 0) >= 1
        finally:
            assert server.stop(timeout=15) is True
            runner.join(timeout=10)
