"""The shard router end-to-end (in-process backends): routing parity,
the memory tier of its result store, single-flight stampede
coalescing, failover around a dead backend, circuit breaking,
sequential fallback, graceful backend bleed with automatic rejoin, the
fleet-shared cache, and blackhole chaos."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro import api
from repro.fleet.client import BackendClient, BackendError
from repro.fleet.router import RouterConfig, ShardRouter, parse_backend
from repro.serve import FleetFaultPlan, ReproServer, Request, ServeConfig
from repro.serve.server import engine_call
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


def analyze_params(variant=0):
    return {"source": f"{FIG5}\n; variant {variant}\n", "function": "f5"}


def _free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


class Fleet:
    """N in-process thread-executor backends + one router."""

    def __init__(self, backends=2, **router_kwargs):
        self.servers = []
        self.threads = []
        specs = []
        for _ in range(backends):
            server = ReproServer(ServeConfig(workers=2))
            host, port = server.start()
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            self.servers.append(server)
            self.threads.append(thread)
            specs.append(f"{host}:{port}")
        self.specs = tuple(specs)
        defaults = dict(
            backends=tuple(specs),
            connect_timeout_s=0.3,
            retry_base_delay_s=0.01,
            retry_max_delay_s=0.05,
            breaker_cooldown_s=0.2,
            probe_interval_s=10.0,  # probing quiet unless a test wants it
        )
        defaults.update(router_kwargs)
        self.router = ShardRouter(RouterConfig(**defaults))
        host, port = self.router.start()
        self.router_thread = threading.Thread(
            target=self.router.serve_forever, daemon=True)
        self.router_thread.start()
        self.client = BackendClient("router", host, port,
                                    connect_timeout_s=2.0)

    def call(self, op, params=None, **kwargs):
        kwargs.setdefault("timeout_s", 60.0)
        return self.client.call(op, params, **kwargs)

    def kill_backend(self, index):
        """Hard-stop one backend (its port goes connect-refused)."""
        self.servers[index].stop(timeout=5.0)
        self.threads[index].join(timeout=5.0)

    def close(self):
        self.router.stop(timeout=10.0)
        self.router_thread.join(timeout=10.0)
        for server, thread in zip(self.servers, self.threads):
            server.stop(timeout=5.0)
            thread.join(timeout=5.0)


@pytest.fixture
def fleet():
    f = Fleet(backends=2)
    yield f
    f.close()


class TestParseBackend:
    def test_valid(self):
        assert parse_backend("10.0.0.1:7000") == \
            ("10.0.0.1:7000", "10.0.0.1", 7000)

    @pytest.mark.parametrize("spec", ["nohost", "host:", ":7000",
                                      "host:notaport"])
    def test_invalid(self, spec):
        with pytest.raises(ValueError):
            parse_backend(spec)


class TestRoutingParity:
    def test_routed_result_matches_facade_modulo_wall(self, fleet):
        params = analyze_params()
        response = fleet.call("analyze", params)
        assert response["ok"] is True
        expected = engine_call("analyze", dict(params))
        assert api.canonical_json(api.strip_wall(response["result"])) == \
            api.canonical_json(api.strip_wall(expected))

    def test_definitive_error_passes_through_untouched(self, fleet):
        response = fleet.call("analyze", {"source": FIG5})  # no function
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        counters = fleet.router.counters()
        assert counters.get("fleet.route.retries", 0) == 0  # never retried


class TestResponseCache:
    def test_identical_request_is_served_from_cache(self, fleet):
        params = analyze_params()
        first = fleet.call("analyze", params)
        second = fleet.call("analyze", params)
        assert first["ok"] and second["ok"]
        assert api.canonical_json(first["result"]) == \
            api.canonical_json(second["result"])
        counters = fleet.router.counters()
        assert counters.get("fleet.cache.hits", 0) == 1
        assert counters.get("fleet.cache.misses", 0) == 1

    def test_cache_is_bounded(self):
        f = Fleet(backends=1, cache_size=2)
        try:
            for variant in range(4):
                f.call("analyze", analyze_params(variant))
            assert len(f.router._store) <= 2
        finally:
            f.close()

    def test_errors_are_never_cached(self, fleet):
        for _ in range(2):
            response = fleet.call("analyze", {"source": FIG5})
            assert response["error"]["code"] == "bad_request"
        assert fleet.router.counters().get("fleet.cache.hits", 0) == 0


class TestEventLoopNeverRoutes:
    """The event loop answers a memory-tier hit with the payload its one
    lookup returned; everything else goes to the routing pool.  So no
    backend call runs on the event-loop thread, even when another
    thread evicts the entry between the lookup and the answer."""

    def test_eviction_after_the_lookup_still_answers_inline(self):
        f = Fleet(backends=1)
        sends = []
        send = f.router._send
        f.router._send = lambda *a: (sends.append(threading.current_thread())
                                     or send(*a))
        store = f.router._store
        lookup = store.lookup

        def lookup_then_evict(key, tiers=("memory", "disk", "server")):
            found = lookup(key, tiers)
            if found[1] is not None:
                with store._lock:
                    store._memory.clear()  # another thread's eviction
            return found

        store.lookup = lookup_then_evict
        try:
            params = analyze_params()
            first = f.call("analyze", dict(params))
            second = f.call("analyze", dict(params))
            assert first["ok"] and second["ok"]
            assert api.canonical_json(api.strip_wall(first["result"])) == \
                api.canonical_json(api.strip_wall(second["result"]))
            assert len(sends) == 1  # the miss; the hit sent nothing
            assert f.router_thread not in sends
            assert f.router.counters()["fleet.cache.hits"] == 1
        finally:
            f.close()


class TestFingerprintsOffTheRequestPath:
    def test_computed_once_when_the_store_opens(self, monkeypatch):
        # Store keys hash the stage fingerprints.  A router without a
        # store never walks the code; one with a store walks it while
        # opening the store, and never while serving.
        from repro.scale import fingerprint

        walks = []
        closure = fingerprint._closure
        monkeypatch.setattr(fingerprint, "_FINGERPRINTS", None)
        monkeypatch.setattr(
            fingerprint, "_closure",
            lambda *a: walks.append(threading.current_thread())
            or closure(*a))
        bare = Fleet(backends=1, cache_size=0)
        try:
            assert bare.call("analyze", analyze_params())["ok"]
        finally:
            bare.close()
        assert walks == []
        f = Fleet(backends=1)
        try:
            opened = len(walks)
            assert opened and set(walks) == {threading.current_thread()}
            for _ in range(2):
                assert f.call("analyze", analyze_params())["ok"]
            assert len(walks) == opened
        finally:
            f.close()


def _variants_owned_by(fleet, backend, count):
    """The first ``count`` ``analyze_params`` variants whose request the
    router's hash ring sends to ``backend`` first.  Backends are named
    host:port, so which keys a backend owns changes with the ports."""
    ring = fleet.router._ring
    found = []
    variant = 0
    while len(found) < count:
        key = api.content_digest({"op": "analyze",
                                  "params": analyze_params(variant)})
        if ring.owner(key) == backend:
            found.append(variant)
        variant += 1
    return found


class TestFailover:
    def test_requests_survive_a_dead_backend(self, fleet):
        dead, survivor = fleet.specs
        variants = (_variants_owned_by(fleet, dead, 3)
                    + _variants_owned_by(fleet, survivor, 3))
        fleet.kill_backend(0)
        for variant in variants:
            response = fleet.call("analyze", analyze_params(variant))
            assert response["ok"] is True, response
        counters = fleet.router.counters()
        # The dead backend owned three of the six digests: the router
        # must have failed over (or skipped via a tripped breaker)
        # rather than erroring.
        assert counters.get("fleet.route.failovers", 0) \
            + counters.get("fleet.route.breaker_skips", 0) > 0

    def test_repeated_failures_trip_the_breaker(self, fleet):
        variants = _variants_owned_by(fleet, fleet.specs[0], 10)
        fleet.kill_backend(0)
        for variant in variants:
            fleet.call("analyze", analyze_params(variant))
        counters = fleet.router.counters()
        assert counters.get("fleet.breaker.open", 0) >= 1
        snapshot = fleet.router._stats()["backends"]
        states = {name: b["breaker"]["state"]
                  for name, b in snapshot.items()}
        assert "open" in states.values() or "half_open" in states.values()


class TestFallback:
    def _dead_specs(self, n=2):
        return tuple(f"127.0.0.1:{_free_port()}" for _ in range(n))

    def test_sequential_fallback_when_every_backend_is_down(self):
        router = ShardRouter(RouterConfig(
            backends=self._dead_specs(),
            connect_timeout_s=0.2,
            retry_base_delay_s=0.01,
            retry_max_delay_s=0.02,
            probe_interval_s=10.0,
        ))
        host, port = router.start()
        thread = threading.Thread(target=router.serve_forever, daemon=True)
        thread.start()
        client = BackendClient("router", host, port, connect_timeout_s=2.0)
        try:
            params = analyze_params()
            response = client.call("analyze", params, timeout_s=60.0)
            assert response["ok"] is True
            expected = engine_call("analyze", dict(params))
            assert api.canonical_json(api.strip_wall(response["result"])) \
                == api.canonical_json(api.strip_wall(expected))
            assert router.counters().get("fleet.fallback", 0) == 1
        finally:
            router.stop(timeout=10.0)
            thread.join(timeout=10.0)

    def test_unavailable_when_fallback_disabled(self):
        router = ShardRouter(RouterConfig(
            backends=self._dead_specs(),
            connect_timeout_s=0.2,
            retry_base_delay_s=0.01,
            retry_max_delay_s=0.02,
            probe_interval_s=10.0,
            fallback=False,
        ))
        host, port = router.start()
        thread = threading.Thread(target=router.serve_forever, daemon=True)
        thread.start()
        client = BackendClient("router", host, port, connect_timeout_s=2.0)
        try:
            response = client.call("analyze", analyze_params(),
                                   timeout_s=60.0)
            assert response["ok"] is False
            assert response["error"]["code"] == "unavailable"
        finally:
            router.stop(timeout=10.0)
            thread.join(timeout=10.0)


class TestDrain:
    def test_drain_op_bleeds_one_backend_from_the_ring(self, fleet):
        victim = fleet.router.ring_members()[0]
        response = fleet.call("drain", {"backend": victim})
        assert response["ok"] is True
        assert victim not in response["result"]["ring"]
        assert fleet.router.ring_members() == \
            [m for m in response["result"]["ring"]]
        # The survivor carries all traffic.
        for variant in range(4):
            assert fleet.call("analyze",
                              analyze_params(variant))["ok"] is True

    def test_bleeding_an_unknown_backend_is_reported(self, fleet):
        response = fleet.call("drain", {"backend": "10.9.9.9:1"})
        assert response["ok"] is True
        assert response["result"]["status"] == "unknown-backend"

    def test_drain_without_backend_drains_the_router(self, fleet):
        response = fleet.call("drain")
        assert response["ok"] is True
        assert response["result"]["status"] == "draining"
        assert fleet.router._drained.wait(10.0)


class TestControlOps:
    def test_health_reports_ring_and_breakers(self, fleet):
        body = fleet.call("health")["result"]
        assert body["kind"] == "health"
        assert body["role"] == "router"
        assert len(body["ring"]) == 2
        assert all(b["breaker"] == "closed"
                   for b in body["backends"].values())

    def test_stats_reports_counters_and_cache(self, fleet):
        fleet.call("analyze", analyze_params())
        body = fleet.call("stats")["result"]
        assert body["kind"] == "stats"
        assert body["counters"].get("fleet.request.ok") == 1
        assert body["cache"]["entries"] == 1
        assert set(body["backends"]) == set(body["ring"])


class TestSingleFlight:
    """Stampede coalescing: one backend call feeds all identical
    concurrent waiters."""

    def test_waiter_answers_with_its_own_id(self):
        # Deterministic replay of the waiter path: a flight is already
        # open for the key; the waiter blocks until the leader
        # publishes, then builds its own response.
        router = ShardRouter(RouterConfig(backends=()))
        flight, _ = router._flights.join("k" * 64, time.perf_counter())
        out = {}

        def waiter():
            out["reply"] = router._await_flight(
                flight,
                Request(id="w1", op="analyze", params={},
                        deadline_ms=5_000.0),
                time.perf_counter())

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert "reply" not in out  # genuinely blocked on the flight
        router._flights.publish(flight, ("ok", {"kind": "feedback"}))
        thread.join(timeout=5)
        response, route = out["reply"]
        assert response["ok"] is True
        assert response["id"] == "w1"
        assert route == "coalesced"
        assert router.counters()["fleet.request.coalesced"] == 1

    def test_waiter_deadline_is_its_own(self):
        router = ShardRouter(RouterConfig(backends=()))
        flight, _ = router._flights.join(
            "k" * 64, time.perf_counter())  # never published
        response, route = router._await_flight(
            flight, Request(id="w2", op="analyze", params={},
                            deadline_ms=50.0),
            time.perf_counter())
        assert response["ok"] is False
        assert response["error"]["code"] == "deadline_exceeded"
        assert route == "coalesced:deadline"

    def test_leader_error_propagates_to_waiters(self):
        router = ShardRouter(RouterConfig(backends=()))
        flight, _ = router._flights.join("k" * 64, time.perf_counter())
        router._flights.publish(flight, ("error", "engine_error", "boom"))
        response, route = router._await_flight(
            flight, Request(id="w3", op="analyze", params={},
                            deadline_ms=1_000.0),
            time.perf_counter())
        assert response["error"]["code"] == "engine_error"
        assert route == "coalesced:engine_error"

    def test_stampede_costs_one_backend_call(self):
        # Four identical concurrent requests against a slow op: exactly
        # one engine computation runs; everyone gets the same answer.
        f = Fleet(backends=2)
        try:
            params = {"source": SPIN_SRC, "expr": f"(spin {spins_for(30.0)})",
                      "processors": 1}
            barrier = threading.Barrier(4)
            replies = [None] * 4

            def storm(slot):
                barrier.wait()
                replies[slot] = f.call("run", dict(params))

            threads = [threading.Thread(target=storm, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert all(r["ok"] for r in replies), replies
            bodies = {api.canonical_json(api.strip_wall(r["result"]))
                      for r in replies}
            assert len(bodies) == 1
            backend_calls = sum(b["ok"] for b in
                                f.router._stats()["backends"].values())
            assert backend_calls == 1
            counters = f.router.counters()
            assert counters.get("fleet.request.coalesced", 0) \
                + counters.get("fleet.cache.hits", 0) == 3
        finally:
            f.close()


class TestAutoRejoin:
    def test_rejoin_requires_a_down_transition(self):
        # Deterministic drive of the health-change hook: a bled member
        # that never went down (a rebalance, not a crash) must not
        # rejoin on its next healthy probe.
        spec = "127.0.0.1:1"
        router = ShardRouter(RouterConfig(backends=(spec,)))
        router.bleed_backend(spec, stop_backend=False)
        assert router.ring_members() == []
        assert router._health()["drained"] == [spec]
        router._on_health_change(spec, healthy=True)
        assert router.ring_members() == []  # still healthy, still out
        router._on_health_change(spec, healthy=False)
        router._on_health_change(spec, healthy=True)
        assert router.ring_members() == [spec]  # died, came back: rejoin
        assert router._health()["drained"] == []
        assert router.counters()["fleet.backend.rejoined"] == 1

    def test_no_auto_rejoin_forgets_the_backend(self):
        spec = "127.0.0.1:1"
        router = ShardRouter(RouterConfig(backends=(spec,),
                                          auto_rejoin=False))
        router.bleed_backend(spec, stop_backend=False)
        assert router._health()["drained"] == []
        router._on_health_change(spec, healthy=False)
        router._on_health_change(spec, healthy=True)
        assert router.ring_members() == []  # stays bled

    def test_restarted_backend_rejoins_the_ring(self):
        # End-to-end: bleed (and stop) a live backend, restart a fresh
        # server on the same port, and watch the prober re-ring it.
        f = Fleet(backends=2, probe_interval_s=0.05,
                  probe_max_interval_s=0.2)
        replacement = None
        replacement_thread = None
        try:
            victim = f.router.ring_members()[0]
            response = f.call("drain", {"backend": victim})
            assert response["ok"] is True
            assert victim not in f.router.ring_members()
            assert f.router._health()["drained"] == [victim]
            # Wait for the prober to notice the death...
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if f.router._drained_members[victim].went_down:
                    break
                time.sleep(0.02)
            assert f.router._drained_members[victim].went_down
            # ...then resurrect the address with a fresh process.
            port = int(victim.rsplit(":", 1)[1])
            replacement = ReproServer(ServeConfig(port=port, workers=2))
            replacement.start()
            replacement_thread = threading.Thread(
                target=replacement.serve_forever, daemon=True)
            replacement_thread.start()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if victim in f.router.ring_members():
                    break
                time.sleep(0.02)
            assert victim in f.router.ring_members()
            assert f.router.counters()["fleet.backend.rejoined"] == 1
            assert f.router._health()["drained"] == []
            # The rejoined backend carries traffic again.
            for variant in range(4):
                assert f.call("analyze",
                              analyze_params(variant))["ok"] is True
        finally:
            f.close()
            if replacement is not None:
                replacement.stop(timeout=5.0)
            if replacement_thread is not None:
                replacement_thread.join(timeout=5.0)


class TestSharedCache:
    def test_second_router_hits_the_shared_cache(self, tmp_path):
        from repro.serve.cacheserver import CacheServeConfig, CacheServer

        cache_srv = CacheServer(CacheServeConfig(root=str(tmp_path)))
        cache_srv.start()
        cache_thread = threading.Thread(target=cache_srv.serve_forever,
                                        daemon=True)
        cache_thread.start()
        spec = "%s:%d" % cache_srv.address
        params = analyze_params()
        first = Fleet(backends=1, cache_server=spec)
        try:
            a = first.call("analyze", dict(params))
            assert a["ok"] is True
            counters = first.router.counters()
            assert counters.get("fleet.shared_cache.misses") == 1
        finally:
            first.close()
        second = Fleet(backends=1, cache_server=spec)
        try:
            b = second.call("analyze", dict(params))
            assert b["ok"] is True
            counters = second.router.counters()
            assert counters.get("fleet.shared_cache.hits") == 1
            # Served from the shared tier: no backend was consulted.
            backend_calls = sum(s["ok"] for s in
                                second.router._stats()["backends"].values())
            assert backend_calls == 0
            assert api.canonical_json(api.strip_wall(b["result"])) == \
                api.canonical_json(api.strip_wall(a["result"]))
            stats = second.router._stats()
            assert stats["shared_cache"]["server"] == spec
        finally:
            second.close()
            cache_srv.stop(timeout=10)


class TestChaosBlackhole:
    def test_blackholed_sends_fail_over_and_still_answer(self):
        plan = FleetFaultPlan(seed=7, blackhole_rate=1.0, slow_rate=0.0,
                              budget=3)
        f = Fleet(backends=2, chaos=plan, cache_size=0)
        try:
            for variant in range(5):
                response = f.call("analyze", analyze_params(variant))
                assert response["ok"] is True, response
            counters = f.router.counters()
            assert counters.get("fleet.fault.blackhole", 0) == 3
            assert plan.injected["inject-blackhole"] == 3
        finally:
            f.close()

    def test_fault_stream_is_deterministic(self):
        a = FleetFaultPlan(seed=42, budget=32)
        b = FleetFaultPlan(seed=42, budget=32)
        decisions_a = [a.on_request() for _ in range(64)]
        decisions_b = [b.on_request() for _ in range(64)]
        assert decisions_a == decisions_b


class TestTransportClient:
    def test_connect_failure_is_typed(self):
        client = BackendClient("dead", "127.0.0.1", _free_port(),
                               connect_timeout_s=0.2)
        with pytest.raises(BackendError) as exc_info:
            client.call("health", timeout_s=1.0)
        assert exc_info.value.kind == "connect"

    def test_probe_is_false_for_a_dead_backend(self):
        client = BackendClient("dead", "127.0.0.1", _free_port(),
                               connect_timeout_s=0.2)
        assert client.probe(timeout_s=0.5) is False
