"""The fleet-shared cache service, the tiered result store, and their
degradation contract.

One ``repro cache-serve`` process fronts the entry store for sweep
workers, serve shards and the router, each reaching it as the server
tier of its own :class:`ResultCache`.  These tests pin the store's
contract over every tier set its callers use, and the three properties
operations relies on (docs/operations.md):

* **Shared**: a second machine (distinct local cache dir) hits over
  the network on what the first machine computed.
* **Refusing**: a corrupt ``cache-put`` gets a typed ``bad_request``
  and never touches the store; engine ops are refused outright.
* **Optional**: a dead server degrades to per-machine caching, a
  poisoned server degrades to a miss — correctness never depends on
  the cache tier.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import api
from repro.scale.cache import (
    HIT,
    INVALID,
    MISS,
    ResultCache,
    cache_key,
    make_entry,
)
from repro.scale.cacheclient import (
    CacheTransportError,
    _ServerLink,
    parse_server,
)
from repro.scale.driver import run_jobs
from repro.scale.jobs import SweepJob
from repro.serve.cacheserver import CacheServeConfig, CacheServer
from repro.serve.protocol import decode_response, request_line

PAYLOAD = {"result": 42, "nested": {"b": 2, "a": 1}}


def _probe(pid: str, **params) -> SweepJob:
    return SweepJob(id=f"probe/{pid}", family="probe", params=params)


@pytest.fixture
def server(tmp_path):
    srv = CacheServer(CacheServeConfig(root=str(tmp_path / "server-root")))
    srv.start()
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.stop(timeout=10)


def _spec(srv: CacheServer) -> str:
    host, port = srv.address
    return f"{host}:{port}"


def _dead_spec() -> str:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{probe.getsockname()[1]}"


def _tampered(key):
    entry = make_entry(key, PAYLOAD)
    entry["payload"] = {"result": 666}  # hash no longer matches
    return entry


class TestStoreContract:
    """One store, every tier set a caller opens: the router's memory
    tier (alone or over the server), serve's server tier, the sweep's
    directory (alone or over the server)."""

    @pytest.mark.parametrize("tiers", [
        ("memory",), ("disk",), ("server",), ("disk", "server"),
        ("memory", "server"),
    ], ids="+".join)
    def test_contract(self, tiers, server, tmp_path):
        def store(*only, spec=_spec(server)):
            only = only or tiers
            return ResultCache(
                tmp_path / "disk" if "disk" in only else None,
                server=spec if "server" in only else None,
                memory_size=8 if "memory" in only else 0,
                connect_timeout_s=0.2)

        computed = []

        def compute(payload=PAYLOAD):
            computed.append(payload)
            return payload

        # Miss, compute, then a hit from the fastest tier.
        cache = store()
        key = cache_key({"k": "contract"})
        assert cache.get_or_compute(key, compute) == (PAYLOAD, MISS, None)
        assert cache.get_or_compute(key, compute) == (PAYLOAD, HIT,
                                                      tiers[0])
        assert len(computed) == 1

        # A hit from the slowest tier is written through to the faster.
        if len(tiers) > 1:
            key = cache_key({"k": "write-through"})
            store(tiers[-1]).put(key, PAYLOAD)
            assert cache.lookup(key) == (HIT, PAYLOAD, tiers[-1])
            for faster in tiers[:-1]:
                assert cache.lookup(key, (faster,)) == (HIT, PAYLOAD,
                                                        faster)

        # A poisoned entry in either persistent tier reads as a miss
        # and is recomputed.
        roots = {"disk": tmp_path / "disk",
                 "server": tmp_path / "server-root"}
        for tier in (t for t in tiers if t in roots):
            key = cache_key({"k": "poisoned", "tier": tier})
            path = ResultCache(roots[tier]).path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(_tampered(key)), encoding="utf-8")
            fresh = {"result": tier}
            payload, status, answered = cache.get_or_compute(
                key, lambda: compute(fresh))
            assert (payload, answered) == (fresh, None)
            # The disk tier deletes a bad entry (invalid); the server
            # refuses to serve one (a plain miss).
            assert status == (INVALID if tier == "disk" else MISS)
            assert cache.get(key) == (HIT, fresh)

        # A failed compute stores nothing, in any tier.
        key = cache_key({"k": "failed"})

        def boom():
            raise RuntimeError("engine failed")

        with pytest.raises(RuntimeError):
            cache.get_or_compute(key, boom)
        for tier in tiers:
            assert cache.lookup(key, (tier,)) == (MISS, None, None)

        # A dead server falls back to the other tiers.
        if "server" in tiers:
            dead = store(spec=_dead_spec())
            key = cache_key({"k": "server down"})
            assert dead.get_or_compute(key, compute)[1] == MISS
            assert dead.stats()["remote_errors"] >= 1
            again = dead.get_or_compute(key, compute)
            rest = [t for t in tiers if t != "server"]
            assert again[2] == (rest[0] if rest else None)

    def test_threads_share_one_store(self, tmp_path):
        # The router's routing threads share one memory tier and one
        # set of counters: no lookup, store or entry may be lost.
        import sys

        cache = ResultCache(tmp_path / "disk", memory_size=16)
        keys = [cache_key({"k": i}) for i in range(24)]
        wrong = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def caller(n):
                for i, key in enumerate(keys):
                    payload, _, _ = cache.get_or_compute(
                        key, lambda i=i: {"i": i})
                    if payload != {"i": i}:
                        wrong.append((n, i))

            threads = [threading.Thread(target=caller, args=(n,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert len(cache) <= 16
        stats = cache.stats()
        # Every lookup that reached the disk counted once; every miss
        # stored once.
        assert stats["misses"] == stats["stores"]
        assert stats["hits"] + stats["misses"] + stats["invalid"] <= 8 * 24
        assert len(list((tmp_path / "disk").rglob("*.json"))) == 24


class TestWire:
    def test_parse_server(self):
        assert parse_server("127.0.0.1:7199") == ("127.0.0.1", 7199)
        for bad in ("7199", "host:", ":7199", "host:port"):
            with pytest.raises(ValueError):
                parse_server(bad)

    def test_put_then_get_round_trip(self, server):
        link = _ServerLink(_spec(server))
        key = cache_key({"k": 1})
        entry = make_entry(key, PAYLOAD)
        stored = link.call("cache-put", {"key": key, "entry": entry})
        assert stored["ok"] and stored["result"]["stored"] is True
        fetched = link.call("cache-get", {"key": key})
        assert fetched["result"]["found"] is True
        assert fetched["result"]["entry"]["payload"] == PAYLOAD

    def test_get_unknown_key_misses(self, server):
        link = _ServerLink(_spec(server))
        response = link.call("cache-get", {"key": "0" * 64})
        assert response["ok"] and response["result"]["found"] is False

    def test_corrupt_put_refused_and_store_untouched(self, server):
        link = _ServerLink(_spec(server))
        key = cache_key({"k": "poison"})
        entry = make_entry(key, PAYLOAD)
        entry["payload"] = {"result": 43}  # hash no longer matches
        refused = link.call("cache-put", {"key": key, "entry": entry})
        assert refused["ok"] is False
        assert refused["error"]["code"] == "bad_request"
        assert server.counters()["cache.server.rejected_puts"] == 1
        assert link.call("cache-get",
                         {"key": key})["result"]["found"] is False

    def test_bad_key_refused(self, server):
        link = _ServerLink(_spec(server))
        for bad in ("short", 7, None, "Z" * 64):
            response = link.call("cache-put", {"key": bad, "entry": {}})
            assert response["error"]["code"] == "bad_request"

    def test_engine_ops_refused(self, server):
        link = _ServerLink(_spec(server))
        response = link.call("analyze", {"source": "(defun f (x) x)",
                                         "function": "f"})
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        assert "cache server" in response["error"]["message"]

    def test_gets_are_refused_once_drain_is_requested(self, tmp_path):
        # The store's client reads a typed refusal as a miss, so a
        # draining server must refuse reads too, even on a connection
        # that stays open and busy.
        srv = _serve(CacheServer(CacheServeConfig(
            root=str(tmp_path / "root"), drain_timeout=3.0)))
        get = request_line("cache-get", {"key": "0" * 64})
        try:
            with socket.create_connection(srv.address, timeout=5) as conn:
                stream = conn.makefile("rwb")
                stream.write(get)
                stream.flush()
                assert decode_response(stream.readline())["ok"] is True
                srv.request_drain()
                stream.write(get)
                stream.flush()
                refused = decode_response(stream.readline())
        finally:
            srv.stop(timeout=10)
        assert refused["ok"] is False
        assert refused["error"]["code"] == "shutting_down"
        assert srv.counters()["cache.server.shutting_down"] == 1

    def test_stats_carry_fingerprints(self, server):
        stats = _ServerLink(_spec(server)).call("stats", {})["result"]
        assert stats["role"] == "cache"
        assert set(stats["fingerprints"]) == {
            "parse", "analysis", "distance", "transform", "machine",
            "sweep"}


class TestTwoTier:
    def test_second_machine_hits_over_the_network(self, server, tmp_path):
        spec = _spec(server)
        machine_a = ResultCache(tmp_path / "a", server=spec)
        machine_b = ResultCache(tmp_path / "b", server=spec)
        key = cache_key({"k": "shared"})
        machine_a.put(key, PAYLOAD)
        status, payload = machine_b.get(key)
        assert (status, payload) == (HIT, PAYLOAD)
        assert machine_b.remote_hits == 1
        # The hit wrote through: next read is local, no network.
        assert ResultCache(tmp_path / "b").get(key) == (HIT, PAYLOAD)

    def test_no_local_tier_still_works(self, server):
        cache = ResultCache(server=_spec(server))
        key = cache_key({"k": "serveronly"})
        assert cache.get(key) == (MISS, None)
        cache.put(key, PAYLOAD)
        assert cache.get(key) == (HIT, PAYLOAD)

    def test_dead_server_degrades_to_local(self, tmp_path):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        cache = ResultCache(tmp_path / "local",
                            server=f"127.0.0.1:{dead_port}",
                            connect_timeout_s=0.2)
        key = cache_key({"k": "offline"})
        assert cache.get(key) == (MISS, None)
        assert cache.server_up() is False  # marked down, in cooldown
        cache.put(key, PAYLOAD)
        assert cache.get(key) == (HIT, PAYLOAD)  # pure local behavior
        assert cache.remote_errors >= 1
        assert cache.remote_hits == 0

    def test_down_cooldown_skips_the_network(self, tmp_path):
        now = [0.0]
        cache = ResultCache(tmp_path / "local", server="127.0.0.1:1",
                            connect_timeout_s=0.2, retry_after_s=30.0,
                            clock=lambda: now[0])
        cache._mark_down()
        calls = []
        cache._link.call = lambda *a, **k: calls.append(a) or (_ for _ in
                                                              ()).throw(
            CacheTransportError("x"))
        cache.get(cache_key({"k": 1}))
        assert calls == []  # cooldown: no connect attempted
        now[0] = 31.0
        cache.get(cache_key({"k": 1}))
        assert len(calls) == 1  # cooldown over: retried once

    def test_poisoned_server_reads_as_miss(self, tmp_path):
        # A fake cache server that answers every get "found" with a
        # tampered entry: the client must re-verify and refuse it.
        key = cache_key({"k": "poisoned"})
        entry = make_entry(key, PAYLOAD)
        entry["payload"] = {"result": 666}

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        port = listener.getsockname()[1]
        stop = threading.Event()

        def poisoned():
            listener.settimeout(0.2)
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                with conn:
                    conn.makefile("rb").readline()
                    conn.sendall((json.dumps(
                        {"v": 1, "id": "c1", "ok": True,
                         "result": {"found": True, "entry": entry}})
                        + "\n").encode())
        thread = threading.Thread(target=poisoned, daemon=True)
        thread.start()
        try:
            cache = ResultCache(tmp_path / "local",
                                server=f"127.0.0.1:{port}")
            status, payload = cache.get(key)
            assert (status, payload) == (MISS, None)
            assert cache.remote_invalid == 1
            assert cache.server_up() is True  # answered; not marked down
            # Nothing poisoned wrote through to the local tier.
            assert ResultCache(tmp_path / "local").get(key) == (MISS, None)
        finally:
            stop.set()
            thread.join(timeout=2)
            listener.close()


def _op_get(store, op, params):
    """A facade op's stored result through ``store``, or None."""
    return store.get(api.op_cache_key(op, params))[1]


class TestOpCache:
    """Facade-op results keyed by ``api.op_cache_key`` (what serve shards
    and the router store) through a server-only store."""

    def test_round_trip_and_stage_keying(self, server):
        ops = api.open_result_store(server=_spec(server))
        params = {"source": "(defun f (x) x)", "function": "f"}
        assert _op_get(ops, "analyze", params) is None
        ops.put(api.op_cache_key("analyze", params), PAYLOAD)
        assert _op_get(ops, "analyze", params) == PAYLOAD
        # Same params, different op → different stage key space.
        assert _op_get(ops, "transform", params) is None

    def test_never_raises_on_dead_server(self):
        ops = ResultCache(server="127.0.0.1:1", connect_timeout_s=0.2)
        assert _op_get(ops, "analyze", {"x": 1}) is None
        ops.put(api.op_cache_key("analyze", {"x": 1}),
                PAYLOAD)  # must not raise
        assert ops.stats()["remote_errors"] >= 1


class TestDriverThroughServer:
    def test_second_cold_machine_sweeps_all_hits(self, server, tmp_path):
        spec = _spec(server)
        jobs = [_probe(f"j{i}", value=i) for i in range(4)]
        cold = run_jobs(jobs, workers=0, cache_dir=tmp_path / "m1",
                        cache_server=spec)
        assert [o.cache for o in cold] == ["miss"] * 4
        warm = run_jobs(jobs, workers=0, cache_dir=tmp_path / "m2",
                        cache_server=spec)
        assert [o.cache for o in warm] == ["hit"] * 4
        assert [o.payload for o in warm] == [o.payload for o in cold]

    def test_dead_server_sweep_still_completes(self, tmp_path):
        jobs = [_probe("a", value=1)]
        outcomes = run_jobs(jobs, workers=0, cache_dir=tmp_path / "m",
                            cache_server="127.0.0.1:1")
        assert outcomes[0].ok
        assert outcomes[0].cache == "miss"


class TestServeShardSharing:
    def test_two_shards_share_one_computation(self, server):
        from repro.serve import AnalysisService, Request, ServeConfig

        spec = _spec(server)
        params = {"source": "(defun f (x) x)", "function": "f"}

        def shard():
            return AnalysisService(ServeConfig(workers=1,
                                               cache_server=spec))
        first = shard()
        try:
            a = first.handle(Request(id="a", op="analyze", params=params,
                                     deadline_ms=None))
            assert a["ok"]
            assert first.counters()["serve.cache.misses"] == 1
        finally:
            first.close()
        second = shard()
        try:
            b = second.handle(Request(id="b", op="analyze", params=params,
                                      deadline_ms=None))
            assert b["ok"]
            assert second.counters()["serve.cache.hits"] == 1
            assert b["result"] == a["result"]
        finally:
            second.close()


class _CountingServer(CacheServer):
    """A cache server that counts the connections it accepts."""

    def __init__(self, config):
        super().__init__(config)
        self.accepted = 0

    def _handle_conn(self, conn):
        with self._conn_lock:
            self.accepted += 1
        super()._handle_conn(conn)


def _serve(srv):
    srv.start()
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return srv


class TestKeptLink:
    """The link keeps its connection open across calls, retries a
    dropped one once, and never lends it to a forked child."""

    def test_one_connection_for_many_calls(self, tmp_path):
        srv = _serve(_CountingServer(
            CacheServeConfig(root=str(tmp_path / "root"))))
        try:
            ops = ResultCache(server=_spec(srv))
            for i in range(10):
                params = {"source": f"(defun f (x) {i})", "function": "f"}
                assert _op_get(ops, "analyze", params) is None
                ops.put(api.op_cache_key("analyze", params), PAYLOAD)
                assert _op_get(ops, "analyze", params) == PAYLOAD
            assert srv.accepted == 1
            assert ops.stats()["remote_errors"] == 0
            ops.close()
        finally:
            srv.stop(timeout=10)

    def test_restarted_server_is_reached_again(self, tmp_path):
        root = str(tmp_path / "root")
        first = _serve(CacheServer(CacheServeConfig(root=root)))
        host, port = first.address
        cache = ResultCache(server=f"{host}:{port}")
        key = cache_key({"k": "restart"})
        cache.put(key, PAYLOAD)
        assert cache.stats()["remote_stores"] == 1
        first.stop(timeout=10)  # drops the kept connection
        second = _serve(CacheServer(CacheServeConfig(root=root,
                                                     port=port)))
        try:
            assert cache.get(key) == (HIT, PAYLOAD)
            assert cache.remote_hits == 1
            assert cache.stats()["remote_errors"] == 0
            assert cache.server_up()
        finally:
            cache.close()
            second.stop(timeout=10)

    def test_concurrent_callers_share_the_pool(self, tmp_path):
        import sys

        srv = _serve(_CountingServer(
            CacheServeConfig(root=str(tmp_path / "root"))))
        ops = ResultCache(server=_spec(srv))
        wrong = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def caller(n):
                for i in range(15):
                    params = {"caller": n, "i": i}
                    ops.put(api.op_cache_key("analyze", params),
                            {"n": n, "i": i})
                    if _op_get(ops, "analyze", params) != {"n": n, "i": i}:
                        wrong.append((n, i))

            threads = [threading.Thread(target=caller, args=(n,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            ops.close()
            srv.stop(timeout=10)
        assert wrong == []
        assert ops.stats()["remote_errors"] == 0
        # At most one connection per concurrent caller, ever.
        assert 1 <= srv.accepted <= 8

    def test_closed_link_still_answers_without_keeping(self, server):
        link = _ServerLink(_spec(server))
        assert link.call("health", {})["ok"]
        assert len(link._idle) == 1
        link.close()
        assert link._idle == []
        assert link.call("health", {})["ok"]
        assert link._idle == []

    def test_forked_child_drops_inherited_connections(self, tmp_path):
        import multiprocessing

        srv = _serve(_CountingServer(
            CacheServeConfig(root=str(tmp_path / "root"))))
        ctx = multiprocessing.get_context("fork")
        report = ctx.Queue()
        release = ctx.Event()
        proc = None
        try:
            link = _ServerLink(_spec(srv))
            link.call("health", {})
            assert len(link._idle) == 1

            def child():
                report.put(len(link._idle))
                release.wait(10)

            proc = ctx.Process(target=child)
            proc.start()
            assert report.get(timeout=10) == 0
            # The child's close left the parent's connection working.
            assert link.call("health", {})["ok"]
            assert srv.accepted == 1
            # Closed by the parent, the connection ends at the server
            # while the child still lives: the child holds no copy.
            link.close()
            deadline = time.monotonic() + 10
            while srv._conn_threads and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not srv._conn_threads
            assert proc.is_alive()
        finally:
            release.set()
            if proc is not None:
                proc.join(timeout=10)
            srv.stop(timeout=10)


class TestConnectionThreads:
    def test_one_shot_connections_are_not_tracked(self, server):
        host, port = server.address
        for _ in range(300):
            with socket.create_connection((host, port), timeout=5) as conn:
                conn.sendall(b'{"op": "health"}\n')
                conn.makefile("rb").readline()
        deadline = time.monotonic() + 10
        while len(server._conn_threads) > 5 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(server._conn_threads) <= 5


class TestServeThroughCache:
    def test_one_key_and_one_connection_per_miss(self, tmp_path,
                                                 monkeypatch):
        from repro.serve import AnalysisService, Request, ServeConfig

        srv = _serve(_CountingServer(
            CacheServeConfig(root=str(tmp_path / "root"))))
        service = AnalysisService(ServeConfig(workers=1,
                                              cache_server=_spec(srv)))
        keys = []
        store = service._store
        compute_key = api.op_cache_key
        monkeypatch.setattr(
            api, "op_cache_key",
            lambda *a: keys.append(a) or compute_key(*a))
        try:
            params = {"source": "(defun f (x) x)", "function": "f"}
            for _ in range(2):  # a miss (get + put), then a hit
                response = service.handle(Request(id="r", op="analyze",
                                                  params=dict(params)))
                assert response["ok"]
            assert len(keys) == 2  # once per request, not per get/put
            assert service.counters()["serve.cache.hits"] == 1
            assert srv.accepted == 1
        finally:
            service.close()
            srv.stop(timeout=10)
        assert store._link._idle == []  # drain closed the link
