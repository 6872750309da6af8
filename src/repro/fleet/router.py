"""The shard router: ``repro route``.

An NDJSON/TCP front (the same wire protocol as ``repro serve``) that
owns no engine of its own — it consistent-hashes each engine request
across a fleet of ``repro serve`` backends and absorbs their failures.
Per request, in order:

1. **Memory tier** — with ``cache_size`` > 0 the request's store key
   is looked up in the bounded in-memory tier of the router's result
   store (:func:`repro.api.open_result_store`).  Sound for the same
   reason single-flight coalescing is: facade calls are deterministic
   modulo ``wall``, so a previous answer *is* this answer.
2. **Single-flight** — concurrent identical requests coalesce onto one
   in-flight route (:class:`~repro.serve.server.SingleFlight`, keyed on
   the request's content digest): the first arrival (the *leader*)
   does the work, every other arrival blocks on the flight (bounded by
   its own deadline) and is answered from the leader's outcome.
   Without this, a cold popular key is a stampede: N identical waiters
   fan out as N backend calls that all compute the same thing.
3. **Server tier** — with ``--cache-server`` configured, the flight
   leader looks the store key up on the fleet-shared cache server
   before touching a backend.  A success is stored in every tier, so
   one shard's computation warms every peer.  Store keys carry the
   op's stage fingerprint, computed when the store is opened.
4. **Ring** — :class:`~repro.fleet.ring.HashRing` maps the digest to a
   failover itinerary (owner first, then each surviving backend once).
5. **Breakers** — backends whose circuit breaker refuses admission are
   skipped without a connect attempt.
6. **Send, retry** — transport failures (connect/timeout/closed) and
   explicit pressure (``overloaded`` / ``shutting_down``) move to the
   next backend after a jittered backoff
   (:class:`~repro.fleet.retry.RetryPolicy`); definitive outcomes
   (``bad_request``, ``engine_error``, ...) are returned as-is, never
   retried.  Transport failures feed the breaker; pressure responses
   do not (a server that says "overloaded" is alive and correct).
7. **Fallback** — when no backend could answer, the router degrades to
   *sequential in-process* execution over :mod:`repro.api` (one at a
   time, under a lock — a limping fleet, not a dead one).  With
   fallback disabled it returns the ``unavailable`` error instead.

Draining: the ``drain`` control op with ``params.backend`` bleeds one
backend out of the ring — membership changes first, then the backend
itself is asked to drain, so stragglers racing the membership change
get ``shutting_down`` and retry onto the new owner.  Without
``params.backend`` the router itself drains, and like every server on
the shell (:class:`~repro.serve.server.NdjsonServer`) answers new work
with ``shutting_down`` from then on.

Rejoining: with ``auto_rejoin`` (the default) a bled backend stays on
the health prober's schedule.  Once the prober has seen it *down* and
then *healthy* again — i.e. the process actually went away and a new
one answers on that address — the router re-adds it to the ring
automatically (``fleet.backend.rejoined``).  The down-transition gate
matters: a backend bled for rebalancing (``stop_backend=False``) keeps
answering probes, and must not be snapped straight back into the ring
by its next healthy probe.

The connection front is a single event-loop thread (selector-based),
not thread-per-connection: memory-tier hits and cheap control ops are
answered inline, in strict arrival order — which keeps the hot-path
latency distribution flat — while everything else is dispatched to a
small pool of routing threads (they block on the cache server, backend
sockets, backoff sleeps and the sequential fallback).  The event loop
answers a hit with the payload its one lookup returned, so no backend
call ever runs on it.  Responses to pipelined requests on one
connection may be answered out of order; responses carry the request
``id``.

Every decision is observable: ``fleet.*`` counters, and with a
recorder attached, ``fleet.request`` spans on the ``PID_FLEET`` track
(one lane per serving thread) whose args carry the route taken, all
kept in one :class:`~repro.serve.server.Telemetry`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from random import Random
from typing import Any, Dict, List, Optional, Tuple

from repro import api
from repro.fleet.breaker import CircuitBreaker
from repro.fleet.client import BackendClient, BackendError
from repro.fleet.health import HealthProber
from repro.fleet.retry import RetryPolicy, retryable_code
from repro.fleet.ring import HashRing
from repro.obs.recorder import PID_FLEET
from repro.serve.chaos import FAULT_BLACKHOLE, FAULT_SLOW, HostFaultPlan
from repro.serve.protocol import (
    CONTROL_OPS,
    ERR_BAD_REQUEST,
    ERR_DEADLINE,
    ERR_INTERNAL,
    ERR_UNAVAILABLE,
    ERROR_CODES,
    Request,
    encode,
    error_response,
    ok_response,
)
from repro.serve.server import (
    Flight,
    NdjsonServer,
    SingleFlight,
    engine_outcome,
    outcome_response,
)


def parse_backend(spec: str) -> Tuple[str, str, int]:
    """``"host:port"`` → (name, host, port); name is the spec itself."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"backend must be host:port, got {spec!r}")
    return spec, host, int(port)


@dataclass(frozen=True)
class RouterConfig:
    """Router topology + policy (the ``repro route`` flags)."""

    host: str = "127.0.0.1"
    port: int = 0
    backends: Tuple[str, ...] = ()  # "host:port" specs
    vnodes: int = 64
    connect_timeout_s: float = 1.0
    request_timeout_s: float = 30.0  # transport cap per attempt
    default_deadline_ms: float = 30_000.0
    attempts: int = 3
    retry_base_delay_s: float = 0.05
    retry_max_delay_s: float = 2.0
    seed: int = 0  # retry jitter RNG
    breaker_failure_threshold: int = 3
    breaker_cooldown_s: float = 0.5
    breaker_max_cooldown_s: float = 30.0
    breaker_probe_budget: int = 1
    probe_interval_s: float = 0.5
    probe_max_interval_s: float = 10.0
    fallback: bool = True
    cache_size: int = 256  # memory-tier results; 0 disables
    cache_server: Optional[str] = None  # fleet-shared "host:port" store
    auto_rejoin: bool = True  # re-ring bled backends seen down → healthy
    io_workers: int = 16  # threads for cache-miss routing
    drain_timeout: float = 30.0
    chaos: Optional[HostFaultPlan] = None
    recorder: Any = None


class _Backend:
    """One fleet member: client + breaker + send accounting."""

    __slots__ = ("client", "breaker", "sent", "ok", "failed")

    def __init__(self, client: BackendClient, breaker: CircuitBreaker):
        self.client = client
        self.breaker = breaker
        self.sent = 0
        self.ok = 0
        self.failed = 0


class _Drained:
    """A bled backend held for auto-rejoin: still probed, out of the
    ring until the prober sees it go down and come back healthy."""

    __slots__ = ("backend", "went_down")

    def __init__(self, backend: "_Backend"):
        self.backend = backend
        self.went_down = False


class _Conn:
    """One accepted connection on the event-loop front."""

    __slots__ = ("sock", "buf", "lock")

    def __init__(self, sock):
        self.sock = sock
        self.buf = bytearray()
        self.lock = threading.Lock()  # serializes interleaved replies


class ShardRouter(NdjsonServer):
    """The self-healing NDJSON front over a fleet of backends."""

    def __init__(self, config: RouterConfig = RouterConfig()):
        super().__init__(config, "fleet.request", PID_FLEET,
                         chaos=config.chaos)
        self._ring = HashRing(vnodes=config.vnodes)
        self._backends: Dict[str, _Backend] = {}
        self._members_lock = threading.Lock()
        self._retry = RetryPolicy(
            attempts=config.attempts,
            base_delay_s=config.retry_base_delay_s,
            max_delay_s=config.retry_max_delay_s,
            rng=Random(config.seed),
        )
        self._flights = SingleFlight()
        self._drained_members: Dict[str, _Drained] = {}
        self._store = None
        if config.cache_size > 0 or config.cache_server:
            self._store = api.open_result_store(
                server=config.cache_server, memory_size=config.cache_size)
            # Store keys hash the stage fingerprints: compute them here,
            # never on the event loop.
            api.engine_fingerprints()
        self._fallback_lock = threading.Lock()
        for spec in config.backends:
            self.add_backend(spec)
        self._prober = HealthProber(
            clients={name: b.client for name, b in self._backends.items()},
            breakers={name: b.breaker for name, b in self._backends.items()},
            interval_s=config.probe_interval_s,
            max_interval_s=config.probe_max_interval_s,
            probe_timeout_s=config.connect_timeout_s,
            on_change=self._on_health_change,
        )

    # -- membership --------------------------------------------------------

    def add_backend(self, spec: str) -> None:
        name, host, port = parse_backend(spec)
        with self._members_lock:
            if name in self._backends:
                return
            held = self._drained_members.pop(name, None)
            if held is not None:
                # Manual re-add of a bled member: restore the held
                # backend (its breaker history included) as-is.
                self._backends[name] = held.backend
                self._ring.add(name)
                return
            client = BackendClient(
                name, host, port,
                connect_timeout_s=self.config.connect_timeout_s)
            breaker = CircuitBreaker(
                failure_threshold=self.config.breaker_failure_threshold,
                cooldown_s=self.config.breaker_cooldown_s,
                max_cooldown_s=self.config.breaker_max_cooldown_s,
                probe_budget=self.config.breaker_probe_budget,
                on_transition=self._breaker_transition(name),
            )
            self._backends[name] = _Backend(client, breaker)
            self._ring.add(name)

    def bleed_backend(self, name: str,
                      stop_backend: bool = True) -> Dict[str, Any]:
        """Graceful drain: remove a backend from the ring, then (by
        default) ask the backend process itself to drain and exit.

        Ring first, backend second: requests racing the change get
        ``shutting_down`` from the backend, which is retryable, and
        land on the ring's new owner.

        With ``auto_rejoin`` the bled member is *not* forgotten by the
        health prober: it is parked in ``_drained``, and once a probe
        sees it down and a later probe finds it healthy again (a fresh
        process on the same address), :meth:`_on_health_change` re-adds
        it to the ring.
        """
        with self._members_lock:
            backend = self._backends.pop(name, None)
            self._ring.remove(name)
            if backend is not None and self.config.auto_rejoin:
                self._drained_members[name] = _Drained(backend)
        if backend is None or not self.config.auto_rejoin:
            self._prober.forget(name)
        if backend is None:
            return {"kind": "drain", "status": "unknown-backend",
                    "backend": name, "ring": self.ring_members()}
        self._count("fleet.backend.drained")
        status = "bled"
        if stop_backend:
            try:
                backend.client.call("drain", timeout_s=2.0)
                status = "bled+stopped"
            except (BackendError, ValueError):
                status = "bled (backend unreachable)"
        return {"kind": "drain", "status": status, "backend": name,
                "ring": self.ring_members()}

    def ring_members(self) -> List[str]:
        with self._members_lock:
            return self._ring.members

    # -- observability -----------------------------------------------------

    def _breaker_transition(self, name: str):
        def on_transition(frm: str, to: str) -> None:
            del frm
            self._count(f"fleet.breaker.{to}")
        del name
        return on_transition

    def _on_health_change(self, name: str, healthy: bool) -> None:
        self._count("fleet.health.up" if healthy else "fleet.health.down")
        if not self.config.auto_rejoin:
            return
        rejoined = False
        with self._members_lock:
            held = self._drained_members.get(name)
            if held is None:
                return
            if not healthy:
                # The bled process actually went away; the next healthy
                # probe is a *new* process and may rejoin.
                held.went_down = True
            elif held.went_down and name not in self._backends:
                self._drained_members.pop(name, None)
                self._backends[name] = held.backend
                self._ring.add(name)
                rejoined = True
        if rejoined:
            self._count("fleet.backend.rejoined")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        address = super().start()
        self._prober.start()
        return address

    def close(self) -> None:
        self._prober.stop()
        if self._store is not None:
            self._store.close()

    # -- the event-loop front ----------------------------------------------
    #
    # Unlike the engine server (thread per connection; requests *block*
    # on engine work), the router's hot path — a memory-tier hit — is a
    # pure in-memory lookup.  Serving it from a single event-loop thread
    # answers hits in strict arrival order, which keeps the latency
    # distribution flat: no herd of connection threads racing for the
    # interpreter, no request overtaken N times by later arrivals.
    # Everything else (which blocks on the cache server, backend
    # sockets, backoff sleeps and the sequential fallback) is handed to
    # a small pool of routing threads; their replies are written back
    # under a per-connection lock.  Pipelined requests on one
    # connection may therefore be answered out of order — responses
    # carry the request ``id``.

    def serve_forever(self) -> None:
        """Accept and serve connections on one event-loop thread until
        drain is requested, then drain: stop accepting, let dispatched
        routing work finish and deliver, and return."""
        import selectors
        from concurrent.futures import ThreadPoolExecutor

        if self._sock is None:
            self.start()
        selector = selectors.DefaultSelector()
        selector.register(self._sock, selectors.EVENT_READ, None)
        conns: Dict[Any, _Conn] = {}
        pool = ThreadPoolExecutor(max_workers=self.config.io_workers,
                                  thread_name_prefix="route-io")
        try:
            while not self._drain_requested.is_set():
                for key, _events in selector.select(self._ACCEPT_POLL):
                    if key.data is None:
                        self._accept_conn(selector, conns)
                    else:
                        self._service_conn(selector, conns, key.data, pool)
        finally:
            # In-flight routed work completes and replies before the
            # connections close: a drain is graceful, not a reset.
            pool.shutdown(wait=True)
            for conn in conns.values():
                try:
                    conn.sock.close()
                except OSError:
                    pass
            selector.close()
            self._drain()

    def _accept_conn(self, selector, conns) -> None:
        try:
            sock, _addr = self._sock.accept()
        except OSError:
            return
        sock.setblocking(True)  # reads are readiness-gated via the selector
        conn = _Conn(sock)
        conns[sock] = conn
        import selectors

        selector.register(sock, selectors.EVENT_READ, conn)

    def _service_conn(self, selector, conns, conn: _Conn, pool) -> None:
        try:
            chunk = conn.sock.recv(65536)
        except OSError:
            chunk = b""
        if not chunk:
            selector.unregister(conn.sock)
            conns.pop(conn.sock, None)
            try:
                conn.sock.close()
            except OSError:
                pass
            return
        conn.buf.extend(chunk)
        while b"\n" in conn.buf:
            line, _, rest = bytes(conn.buf).partition(b"\n")
            conn.buf[:] = rest
            self._dispatch_line(conn, line, pool)

    def _dispatch_line(self, conn: _Conn, line: bytes, pool) -> None:
        start = time.perf_counter()
        request, answer = self._parse_line(line)
        if request is None:
            if answer:
                self._reply(conn, answer)
            return
        if request.op in CONTROL_OPS or self.draining:
            if request.op == "drain" and request.params.get("backend"):
                # Bleeding a backend round-trips to it; off the loop.
                pool.submit(self._control_reply, conn, request)
            else:
                self._reply(conn, encode(self.handle(request)))
            return
        keys = self._keys(request)
        cached = self._remembered(keys[1])
        if cached is not None:
            # Answered with the payload this one lookup returned: an
            # eviction right after it cannot send the route to the
            # backends from this thread.
            self._reply(conn, encode(self._route(request, keys, start,
                                                 cached)))
        else:
            pool.submit(self._routed_reply, conn, request, keys, start)

    def _control_reply(self, conn: _Conn, request: Request) -> None:
        self._reply(conn, encode(self.handle(request)))

    def _routed_reply(self, conn: _Conn, request: Request,
                      keys: Tuple[str, Optional[str]], start: float) -> None:
        try:
            payload = encode(self._route(request, keys, start))
        except Exception as err:  # noqa: BLE001 — never lose a reply
            self._count(f"fleet.request.error.{ERR_INTERNAL}")
            payload = encode(error_response(
                request.id, ERR_INTERNAL,
                f"{type(err).__name__}: {err}"))
        self._reply(conn, payload)

    def _reply(self, conn: _Conn, payload: bytes) -> None:
        try:
            with conn.lock:
                conn.sock.sendall(payload)
        except OSError:
            pass  # client went away; the route already ran

    # -- request handling --------------------------------------------------

    def handle(self, request: Request) -> Dict[str, Any]:
        backend = request.params.get("backend")
        if request.op != "drain" or backend is None:
            return super().handle(request)
        # A drain with params.backend bleeds that backend; the router
        # itself keeps serving.
        start = time.perf_counter()
        self._count("fleet.control")
        if not isinstance(backend, str):
            return error_response(
                request.id, ERR_BAD_REQUEST,
                "params.backend must be a host:port string")
        return ok_response(request.id, "drain", self.bleed_backend(backend),
                           (time.perf_counter() - start) * 1000.0)

    def handle_op(self, request: Request, start: float) -> Dict[str, Any]:
        return self._route(request, self._keys(request), start)

    def control_fields(self, op: str) -> Dict[str, Any]:
        ring = self.ring_members()
        if op == "drain":
            return {"ring": ring}
        probes = self._prober.snapshot()
        with self._members_lock:
            members = sorted(self._backends.items())
            if op == "health":
                backends = {
                    name: {"breaker": backend.breaker.state,
                           "healthy": probes.get(name, {}).get("healthy")}
                    for name, backend in members
                }
            else:
                backends = {
                    name: {"breaker": backend.breaker.snapshot(),
                           "probe": probes.get(name),
                           "sent": backend.sent,
                           "ok": backend.ok,
                           "failed": backend.failed}
                    for name, backend in members
                }
            drained = sorted(self._drained_members)
        fields: Dict[str, Any] = {"role": "router", "ring": ring,
                                  "backends": backends, "drained": drained}
        if op == "stats":
            entries = len(self._store) if self._store is not None else 0
            fields.update(
                vnodes=self.config.vnodes,
                attempts=self.config.attempts,
                fallback=self.config.fallback,
                cache={"size": self.config.cache_size, "entries": entries},
            )
            if self.config.cache_server:
                fields["shared_cache"] = {
                    "server": self.config.cache_server,
                    **self._store.stats(),
                }
        return fields

    # -- the routing core --------------------------------------------------

    def _route(self, request: Request, keys: Tuple[str, Optional[str]],
               start: float,
               cached: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        # ``start`` is when the request line was parsed (so time queued
        # behind the routing pool counts against the deadline);
        # ``cached`` is a payload the event loop already read from the
        # memory tier.
        tid = self.telemetry.track()
        self.telemetry.span("B", tid, {"op": request.op,
                                       "key": keys[0][:12]})
        route = "?"
        try:
            response, route = self._route_inner(request, keys, start,
                                                cached)
            return response
        finally:
            self.telemetry.span("E", tid, {"op": request.op,
                                           "route": route})

    def _keys(self, request: Request) -> Tuple[str, Optional[str]]:
        """The request's content digest (flights and the ring) and, when
        the router has a store, its store key."""
        digest = api.content_digest({"op": request.op,
                                     "params": request.params})
        if self._store is None:
            return digest, None
        return digest, api.op_cache_key(request.op, request.params)

    def _remembered(self, store_key: Optional[str]
                    ) -> Optional[Dict[str, Any]]:
        """The memory tier's payload for ``store_key``, in one step."""
        if self._store is None:
            return None
        return self._store.lookup(store_key, ("memory",))[1]

    def _deadline_s(self, request: Request) -> float:
        return (request.deadline_ms if request.deadline_ms is not None
                else self.config.default_deadline_ms) / 1000.0

    def _route_inner(self, request: Request, keys: Tuple[str, Optional[str]],
                     start: float, cached: Optional[Dict[str, Any]]
                     ) -> Tuple[Dict[str, Any], str]:
        key, store_key = keys
        if cached is None:
            cached = self._remembered(store_key)
        if cached is not None:
            self._count("fleet.cache.hits")
            self._count("fleet.request.ok")
            wall_ms = (time.perf_counter() - start) * 1000.0
            return (ok_response(request.id, request.op, cached, wall_ms),
                    "cache")
        self._count("fleet.cache.misses")
        flight, leader = self._flights.join(
            key, start + self._deadline_s(request))
        if not leader:
            return self._await_flight(flight, request, start)
        # The flight leader: one server-tier lookup and at most one
        # backend route feed every concurrent identical waiter.  The
        # outcome is published (and the flight retired) even if
        # routing raises — waiters must never hang.
        outcome: Tuple = ("error", ERR_INTERNAL, "route leader crashed")
        route = "leader-crash"
        try:
            shared = None
            if self.config.cache_server:
                shared = self._store.lookup(store_key, ("server",))[1]
                self._count("fleet.shared_cache.misses" if shared is None
                            else "fleet.shared_cache.hits")
            if shared is not None:
                self._count("fleet.request.ok")
                outcome, route = ("ok", shared), "shared-cache"
            else:
                outcome, route = self._route_backends(request, key, start)
                if outcome[0] == "ok" and self._store is not None:
                    self._store.put(store_key, outcome[1])
        finally:
            self._flights.publish(flight, outcome)
        return (outcome_response(request, outcome, start), route)

    def _await_flight(self, flight: Flight, request: Request,
                      start: float) -> Tuple[Dict[str, Any], str]:
        """A coalesced waiter: block — bounded by *this* request's own
        deadline — for the leader's outcome, then answer with this
        request's id.  A leader that hits its deadline propagates
        ``deadline_exceeded`` to its waiters; they were asking the
        same question and would have met the same fate."""
        self._count("fleet.request.coalesced")
        deadline_s = self._deadline_s(request)
        outcome = self._flights.wait(flight, start + deadline_s)
        if outcome is None:
            self._count("fleet.request.deadline_exceeded")
            return (error_response(
                request.id, ERR_DEADLINE,
                f"deadline of {deadline_s * 1000.0:.0f}ms exceeded while "
                "waiting on a coalesced in-flight route",
                (time.perf_counter() - start) * 1000.0),
                "coalesced:deadline")
        if outcome[0] == "ok":
            self._count("fleet.request.ok")
        else:
            self._count(f"fleet.request.error.{outcome[1]}")
        route = "coalesced" if outcome[0] == "ok" \
            else f"coalesced:{outcome[1]}"
        return (outcome_response(request, outcome, start), route)

    def _route_backends(self, request: Request, key: str,
                        start: float) -> Tuple[Tuple, str]:
        deadline_s = self._deadline_s(request)
        deadline_end = start + deadline_s
        with self._members_lock:
            itinerary = self._ring.lookup(key)
        failures: List[str] = []
        retries = 0
        for position, name in enumerate(itinerary):
            if retries >= self._retry.attempts:
                break
            with self._members_lock:
                backend = self._backends.get(name)
            if backend is None:
                continue  # bled from the ring after the lookup
            if not backend.breaker.allow():
                self._count("fleet.route.breaker_skips")
                failures.append(f"{name}: breaker open")
                continue
            remaining = deadline_end - time.perf_counter()
            if remaining <= 0:
                self._count("fleet.request.deadline_exceeded")
                return (("error", ERR_DEADLINE,
                         f"deadline of {deadline_s * 1000.0:.0f}ms exceeded "
                         f"while routing "
                         f"(tried: {'; '.join(failures) or 'none'})"),
                        "deadline")
            if position > 0:
                self._count("fleet.route.failovers")
            outcome = self._send(backend, request, remaining)
            kind = outcome[0]
            if kind == "ok":
                self._count("fleet.request.ok")
                return (("ok", outcome[1]),
                        name if position == 0 else f"failover:{name}")
            if kind == "definitive":
                code, message = outcome[1], outcome[2]
                self._count(f"fleet.request.error.{code}")
                return (("error", code, message), f"{name}:{code}")
            # Retryable (transport failure or pressure): back off with
            # jitter before the next backend, budget permitting.
            failures.append(f"{name}: {outcome[1]}")
            if self._retry.should_retry(retries):
                delay = self._retry.delay_s(retries)
                self._count("fleet.route.retries")
                if deadline_end - time.perf_counter() > delay:
                    time.sleep(delay)
            retries += 1
        return self._degrade(request, failures)

    def _send(self, backend: _Backend, request: Request,
              remaining_s: float) -> Tuple:
        """One attempt against one backend.

        Returns ``("ok", result)``, ``("definitive", code, message)``,
        or ``("retryable", why)``.  Transport failures feed the
        breaker; protocol responses of any kind count as the backend
        being alive (success for the breaker's purposes).
        """
        name = backend.client.name
        if self.config.chaos is not None:
            fault = self.config.chaos.on_request()
            if fault is not None:
                kind, value = fault
                if kind == FAULT_BLACKHOLE:
                    # Synthetic connect failure: consumed without
                    # touching the network, but fed to the breaker like
                    # the real thing.
                    self._count("fleet.fault.blackhole")
                    backend.breaker.record_failure()
                    with self._members_lock:
                        backend.failed += 1
                    return ("retryable", "chaos blackhole (synthetic "
                                         "connect failure)")
                if kind == FAULT_SLOW:
                    self._count("fleet.fault.slow")
                    time.sleep(min(value / 1000.0, max(0.0, remaining_s)))
        timeout_s = min(remaining_s, self.config.request_timeout_s)
        with self._members_lock:
            backend.sent += 1
        try:
            response = backend.client.call(
                request.op, request.params, request_id=request.id,
                deadline_ms=remaining_s * 1000.0, timeout_s=timeout_s)
        except BackendError as err:
            self._count(f"fleet.transport.{err.kind}")
            backend.breaker.record_failure()
            with self._members_lock:
                backend.failed += 1
            return ("retryable", f"transport {err.kind}")
        except ValueError as err:
            # Unparseable response line: treat like a mid-exchange close.
            self._count("fleet.transport.garbled")
            backend.breaker.record_failure()
            with self._members_lock:
                backend.failed += 1
            return ("retryable", f"garbled response: {err}")
        backend.breaker.record_success()
        if response.get("ok"):
            with self._members_lock:
                backend.ok += 1
            return ("ok", response.get("result", {}))
        error = response.get("error") or {}
        code = error.get("code", ERR_INTERNAL)
        message = error.get("message", "backend error")
        if code not in ERROR_CODES:
            code = ERR_INTERNAL
        if retryable_code(code):
            self._count(f"fleet.pressure.{code}")
            with self._members_lock:
                backend.failed += 1
            return ("retryable", f"pressure: {code}")
        return ("definitive", code, f"[{name}] {message}")

    def _degrade(self, request: Request,
                 failures: List[str]) -> Tuple[Tuple, str]:
        """Every backend failed (or none exist): fall back or refuse."""
        tried = "; ".join(failures) if failures else "no backends in ring"
        if not self.config.fallback:
            self._count("fleet.request.unavailable")
            return (("error", ERR_UNAVAILABLE,
                     f"no backend available ({tried}) and sequential "
                     "fallback is disabled"), "unavailable")
        self._count("fleet.fallback")
        # Sequential on purpose: the router host is the last line of
        # defense, not a second fleet — one request at a time bounds
        # the blast radius of a total backend outage.
        with self._fallback_lock:
            outcome = engine_outcome(request.op, request.params)
        if outcome[0] == "ok":
            self._count("fleet.request.ok")
            return outcome, "fallback"
        self._count(f"fleet.request.error.{outcome[1]}")
        return outcome, f"fallback:{outcome[1]}"
