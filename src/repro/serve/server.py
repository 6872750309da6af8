"""A long-lived concurrent analysis service over :mod:`repro.api`.

Three layers:

* :class:`AnalysisService` — socket-free engine host: a thread pool
  over the facade with **bounded admission** (explicit ``overloaded``
  rejection once ``workers + backlog`` requests are in the house —
  never unbounded queueing), **per-request deadlines** (a waiter whose
  deadline passes gets ``deadline_exceeded``; when *every* waiter of a
  computation has given up — or every waiter's deadline has already
  expired by the time a worker picks the job up — the computation is
  cancelled before it touches the engine), **single-flight coalescing**
  (:class:`SingleFlight`: identical in-flight requests, keyed on the
  content-addressed digest of ``(op, params)``, compute once and fan
  the result out to every waiter), an optional **shared result store**
  (with ``cache_server``, one store lookup per coalesced group, then
  the engine, then a store of the success), and **graceful drain** (new
  engine work refused with ``shutting_down``; in-flight work completes
  and is delivered).

  Two executors host the actual engine call.  The default ``thread``
  executor computes inline on the pool thread — cheap, but CPU-bound
  work is GIL-serialized and an engine crash is a process crash.  The
  ``process`` executor runs :func:`engine_worker` on the worker-process
  farm (:mod:`repro.serve.pool`, the one ``repro sweep`` uses too):
  CPU-bound work escapes the GIL, a segfaulted/killed worker yields a
  typed ``engine_error`` response (:class:`WorkerCrash`, never a
  dropped connection) and is respawned, and cancellation is real — an
  abandoned computation's worker is terminated mid-flight.
* :class:`NdjsonServer` — a reusable NDJSON/TCP front: one reader
  thread per connection, one request processed per connection at a
  time, responses written in request order, graceful drain.  The shard
  router (:mod:`repro.fleet.router`) and the cache server subclass it.
* :class:`ReproServer` — the NDJSON front bound to an
  :class:`AnalysisService` (the ``repro serve`` process).

Correctness contract: a response body is exactly the facade result's
``to_dict()``, so a served answer is byte-identical (modulo ``wall``)
to a single-shot ``repro <op> --json`` invocation — the hosting layer
preserves the engine's output-equivalence guarantee *whatever the
executor*.  Coalescing is sound for the same reason the result store
is: facade calls are deterministic modulo wall, so one computation
*is* every identical computation.

Because all thread-executor requests share one process, the
:mod:`repro.perf` caches (automata derivations, interned regexes) stay
warm across requests; process-executor workers are forked from the
serving process and inherit whatever was warm at spawn time.

Observability: every server (this service, the router, the cache
server) keeps its counters in one :class:`Telemetry`.  With a recorder
attached the service emits ``serve.request`` spans on the
``PID_SERVE`` track (one lane per pool thread) and ``serve.request.*``
counters; the same counters back the ``stats`` op, which also surfaces
queue-wait aggregates (how long accepted requests sat in admission
before a worker picked them up).  Chaos mode (:mod:`repro.serve.chaos`)
injects seeded rejections and delays in front of real work to exercise
the backpressure and deadline paths.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro import api
from repro.obs.recorder import PID_SERVE
from repro.serve.chaos import FAULT_REJECT, HostFaultPlan
from repro.serve.protocol import (
    CONTROL_OPS,
    ERR_BAD_REQUEST,
    ERR_DEADLINE,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ERR_SHUTTING_DOWN,
    ERROR_CODES,
    ProtocolError,
    Request,
    encode,
    error_response,
    ok_response,
    parse_request,
)

#: Executor kinds for :class:`ServeConfig.executor`.
EXECUTOR_THREAD = "thread"
EXECUTOR_PROCESS = "process"
EXECUTORS = (EXECUTOR_THREAD, EXECUTOR_PROCESS)


@dataclass(frozen=True)
class ServeConfig:
    """Service + server configuration (the ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 → ephemeral; the bound port is printed/returned
    workers: int = 4
    backlog: int = 16  # admission beyond the workers; 429 past this
    default_deadline_ms: float = 30_000.0
    drain_timeout: float = 30.0
    executor: str = EXECUTOR_THREAD  # "thread" | "process"
    chaos: Optional[HostFaultPlan] = None
    recorder: Any = None
    #: ``host:port`` of a ``repro cache-serve`` instance.  Engine
    #: results are looked up there before computing and published
    #: after, so shards sharing one cache server warm each other.  A
    #: dead or poisoned server silently degrades to computing locally.
    cache_server: Optional[str] = None


class Flight:
    """The record of one in-flight computation in a :class:`SingleFlight`."""

    __slots__ = ("key", "event", "cancel", "waiters", "outcome",
                 "submitted", "latest_deadline")

    def __init__(self, key: str, deadline_end: float):
        self.key = key
        self.event = threading.Event()
        self.cancel = threading.Event()
        self.waiters = 1
        self.outcome: Optional[Tuple] = None
        self.submitted = time.perf_counter()
        # The latest deadline over every waiter: when it has passed,
        # nobody can still use the result — the compute is doomed.
        self.latest_deadline = deadline_end


class SingleFlight:
    """Single-flight: concurrent identical requests share one computation.

    A request joins the flight open for its key or opens one and leads
    it.  Every joined request waits for the outcome bounded by its own
    deadline, and the last waiter to give up on an unfinished flight
    sets ``flight.cancel``.  The outcome is opaque here: each waiter
    builds its own response (own request id, own wall time) from
    whatever the leader publishes.  The service and the shard router
    both coalesce through this class; whether opening a flight takes
    an admission slot is the ``admit`` callback of :meth:`join`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[str, Flight] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._flights)

    def join(self, key: str, deadline_end: float,
             admit: Optional[Callable[[], bool]] = None
             ) -> Tuple[Optional[Flight], bool]:
        """Join the flight for ``key``, or open one if ``admit()``
        (called under the table lock) allows.  Returns ``(flight,
        leader)``, or ``(None, True)`` when admission refused it."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                flight.waiters += 1
                flight.latest_deadline = max(flight.latest_deadline,
                                             deadline_end)
                return flight, False
            if admit is not None and not admit():
                return None, True
            flight = self._flights[key] = Flight(key, deadline_end)
            return flight, True

    def wait(self, flight: Flight, deadline_end: float) -> Optional[Tuple]:
        """Block until the outcome is published or ``deadline_end``
        passes; returns the outcome, or None when this waiter gave up."""
        finished = flight.event.wait(max(0.0,
                                         deadline_end - time.perf_counter()))
        with self._lock:
            flight.waiters -= 1
            if flight.waiters == 0 and not flight.event.is_set():
                # Nobody is waiting any more: cancel the compute
                # cooperatively.
                flight.cancel.set()
        return flight.outcome if finished else None

    def publish(self, flight: Flight, outcome: Tuple) -> None:
        """Retire the flight and wake every waiter with ``outcome``."""
        with self._lock:
            self._flights.pop(flight.key, None)
            flight.outcome = outcome
        flight.event.set()


class Telemetry:
    """One server's counters, span lanes and spans, under one lock.

    Counts go to the recorder (when one is attached) inside the lock,
    in the order they were made.  ``span`` names the events a server
    emits on track ``pid``, one lane per thread (:meth:`track`)."""

    def __init__(self, recorder: Any = None, span: str = "",
                 pid: int = 0):
        self.recorder = recorder
        self._span_name = span
        self._pid = pid
        self.lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._tids: Dict[int, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        with self.lock:
            self._counters[name] = self._counters.get(name, 0) + n
            if self.recorder is not None:
                self.recorder.count(name, n)

    def counters(self) -> Dict[str, int]:
        with self.lock:
            return dict(sorted(self._counters.items()))

    def track(self) -> int:
        """Dense per-thread lane id for this server's track."""
        ident = threading.get_ident()
        with self.lock:
            return self._tids.setdefault(ident, len(self._tids))

    def span(self, ph: str, tid: int, args: Optional[dict] = None) -> None:
        if self.recorder is None:
            return
        with self.lock:
            self.recorder.event(self._span_name,
                                self._span_name.partition(".")[0], ph=ph,
                                pid=self._pid, tid=tid, args=args or {})


class WorkerCrash(api.EngineError):
    """A process-executor worker died under a request, or was
    terminated because nobody waits for its answer.  A typed facade
    error (``code == "engine_error"``), so hosting layers render it as
    a structured response: crash isolation, not crash propagation."""


def engine_call(op: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Dispatch one engine op onto the facade; raises on bad params.

    Module-level (not a service method) so a process-executor worker
    (:func:`engine_worker`) executes exactly the same dispatch — the
    executors cannot drift apart semantically.
    """
    params = dict(params)
    decls = tuple(params.pop("decls", ()))
    if op == "run":
        source = _required_str(params, "source")
        expr = _required_str(params, "expr")
        options = _options(api.RunOptions, params)
        return api.run(source, expr, options, decls=decls).to_dict()
    if op == "analyze":
        source = _required_str(params, "source")
        function = _required_str(params, "function")
        assume_sapp = bool(params.pop("assume_sapp", False))
        _reject_unknown(params, "analyze")
        return api.analyze(source, function, decls=decls,
                           assume_sapp=assume_sapp).to_dict()
    if op == "transform":
        source = _required_str(params, "source")
        function = _required_str(params, "function")
        options = _options(api.TransformOptions, params)
        return api.transform(source, function, options,
                             decls=decls).to_dict()
    if op == "sweep":
        grid = _required_str(params, "grid")
        options = _options(api.SweepOptions, params)
        if options.workers != 0:
            raise api.BadRequest(
                "serve executes sweeps inline; params.workers must "
                "be 0 (the service's own pool is the concurrency)"
            )
        return api.sweep(grid, options).to_dict()
    raise api.BadRequest(f"unknown engine op {op!r}")


@contextlib.contextmanager
def engine_worker() -> Iterator[Callable[[Any], Tuple]]:
    """The process executor's worker setup: its handler runs one
    ``(op, params)`` task through :func:`engine_call` and turns every
    failure into an ``("error", code, message)`` message, so a request
    never takes the worker down."""

    def handle(task: Tuple[str, Dict[str, Any]]) -> Tuple:
        op, params = task
        try:
            return ("ok", engine_call(op, params))
        except api.ApiError as err:
            return ("error", err.code, str(err))
        except (TypeError, ValueError) as err:
            return ("error", ERR_BAD_REQUEST, f"bad params: {err}")
        except Exception as err:  # noqa: BLE001 - see the docstring
            return ("error", ERR_INTERNAL, f"{type(err).__name__}: {err}")

    yield handle


#: A process-executor worker's error code → the facade error raised for it.
_API_ERRORS = {
    "bad_request": api.BadRequest,
    "transform_refused": api.TransformRefused,
    "engine_error": api.EngineError,
    "internal": api.EngineError,
}


class AnalysisService:
    """The engine host: worker pool + admission + coalescing + drain."""

    def __init__(self, config: ServeConfig):
        if config.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {config.executor!r}; "
                f"choose from: {', '.join(EXECUTORS)}"
            )
        self.config = config
        self.telemetry = Telemetry(config.recorder, "serve.request",
                                   PID_SERVE)
        self._count = self.telemetry.count
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="repro-serve"
        )
        self._farm = None
        if config.executor == EXECUTOR_PROCESS:
            # Imported here: the thread executor never loads
            # multiprocessing.
            from repro.serve.pool import Farm

            self._farm = Farm(
                config.workers, engine_worker,
                on_respawn=lambda: self._count("serve.pool.respawns"))
        self._store = None
        if config.cache_server:
            self._store = api.open_result_store(server=config.cache_server)
        self._slots = threading.Semaphore(config.workers + config.backlog)
        self._flights = SingleFlight()
        self._queue_wait = {"count": 0, "total_ms": 0.0, "max_ms": 0.0}
        self._draining = False
        self._started = time.perf_counter()

    # -- bookkeeping -------------------------------------------------------

    def _observe_queue_wait(self, waited_ms: float) -> None:
        with self.telemetry.lock:
            stats = self._queue_wait
            stats["count"] += 1
            stats["total_ms"] += waited_ms
            stats["max_ms"] = max(stats["max_ms"], waited_ms)

    @property
    def in_flight(self) -> int:
        return len(self._flights)

    @property
    def draining(self) -> bool:
        return self._draining

    def counters(self) -> Dict[str, int]:
        return self.telemetry.counters()

    def queue_wait_stats(self) -> Dict[str, float]:
        """Aggregate admission-queue wait: how long accepted engine
        requests sat before a worker started computing them."""
        with self.telemetry.lock:
            stats = dict(self._queue_wait)
        count = stats.pop("count")
        return {
            "count": count,
            "mean_ms": round(stats["total_ms"] / count, 3) if count else 0.0,
            "max_ms": round(stats["max_ms"], 3),
        }

    # -- request handling --------------------------------------------------

    def handle(self, request: Request) -> Dict[str, Any]:
        """Serve one request; always returns a response document."""
        start = time.perf_counter()
        if request.op in CONTROL_OPS:
            self._count("serve.control")
            if request.op == "drain":
                self.begin_drain()
                body: Dict[str, Any] = {"kind": "drain",
                                        "status": "draining",
                                        "in_flight": self.in_flight}
            elif request.op == "health":
                body = self._health()
            else:
                body = self._stats()
            return ok_response(request.id, request.op, body,
                              (time.perf_counter() - start) * 1000.0)
        if self._draining:
            self._count("serve.request.shutting_down")
            return error_response(
                request.id, ERR_SHUTTING_DOWN,
                "server is draining; no new work accepted",
                (time.perf_counter() - start) * 1000.0,
            )
        delay_ms = 0.0
        if self.config.chaos is not None:
            fault = self.config.chaos.on_request()
            if fault is not None:
                self._count("serve.request.fault_injected")
                kind, value = fault
                if kind == FAULT_REJECT:
                    self._count("serve.request.rejected")
                    return error_response(
                        request.id, ERR_OVERLOADED,
                        "chaos fault: synthetic admission rejection; "
                        "retry later",
                        (time.perf_counter() - start) * 1000.0,
                        fault=kind,
                    )
                delay_ms = value
        deadline_s = (request.deadline_ms
                      if request.deadline_ms is not None
                      else self.config.default_deadline_ms) / 1000.0
        deadline_end = start + deadline_s
        key = api.content_digest({"op": request.op, "params": request.params})
        # A coalesced request joins without taking an admission slot.
        flight, leader = self._flights.join(
            key, deadline_end,
            admit=lambda: self._slots.acquire(blocking=False))
        if flight is None:
            self._count("serve.request.rejected")
            return error_response(
                request.id, ERR_OVERLOADED,
                f"admission queue full "
                f"({self.config.workers} worker(s) + "
                f"{self.config.backlog} queued); retry later",
                (time.perf_counter() - start) * 1000.0,
            )
        if leader:
            self._count("serve.request.accepted")
            self._executor.submit(self._compute, flight, request.op,
                                  dict(request.params), delay_ms)
        else:
            self._count("serve.request.coalesced")
        # A waiter whose deadline passes leaves; the last one to leave
        # cancels the compute (it checks before touching the engine,
        # and the process executor terminates a worker already
        # computing).
        outcome = self._flights.wait(flight, deadline_end)
        wall_ms = (time.perf_counter() - start) * 1000.0
        if outcome is None:
            self._count("serve.request.deadline_exceeded")
            return error_response(
                request.id, ERR_DEADLINE,
                f"deadline of {deadline_s * 1000.0:.0f}ms exceeded",
                wall_ms,
            )
        if outcome[0]:
            self._count("serve.request.ok")
            return ok_response(request.id, request.op, outcome[1], wall_ms)
        _, code, message = outcome
        self._count(f"serve.request.error.{code}")
        return error_response(request.id, code, message, wall_ms)

    # -- the pool side -----------------------------------------------------

    def _compute(self, flight: Flight, op: str, params: Dict[str, Any],
                 delay_ms: float) -> None:
        tid = self.telemetry.track()
        queued_ms = (time.perf_counter() - flight.submitted) * 1000.0
        self._observe_queue_wait(queued_ms)
        self.telemetry.span("B", tid, {"op": op, "key": flight.key[:12],
                                       "queued_ms": round(queued_ms, 3)})
        status = "ok"
        try:
            if delay_ms:
                # Chaos delay; interruptible so a cancelled flight does
                # not hold its admission slot for the full delay.
                flight.cancel.wait(delay_ms / 1000.0)
            if flight.cancel.is_set():
                status = "cancelled"
                self._count("serve.request.cancelled")
                outcome: Tuple = (False, ERR_DEADLINE,
                                  "cancelled before execution: every "
                                  "waiter's deadline expired")
            elif time.perf_counter() >= flight.latest_deadline:
                # Doomed while queued: every waiter's deadline already
                # passed, so computing would burn a worker on a result
                # nobody can receive.
                status = "expired_in_queue"
                self._count("serve.request.cancelled")
                self._count("serve.request.expired_in_queue")
                outcome = (False, ERR_DEADLINE,
                           "not executed: request deadline expired "
                           "while queued in admission")
            elif self._store is None:
                outcome = (True, self._engine_call(op, params,
                                                   flight.cancel))
            else:
                # One store round trip per coalesced group, inside the
                # flight: a hit still holds this flight's slot.
                def miss() -> Dict[str, Any]:
                    self._count("serve.cache.misses")
                    return self._engine_call(op, params, flight.cancel)

                result, _, tier = self._store.get_or_compute(
                    api.op_cache_key(op, params), miss)
                if tier is not None:
                    self._count("serve.cache.hits")
                outcome = (True, result)
        except api.ApiError as err:
            status = err.code
            code = err.code if err.code in ERROR_CODES else ERR_INTERNAL
            outcome = (False, code, str(err))
        except (TypeError, ValueError) as err:
            status = ERR_BAD_REQUEST
            outcome = (False, ERR_BAD_REQUEST, f"bad params: {err}")
        except Exception as err:  # noqa: BLE001 - a request must never
            status = ERR_INTERNAL  # take the pool down
            outcome = (False, ERR_INTERNAL,
                       f"{type(err).__name__}: {err}")
        finally:
            self._flights.publish(flight, outcome)
            self._slots.release()
            self.telemetry.span("E", tid, {"op": op, "status": status})

    def _engine_call(self, op: str, params: Dict[str, Any],
                     cancel: threading.Event) -> Dict[str, Any]:
        """Execute the engine op on the configured executor; raises
        the facade's typed errors, plus :class:`WorkerCrash` when a
        process-executor worker died or was cancelled under it."""
        if self._farm is None:
            return engine_call(op, params)
        from repro.serve.pool import CANCELLED, CRASHED

        kind, value = self._farm.call((op, dict(params)), cancel=cancel)
        if kind == CRASHED:
            self._count("serve.pool.crashes")
            raise WorkerCrash(
                f"worker process (pid {value}) died while computing "
                f"{op!r}; worker respawned, request failed with no "
                "partial effects")
        if kind == CANCELLED:
            # Nobody is waiting, but the answer stays typed.
            self._count("serve.pool.cancelled_kills")
            raise WorkerCrash("cancelled mid-computation: every waiter's "
                              "deadline expired; worker terminated")
        if value[0] == "ok":
            return value[1]
        _, code, message = value
        raise _API_ERRORS.get(code, api.EngineError)(message)

    def _health(self) -> Dict[str, Any]:
        return {
            "kind": "health",
            "status": "draining" if self._draining else "ok",
            "in_flight": self.in_flight,
        }

    def _stats(self) -> Dict[str, Any]:
        from repro.perf import cache_stats

        perf = {
            name: {"hits": stats["hits"], "misses": stats["misses"]}
            for name, stats in sorted(cache_stats().items())
            if stats["hits"] + stats["misses"]
        }
        body: Dict[str, Any] = {
            "kind": "stats",
            "status": "draining" if self._draining else "ok",
            "executor": self.config.executor,
            "workers": self.config.workers,
            "backlog": self.config.backlog,
            "default_deadline_ms": self.config.default_deadline_ms,
            "in_flight": self.in_flight,
            "counters": self.counters(),
            "queue_wait": self.queue_wait_stats(),
            "perf_caches": perf,
            "uptime_s": round(time.perf_counter() - self._started, 3),
        }
        if self.config.chaos is not None:
            body["chaos"] = self.config.chaos.describe()
        return body

    # -- lifecycle ---------------------------------------------------------

    def begin_drain(self) -> None:
        """Refuse new engine work; in-flight work keeps running."""
        self._draining = True

    def drain(self) -> None:
        """Block until every in-flight computation has completed."""
        self.begin_drain()
        self._executor.shutdown(wait=True)
        if self._farm is not None:
            self._farm.close()
        if self._store is not None:
            self._store.close()

    def close(self) -> None:
        self.drain()


def _required_str(params: Dict[str, Any], name: str) -> str:
    value = params.pop(name, None)
    if not isinstance(value, str) or not value:
        raise api.BadRequest(f"params.{name} (string) is required")
    return value


def _options(cls, params: Dict[str, Any]):
    """Build a facade options dataclass from the remaining params."""
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = [k for k in params if k not in known]
    if unknown:
        raise api.BadRequest(
            f"unknown param(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    coerced = dict(params)
    if "transform" in coerced and isinstance(coerced["transform"], list):
        coerced["transform"] = tuple(coerced["transform"])
    try:
        return cls(**coerced)
    except TypeError as err:
        raise api.BadRequest(f"bad params: {err}") from None


def _reject_unknown(params: Dict[str, Any], op: str) -> None:
    if params:
        raise api.BadRequest(
            f"unknown param(s) for {op}: {', '.join(sorted(params))}"
        )


class NdjsonServer:
    """A reusable NDJSON/TCP front: accept loop, one reader thread per
    connection, graceful drain.  Subclasses implement
    :meth:`handle_request` (and may override the drain hooks)."""

    _ACCEPT_POLL = 0.2

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 drain_timeout: float = 30.0):
        self._host = host
        self._port = port
        self._drain_timeout = drain_timeout
        self._sock = None
        self._drain_requested = threading.Event()
        self._drained = threading.Event()
        # Live connection threads; each removes itself when its
        # connection closes, so drain joins only the open ones.
        self._conn_threads: set = set()
        self._conn_lock = threading.Lock()

    # -- subclass hooks ----------------------------------------------------

    def handle_request(self, request: Request) -> Dict[str, Any]:
        """Serve one parsed request; must return a response document."""
        raise NotImplementedError

    def on_bad_request(self) -> None:
        """Counter hook for unparseable lines."""

    def on_drain_begin(self) -> None:
        """Runs when drain starts, before connections are joined —
        refuse new work here so a chatty client cannot stall drain."""

    def on_drain(self) -> None:
        """Release subclass resources; runs after connections drain."""

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) actually bound; valid after :meth:`start`."""
        assert self._sock is not None, "server not started"
        return self._sock.getsockname()[:2]

    def start(self) -> Tuple[str, int]:
        import socket

        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(64)
        sock.settimeout(self._ACCEPT_POLL)
        self._sock = sock
        return self.address

    def request_drain(self) -> None:
        """Ask the accept loop to stop and drain; idempotent, safe from
        signal handlers and other threads."""
        self._drain_requested.set()

    def serve_forever(self) -> None:
        """Accept connections until drain is requested, then drain:
        stop accepting, finish and deliver in-flight work, and return."""
        import socket as socket_mod

        if self._sock is None:
            self.start()
        try:
            while not self._drain_requested.is_set():
                try:
                    conn, _addr = self._sock.accept()
                except socket_mod.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._handle_conn, args=(conn,), daemon=True
                )
                with self._conn_lock:
                    self._conn_threads.add(thread)
                thread.start()
        finally:
            self._drain()

    def _drain(self) -> None:
        self.on_drain_begin()
        deadline = time.monotonic() + self._drain_timeout
        with self._conn_lock:
            threads = list(self._conn_threads)
        for thread in threads:
            if thread is not threading.current_thread():
                thread.join(max(0.0, deadline - time.monotonic()))
        self.on_drain()
        if self._sock is not None:
            self._sock.close()
        self._drained.set()

    def stop(self, timeout: Optional[float] = None) -> bool:
        """Request drain and wait for :meth:`serve_forever` to finish
        (for embedders running it on another thread)."""
        self.request_drain()
        return self._drained.wait(timeout)

    # -- connections -------------------------------------------------------

    def _handle_conn(self, conn) -> None:
        import socket as socket_mod

        conn.settimeout(self._ACCEPT_POLL)
        buf = b""
        try:
            while True:
                try:
                    chunk = conn.recv(65536)
                except socket_mod.timeout:
                    if self._drain_requested.is_set():
                        break
                    continue
                except OSError:
                    break
                if not chunk:
                    break
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    response = self._process_line(line)
                    if response:
                        try:
                            conn.sendall(response)
                        except OSError:
                            return
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._conn_lock:
                self._conn_threads.discard(threading.current_thread())

    def _process_line(self, line: bytes) -> bytes:
        text = line.decode("utf-8", errors="replace").strip()
        if not text:
            return b""
        try:
            request = parse_request(text)
        except ProtocolError as err:
            self.on_bad_request()
            return encode(error_response(err.request_id, ERR_BAD_REQUEST,
                                         str(err)))
        return encode(self.handle_request(request))


class ReproServer(NdjsonServer):
    """The NDJSON/TCP front over an :class:`AnalysisService`."""

    def __init__(self, config: ServeConfig = ServeConfig()):
        super().__init__(host=config.host, port=config.port,
                         drain_timeout=config.drain_timeout)
        self.config = config
        self.service = AnalysisService(config)

    def handle_request(self, request: Request) -> Dict[str, Any]:
        if request.op == "drain":
            # A remote drain stops the accept loop too (the service
            # refuses new engine work the moment handle() sees the op).
            response = self.service.handle(request)
            self.request_drain()
            return response
        return self.service.handle(request)

    def on_bad_request(self) -> None:
        self.service._count("serve.request.bad_request")

    def on_drain_begin(self) -> None:
        self.service.begin_drain()

    def on_drain(self) -> None:
        self.service.drain()
