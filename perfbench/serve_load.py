"""The ``serve`` workload: ``repro serve`` behind its NDJSON wire.

One ``repro cache-serve`` subprocess (its root empty at the start of
every run) and one ``repro serve`` subprocess (thread executor, default
flags, ``--cache-server`` pointing at the first).  Two client
connections run a closed loop each.  Every window sends a fresh set of
generated programs, so first occurrences take the uncached path; on
each connection a fixed quarter of the requests repeats one that
connection already had answered in the window, so those hit the result
cache whatever the timing.

The server is not instrumented.  A traced run splits each request from
the client side: ``serve.engine`` is the result's own ``wall.ms`` (on
misses only; a cached result carries the wall of its first
computation), ``serve.server`` is the response ``wall_ms`` minus that,
``serve.wire`` is the client round trip minus ``wall_ms``, and
``serve.queue_wait_ms`` comes from the ``stats`` op.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import gen
from common import (
    CORE, ROOT, SETUP_REPEATS, STATE, BenchError, HostTime, import_engine,
    peak_rss_mb, pinned, quantile,
)

clock = time.perf_counter

CONNECTIONS = 2
#: Requests per connection per window, of which a quarter repeat.
FIRSTS_PER_CONNECTION = 12
REPEATS_PER_CONNECTION = 4
#: Repeats sent after each window on a third connection, with both
#: load connections idle: ``hit_latency_p50_ms`` times the warm path
#: itself, not the wait for the GIL a concurrent miss holds (two
#: closed loops fall into phase patterns that persist for a whole run,
#: so that wait differs by half between runs).
HIT_PROBES = 4
#: Every run measures at least this many windows.  ``peak_rss_mb`` is
#: read after the last of them (the servers' memory grows with every
#: window, so a reading at the end of the run would follow how many
#: windows the host's speed let in), and ``transformed_share`` and
#: ``sim_speedup`` cover the requests of these windows.
FIXED_WINDOWS = 30
SPAWN_TIMEOUT_S = 60.0


class Connection:
    """A blocking NDJSON client connection."""

    def __init__(self, address: Tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=120)
        self.reader = self.sock.makefile("rb")

    def call(self, line: bytes) -> Tuple[Dict[str, Any], float]:
        start = clock()
        self.sock.sendall(line)
        raw = self.reader.readline()
        elapsed = clock() - start
        if not raw:
            raise ConnectionError("server closed the connection")
        return json.loads(raw), elapsed

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Fleet:
    """``repro cache-serve`` plus ``repro serve`` wired to it, both on
    ``common.CORE``."""

    def __init__(self, cache_root: Path):
        from repro.fleet import testbed

        if cache_root.exists():
            shutil.rmtree(cache_root)
        cache_root.mkdir(parents=True)
        self.cache_root = cache_root
        self.servers: List[Any] = []
        try:
            # Children inherit the spawning thread's core.
            with pinned(CORE):
                cache = testbed._spawn(
                    ["cache-serve", "--port", "0", "--root",
                     str(cache_root)], role="cache-serve",
                    banner=";; cache-serve: listening on",
                    startup_timeout_s=SPAWN_TIMEOUT_S)
                self.servers.append(cache)
                serve = testbed.spawn_backend(
                    workers=4, backlog=16,
                    extra_args=["--cache-server", cache.spec],
                    startup_timeout_s=SPAWN_TIMEOUT_S)
                self.servers.append(serve)
        except RuntimeError as err:
            self.stop()
            raise BenchError(str(err)) from err
        except BaseException:
            self.stop()
            raise
        self.address = (serve.host, serve.port)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(str(s.pid)) for s in self.servers)

    def stop(self) -> None:
        for server in reversed(self.servers):
            server.terminate(timeout=30.0)
        shutil.rmtree(self.cache_root, ignore_errors=True)


def _request(program: gen.Program, kind: str) -> Tuple[str, Dict[str, Any]]:
    if kind == "analyze":
        return "analyze", {"source": program.program,
                           "function": program.name}
    if kind == "transform":
        return "transform", {"source": program.program,
                             "function": program.name}
    return "run", {"source": program.program,
                   "expr": program.expr(program.name + "-cc"),
                   "transform": [program.name],
                   "processors": program.processors}


def window_requests(seed: int, window: int
                    ) -> List[List[Tuple[str, Dict, Optional[gen.Program],
                                         bool]]]:
    """The two connections' request lists for one window.

    In family order, programs rotate through analyze / transform / run
    (a program Curare refuses is never sent as ``run``) and alternate
    between the connections; the rotation shifts by one each window, so
    every three windows each program slot is sent as each kind.  The
    seed shuffles each connection's order.  After every third first
    occurrence, a connection repeats one of its answered requests.
    """
    programs = sorted(gen.generate("serve", seed, window),
                      key=lambda p: (p.family, p.slot))
    rng = random.Random(f"perfbench/serve/{seed}/{window}/order")
    kinds = ("analyze", "transform", "run")
    per_conn: List[List[Tuple[str, Dict, Optional[gen.Program], bool]]] = \
        [[] for _ in range(CONNECTIONS)]
    for i, program in enumerate(programs):
        kind = kinds[(i + window) % 3]
        if kind == "run" and not program.expect_transformed:
            kind = "transform"
        op, params = _request(program, kind)
        per_conn[i % CONNECTIONS].append(
            (op, params, program if op == "run" else None, False))
    out = []
    for firsts in per_conn:
        rng.shuffle(firsts)
        sequence = []
        for j, request in enumerate(firsts):
            sequence.append(request)
            if j % 3 == 2:
                op, params, program, _ = rng.choice(firsts[:j + 1])
                sequence.append((op, params, program, True))
        out.append(sequence)
    return out


class Record:
    """What one request produced, for the checks and the trace."""

    __slots__ = ("op", "params", "program", "repeat", "response", "rt",
                 "window")

    def __init__(self, op, params, program, repeat, response, rt, window):
        self.op = op
        self.params = params
        self.program = program
        self.repeat = repeat
        self.response = response
        self.rt = rt
        self.window = window


def _client(conn: Connection, requests, window: int, out: List[Record],
            errors: List[str]) -> None:
    from repro.serve.protocol import request_line

    for n, (op, params, program, repeat) in enumerate(requests):
        line = request_line(op, params, f"w{window}-{n}",
                            deadline_ms=120_000.0)
        try:
            response, rt = conn.call(line)
        except (OSError, ValueError) as err:
            errors.append(f"{op}: {type(err).__name__}: {err}")
            return
        out.append(Record(op, params, program, repeat, response, rt,
                          window))


def _stats(conn: Connection) -> Dict[str, Any]:
    from repro.serve.protocol import request_line

    response, _ = conn.call(request_line("stats", None, "stats"))
    return response["result"]


def setup(state: Path, lists) -> Tuple[Fleet, float, float]:
    """Spawn the servers and warm them up on the requests ``lists``
    (programs outside the measured windows); returns the fleet and the
    host-normalised and wall seconds it took.  The yardstick is read on
    the servers' core before, between and after the two steps."""
    host = HostTime(CORE)
    start = clock()
    fleet = Fleet(state / f"serve-cache-{os.getpid()}")
    wall = clock() - start
    normalised = wall * host.factor()
    try:
        start = clock()
        conns = [Connection(fleet.address) for _ in range(CONNECTIONS)]
        records: List[Record] = []
        errors: List[str] = []
        for conn, requests in zip(conns, lists):
            _client(conn, requests[:4], -1, records, errors)
        for conn in conns:
            conn.close()
        bad = [r for r in records if not r.response.get("ok")]
        if errors or bad:
            raise BenchError(f"serve warm-up failed: {errors or bad[0].response}")
        took = clock() - start
    except BaseException:
        fleet.stop()
        raise
    return fleet, normalised + took * host.factor(), wall + took


def run(args: Any, state: Path) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    import_engine()  # the client side speaks through repro.serve.protocol
    state.mkdir(parents=True, exist_ok=True)
    warm = window_requests(args.seed, -1)
    setups = []
    fleet: Optional[Fleet] = None
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        for i in range(repeats):
            fleet, normalised, wall = setup(state, warm)
            setups.append((normalised, wall))
            if i < repeats - 1:
                fleet.stop()
                fleet = None
        assert fleet is not None
        return _measure(args, fleet, setups)
    finally:
        if fleet is not None:
            fleet.stop()


def _measure(args: Any, fleet: Fleet, setups: List[Tuple[float, float]]
             ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    conns = [Connection(fleet.address) for _ in range(CONNECTIONS)]
    control = Connection(fleet.address)
    # Per window: host-normalised seconds, traced?, requests, wall seconds.
    windows: List[Tuple[float, bool, int, float]] = []
    records: List[Record] = []
    probes: List[Record] = []
    # Host-normalised round trips (ms) of the window requests and of the
    # hit probes.
    latencies: List[float] = []
    hit_latencies: List[float] = []
    errors: List[str] = []
    window_counts: List[Tuple[int, int]] = []
    queue_wait_ms = 0.0
    traced_records = 0
    spans: List[tuple] = []
    began = clock()
    stats = _stats(control)
    # Read on the servers' core between windows, while both are idle.
    host = HostTime(CORE)
    try:
        while True:
            k = len(windows)
            traced = bool(args.trace) and k % 2 == 1
            lists = window_requests(args.seed, k)
            outs: List[List[Record]] = [[] for _ in lists]
            threads = [threading.Thread(target=_client,
                                        args=(conn, reqs, k, out, errors))
                       for conn, reqs, out in zip(conns, lists, outs)]
            start = clock()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = clock() - start
            n = sum(len(o) for o in outs)
            probe_rng = random.Random(f"perfbench/serve/{args.seed}/{k}/probe")
            answered = [r for out in outs for r in out if not r.repeat]
            hit_start = len(probes)
            for r in probe_rng.sample(answered, min(HIT_PROBES,
                                                    len(answered))):
                _client(control, [(r.op, r.params, r.program, True)], k,
                        probes, errors)
            after = _stats(control)
            factor = host.factor()
            latencies.extend(r.rt * factor * 1000.0
                             for out in outs for r in out)
            hit_latencies.extend(r.rt * factor * 1000.0
                                 for r in probes[hit_start:])
            hits = _delta(stats, after, "serve.cache.hits")
            misses = _delta(stats, after, "serve.cache.misses")
            window_counts.append((hits, misses))
            if traced:
                queue_wait_ms += _queue_total(after) - _queue_total(stats)
                traced_records += n
                for out in outs:
                    for r in out:
                        spans.append((r.window, r.op, r.repeat, r.rt,
                                      r.response.get("wall_ms", 0.0),
                                      _engine_ms(r)))
            stats = after
            windows.append((elapsed * factor, traced, n, elapsed))
            for out in outs:
                records.extend(out)
            if len(windows) == FIXED_WINDOWS:
                rss = fleet.peak_rss_mb()
            if errors:
                break
            total = clock() - began
            typical = statistics.median(w[3] for w in windows)
            if len(windows) >= FIXED_WINDOWS and \
                    total + typical > args.seconds:
                break
        if len(windows) < FIXED_WINDOWS:  # stopped early by an error
            rss = fleet.peak_rss_mb()
    finally:
        for conn in conns + [control]:
            conn.close()
    return _report(args, windows, records, probes, errors, window_counts,
                   rss, setups, spans, queue_wait_ms, traced_records,
                   latencies, hit_latencies, host)


def _delta(before: Dict, after: Dict, counter: str) -> int:
    return after["counters"].get(counter, 0) - \
        before["counters"].get(counter, 0)


def _queue_total(stats: Dict) -> float:
    wait = stats["queue_wait"]
    return wait["mean_ms"] * wait["count"]


def _engine_ms(record: Record) -> float:
    if record.repeat or not record.response.get("ok"):
        return 0.0
    return float(record.response["result"].get("wall", {}).get("ms", 0.0))


def _report(args, windows, records, probes, errors, window_counts, rss,
            setups, spans, queue_wait_ms, traced_records, latencies,
            hit_latencies, host):
    from inproc import geomean, layout_key, reference
    from repro import api
    from repro.serve.server import engine_call

    problems = list(errors)
    failed = len(errors)
    attempted = len(records) + len(probes) + len(errors)
    first_seen: Dict[str, str] = {}
    layout_only = 0
    first_transforms: List[bool] = []
    first_speedups: List[float] = []
    for r in records + probes:
        if not r.response.get("ok"):
            failed += 1
            problems.append(f"{r.op} error: {r.response.get('error')}")
            continue
        body = r.response["result"]
        key = api.canonical_json({"op": r.op, "params": r.params})
        exact = api.canonical_json(api.strip_wall(body))
        if r.repeat:
            if first_seen.get(key) != exact:
                failed += 1
                problems.append(f"repeated {r.op} answered differently")
            continue
        try:
            local = engine_call(r.op, r.params)
        except api.ApiError as err:
            failed += 1
            problems.append(f"in-process {r.op} failed: {err}")
            continue
        first_seen[key] = exact
        if api.canonical_json(api.strip_wall(local)) != exact:
            if layout_key(local) == layout_key(body):
                layout_only += 1
            else:
                failed += 1
                problems.append(f"{r.op} differs from the in-process "
                                f"facade result")
                continue
        if r.op == "transform" and r.window < FIXED_WINDOWS:
            first_transforms.append(bool(body["transformed"]))
        if r.op == "run":
            ref = reference(r.program)
            if body["value"] != ref.value:
                failed += 1
                problems.append(f"run value {body['value'][:60]} != "
                                f"reference {ref.value[:60]}")
                continue
            if r.window < FIXED_WINDOWS:
                first_speedups.append(ref.ticks / body["total_time"])
    # Every repeat and probe must hit, every first occurrence miss.
    hits_misses = sorted(set(window_counts))
    expected = (CONNECTIONS * REPEATS_PER_CONNECTION + HIT_PROBES,
                CONNECTIONS * FIRSTS_PER_CONNECTION)
    if hits_misses != [expected]:
        failed += 1
        problems.append(f"cache hits/misses per window {hits_misses}, "
                        f"expected {[expected]}")
    # The deterministic figures cover the windows every run completes.
    figures = {
        "transformed_share": (sum(first_transforms) / len(first_transforms)
                              if first_transforms else 0.0),
        "sim_speedup": geomean(first_speedups),
        "verified_share": 1.0,
        "serve.cache.hits_misses_per_window": hits_misses,
    }
    untraced = [w for w in windows if not w[1]]
    result: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "figures": figures,
        "op_list": _op_list_digest(args.seed),
        "ops": CONNECTIONS * (FIRSTS_PER_CONNECTION
                              + REPEATS_PER_CONNECTION),
        "passes": len(untraced),
        "traced_passes": len(windows) - len(untraced),
        "setups_s": [round(s, 4) for s, _ in setups],
        "pass_s": [round(w[0], 4) for w in windows],
        "host": host.summary(),
        "layout_only_differences": layout_only,
    }
    if not args.trace:
        result["metrics"] = {
            "setup_s": (statistics.median(s for s, _ in setups), "s",
                        len(setups)),
            "throughput_ops_s": (statistics.median(w[2] / w[0]
                                                   for w in untraced),
                                 "1/s", len(untraced)),
            "latency_p50_ms": (quantile(latencies, 0.5), "ms",
                               len(latencies)),
            "latency_p90_ms": (quantile(latencies, 0.9), "ms",
                               len(latencies)),
            "hit_latency_p50_ms": (quantile(hit_latencies, 0.5), "ms",
                                   len(hit_latencies)),
            "peak_rss_mb": (rss, "MB", 2),
        }
        result["wall"] = {
            "setup_s": statistics.median(w for _, w in setups),
            "throughput_ops_s": statistics.median(w[2] / w[3]
                                                  for w in untraced),
        }
    else:
        result["layers"] = _layers(windows, spans, queue_wait_ms,
                                   traced_records, figures)
        result["crossing_timing"] = "client-side split of every request"
        path = STATE / f"trace-serve-seed{args.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as out:
            for window, op, repeat, rt, wall_ms, engine_ms in spans:
                out.write(json.dumps({
                    "name": f"serve.{op}", "window": window,
                    "repeat": repeat, "rt_ms": rt * 1000.0,
                    "wall_ms": wall_ms, "engine_ms": engine_ms}) + "\n")
        result["spans"] = len(spans)
        result["trace_file"] = str(path.relative_to(ROOT))
    return result, figures


def _layers(windows, spans, queue_wait_ms, traced_records, figures):
    from spans import ROWS

    ops = max(len(spans), 1)
    engine = sum(s[5] for s in spans)
    server = sum(s[4] - s[5] for s in spans)
    wire = sum(s[3] * 1000.0 - s[4] for s in spans)
    total = sum(s[3] * 1000.0 for s in spans)
    layers: Dict[str, float] = {}
    for row in ROWS:
        layers[f"{row}_ms"] = 0.0
        layers[f"{row}_share"] = 0.0
    for row, value in (("serve.engine", engine), ("serve.server", server),
                       ("serve.wire", wire)):
        layers[f"{row}_ms"] = value / ops
        layers[f"{row}_share"] = value / total if total else 0.0
    covered = engine + server + wire
    layers["other_ms"] = (total - covered) / ops
    layers["other_share"] = (total - covered) / total if total else 0.0
    layers["serve.queue_wait_ms"] = (queue_wait_ms / traced_records
                                     if traced_records else 0.0)
    hits, misses = figures["serve.cache.hits_misses_per_window"][0]
    layers["scale.cache_hit_ratio"] = hits / (hits + misses)
    untraced = [w[0] / w[2] for w in windows if not w[1]]
    traced = [w[0] / w[2] for w in windows if w[1]]
    layers["trace_overhead"] = (statistics.median(traced)
                                / statistics.median(untraced))
    return layers


def _op_list_digest(seed: int) -> str:
    import hashlib

    lists = window_requests(seed, 0)
    return hashlib.sha256(json.dumps(
        [[(op, params, repeat) for op, params, _, repeat in reqs]
         for reqs in lists], sort_keys=True).encode()).hexdigest()[:16]
