"""Command-line interface: ``python -m repro <command> ...``.

Every engine-touching command is a thin shell around the stable
:mod:`repro.api` facade — the CLI parses flags, calls ``api.analyze`` /
``api.transform`` / ``api.run`` / ``api.sweep``, renders the returned
result, and maps :class:`repro.api.ApiError` codes onto exit codes.
The ``repro serve`` service hosts the *same* facade, which is what
makes CLI output and served responses byte-comparable (the parity
tests hold both to it).

Commands:

* ``analyze FILE -f NAME``    — run the §2/§3 analysis, print the
  feedback report (conflicts, distances, suggested declarations).
* ``transform FILE -f NAME``  — restructure one function and print the
  transformed source (plus wrapper forms).
* ``run FILE -e EXPR``        — evaluate the program and an expression
  on the simulated machine; prints the value and machine statistics.
* ``serve``                   — host the facade as a long-lived
  concurrent NDJSON socket service (see :mod:`repro.serve`);
  ``--executor process`` runs engine calls in a respawning
  worker-process farm with crash isolation.
* ``cache-serve``             — host the fleet-shared result cache
  (stage-fingerprint keys, integrity-verified entries) that sweep
  workers, ``serve`` shards (``--cache-server``) and the router share
  (see :mod:`repro.serve.cacheserver`).
* ``route``                   — shard-route NDJSON requests across a
  fleet of ``serve`` backends with health probes, retries, circuit
  breakers, single-flight request coalescing, graceful drain,
  automatic rejoin of recovered drained backends, and sequential
  fallback (see :mod:`repro.fleet`).
* ``chaos``                   — sweep the paper workloads across the
  seeded fault matrix and assert sequentializability survives every
  plan (exit 1 on any silent wrong answer); ``--out`` writes the
  robustness report as a versioned envelope; ``--fleet`` attacks a
  real router-over-backends fleet (seeded blackholes, slow sends, a
  mid-run ``kill -9``) instead of the simulated machine.
* ``trace WORKLOAD``          — run a named paper workload with the
  flight recorder armed end to end and export the trace
  (``--trace-out``, Chrome ``trace_event`` or JSONL format).
* ``bench``                   — run the pinned perf suite (counted work
  and yardstick-normalised time per case, median-of-N), write the
  enveloped report, and with ``--compare BASELINE.json --max-regress
  PCT`` gate on regressions (exit 1 when a count differs or a
  normalised time regresses beyond the threshold; exit 2 when the
  baseline was made under another Python minor version).
* ``sweep``                   — run a parameter-sweep grid (fig06/
  fig07/fig10 families + analytic-model validation + analyze-only
  distance jobs) across ``--workers`` OS processes through the
  persistent result cache (optionally layered over a shared
  ``--cache-server``), writing one enveloped JSON report; exit 1 on
  failed points or (with ``--min-hit-rate``) on a cold cache.

``analyze``, ``transform``, and ``run`` take ``--json`` to print the
facade result's deterministic JSON instead of the human rendering.
``run``, ``chaos``, ``sweep``, ``serve``, ``route``, and ``trace``
all take
``--profile`` (print phase timings and counters) and ``--trace-out
PATH`` (write the recorded trace; ``--trace-format`` picks the
encoding).  Exit code 2 flags a usage error: unknown
workload/plan/grid, an unreadable input, or an unwritable output path.
Running ``repro`` with no subcommand prints help and exits 2.

Every file-taking command reads ``(declaim ...)`` forms from the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from repro import api


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Curare: restructure Lisp programs for concurrent execution",
    )
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="Lisp source file (with declaim forms)")
    common.add_argument(
        "--assume-sapp", action="store_true",
        help="treat every parameter as SAPP-declared (experiment mode)",
    )
    common.add_argument(
        "--json", action="store_true",
        help="print the facade result as deterministic JSON",
    )

    obs_common = argparse.ArgumentParser(add_help=False)
    obs_common.add_argument(
        "--profile", action="store_true",
        help="record the run and print phase timings + counters",
    )
    obs_common.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the recorded trace to this file",
    )
    obs_common.add_argument(
        "--trace-format", choices=["chrome", "jsonl"], default="chrome",
        help="trace encoding: Chrome trace_event JSON (default, loads "
             "in Perfetto/about://tracing) or JSON lines",
    )

    p_analyze = sub.add_parser(
        "analyze", parents=[common], help="report conflicts for a function"
    )
    p_analyze.add_argument("-f", "--function", required=True)

    p_transform = sub.add_parser(
        "transform", parents=[common], help="restructure a function"
    )
    p_transform.add_argument("-f", "--function", required=True)
    p_transform.add_argument(
        "--mode", choices=["spawn", "enqueue"], default="spawn"
    )
    p_transform.add_argument("--suffix", default="-cc")
    p_transform.add_argument("--use-delay", action="store_true")
    p_transform.add_argument(
        "--no-dps", action="store_true",
        help="use futures instead of destination-passing for stored calls",
    )
    p_transform.add_argument(
        "--whole-program", action="store_true",
        help="transform every eligible function and retarget callers",
    )

    p_run = sub.add_parser(
        "run", parents=[common, obs_common],
        help="evaluate an expression on the simulated machine",
    )
    p_run.add_argument("-e", "--expr", required=True)
    p_run.add_argument("-p", "--processors", type=int, default=4)
    p_run.add_argument(
        "--transform", metavar="NAME", action="append", default=[],
        help="transform these functions first (repeatable)",
    )
    p_run.add_argument("--free-sync", action="store_true",
                       help="zero all synchronization costs")
    p_run.add_argument("--seed", type=int, default=None,
                       help="random scheduling with this seed; also seeds "
                            "--faults and is echoed in the report")
    p_run.add_argument("--faults", metavar="PLAN", default=None,
                       help="inject faults from this plan of the fault "
                            "matrix (e.g. 'mixed'), seeded by --seed")
    p_run.add_argument("--race-check", action="store_true",
                       help="run the online vector-clock race detector")
    p_run.add_argument("--lock-wait-timeout", type=int, default=None,
                       help="abort if any process waits on a lock this long")
    p_run.add_argument("--timeline", action="store_true",
                       help="print the occupancy sparkline and process gantt")
    p_run.add_argument("--eval-mode", choices=["interpreter", "compiled"],
                       default=None,
                       help="Lisp evaluation strategy (default: "
                            "compiled; both give identical runs)")

    p_serve = sub.add_parser(
        "serve", parents=[obs_common],
        help="host the analysis facade as a concurrent NDJSON service",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="bind port (default: 0 = ephemeral; the "
                              "bound port is printed on startup)")
    p_serve.add_argument("--workers", type=int, default=4,
                         help="worker threads executing engine requests "
                              "(default: 4)")
    p_serve.add_argument("--backlog", type=int, default=16,
                         help="admission queue beyond the workers; further "
                              "requests are rejected with 'overloaded' "
                              "(default: 16)")
    p_serve.add_argument("--deadline-ms", type=float, default=30_000.0,
                         help="default per-request deadline when the "
                              "request carries none (default: 30000)")
    p_serve.add_argument("--drain-timeout", type=float, default=30.0,
                         metavar="SEC",
                         help="max seconds to wait for in-flight work on "
                              "shutdown (default: 30)")
    p_serve.add_argument("--executor", choices=["thread", "process"],
                         default="thread",
                         help="where engine calls run: 'thread' (in the "
                              "pool thread; default) or 'process' (a "
                              "respawning worker-process farm with crash "
                              "isolation and real cancellation)")
    p_serve.add_argument("--chaos-seed", type=int, default=None,
                         help="inject seeded request faults (rejections + "
                              "delays) in front of real work")
    p_serve.add_argument("--chaos-budget", type=int, default=64,
                         help="max chaos faults injected (default: 64)")
    p_serve.add_argument("--cache-server", metavar="HOST:PORT", default=None,
                         help="fleet-shared result cache ('repro "
                              "cache-serve'); engine results are read from "
                              "and published to it")

    p_route = sub.add_parser(
        "route", parents=[obs_common],
        help="shard-route requests across a fleet of serve backends",
    )
    p_route.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_route.add_argument("--port", type=int, default=0,
                         help="bind port (default: 0 = ephemeral)")
    p_route.add_argument("--backend", metavar="HOST:PORT", action="append",
                         default=[], required=True,
                         help="a serve backend to route to (repeatable)")
    p_route.add_argument("--vnodes", type=int, default=64,
                         help="virtual nodes per backend on the hash ring "
                              "(default: 64)")
    p_route.add_argument("--attempts", type=int, default=3,
                         help="max tries per request across backends "
                              "(default: 3)")
    p_route.add_argument("--connect-timeout", type=float, default=1.0,
                         metavar="SEC",
                         help="per-backend connect timeout (default: 1)")
    p_route.add_argument("--request-timeout", type=float, default=30.0,
                         metavar="SEC",
                         help="per-attempt response timeout (default: 30)")
    p_route.add_argument("--deadline-ms", type=float, default=30_000.0,
                         help="default per-request deadline when the "
                              "request carries none (default: 30000)")
    p_route.add_argument("--seed", type=int, default=0,
                         help="retry-jitter RNG seed (default: 0)")
    p_route.add_argument("--cache-size", type=int, default=256,
                         help="entries in the router's in-memory result "
                              "tier; 0 disables (default: 256)")
    p_route.add_argument("--no-fallback", action="store_true",
                         help="answer 'unavailable' instead of sequential "
                              "in-process fallback when every backend "
                              "is down")
    p_route.add_argument("--drain-timeout", type=float, default=30.0,
                         metavar="SEC",
                         help="max seconds to wait for in-flight work on "
                              "shutdown (default: 30)")
    p_route.add_argument("--chaos-seed", type=int, default=None,
                         help="inject seeded fleet faults (backend "
                              "blackholes + slow sends) into routing")
    p_route.add_argument("--chaos-budget", type=int, default=64,
                         help="max chaos faults injected (default: 64)")
    p_route.add_argument("--cache-server", metavar="HOST:PORT", default=None,
                         help="fleet-shared result cache consulted before "
                              "routing to a backend")
    p_route.add_argument("--no-auto-rejoin", action="store_true",
                         help="do not re-add bled backends that are probed "
                              "down and then healthy again")

    p_cache_serve = sub.add_parser(
        "cache-serve", parents=[obs_common],
        help="host the fleet-shared result cache as an NDJSON service",
    )
    p_cache_serve.add_argument("--host", default="127.0.0.1",
                               help="bind address (default: 127.0.0.1)")
    p_cache_serve.add_argument("--port", type=int, default=0,
                               help="bind port (default: 0 = ephemeral; "
                                    "the bound port is printed on startup)")
    p_cache_serve.add_argument("--root", metavar="DIR",
                               default=".repro-cache",
                               help="backing cache directory "
                                    "(default: .repro-cache)")
    p_cache_serve.add_argument("--drain-timeout", type=float, default=30.0,
                               metavar="SEC",
                               help="max seconds to wait for in-flight "
                                    "work on shutdown (default: 30)")

    p_chaos = sub.add_parser(
        "chaos", parents=[obs_common],
        help="sweep paper workloads across the seeded fault matrix",
    )
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="fault-matrix seed (plans derive from it)")
    p_chaos.add_argument("--sched-seed", type=int, default=None,
                         help="random scheduling with this seed "
                              "(default: deterministic fifo)")
    p_chaos.add_argument("-p", "--processors", type=int, default=4)
    p_chaos.add_argument("--budget", type=int, default=200,
                         help="max faults injected per plan")
    p_chaos.add_argument("--plans", metavar="NAME", action="append",
                         default=[],
                         help="restrict to these fault plans (repeatable)")
    p_chaos.add_argument("--size", type=int, default=8,
                         help="workload size (list length)")
    p_chaos.add_argument("--misdeclared", action="store_true",
                         help="also attack the intentionally mis-declared "
                              "workload (must recover, not fail)")
    p_chaos.add_argument("--out", metavar="PATH", default=None,
                         help="write the robustness report as a versioned "
                              "JSON envelope")
    p_chaos.add_argument("--fleet", action="store_true",
                         help="attack the serve fleet instead of the "
                              "simulated machine: spawn real backends "
                              "behind a shard router, inject seeded "
                              "routing faults (blackhole/slow) and one "
                              "kill -9, and assert every client request "
                              "still gets a correct typed answer")
    p_chaos.add_argument("--fleet-backends", type=int, default=3,
                         help="fleet mode: backend processes (default: 3)")
    p_chaos.add_argument("--fleet-requests", type=int, default=24,
                         help="fleet mode: distinct client requests "
                              "(default: 24)")
    p_chaos.add_argument("--fleet-no-kill", action="store_true",
                         help="fleet mode: skip the mid-run kill -9")

    p_bench = sub.add_parser(
        "bench",
        help="run the pinned perf suite and optionally gate on a baseline",
    )
    p_bench.add_argument("--out", metavar="PATH", default=None,
                         help="write the JSON report here (default: no "
                              "report file)")
    p_bench.add_argument("--compare", metavar="BASELINE", default=None,
                         help="compare against this baseline report and "
                              "exit 1 on a changed count or a regression")
    p_bench.add_argument("--max-regress", type=float, default=30.0,
                         metavar="PCT",
                         help="allowed regression in yardstick-normalized "
                              "time, percent (default: 30)")
    p_bench.add_argument("--markdown", metavar="PATH", default=None,
                         help="append a per-case markdown table to PATH "
                              "(default: $GITHUB_STEP_SUMMARY when set)")
    p_bench.add_argument("--repeats", type=int, default=9,
                         help="measured iterations per case; the median "
                              "is reported (default: 9)")
    p_bench.add_argument("--cases", metavar="NAME", action="append",
                         default=[],
                         help="restrict to these cases (repeatable)")

    p_sweep = sub.add_parser(
        "sweep", parents=[obs_common],
        help="run a sharded parameter sweep through the result cache",
    )
    p_sweep.add_argument("--grid", default="smoke",
                         help="grid name (see --list; default: smoke)")
    p_sweep.add_argument("--list", action="store_true",
                         help="list the available grids and exit")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes (0 = run inline in this "
                              "process; default: 1)")
    p_sweep.add_argument("--out", metavar="PATH", default=None,
                         help="write the JSON report here "
                              "(default: sweep-<grid>.json)")
    p_sweep.add_argument("--cache-dir", metavar="DIR",
                         default=".repro-cache",
                         help="persistent result-cache directory "
                              "(default: .repro-cache)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="bypass the result cache entirely (both the "
                              "local directory and any --cache-server)")
    p_sweep.add_argument("--cache-server", metavar="HOST:PORT", default=None,
                         help="fleet-shared result cache ('repro "
                              "cache-serve') layered over --cache-dir")
    p_sweep.add_argument("--job-timeout", type=float, default=300.0,
                         metavar="SEC",
                         help="per-job deadline in seconds; an overdue "
                              "job's worker is terminated and respawned "
                              "(default: 300)")
    p_sweep.add_argument("--min-hit-rate", type=float, default=None,
                         metavar="PCT",
                         help="fail (exit 1) when the cache hit rate is "
                              "below this percentage — the warm-cache CI "
                              "assertion")

    p_trace = sub.add_parser(
        "trace", parents=[obs_common],
        help="flight-record a named paper workload",
    )
    p_trace.add_argument(
        "workload", nargs="?", default=None,
        help="workload name (see --list), e.g. fig07",
    )
    p_trace.add_argument("--list", action="store_true",
                         help="list the available workloads and exit")
    p_trace.add_argument("-p", "--processors", type=int, default=None,
                         help="override the workload's processor count")
    p_trace.add_argument("--seed", type=int, default=None,
                         help="random scheduling with this seed "
                              "(default: deterministic fifo)")

    return parser


def _read_source(path: str) -> Optional[str]:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        print(f";; cannot read {path!r}: {err}", file=sys.stderr)
        return None


def _api_error(err: api.ApiError) -> int:
    """Map a facade error onto a one-line diagnostic and an exit code:
    caller mistakes are usage errors (2), engine refusals/failures are
    run failures (1)."""
    print(f";; {err}", file=sys.stderr)
    return 2 if err.code == "bad_request" else 1


def _make_recorder(args: argparse.Namespace):
    """One recorder when any observability flag asks for it, else None
    (the machine's pay-for-what-you-use guarantee hinges on None)."""
    if getattr(args, "profile", False) or getattr(args, "trace_out", None):
        from repro.obs import Recorder

        return Recorder()
    return None


def _finish_observability(recorder, args: argparse.Namespace) -> int:
    """Print the profile and/or write the trace file; returns an exit
    code (0, or 2 on an unwritable path)."""
    if recorder is None:
        return 0
    if args.profile:
        from repro.obs import render_profile

        print(render_profile(recorder))
    if args.trace_out:
        from repro.obs import write_chrome_trace, write_jsonl

        writer = (
            write_jsonl if args.trace_format == "jsonl" else write_chrome_trace
        )
        try:
            writer(recorder, args.trace_out)
        except OSError as err:
            print(f";; cannot write trace to {args.trace_out!r}: {err}",
                  file=sys.stderr)
            return 2
        print(f";; trace ({args.trace_format}): {args.trace_out} "
              f"[{len(recorder.events)} event(s)]")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    if source is None:
        return 2
    try:
        result = api.analyze(source, args.function,
                             assume_sapp=args.assume_sapp)
    except api.ApiError as err:
        return _api_error(err)
    print(result.to_json(indent=2) if args.json else result.text, end=""
          if args.json else "\n")
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    if source is None:
        return 2
    options = api.TransformOptions(
        mode=args.mode,
        suffix=args.suffix,
        use_delay=args.use_delay,
        prefer_dps=not args.no_dps,
        whole_program=args.whole_program,
        assume_sapp=args.assume_sapp,
    )
    try:
        result = api.transform(source, args.function, options)
    except api.ApiError as err:
        return _api_error(err)
    if args.json:
        print(result.to_json(indent=2), end="")
        return 0 if result.transformed else 1
    print(result.report_text)
    for group in result.forms:
        print()
        for form in group:
            print(form)
    return 0 if result.transformed else 1


def cmd_run(args: argparse.Namespace) -> int:
    recorder = _make_recorder(args)
    source = _read_source(args.file)
    if source is None:
        return 2
    options = api.RunOptions(
        processors=args.processors,
        transform=tuple(args.transform),
        assume_sapp=args.assume_sapp,
        free_sync=args.free_sync,
        seed=args.seed,
        faults=args.faults,
        race_check=args.race_check,
        lock_wait_timeout=args.lock_wait_timeout,
        timeline=args.timeline,
        eval_mode=args.eval_mode,
    )
    try:
        result = api.run(source, args.expr, options, recorder=recorder)
    except api.ApiError as err:
        return _api_error(err)
    if args.json:
        print(result.to_json(indent=2), end="")
        return _finish_observability(recorder, args)
    print(f";; value: {result.value}")
    for output in result.outputs:
        print(f";; output: {output}")
    print(
        f";; machine: {result.total_time} steps, {result.processes} "
        f"process(es), mean concurrency {result.mean_concurrency:.2f}, "
        f"utilization {result.utilization:.2f}"
    )
    if result.seed is not None:
        print(f";; seed: {result.seed} (scheduling"
              + (" + fault plan)" if result.fault_plan is not None else ")"))
    if result.fault_plan is not None:
        print(f";; faults: {result.fault_plan}")
    if result.races is not None:
        print(f";; races: {result.races}")
    if result.timeline is not None:
        print(result.timeline)
    return _finish_observability(recorder, args)


def cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.serve import ReproServer, RequestFaultPlan, ServeConfig

    if args.workers < 1 or args.backlog < 0:
        print(";; serve: --workers must be >= 1 and --backlog >= 0",
              file=sys.stderr)
        return 2
    recorder = _make_recorder(args)
    chaos = None
    if args.chaos_seed is not None:
        chaos = RequestFaultPlan(args.chaos_seed, budget=args.chaos_budget)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        backlog=args.backlog,
        default_deadline_ms=args.deadline_ms,
        drain_timeout=args.drain_timeout,
        executor=args.executor,
        chaos=chaos,
        cache_server=args.cache_server,
        recorder=recorder,
    )
    server = ReproServer(config)
    try:
        host, port = server.start()
    except OSError as err:
        print(f";; serve: cannot bind {args.host}:{args.port}: {err}",
              file=sys.stderr)
        return 2
    print(f";; serve: listening on {host}:{port} "
          f"({config.workers} {config.executor} worker(s), "
          f"backlog {config.backlog})",
          flush=True)
    if chaos is not None:
        print(f";; serve: chaos {chaos.describe()}", flush=True)

    def _request_drain(_signum, _frame):
        print(";; serve: drain requested", flush=True)
        server.request_drain()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _request_drain)
    server.serve_forever()
    counters = server.service.counters()
    print(f";; serve: drained "
          f"({counters.get('serve.request.ok', 0)} ok, "
          f"{counters.get('serve.request.rejected', 0)} rejected, "
          f"{counters.get('serve.request.deadline_exceeded', 0)} "
          f"deadline-exceeded)", flush=True)
    return _finish_observability(recorder, args)


def cmd_route(args: argparse.Namespace) -> int:
    import signal

    from repro.fleet.router import RouterConfig, ShardRouter, parse_backend
    from repro.serve import FleetFaultPlan

    try:
        for spec in args.backend:
            parse_backend(spec)
    except ValueError as err:
        print(f";; route: {err}", file=sys.stderr)
        return 2
    if args.attempts < 1 or args.vnodes < 1:
        print(";; route: --attempts and --vnodes must be >= 1",
              file=sys.stderr)
        return 2
    recorder = _make_recorder(args)
    chaos = None
    if args.chaos_seed is not None:
        chaos = FleetFaultPlan(args.chaos_seed, budget=args.chaos_budget)
    config = RouterConfig(
        host=args.host,
        port=args.port,
        backends=tuple(args.backend),
        vnodes=args.vnodes,
        connect_timeout_s=args.connect_timeout,
        request_timeout_s=args.request_timeout,
        default_deadline_ms=args.deadline_ms,
        attempts=args.attempts,
        seed=args.seed,
        fallback=not args.no_fallback,
        cache_size=args.cache_size,
        cache_server=args.cache_server,
        auto_rejoin=not args.no_auto_rejoin,
        drain_timeout=args.drain_timeout,
        chaos=chaos,
        recorder=recorder,
    )
    router = ShardRouter(config)
    try:
        host, port = router.start()
    except OSError as err:
        print(f";; route: cannot bind {args.host}:{args.port}: {err}",
              file=sys.stderr)
        return 2
    print(f";; route: listening on {host}:{port} "
          f"({len(config.backends)} backend(s), "
          f"{config.attempts} attempt(s), "
          f"fallback {'on' if config.fallback else 'off'})",
          flush=True)
    if chaos is not None:
        print(f";; route: chaos {chaos.describe()}", flush=True)

    def _request_drain(_signum, _frame):
        print(";; route: drain requested", flush=True)
        router.request_drain()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _request_drain)
    router.serve_forever()
    counters = router.counters()
    print(f";; route: drained "
          f"({counters.get('fleet.request.ok', 0)} ok, "
          f"{counters.get('fleet.route.failovers', 0)} failover(s), "
          f"{counters.get('fleet.fallback', 0)} fallback(s), "
          f"{counters.get('fleet.cache.hits', 0)} cache hit(s))",
          flush=True)
    return _finish_observability(recorder, args)


def cmd_cache_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.serve import CacheServeConfig, CacheServer

    recorder = _make_recorder(args)
    config = CacheServeConfig(
        host=args.host,
        port=args.port,
        root=args.root,
        drain_timeout=args.drain_timeout,
        recorder=recorder,
    )
    server = CacheServer(config)
    try:
        host, port = server.start()
    except OSError as err:
        print(f";; cache-serve: cannot bind {args.host}:{args.port}: {err}",
              file=sys.stderr)
        return 2
    print(f";; cache-serve: listening on {host}:{port} "
          f"(root {config.root})", flush=True)

    def _request_drain(_signum, _frame):
        print(";; cache-serve: drain requested", flush=True)
        server.request_drain()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _request_drain)
    server.serve_forever()
    counters = server.counters()
    print(f";; cache-serve: drained "
          f"({counters.get('cache.server.hits', 0)} hit(s), "
          f"{counters.get('cache.server.misses', 0)} miss(es), "
          f"{counters.get('cache.server.stores', 0)} store(s), "
          f"{counters.get('cache.server.rejected_puts', 0)} rejected "
          f"put(s))", flush=True)
    return _finish_observability(recorder, args)


def cmd_chaos(args: argparse.Namespace) -> int:
    if args.fleet:
        return _cmd_chaos_fleet(args)
    from repro.harness.chaos import (
        chaos_sweep,
        fault_matrix,
        misdeclared_workload,
        paper_workloads,
    )
    from repro.harness.report import format_robustness, robustness_envelope

    plans = fault_matrix(args.seed, budget=args.budget)
    if args.plans:
        known = {p.name for p in plans}
        unknown = [n for n in args.plans if n not in known]
        if unknown:
            print(f";; unknown fault plan(s): {', '.join(unknown)}; "
                  f"choose from: {', '.join(sorted(known))}", file=sys.stderr)
            return 2
        plans = [p for p in plans if p.name in args.plans]
    workloads = paper_workloads(args.size)
    if args.misdeclared:
        workloads.append(misdeclared_workload(args.size))
    recorder = _make_recorder(args)
    report = chaos_sweep(
        workloads,
        seed=args.seed,
        plans=plans,
        processors=args.processors,
        sched_seed=args.sched_seed,
        recorder=recorder,
    )
    print(format_robustness(report))
    if args.out:
        from repro.envelope import dumps

        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(dumps(robustness_envelope(report)))
        except OSError as err:
            print(f";; cannot write report to {args.out!r}: {err}",
                  file=sys.stderr)
            return 2
        print(f";; report: {args.out}")
    obs_code = _finish_observability(recorder, args)
    if obs_code != 0:
        return obs_code
    return 0 if report.ok else 1


def _cmd_chaos_fleet(args: argparse.Namespace) -> int:
    from repro.fleet.chaosrun import format_fleet_chaos, run_fleet_chaos

    recorder = _make_recorder(args)
    report = run_fleet_chaos(
        seed=args.seed,
        backends=args.fleet_backends,
        requests=args.fleet_requests,
        kill_one=not args.fleet_no_kill,
        budget=args.budget,
        recorder=recorder,
    )
    print(format_fleet_chaos(report))
    if args.out:
        from repro.envelope import KIND_ROBUSTNESS, dumps, wrap

        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(dumps(wrap(KIND_ROBUSTNESS, report)))
        except OSError as err:
            print(f";; cannot write report to {args.out!r}: {err}",
                  file=sys.stderr)
            return 2
        print(f";; report: {args.out}")
    obs_code = _finish_observability(recorder, args)
    if obs_code != 0:
        return obs_code
    return 0 if report["ok"] else 1


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.envelope import KIND_PERF, EnvelopeError, dumps, unwrap, wrap
    from repro.perf.bench import (
        BENCH_CASES,
        compare_reports,
        format_report,
        missing_cases,
        run_suite,
    )

    cases = args.cases or None
    if cases:
        unknown = [name for name in cases if name not in BENCH_CASES]
        if unknown:
            print(f";; unknown bench case(s): {', '.join(unknown)}; "
                  f"choose from: {', '.join(BENCH_CASES)}", file=sys.stderr)
            return 2
    baseline = None
    if args.compare:
        from repro.perf.bench import validate_report

        # Read the baseline *before* the suite runs: failing fast beats
        # failing after minutes of measurement, and --out may name the
        # same file — the gate must compare against the pre-run
        # contents, not whatever was just written over them.
        try:
            with open(args.compare, encoding="utf-8") as handle:
                baseline_doc = json.load(handle)
        except (OSError, ValueError) as err:
            print(f";; cannot read baseline {args.compare!r}: {err}",
                  file=sys.stderr)
            return 2
        try:
            baseline = unwrap(baseline_doc, KIND_PERF)
        except EnvelopeError as err:
            print(f";; invalid baseline {args.compare!r}: {err}",
                  file=sys.stderr)
            return 2
        problems = validate_report(baseline)
        if problems:
            print(f";; invalid baseline {args.compare!r}: {problems[0]}",
                  file=sys.stderr)
            return 2
        if baseline["python"].split(".")[:2] != sys.version.split(".")[:2]:
            print(f";; baseline {args.compare!r} was made with Python "
                  f"{baseline['python']}, this is {sys.version.split()[0]}: "
                  "yardstick ratios differ across interpreters; run "
                  "under the baseline's version or regenerate it",
                  file=sys.stderr)
            return 2
    report = run_suite(repeats=args.repeats, cases=cases)
    print(format_report(report))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(dumps(wrap(KIND_PERF, report)))
        except OSError as err:
            print(f";; cannot write report to {args.out!r}: {err}",
                  file=sys.stderr)
            return 2
        print(f";; report: {args.out}")
    summary_path = args.markdown or os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        try:
            with open(summary_path, "a", encoding="utf-8") as handle:
                handle.write("### Perf suite\n\n" + format_report(report)
                             + "\n\n")
        except OSError as err:
            print(f";; cannot write markdown summary to "
                  f"{summary_path!r}: {err}", file=sys.stderr)
            return 2
        print(f";; markdown summary: {summary_path}")
    if baseline is not None:
        absent = missing_cases(report, baseline)
        if absent:
            ran = ", ".join(report.get("cases", {})) or "none"
            print(f";; baseline {args.compare!r} has case(s) missing from "
                  f"the current run: {', '.join(absent)} (ran: {ran}); "
                  "pass matching --cases or regenerate the baseline",
                  file=sys.stderr)
            return 2
        failures = compare_reports(report, baseline, args.max_regress)
        if failures:
            print(";; perf regression(s) vs "
                  f"{args.compare} (counts must be equal, max allowed "
                  f"+{args.max_regress:.0f}%):")
            for failure in failures:
                print(f";;   {failure}")
            return 1
        print(f";; no perf regressions vs {args.compare} "
              f"(counts equal, max allowed +{args.max_regress:.0f}%)")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.list:
        for name, points in api.sweep_grids().items():
            print(f"{name:<8} {points} point(s)")
        return 0
    cache_dir = None if args.no_cache else args.cache_dir
    cache_server = None if args.no_cache else args.cache_server
    recorder = _make_recorder(args)
    options = api.SweepOptions(
        workers=args.workers,
        job_timeout=args.job_timeout,
        cache_dir=cache_dir,
        cache_server=cache_server,
    )
    try:
        report = api.sweep(args.grid, options, recorder=recorder)
    except api.ApiError as err:
        return _api_error(err)
    print(report.format())
    out = args.out if args.out is not None else f"sweep-{args.grid}.json"
    if out:
        from repro.envelope import dumps

        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(dumps(report.to_dict()))
        except OSError as err:
            print(f";; cannot write report to {out!r}: {err}",
                  file=sys.stderr)
            return 2
        print(f";; report: {out}")
    obs_code = _finish_observability(recorder, args)
    if obs_code != 0:
        return obs_code
    if report.failed:
        return 1
    if args.min_hit_rate is not None:
        rate = report.hit_rate * 100.0
        if rate < args.min_hit_rate:
            print(f";; cache hit rate {rate:.1f}% below required "
                  f"{args.min_hit_rate:.1f}%", file=sys.stderr)
            return 1
        print(f";; cache hit rate {rate:.1f}% >= "
              f"required {args.min_hit_rate:.1f}%")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import Recorder
    from repro.obs.workloads import run_trace_workload, trace_workloads

    registry = trace_workloads()
    if args.list:
        for name, workload in registry.items():
            print(f"{name:<8} {workload.description}")
        return 0
    if args.workload is None:
        print(";; trace: workload name required (try --list)",
              file=sys.stderr)
        return 2
    workload = registry.get(args.workload)
    if workload is None:
        print(f";; unknown workload {args.workload!r}; "
              f"choose from: {', '.join(sorted(registry))}", file=sys.stderr)
        return 2
    recorder = Recorder()
    run = run_trace_workload(
        workload, recorder, seed=args.seed, processors=args.processors
    )
    print(f";; workload: {workload.name} — {workload.description}")
    print(f";; value: {run.result_text}")
    stats = run.stats
    print(
        f";; machine: {stats.total_time} steps, {stats.processes} "
        f"process(es), mean concurrency {stats.mean_concurrency:.2f}, "
        f"utilization {stats.utilization:.2f}"
    )
    if args.seed is not None:
        print(f";; seed: {args.seed} (scheduling)")
    if args.profile or not args.trace_out:
        from repro.obs import render_profile

        print(render_profile(recorder))
    if args.trace_out:
        # Reuse the shared writer (handles format + malformed paths).
        args.profile = False
        return _finish_observability(recorder, args)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    handlers = {
        "analyze": cmd_analyze,
        "transform": cmd_transform,
        "run": cmd_run,
        "serve": cmd_serve,
        "cache-serve": cmd_cache_serve,
        "route": cmd_route,
        "chaos": cmd_chaos,
        "trace": cmd_trace,
        "bench": cmd_bench,
        "sweep": cmd_sweep,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
