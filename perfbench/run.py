#!/usr/bin/env python3
"""The repo benchmark: one command, one named workload.

    python3 perfbench/run.py --workload transform --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The engine is loaded from ``src/``
of that checkout and nowhere else; without it the command exits 2
before printing a result.

``--trace 0`` prints every end-to-end metric (``BENCHMARK.json``
``end_to_end``); ``--trace 1`` runs the same seeded ops with timing
wrappers around each layer and prints every per-layer metric.  Every
output is checked against the reference interpreter; any failed op,
and any figure that differs between passes or from an earlier run of
the same seed on the same code, makes the command exit 1.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402  (the generator never imports the engine)
from common import (  # noqa: E402
    CLIENT_CORE, CORE, HASH_SEED, HERE, MIN_PASSES, ROOT, SETUP_REPEATS,
    SRC, STATE, YARDSTICK_INTERVAL_S, BenchError, HostTime, clock,
    import_engine, peak_rss_mb, pin, probe_ms, quantile, require_engine,
)

WORKLOADS = ("transform", "simulate", "chaos", "serve")


def code_digest() -> str:
    """Hash of the engine and benchmark sources: the determinism
    fingerprints are kept per code version."""
    h = hashlib.sha256()
    for base in (SRC / "repro", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_fingerprint(workload: str, seed: int, trace: int,
                      figures: Dict[str, Any]) -> Optional[str]:
    """Compare this run's deterministic figures with an earlier run of
    the same seed on the same code; store them on the first run."""
    folder = STATE / "determinism"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{workload}-seed{seed}-trace{trace}-{code_digest()}.json"
    text = json.dumps(figures, sort_keys=True)
    if path.exists():
        before = path.read_text(encoding="utf-8")
        if before != text:
            return f"figures differ from an earlier run of seed {seed}: " \
                   f"{before} != {text}"
        return None
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)
    return None


# ---------------------------------------------------------------------------
# in-process workloads

def setup_inproc(workload: str, seed: int) -> Tuple[float, float]:
    """Import the engine and warm up: the set-up a fresh process pays
    before its first measured op.  Returns (host-normalised, wall)
    seconds; the warm-up programs are generated before the clock
    starts, and the yardstick is read between the steps of set-up."""
    import inproc

    warm = inproc.warm_up_programs(gen.generate(workload, seed, window=-1))
    host = HostTime()
    start = clock()
    import_engine()
    from repro.perf import clear_caches

    ops = inproc.make(workload, warm).ops()
    wall = clock() - start
    normalised = wall * host.factor()
    # One op per program, on programs outside the measured list: pays
    # lazy imports and first-use set-up inside ``setup_s``.
    for op in ops + [clear_caches]:
        start = clock()
        op()
        took = clock() - start
        wall += took
        normalised += took * host.factor()
    return normalised, wall


def setup_children(workload: str, seed: int, n: int
                   ) -> List[Tuple[float, float]]:
    """``n`` more set-ups, each in a fresh process (an import can only
    be timed once per process)."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        normalised, wall = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(normalised), float(wall)))
    return times


def run_inproc(args: argparse.Namespace) -> Tuple[Dict[str, Any], Dict]:
    import inproc

    programs = gen.generate(args.workload, args.seed)
    if gen.generate(args.workload, args.seed) != programs:
        raise BenchError("op list differs between two generations")
    op_list_digest = hashlib.sha256(
        "\n".join(p.program + p.call for p in programs).encode()
    ).hexdigest()[:16]
    setups = [] if args.trace else setup_children(
        args.workload, args.seed, SETUP_REPEATS - 1)
    setups.append(setup_inproc(args.workload, args.seed))
    from repro.perf import cache_stats, clear_caches

    workload = inproc.make(args.workload, programs)
    ops = workload.ops()
    n = len(ops)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    latencies: List[List[float]] = [[] for _ in range(n)]
    first: List[Any] = [None] * n
    digests: List[Optional[str]] = [None] * n
    errors: Dict[int, str] = {}
    nondeterministic: Dict[int, str] = {}
    # Per pass: host-normalised op time, wall op time, traced?
    passes: List[Tuple[float, float, bool]] = []
    walls: List[float] = []
    cache_delta: Dict[str, Dict[str, int]] = {}
    attempted = 0
    failed = 0
    host = HostTime()
    began = clock()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        clear_caches()
        if traced:
            tracer.install()
            before = cache_stats()
        wall_start = clock()
        normalised = 0.0
        wall = 0.0
        # Ops timed since the last yardstick reading: (index, wall s).
        pending: List[Tuple[int, float]] = []
        since = clock()
        for i, op in enumerate(ops):
            attempted += 1
            start = clock()
            mark = tracer.begin_op(i) if traced else start
            try:
                outcome = op()
            except Exception as err:  # noqa: BLE001 — a failed op, counted
                outcome = err
            if traced:
                tracer.end_op(mark)
            took = clock() - start
            pending.append((i, took))
            wall += took
            if clock() - since >= YARDSTICK_INTERVAL_S or i == n - 1:
                factor = host.factor()
                for j, t in pending:
                    if not traced:
                        latencies[j].append(t * factor)
                    normalised += t * factor
                pending.clear()
                since = clock()
            if isinstance(outcome, Exception):
                failed += 1
                errors.setdefault(i, f"{type(outcome).__name__}: {outcome}")
                digest = f"error {type(outcome).__name__}"
            else:
                digest = workload.digest(outcome)
                if first[i] is None:
                    first[i] = outcome
            if digests[i] is None:
                digests[i] = digest
            elif digests[i] != digest:
                nondeterministic.setdefault(i, digest)
        if traced:
            tracer.uninstall()
            tracer.keep_spans = False
            after = cache_stats()
            for name, stats in after.items():
                delta = cache_delta.setdefault(name, {"hits": 0,
                                                      "misses": 0})
                for key in ("hits", "misses"):
                    delta[key] += stats.get(key, 0) - \
                        before.get(name, {}).get(key, 0)
        passes.append((normalised, wall, traced))
        walls.append(clock() - wall_start)
        if len(passes) >= MIN_PASSES and \
                clock() - began + statistics.median(walls) > args.seconds:
            break
    rss = peak_rss_mb()
    executions = len(passes)
    failures, figures = workload.check(
        [None if i in errors else first[i] for i in range(n)])
    failed_ops = {i: msg for i, msg in enumerate(failures) if msg}
    for i in failed_ops:
        if i not in errors:
            failed += executions
    problems = [f"op {i} ({programs[i].family} {programs[i].name}): {m}"
                for i, m in sorted({**failed_ops, **errors}.items())]
    problems += [f"op {i} ({programs[i].name}) changed between passes"
                 for i in sorted(nondeterministic)]
    untraced = [p for p in passes if not p[2]]
    result: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed + len(nondeterministic),
        "problems": problems,
        "figures": figures,
        "op_list": op_list_digest,
        "outcomes": hashlib.sha256(
            "\n".join(d or "" for d in digests).encode()).hexdigest()[:16],
        "pass_s": [round(p[0], 4) for p in passes],
        "ops": n,
        "passes": len(untraced),
        "traced_passes": executions - len(untraced),
        "host": host.summary(),
    }
    if tracer is None:
        per_op = [statistics.median(lat) for lat in latencies]
        repeats = [statistics.median(lat[1:]) for lat in latencies]
        result["metrics"] = {
            "setup_s": (statistics.median(s for s, _ in setups), "s",
                        len(setups)),
            "throughput_ops_s": (statistics.median(n / p[0]
                                                   for p in untraced),
                                 "1/s", len(untraced)),
            "latency_p50_ms": (quantile(per_op, 0.5) * 1000, "ms", n),
            "latency_p90_ms": (quantile(per_op, 0.9) * 1000, "ms", n),
            "hit_latency_p50_ms": (quantile(repeats, 0.5) * 1000, "ms", n),
            "peak_rss_mb": (rss, "MB", 1),
        }
        result["wall"] = {
            "setup_s": statistics.median(w for _, w in setups),
            "throughput_ops_s": statistics.median(n / p[1]
                                                  for p in untraced),
        }
        result["setups_s"] = [round(s, 4) for s, _ in setups]
    else:
        from spans import CROSSING_TIMING, layer_metrics

        layers = layer_metrics(
            tracer, cache_delta, statistics.median(p[0] for p in untraced),
            statistics.median(p[0] for p in passes if p[2]))
        transformed = figures["transformed_share"] * n
        layers["transform.locks"] = (figures.get("transform.locks", 0)
                                     / transformed if transformed else 0.0)
        refused = figures.get("transform.refused", {})
        layers["transform.refused"] = sum(refused.values())
        layers["transform.refused.strict_self_call"] = refused.get(
            "strict_self_call", 0)
        result["layers"] = layers
        result["crossing_timing"] = CROSSING_TIMING
        STATE.mkdir(parents=True, exist_ok=True)
        trace_path = STATE / f"trace-{args.workload}-seed{args.seed}.jsonl"
        result["spans"] = tracer.write(str(trace_path))
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    return result, figures


# ---------------------------------------------------------------------------
# output

def per_layer_units() -> Dict[str, str]:
    """Per-layer metric name -> unit, as ``BENCHMARK.json`` lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # One string-hash seed for every run: with a random one per
        # process, set and dict layouts inside the engine move op times
        # by several percent from run to run.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    pin(CLIENT_CORE if args.workload == "serve" else CORE)
    try:
        if args.setup_probe:
            print("%.6f %.6f" % setup_inproc(args.workload, args.seed))
            return 0
        require_engine()
        probe_start = probe_ms()
        if args.workload == "serve":
            import serve_load

            result, figures = serve_load.run(args, STATE)
        else:
            result, figures = run_inproc(args)
        probe_end = probe_ms()
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    problems = list(result["problems"])
    mismatch = check_fingerprint(args.workload, args.seed, args.trace,
                                 {"op_list": result["op_list"],
                                  "outcomes": result.get("outcomes"),
                                  "figures": figures,
                                  "layers": _counts(result.get("layers"))})
    if mismatch:
        problems.append(mismatch)
    failed = result["failed"] + (1 if mismatch else 0)
    metrics: Dict[str, Dict[str, Any]] = {}
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}: {result['ops']} "
          f"ops per pass, {result['passes']} untraced + "
          f"{result['traced_passes']} traced passes")
    if args.trace:
        layers = result["layers"]
        for name, unit in per_layer_units().items():
            value = float(layers.get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:40s} {value:12.4f} {unit}")
        print(f"  (hot crossings: {result['crossing_timing']}; "
              f"{result['spans']} spans in {result['trace_file']})")
    else:
        shares = {k: figures[k] for k in ("transformed_share",
                                          "sim_speedup", "verified_share")}
        for name, (value, unit, count) in result["metrics"].items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:22s} {value:12.4f} {unit:6s} n={count}")
        for name, value in shares.items():
            unit = "ratio" if name == "sim_speedup" else "share"
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:22s} {value:12.4f} {unit:6s} "
                  f"n={result['ops']} ops of one pass")
        if "recovered_share" in figures:
            print(f"  {'recovered_share':22s} "
                  f"{figures['recovered_share']:12.4f} share  "
                  f"(= 1 - verified_share; not in BENCHMARK.json)")
    if result.get("layout_only_differences"):
        print(f"  {result['layout_only_differences']} responses differed "
              f"from the in-process result only in the line breaks of "
              f"rendered code")
    for problem in problems:
        print(f"  FAIL {problem}")
    diagnostics = {"probe_start_ms": round(probe_start, 3),
                   "probe_end_ms": round(probe_end, 3),
                   "passes": result["passes"],
                   "traced_passes": result["traced_passes"],
                   "ops_per_pass": result["ops"],
                   "pass_s": result["pass_s"],
                   "setups_s": result.get("setups_s"),
                   "wall": result.get("wall"),
                   **result["host"]}
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _counts(layers: Optional[Dict[str, float]]) -> Dict[str, float]:
    """The per-layer figures that must repeat exactly for one seed."""
    if not layers:
        return {}
    return {k: float(f"{v:.9g}") for k, v in sorted(layers.items())
            if not k.endswith(("_ms", "_share", "trace_overhead",
                               "ticks_per_ms"))}


if __name__ == "__main__":
    sys.exit(main())
