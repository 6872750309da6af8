"""Staged-cache benchmark: hit rate across a one-transform code edit.

Written to ``BENCH_cache.json`` (enveloped, ``kind: cache-bench``).

The scenario the staged cache exists for: a fleet sweeps the 30-point
``cache`` grid, someone edits exactly one transform module
(``repro/transform/locking.py``), and the fleet sweeps again on fresh
machines.  Under the old whole-package ``code_version()`` key every
entry would be orphaned (0% hit rate).  Under per-stage fingerprints
the 28 analyze-family points key on the *distance* stage — whose
fingerprint a transform edit cannot move — so only the 2 full-pipeline
points (fig07, fig10) recompute.

Protocol (all cache traffic goes through one ``CacheServer`` over the
NDJSON wire — the fleet-shared tier, not a shared filesystem):

* cold pass — 2 concurrent worker threads, each with its own
  ``ResultCache`` over a local directory and the shared server
  (distinct local dirs), split the grid: 30 misses, 30 stores to the
  shared server;
* the edit — the package is copied, one transform module is edited on
  disk, and the per-stage fingerprints are recomputed from the copy;
* warm pass — 2 fresh workers with *empty* local dirs (every hit must
  come over the network) re-key the grid with the post-edit
  fingerprints: 28 network hits, 2 misses.

Gates (asserted under pytest, exit-code-enforced standalone):

* warm hit rate > 90% (expected 28/30 = 93.3%);
* every warm hit arrived over the network (``remote_hits``), since
  the warm workers' local tiers start empty;
* exactly the transform/machine/sweep fingerprints moved;
* correctness: every cached payload byte-identical (canonical JSON)
  to an uncached in-process recompute of the same job.

Runnable standalone (``python benchmarks/bench_cache.py``) or under
pytest like its siblings (records the human table to
``benchmarks/results/``).
"""

from __future__ import annotations

import pathlib
import shutil
import sys
import threading
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:  # standalone invocation
    sys.path.insert(0, str(REPO / "src"))

from repro import api
from repro.envelope import KIND_CACHE, dumps, wrap
from repro.scale.cache import HIT, ResultCache, canonical_json
from repro.scale.fingerprint import STAGES, stage_fingerprints
from repro.scale.grids import grid_jobs
from repro.scale.jobs import job_cache_key, run_job
from repro.serve.cacheserver import CacheServeConfig, CacheServer

WORKERS = 2
GRID = "cache"
HIT_RATE_GATE_PCT = 90.0
EDIT_TARGET = ("transform", "locking.py")
EDIT_TEXT = "\n# cache-bench probe: one-transform edit\n"


def _edited_package_fingerprints(tmp_root: pathlib.Path) -> dict:
    """Copy the live package, edit exactly one transform module, and
    recompute the per-stage fingerprints from the edited copy."""
    copy = tmp_root / "repro"
    shutil.copytree(pathlib.Path(api.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = copy.joinpath(*EDIT_TARGET)
    target.write_text(target.read_text(encoding="utf-8") + EDIT_TEXT,
                      encoding="utf-8")
    return stage_fingerprints(copy)


def _sweep_pass(jobs, spec: str, local_root: pathlib.Path,
                fingerprints=None) -> dict:
    """Sweep ``jobs`` with WORKERS concurrent threads, each owning its
    own store (own local dir, shared server)."""
    shards = [jobs[i::WORKERS] for i in range(WORKERS)]
    caches = [ResultCache(local_root / f"w{i}", server=spec)
              for i in range(WORKERS)]
    payloads: dict = {}
    statuses: dict = {}
    errors: list = []

    def worker(index: int) -> None:
        cache = caches[index]
        try:
            for job in shards[index]:
                key = job_cache_key(job, fingerprints=fingerprints)
                payload, status, _ = cache.get_or_compute(
                    key, lambda job=job: run_job(job))
                payloads[job.id] = payload
                statuses[job.id] = "hit" if status == HIT else "miss"
        except Exception as exc:  # surfaced by the main thread
            errors.append(f"worker {index}: {exc!r}")

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(WORKERS)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - t0
    if errors:
        raise RuntimeError("; ".join(errors))
    hits = sum(1 for s in statuses.values() if s == "hit")
    return {
        "jobs": len(jobs),
        "workers": WORKERS,
        "hits": hits,
        "misses": len(jobs) - hits,
        "hit_rate_pct": round(100.0 * hits / len(jobs), 1),
        "network_hits": sum(c.remote_hits for c in caches),
        "remote_errors": sum(c.remote_errors for c in caches),
        "wall_s": round(wall_s, 4),
        "payloads": payloads,
        "statuses": statuses,
    }


def run_benchmark(tmp_root: pathlib.Path) -> dict:
    t0 = time.perf_counter()
    jobs = grid_jobs(GRID)

    server = CacheServer(CacheServeConfig(
        root=str(tmp_root / "server-root")))
    host, port = server.start()
    spec = f"{host}:{port}"
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        cold = _sweep_pass(jobs, spec, tmp_root / "cold")

        live = stage_fingerprints()
        edited = _edited_package_fingerprints(tmp_root)
        unchanged = sorted(s for s in STAGES if live[s] == edited[s])
        changed = sorted(s for s in STAGES if live[s] != edited[s])

        warm = _sweep_pass(jobs, spec, tmp_root / "warm",
                           fingerprints=edited)
        counters = server.counters()
    finally:
        server.stop(timeout=10)

    # Correctness: every payload the warm pass served (cached or
    # recomputed) is byte-identical to an uncached in-process compute.
    byte_identical = all(
        canonical_json(warm["payloads"][job.id])
        == canonical_json(run_job(job))
        for job in jobs)

    for pass_body in (cold, warm):
        pass_body.pop("payloads")
        pass_body.pop("statuses")
    return {
        "grid": {"name": GRID, "jobs": len(jobs)},
        "edit": {"module": "repro/" + "/".join(EDIT_TARGET),
                 "stages_unchanged": unchanged,
                 "stages_changed": changed},
        "cold": cold,
        "warm": warm,
        "server": {
            "hits": counters.get("cache.server.hits", 0),
            "misses": counters.get("cache.server.misses", 0),
            "stores": counters.get("cache.server.stores", 0),
            "rejected_puts": counters.get("cache.server.rejected_puts",
                                          0)},
        "correctness": {"byte_identical_to_uncached": byte_identical},
        "wall": {"ms": round((time.perf_counter() - t0) * 1000.0, 3)},
    }


def check_gates(body: dict) -> list:
    failed = []
    if body["warm"]["hit_rate_pct"] <= HIT_RATE_GATE_PCT:
        failed.append(
            f"warm hit rate {body['warm']['hit_rate_pct']}% at or below "
            f"the {HIT_RATE_GATE_PCT}% gate")
    if body["warm"]["network_hits"] < body["warm"]["hits"]:
        failed.append("some warm hits did not arrive over the network")
    if body["edit"]["stages_unchanged"] != ["analysis", "distance",
                                            "parse"]:
        failed.append("transform edit moved an early-stage fingerprint")
    if body["edit"]["stages_changed"] != ["machine", "sweep",
                                          "transform"]:
        failed.append("transform edit missed a late-stage fingerprint")
    if not body["correctness"]["byte_identical_to_uncached"]:
        failed.append("cached payloads differ from uncached compute")
    if body["cold"]["hits"] != 0:
        failed.append("cold pass unexpectedly hit")
    return failed


def format_report(body: dict) -> str:
    lines = [
        f"grid: {body['grid']['name']} ({body['grid']['jobs']} jobs), "
        f"{WORKERS} concurrent workers, one shared cache server",
        f"edit: {body['edit']['module']}  "
        f"(unchanged: {', '.join(body['edit']['stages_unchanged'])})",
        "",
        f"{'pass':>6} {'hits':>6} {'misses':>8} {'hit rate':>10} "
        f"{'net hits':>10}",
    ]
    for key in ("cold", "warm"):
        s = body[key]
        lines.append(f"{key:>6} {s['hits']:>6} {s['misses']:>8} "
                     f"{s['hit_rate_pct']:>9.1f}% {s['network_hits']:>10}")
    lines += [
        "",
        f"warm hit rate across the edit: {body['warm']['hit_rate_pct']}%"
        f"  (gate: > {HIT_RATE_GATE_PCT:.0f}%)",
        f"cache server: {body['server']['hits']} hits / "
        f"{body['server']['misses']} misses / "
        f"{body['server']['stores']} stores",
        "byte-identical to uncached compute: "
        + ("yes" if body["correctness"]["byte_identical_to_uncached"]
           else "NO"),
    ]
    return "\n".join(lines)


def test_cache_hit_rate_across_transform_edit(record_table, tmp_path):
    body = run_benchmark(tmp_path)
    record_table("cache_staged", format_report(body))
    assert check_gates(body) == []


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-cache-") as tmp:
        body = run_benchmark(pathlib.Path(tmp))
    out = REPO / "BENCH_cache.json"
    out.write_text(dumps(wrap(KIND_CACHE, body)), encoding="utf-8")
    print(format_report(body))
    print(f"\nwrote {out}")
    failed = check_gates(body)
    for message in failed:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
