#!/usr/bin/env python3
"""Spread report: how much each end-to-end metric moves between runs.

    python3 perfbench/spread.py --workload simulate --seeds 1-10

Runs ``perfbench/run.py`` once per seed and workload, one run at a
time, and prints for each end-to-end metric its median, first and
third quartile (``statistics.quantiles(values, n=4)``) and the spread
(quartile distance over median), beside the host-probe times and the
median yardstick reading each run recorded.  A spread above a tenth of
the median, or above a third of the metric's bound in
``BENCHMARK.json``, is flagged.  ``setup_s`` has no spread limit, only
its bound against another set of runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> List[int]:
    out: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def one_run(workload: str, seed: int, seconds: float) -> Dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    diagnostics = next(json.loads(line.split(" ", 1)[1])
                       for line in lines if line.startswith("diagnostics "))
    return {"seed": seed, "result": result, "diagnostics": diagnostics}


def report(workload: str, runs: List[Dict], bounds: Dict[str, float]) -> int:
    flagged = 0
    probes = [(r["diagnostics"]["probe_start_ms"],
               r["diagnostics"]["probe_end_ms"],
               r["diagnostics"]["yardstick_median_ms"]) for r in runs]
    print(f"{workload}: {len(runs)} runs, host probe start/end ms "
          f"(median yardstick ms) "
          + " ".join(f"{a:.0f}/{b:.0f}({y:.1f})" for a, b, y in probes))
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        flags = []
        if name != "setup_s" and spread > 0.1:
            flags.append("SPREAD>0.1")
        if name != "setup_s" and spread > bound / 3:
            flags.append("SPREAD>BOUND/3")
        flagged += bool(flags)
        print(f"  {name:20s} median {median:10.4f}  q1 {q1:10.4f}  "
              f"q3 {q3:10.4f}  spread {spread:6.3f}  bound {bound:.2f} "
              + " ".join(flags))
    return flagged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", help="write every run's output here")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    everything = {}
    flagged = 0
    for workload in args.workload:
        runs = []
        for seed in seeds(args.seeds):
            runs.append(one_run(workload, seed, seconds))
            print(f"  ran {workload} seed {seed}", file=sys.stderr)
        everything[workload] = runs
        flagged += report(workload, runs, bounds)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(everything, out, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
