"""``repro chaos --fleet``: attack the serve fleet, assert the contract.

The machine-level chaos sweep (``repro chaos``) perturbs the simulated
machine's timing and asserts sequential equivalence survives; this
runner applies the same trust-but-verify discipline one layer up, to
the fleet itself.  It stands up a *real* topology — N ``repro serve``
backend processes behind an in-process
:class:`~repro.fleet.router.ShardRouter` — and attacks it three ways
at once:

* a seeded :func:`~repro.serve.chaos.FleetFaultPlan` black-holes and
  slows router → backend sends (driving retry, failover, and the
  circuit breakers);
* midway through the request stream, one backend (seed-chosen) is
  ``kill -9``'d with no warning;
* the stream itself continues at full rate throughout.

The asserted contract is the fleet's reason to exist: **every** client
request still receives either a correct result or a typed error — no
dropped connections, no hangs — and a seed-chosen sample of results is
verified byte-identical (modulo ``wall``) to one-shot in-process
:mod:`repro.api` calls.  Determinism: the fault stream, the kill
choice, and the verification sample all derive from ``--seed``.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, List, Optional

from repro import api
from repro.fleet.client import BackendClient, BackendError
from repro.fleet.router import RouterConfig, ShardRouter
from repro.fleet.testbed import spawn_backend, wait_healthy
from repro.serve.chaos import FleetFaultPlan
from repro.serve.server import engine_call

FIG5 = """
(declaim (sapp f5 l))
(defun f5 (l)
  (cond ((null l) nil)
        ((null (cdr l)) (f5 (cdr l)))
        (t (setf (cadr l) (+ (car l) (cadr l)))
           (f5 (cdr l)))))
(setq data (list 1 2 3 4))
"""


def fleet_workload(requests: int) -> List[Dict[str, Any]]:
    """``requests`` distinct engine requests (distinct content digests:
    each variant's source differs by a comment, which the digest sees
    but the engine ignores)."""
    base = (
        ("run", {"source": FIG5,
                 "expr": "(progn (f5-cc data) (identity data))",
                 "transform": ["f5"]}),
        ("analyze", {"source": FIG5, "function": "f5"}),
        ("transform", {"source": FIG5, "function": "f5"}),
    )
    out = []
    for i in range(requests):
        op, params = base[i % len(base)]
        params = dict(params)
        params["source"] = f"{params['source']}\n; variant {i}\n"
        out.append({"op": op, "params": params})
    return out


def run_fleet_chaos(seed: int = 0, backends: int = 3, requests: int = 24,
                    kill_one: bool = True, budget: int = 64,
                    verify_sample: int = 6,
                    recorder: Any = None) -> Dict[str, Any]:
    """Run the attack; returns a JSON-able report with ``ok``."""
    rng = random.Random(seed)
    plan = FleetFaultPlan(seed, blackhole_rate=0.15, slow_rate=0.15,
                          slow_ms=(10.0, 80.0), budget=budget)
    procs = [spawn_backend(executor="thread", workers=2)
             for _ in range(backends)]
    router: Optional[ShardRouter] = None
    serve_thread: Optional[threading.Thread] = None
    killed: Optional[str] = None
    outcomes: List[Dict[str, Any]] = []
    try:
        for proc in procs:
            wait_healthy(proc.spec)
        router = ShardRouter(RouterConfig(
            backends=tuple(p.spec for p in procs),
            connect_timeout_s=0.5,
            attempts=max(3, backends),
            retry_base_delay_s=0.02,
            retry_max_delay_s=0.25,
            seed=seed,
            breaker_cooldown_s=0.25,
            probe_interval_s=0.25,
            cache_size=0,  # every request must route; no cache shortcuts
            chaos=plan,
            recorder=recorder,
        ))
        host, port = router.start()
        serve_thread = threading.Thread(target=router.serve_forever,
                                        daemon=True)
        serve_thread.start()
        client = BackendClient("router", host, port, connect_timeout_s=2.0)
        workload = fleet_workload(requests)
        kill_at = requests // 2 if kill_one and requests else None
        for i, item in enumerate(workload):
            if kill_at is not None and i == kill_at:
                victim = procs[rng.randrange(len(procs))]
                killed = victim.spec
                victim.sigkill()
            start = time.perf_counter()
            try:
                response = client.call(item["op"], item["params"],
                                       request_id=i, deadline_ms=60_000.0,
                                       timeout_s=60.0)
            except (BackendError, ValueError) as err:
                outcomes.append({"i": i, "op": item["op"],
                                 "outcome": "transport-failure",
                                 "detail": str(err)})
                continue
            outcome = {
                "i": i,
                "op": item["op"],
                "outcome": "ok" if response.get("ok") else
                           (response.get("error") or {}).get("code",
                                                             "malformed"),
                "wall_ms": round((time.perf_counter() - start) * 1000.0, 3),
            }
            if response.get("ok"):
                outcome["result"] = response.get("result", {})
            outcomes.append(outcome)
        stats = router.control_body("stats")
    finally:
        if router is not None:
            router.stop(timeout=10.0)
        if serve_thread is not None:
            serve_thread.join(timeout=10.0)
        for proc in procs:
            proc.terminate()
    # Verify a seed-chosen sample of fleet answers byte-identical
    # (modulo wall) to one-shot in-process facade calls.
    mismatches: List[int] = []
    ok_outcomes = [o for o in outcomes if o["outcome"] == "ok"]
    sample = rng.sample(ok_outcomes, min(verify_sample, len(ok_outcomes)))
    workload = fleet_workload(requests)
    for picked in sample:
        item = workload[picked["i"]]
        expected = api.canonical_json(
            api.strip_wall(engine_call(item["op"], dict(item["params"]))))
        got = api.canonical_json(api.strip_wall(picked["result"]))
        if got != expected:
            mismatches.append(picked["i"])
    failures = [
        {k: v for k, v in o.items() if k != "result"}
        for o in outcomes if o["outcome"] != "ok"
    ]
    report: Dict[str, Any] = {
        "mode": "fleet",
        "seed": seed,
        "backends": backends,
        "requests": requests,
        "killed": killed,
        "ok": not failures and not mismatches,
        "failures": failures,
        "mismatches": mismatches,
        "fault_plan": plan.describe(),
        "verified_sample": len(sample),
        "counters": stats.get("counters", {}),
    }
    return report


def format_fleet_chaos(report: Dict[str, Any]) -> str:
    counters = report.get("counters", {})
    lines = [
        f";; fleet chaos: seed {report['seed']}, "
        f"{report['backends']} backend(s), {report['requests']} request(s)",
        f";; faults: {report['fault_plan']}",
    ]
    if report.get("killed"):
        lines.append(f";; killed mid-run: {report['killed']} (SIGKILL)")
    lines.append(
        f";; routing: {counters.get('fleet.route.failovers', 0)} "
        f"failover(s), {counters.get('fleet.route.retries', 0)} "
        f"retry(ies), {counters.get('fleet.fallback', 0)} fallback(s), "
        f"{counters.get('fleet.route.breaker_skips', 0)} breaker skip(s)")
    lines.append(f";; verified byte-identity (modulo wall) on "
                 f"{report['verified_sample']} sampled answer(s)"
                 + (f"; MISMATCH at {report['mismatches']}"
                    if report.get("mismatches") else ""))
    if report["ok"]:
        lines.append(
            f";; PASS: all {report['requests']} requests answered ok "
            f"under fire")
    else:
        lines.append(f";; FAIL: {len(report['failures'])} request(s) "
                     f"not answered ok:")
        for failure in report["failures"][:10]:
            lines.append(f";;   #{failure['i']} {failure['op']}: "
                         f"{failure['outcome']}"
                         + (f" ({failure.get('detail')})"
                            if failure.get("detail") else ""))
    return "\n".join(lines)
