"""A3 — §4.1: S* = √(d(h+t)/h) across recursion depths.

"Setting the first derivative of the equation with respect to S equal
to zero, we obtain a minimum at S = √(d(h+t)/h)."

Regenerated artifact: for several depths d, the empirical best server
count from a machine sweep against the analytic S* (capped by c_f):
S* must grow like √d and the empirical best must track it (same side
of the sweep, within the formula's ±factor-2 region).
"""

import math

from repro.harness.report import format_table, shape_check
from repro.harness.workloads import burn_cost, make_int_list, make_synthetic
from repro.lisp.interpreter import Interpreter
from repro.model.allocation import optimal_servers
from repro.model.concurrency import cri_concurrency
from repro.runtime.clock import FREE_SYNC
from repro.runtime.servers import run_server_pool
from repro.transform.pipeline import Curare

HEAD, TAIL = 8, 40
DEPTHS = (8, 16, 32)
SWEEP = (1, 2, 3, 4, 6, 8, 12)


def measure():
    base = burn_cost(0)
    per_unit = (burn_cost(100) - base) / 100.0
    h_dyn = base + per_unit * HEAD + 16
    t_dyn = base + per_unit * TAIL
    cf = cri_concurrency(h_dyn, t_dyn)

    rows = []
    for depth in DEPTHS:
        best_s, best_t = None, None
        for servers in SWEEP:
            work = make_synthetic(HEAD, TAIL, name="f")
            interp = Interpreter()
            curare = Curare(interp, assume_sapp=True)
            curare.load_program(work.source)
            curare.transform("f", mode="enqueue")
            curare.runner.eval_text(make_int_list(depth))
            data = interp.globals.lookup("data")
            pool = run_server_pool(
                interp, "f-cc", [data], servers=servers, cost_model=FREE_SYNC
            )
            if best_t is None or pool.makespan < best_t:
                best_s, best_t = servers, pool.makespan
        s_star = optimal_servers(depth, h_dyn, t_dyn, cf=cf)
        rows.append((depth, round(math.sqrt(depth * (h_dyn + t_dyn) / h_dyn), 1),
                     s_star, best_s, best_t))
    return rows, cf


def test_a3_optimal_servers(benchmark, record_table):
    rows, cf = benchmark(measure)
    table = format_table(
        ["depth d", "√(d(h+t)/h)", "analytic S* (capped by c_f)",
         "empirical best S", "best makespan"],
        rows,
    )
    stars = [r[2] for r in rows]
    bests = [r[3] for r in rows]
    tracks = all(0.5 * s <= b <= 2.0 * s + 1 for s, b in zip(stars, bests))
    grows = bests == sorted(bests)
    checks = [
        shape_check(f"c_f = {cf:.2f} caps the allocation", all(s <= cf + 1 for s in stars)),
        shape_check("empirical best within factor-2 of analytic S*", tracks),
        shape_check("best S grows (weakly) with depth", grows),
    ]
    record_table("a3_optimal_servers", table + "\n" + "\n".join(checks))
    assert tracks
    assert grows
