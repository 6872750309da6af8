"""F10 / A3 — Figure 10 and §4.1: T(S) = (⌈d/S⌉−1)(h+t) + (Sh+t) and
the optimal server count S* = √(d(h+t)/h).

Regenerated artifact: a server sweep on the machine for a fixed (d,h,t)
workload, printed against the analytic formula; plus the empirical
argmin compared to S*.  Shapes: the measured curve falls steeply from
S=1, flattens near S*, and more servers than c_f·-ish widths stop
helping; the analytic curve has the same character.
"""

from repro.harness.report import format_table, shape_check
from repro.harness.workloads import burn_cost, make_int_list, make_synthetic
from repro.lisp.interpreter import Interpreter
from repro.model.allocation import execution_time, optimal_servers
from repro.runtime.clock import FREE_SYNC
from repro.runtime.servers import run_server_pool
from repro.transform.pipeline import Curare

DEPTH = 32
HEAD, TAIL = 8, 40
SWEEP = (1, 2, 3, 4, 6, 8, 12, 16)


def measure():
    base = burn_cost(0)
    per_unit = (burn_cost(100) - base) / 100.0
    h_dyn = base + per_unit * HEAD + 16  # skeleton overhead incl. queue ops
    t_dyn = base + per_unit * TAIL

    rows = []
    measured = {}
    for servers in SWEEP:
        work = make_synthetic(HEAD, TAIL, name="f")
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(work.source)
        curare.transform("f", mode="enqueue")
        curare.runner.eval_text(make_int_list(DEPTH))
        data = interp.globals.lookup("data")
        pool = run_server_pool(
            interp, "f-cc", [data], servers=servers, cost_model=FREE_SYNC
        )
        analytic = execution_time(DEPTH, servers, h_dyn, t_dyn)
        measured[servers] = pool.makespan
        rows.append((servers, pool.makespan, round(analytic)))
    s_star = optimal_servers(DEPTH, h_dyn, t_dyn)
    empirical_best = min(measured, key=measured.get)
    return rows, s_star, empirical_best, measured


def test_fig10_execution_time(benchmark, record_table):
    rows, s_star, best, measured = benchmark(measure)
    table = format_table(["S", "measured T(S)", "analytic T(S)"], rows)
    falls = measured[1] > measured[4] > measured[8] * 0.8
    flattens = measured[16] > measured[best] * 0.8  # no big win past best
    near = abs(best - s_star) <= max(4, s_star)  # same region of the curve
    checks = [
        shape_check(f"analytic S* = {s_star}, empirical best S = {best}", near),
        shape_check("measured curve falls steeply from S=1", falls),
        shape_check("measured curve flattens at large S", flattens),
        shape_check(
            "measured within 2x of analytic at every S",
            all(0.5 <= m / a <= 2.0 for _, m, a in rows),
        ),
    ]
    record_table("fig10_execution_time", table + "\n" + "\n".join(checks))
    assert falls
    assert near
    assert all(0.5 <= m / a <= 2.0 for _, m, a in rows)
