"""F9 — Figure 9: servers executing invocations from a central queue.

"We can have a collection of servers that repeatedly execute this piece
of code.  Each server only needs to obtain the arguments to an
invocation to begin executing a new task.  It does not need to execute
a process context switch."

Regenerated artifact: server-count sweep for an enqueue-mode transformed
function, reporting makespan, utilization, and per-server work; plus the
paper's claimed advantage — the server pool avoids per-invocation
process-creation cost, so with the default cost model it beats the
spawn-per-invocation execution of the same function at equal width.
"""

from repro.harness.report import format_table, shape_check
from repro.harness.workloads import make_int_list, make_synthetic
from repro.lisp.interpreter import Interpreter
from repro.runtime.clock import CostModel
from repro.runtime.machine import Machine
from repro.runtime.servers import run_server_pool
from repro.transform.pipeline import Curare

DEPTH = 24
HEAD, TAIL = 10, 50
COSTS = CostModel(spawn=25, context_switch=10)


def build(mode: str):
    work = make_synthetic(HEAD, TAIL, name="f")
    interp = Interpreter()
    curare = Curare(interp, assume_sapp=True)
    curare.load_program(work.source)
    curare.transform("f", mode=mode)
    curare.runner.eval_text(make_int_list(DEPTH))
    return interp, curare


def sweep():
    rows = []
    for servers in (1, 2, 4, 8):
        interp, curare = build("enqueue")
        data = interp.globals.lookup("data")
        pool = run_server_pool(
            interp, "f-cc", [data], servers=servers, cost_model=COSTS
        )
        rows.append(
            (servers, pool.makespan, round(pool.stats.utilization, 2),
             pool.total_invocations, pool.per_server)
        )
    # Spawn-per-invocation comparison at width 4.
    interp, curare = build("spawn")
    machine = Machine(interp, processors=4, cost_model=COSTS)
    machine.spawn_text("(f-cc data)")
    stats = machine.run()
    return rows, stats.total_time, stats.spawns


def test_fig09_server_pool(benchmark, record_table):
    rows, spawn_time, spawn_count = benchmark(sweep)
    table = format_table(
        ["servers", "makespan", "utilization", "invocations", "per-server"],
        [(s, t, u, n, str(per)) for s, t, u, n, per in rows],
    )
    makespans = {s: t for s, t, _, _, _ in rows}
    pool4 = makespans[4]
    checks = [
        shape_check("more servers reduce makespan (1 → 4)",
                    makespans[4] < makespans[1]),
        shape_check("all invocations processed at every width",
                    all(n == DEPTH + 1 for _, _, _, n, _ in rows)),
        shape_check(
            "server pool ≤ spawn-per-invocation at width 4 "
            f"(pool {pool4} vs spawn {spawn_time}; {spawn_count} spawns paid)",
            pool4 <= spawn_time,
        ),
    ]
    record_table("fig09_server_pool", table + "\n" + "\n".join(checks))
    assert makespans[4] < makespans[1]
    assert pool4 <= spawn_time
