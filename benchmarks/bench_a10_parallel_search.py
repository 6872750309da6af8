"""A10 — §3.2.3 category 3: any-result parallel search.

"If a program is willing to accept any result meeting a criterion, then
a search can proceed in parallel without the additional constraint of
having to find the same result as a sequential search."

Regenerated artifact: a search with an expensive acceptance test over a
miss-heavy list, sequential versus any-result-transformed, across
processor counts — plus the semantic freedom itself: on a multi-match
list, different schedules return different (all acceptable) hits.
"""

from repro.harness.report import format_table, shape_check
from repro.lisp.interpreter import Interpreter
from repro.lisp.runner import SequentialRunner
from repro.runtime.clock import FREE_SYNC
from repro.runtime.machine import Machine
from repro.transform.pipeline import Curare

SRC = """
(declaim (any-result probe) (pure slow-test))
(defun slow-test (x)
  (let ((i 0)) (while (< i 30) (setq i (1+ i))) (> x 100)))
(defun probe (lst)
  (cond ((null lst) nil)
        ((slow-test (car lst)) (car lst))
        (t (probe (cdr lst)))))
"""

MISS_HEAVY = "(setq d (list " + " ".join(["1"] * 15) + " 150))"
MULTI_MATCH = "(setq d (list 200 1 300 1 400 1 500))"


def measure():
    # Sequential reference.
    i1 = Interpreter()
    r1 = SequentialRunner(i1)
    r1.eval_text(SRC)
    r1.eval_text(MISS_HEAVY)
    t0 = r1.time
    r1.eval_text("(probe d)")
    seq_time = r1.time - t0

    rows = []
    for procs in (1, 2, 4, 8):
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(SRC)
        curare.transform("probe")
        curare.runner.eval_text(MISS_HEAVY)
        machine = Machine(interp, processors=procs, cost_model=FREE_SYNC)
        machine.spawn_text("(setq hit (probe-cc d))")
        stats = machine.run()
        hit = interp.globals.lookup("hit")
        rows.append((procs, stats.total_time,
                     round(seq_time / stats.total_time, 2), hit))

    # Semantic freedom: multi-match list under different seeds.
    hits = set()
    for seed in range(6):
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(SRC)
        curare.transform("probe")
        curare.runner.eval_text(MULTI_MATCH)
        machine = Machine(interp, processors=4, policy="random", seed=seed)
        machine.spawn_text("(setq hit (probe-cc d))")
        machine.run()
        hits.add(interp.globals.lookup("hit"))
    return rows, seq_time, hits


def test_a10_parallel_search(benchmark, record_table):
    rows, seq_time, hits = benchmark(measure)
    table = format_table(
        ["processors", "makespan", "speedup vs sequential", "hit"], rows
    )
    speedups = {p: s for p, _, s, _ in rows}
    checks = [
        shape_check("hit is the acceptable element on every width",
                    all(hit == 150 for *_a, hit in rows)),
        shape_check(f"parallel search speeds up (8 cpu: {speedups[8]}x)",
                    speedups[8] > 2.0),
        shape_check("speedup grows with processors",
                    speedups[1] <= speedups[2] <= speedups[8] + 0.01),
        shape_check(
            f"multi-match hits vary by schedule but all satisfy the "
            f"criterion (saw {sorted(hits)})",
            hits <= {200, 300, 400, 500} and len(hits) >= 1,
        ),
    ]
    record_table("a10_parallel_search", table + "\n" + "\n".join(checks))
    assert all(hit == 150 for *_a, hit in rows)
    assert speedups[8] > 2.0
    assert hits <= {200, 300, 400, 500}
