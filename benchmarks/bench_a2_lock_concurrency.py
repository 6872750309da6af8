"""A2 — §3.2.1: "The maximum concurrency of f is no more than
min(d₁, d₂, ... d_u)" — lock-limited concurrency equals the minimum
conflict distance.

Regenerated artifact: a family of functions writing k cells ahead
(conflict distance k) with per-invocation work, run transformed on a
wide machine.  Shapes: measured concurrency is bounded by k and grows
with k, saturating at the work-limited concurrency of the conflict-free
variant.
"""

from repro.harness.report import format_table, shape_check
from repro.harness.workloads import make_int_list
from repro.lisp.interpreter import Interpreter
from repro.runtime.clock import FREE_SYNC
from repro.runtime.machine import Machine
from repro.transform.pipeline import Curare

DEPTH = 28
PROCESSORS = 12
TAIL_WORK = 80


def source_for(k: int) -> str:
    """Conflict at distance k: write the car of the k-th successor.

    The write sits in the head (before the spawn) so the lock protocol's
    invocation-order enforcement coincides with the original order.  The
    burn gives each invocation enough tail work that concurrency is
    conflict-limited, not work-limited.
    """
    access = "(c" + "d" * k + "r l)" if k > 1 else "(cdr l)"
    conflict = f"(if (consp {access}) (setf (car {access}) (car l)))" if k > 0 else ""
    return f"""
    (declaim (pure burn))
    (defun burn (n) (let ((i 0)) (while (< i n) (setq i (1+ i))) i))
    (defun f (l)
      (when l
        {conflict}
        (f (cdr l))
        (burn {TAIL_WORK})))
    """


def measure():
    rows = []
    for k in (1, 2, 3, 4, 0):  # 0 = conflict-free reference
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(source_for(k))
        # The law is stated for locks released "just before [the
        # invocation] terminates"; last-use release (the default)
        # beats it, which A8 measures.
        result = curare.transform("f", early_release=False)
        bound = result.locking.concurrency_bound if result.locking else None
        curare.runner.eval_text(make_int_list(DEPTH))
        machine = Machine(interp, processors=PROCESSORS, cost_model=FREE_SYNC)
        machine.spawn_text("(f-cc data)")
        stats = machine.run()
        label = str(k) if k else "∞ (none)"
        rows.append((label, bound, round(stats.mean_concurrency, 2),
                     stats.total_time))
    return rows


def test_a2_lock_concurrency(benchmark, record_table):
    rows = benchmark(measure)
    table = format_table(
        ["conflict distance", "analytic bound min(dᵢ)",
         "measured concurrency", "makespan"],
        rows,
    )
    by_k = {label: conc for label, _, conc, _ in rows}
    free = by_k["∞ (none)"]
    bounded_ok = all(
        by_k[str(k)] <= k + 0.75 for k in (1, 2, 3)
    )
    grows = by_k["1"] < by_k["2"] < by_k["4"] <= free + 0.5
    analytic_ok = all(
        bound == k for (label, bound, _, _), k in zip(rows, (1, 2, 3, 4))
        if label != "∞ (none)"
    )
    checks = [
        shape_check("analyzer reports min distance = k", analytic_ok),
        shape_check("measured concurrency ≤ min(dᵢ) (+tolerance)", bounded_ok),
        shape_check("concurrency grows with distance toward the "
                    "conflict-free level", grows),
    ]
    record_table("a2_lock_concurrency", table + "\n" + "\n".join(checks))
    assert analytic_ok
    assert bounded_ok
    assert grows
