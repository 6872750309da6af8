"""A5 — §4.1: multiple self-call sites need ordered queues.

"If f contains multiple self-recursive calls, then the order of
invocations can be scrambled by the queue. ... This problem can be
resolved by maintaining an ordered set of queues, one for each call
site."

Regenerated artifact: a two-call-site tree recursion transformed in
enqueue mode (one queue per site), run on server pools of increasing
width.  Shapes: the transform emits one queue per site; the result is
correct at every width; wider pools reduce the makespan for a tree
with real per-node work.
"""

from repro.harness.report import format_table, shape_check
from repro.harness.workloads import make_tree
from repro.lisp.interpreter import Interpreter
from repro.runtime.clock import FREE_SYNC
from repro.runtime.servers import run_server_pool
from repro.sexpr.printer import write_str
from repro.transform.pipeline import Curare

TREE_DEPTH = 4  # 2^4 = 16 leaves

SRC = """
(declaim (pure burn))
(defun burn (n) (let ((i 0)) (while (< i n) (setq i (1+ i))) i))
(defun scale (tr)
  (when tr
    (burn 25)
    (if (consp (car tr))
        (scale (car tr))
        (setf (car tr) (* 2 (car tr))))
    (if (consp (cdr tr))
        (scale (cdr tr))
        nil)))
"""


def expected_tree(interp):
    """Sequential reference on a fresh tree."""
    from repro.lisp.runner import SequentialRunner

    i2 = Interpreter()
    r2 = SequentialRunner(i2)
    r2.eval_text(SRC)
    r2.eval_text(make_tree(TREE_DEPTH))
    r2.eval_text("(scale tree)")
    return write_str(r2.eval_text("tree"))


def measure():
    ref = expected_tree(None)
    rows = []
    queue_count = None
    for servers in (1, 2, 4, 8):
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(SRC)
        result = curare.transform("scale", mode="enqueue")
        form_text = write_str(result.final_form)
        queue_count = form_text.count("*task-queue*-0") > 0 and (
            2 if "*task-queue*-1" in form_text else 1
        )
        curare.runner.eval_text(make_tree(TREE_DEPTH))
        tree = interp.globals.lookup("tree")
        pool = run_server_pool(
            interp, "scale-cc", [tree], servers=servers, queues=2,
            cost_model=FREE_SYNC,
        )
        got = write_str(tree)
        rows.append((servers, pool.makespan, pool.total_invocations, got == ref))
    return rows, queue_count


def test_a5_multi_callsite(benchmark, record_table):
    rows, queue_count = benchmark(measure)
    table = format_table(
        ["servers", "makespan", "invocations", "correct"], rows
    )
    makespans = {s: t for s, t, _, _ in rows}
    checks = [
        shape_check("transform emits one queue per call site", queue_count == 2),
        shape_check("correct result at every pool width",
                    all(ok for _, _, _, ok in rows)),
        shape_check("wider pools reduce tree makespan (1 → 4)",
                    makespans[4] < makespans[1]),
        shape_check("invocation count stable across widths",
                    len({n for _, _, n, _ in rows}) == 1),
    ]
    record_table("a5_multi_callsite", table + "\n" + "\n".join(checks))
    assert queue_count == 2
    assert all(ok for _, _, _, ok in rows)
    assert makespans[4] < makespans[1]
