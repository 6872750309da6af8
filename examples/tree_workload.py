#!/usr/bin/env python3
"""Tree workloads: multiple call sites, server pools, and optimal S (§4).

A two-call-site recursion over cons trees is transformed in *enqueue*
mode: each call site gets its own task queue (§4.1's ordered queues) and
a pool of S servers drains them.  The example sweeps S and compares the
measured makespan with the paper's T(S) formula and S* = √(d(h+t)/h).

Run:  python examples/tree_workload.py
"""

from repro import Curare, Interpreter
from repro.harness.report import format_table
from repro.harness.workloads import make_tree
from repro.model.allocation import execution_time, optimal_servers
from repro.runtime.clock import FREE_SYNC
from repro.runtime.servers import run_server_pool
from repro.sexpr import pretty_str, write_str

TREE_DEPTH = 5  # 32 leaves, 63 invocations

PROGRAM = """
(declaim (pure burn))
(defun burn (n) (let ((i 0)) (while (< i n) (setq i (1+ i))) i))
(defun tree-scale (tr)
  (when tr
    (burn 20)
    (if (consp (car tr))
        (tree-scale (car tr))
        (setf (car tr) (* 2 (car tr))))
    (if (consp (cdr tr))
        (tree-scale (cdr tr))
        nil)))
"""


def main() -> None:
    # Show the transform once.
    interp = Interpreter()
    curare = Curare(interp, assume_sapp=True)
    curare.load_program(PROGRAM)
    result = curare.transform("tree-scale", mode="enqueue")
    print(result.report())
    print()
    print(pretty_str(result.final_form))
    print()

    # Reference result.
    ref_interp = Interpreter()
    ref = Curare(ref_interp, assume_sapp=True)
    ref.load_program(PROGRAM)
    ref.runner.eval_text(make_tree(TREE_DEPTH))
    ref.runner.eval_text("(tree-scale tree)")
    expected = write_str(ref.runner.eval_text("tree"))

    # Server sweep.
    d = 2 ** (TREE_DEPTH + 1) - 1  # invocations in a complete tree
    rows = []
    for servers in (1, 2, 4, 8, 12):
        i2 = Interpreter()
        c2 = Curare(i2, assume_sapp=True)
        c2.load_program(PROGRAM)
        c2.transform("tree-scale", mode="enqueue")
        c2.runner.eval_text(make_tree(TREE_DEPTH))
        tree = i2.globals.lookup("tree")
        pool = run_server_pool(
            i2, "tree-scale-cc", [tree], servers=servers, queues=2,
            cost_model=FREE_SYNC,
        )
        ok = write_str(tree) == expected
        rows.append((servers, pool.makespan,
                     round(pool.stats.utilization, 2), "yes" if ok else "NO"))
        assert ok

    # Calibrate h, t for the analytic comparison (rough: tree invocations
    # burn 20 then do a couple of field touches; queue ops in the head).
    h_dyn, t_dyn = 25, 70
    s_star = optimal_servers(d, h_dyn, t_dyn)
    print(format_table(["servers", "makespan", "utilization", "correct"], rows))
    print()
    print(f";; invocations d = {d}; analytic S* = √(d(h+t)/h) ≈ {s_star}")
    for s, t_meas, _, _ in rows:
        print(
            f";;   S={s:>2}: measured {t_meas:>6}   "
            f"analytic T(S) = {execution_time(d, s, h_dyn, t_dyn):>8.0f}"
        )


if __name__ == "__main__":
    main()
