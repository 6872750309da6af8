"""F8 — Figure 8 / §3.2.3: reordering declared-commutative updates.

"If addition is an atomic operation, then the apparent conflict between
the statements in Figure 8 is illusionary and ignoring the ordering
constraints will not affect the final result."

Regenerated artifact: the accumulating recursion with and without the
``(reorderable +)`` declaration.  Without it, the variable conflict is
unresolvable (no concurrency); with it, the conflict is dismissed, the
update is atomicized, and the concurrent run still produces the exact
sum on every schedule.
"""

from repro.declare import DeclarationRegistry, ReorderableDecl
from repro.harness.report import format_table, shape_check
from repro.harness.workloads import fig8_source, make_int_list
from repro.lisp.interpreter import Interpreter
from repro.runtime.machine import Machine
from repro.transform.pipeline import Curare

N = 16
EXPECTED = N * (N + 1) // 2


def run_both():
    rows = []
    outcomes = {}
    for label, decls in (
        ("undeclared", DeclarationRegistry()),
        ("(reorderable +)", DeclarationRegistry([ReorderableDecl("+")])),
    ):
        interp = Interpreter()
        curare = Curare(interp, decls=decls, assume_sapp=True)
        curare.load_program("(setq a 0)" + fig8_source())
        result = curare.transform("f8")
        active = len(result.analysis.active_conflicts())
        dismissed = len(result.analysis.dismissed_conflicts())
        correct = None
        if result.transformed:
            totals = set()
            for seed in range(4):
                i2 = Interpreter()
                c2 = Curare(i2, decls=decls, assume_sapp=True)
                c2.load_program("(setq a 0)" + fig8_source())
                c2.transform("f8")
                c2.runner.eval_text(make_int_list(N))
                machine = Machine(i2, processors=4, policy="random", seed=seed)
                machine.spawn_text("(f8-cc data)")
                machine.run()
                totals.add(i2.globals.lookup("a"))
            correct = totals == {EXPECTED}
        atomicized = result.reorder.atomicized if result.reorder else 0
        rows.append((label, active, dismissed, atomicized, correct))
        outcomes[label] = (active, dismissed, correct)
    return rows, outcomes


def test_fig08_reordering(benchmark, record_table):
    rows, outcomes = benchmark(run_both)
    table = format_table(
        ["declarations", "active conflicts", "dismissed", "atomicized", "correct"],
        rows,
    )
    undeclared = outcomes["undeclared"]
    declared = outcomes["(reorderable +)"]
    checks = [
        shape_check("without declaration the variable conflict is active",
                    undeclared[0] >= 1),
        shape_check("declaration dismisses the conflict",
                    declared[0] == 0 and declared[1] >= 1),
        shape_check(
            f"atomicized concurrent sum is exactly {EXPECTED} on all seeds",
            declared[2] is True,
        ),
    ]
    record_table("fig08_reordering", table + "\n" + "\n".join(checks))
    assert undeclared[0] >= 1
    assert declared[0] == 0 and declared[2] is True
