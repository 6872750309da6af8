"""A7 — §2 on arrays: "The techniques developed for FORTRAN can be
applied to Lisp arrays also."

Regenerated artifact: constant-offset subscript dependence over array
recursions — distances scale with offset/step exactly as the one-
equation GCD test predicts, the paper's footnote-1 double indirection
(A[A[i]]) degrades to conservative, and the transformed stencil runs
correctly under element locks at the predicted concurrency bound.
"""

from repro.harness.report import format_table, shape_check
from repro.lisp.interpreter import Interpreter
from repro.runtime.clock import FREE_SYNC
from repro.runtime.machine import Machine
from repro.transform.pipeline import Curare

N = 20
PROCESSORS = 8


def source_for(offset: int, step: int, indirect: bool = False) -> str:
    subscript = "(aref v i)" if indirect else (
        f"(+ i {offset})" if offset else "i"
    )
    return f"""
    (declaim (pure burn))
    (defun burn (n) (let ((i 0)) (while (< i n) (setq i (1+ i))) i))
    (defun f (v i n)
      (when (< i n)
        (setf (aref v {subscript}) (+ (aref v i) 1))
        (f v (+ i {step}) n)
        (burn 40)))
    """


def measure():
    rows = []
    cases = [
        (1, 1, False, 1),
        (2, 1, False, 2),
        (4, 1, False, 4),
        (4, 2, False, 2),
        (3, 2, False, None),  # gcd test: 2 ∤ 3 → independent
        (1, 1, True, 1),  # A[A[i]] → conservative distance 1
    ]
    for offset, step, indirect, expected in cases:
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program(source_for(offset, step, indirect))
        analysis = curare.analyze("f")
        measured = analysis.min_distance()
        label = "a[a[i]]" if indirect else f"a[i+{offset}], step {step}"
        rows.append((label, str(expected), str(measured),
                     measured == expected))
    # End-to-end: the distance-2 stencil overlaps ~2 invocations.
    interp = Interpreter()
    curare = Curare(interp, assume_sapp=True)
    curare.load_program(source_for(2, 1))
    # End-of-invocation release: the regime where min(dᵢ) bounds the
    # concurrency (A2); last-use release overlaps more (A8).
    curare.transform("f", early_release=False)
    curare.runner.eval_text(f"(setq v (make-array {N + 3} 0))")
    machine = Machine(interp, processors=PROCESSORS, cost_model=FREE_SYNC)
    machine.spawn_text(f"(f-cc v 0 {N})")
    stats = machine.run()
    return rows, stats.mean_concurrency


def test_a7_array_dependence(benchmark, record_table):
    rows, concurrency = benchmark(measure)
    table = format_table(
        ["subscripts", "GCD-test distance", "analyzer distance", "match"],
        rows,
    )
    all_match = all(ok for *_x, ok in rows)
    checks = [
        shape_check("every subscript case matches the dependence test",
                    all_match),
        shape_check(
            f"distance-2 stencil runs at concurrency ≈ 2 "
            f"(measured {concurrency:.2f})",
            1.4 <= concurrency <= 2.6,
        ),
    ]
    record_table("a7_array_dependence", table + "\n" + "\n".join(checks))
    assert all_match
    assert 1.4 <= concurrency <= 2.6
