"""Property-based tests (hypothesis): array dependence + pipeline.

Random constant-offset stencils: the GCD dependence test must match a
brute-force index-set check, and the transformed kernel on the machine
must reproduce the sequential array contents under random schedules.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lisp.interpreter import Interpreter
from repro.lisp.runner import SequentialRunner
from repro.runtime.machine import Machine
from repro.transform.pipeline import Curare

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def kernel_source(offset: int, step: int) -> str:
    subscript = f"(+ i {offset})" if offset else "i"
    return f"""
    (defun k (v i n)
      (when (< i n)
        (if (< {subscript} (array-length v))
            (setf (aref v {subscript}) (+ (aref v {subscript}) (aref v i))))
        (k v (+ i {step}) n)))
    """


def brute_force_min_distance(offset: int, step: int, span: int = 40):
    """Smallest d ≥ 1 with i+offset == (i + d*step) for some i — i.e.
    the write of one invocation aliasing a later read of v[i]."""
    best = None
    for d in range(1, span):
        if offset == d * step:
            best = d
            break
    return best


class TestGCDMatchesBruteForce:
    @settings(max_examples=60, **COMMON)
    @given(st.integers(0, 8), st.integers(1, 4))
    def test_analysis_vs_brute_force(self, offset, step):
        interp = Interpreter()
        SequentialRunner(interp).eval_text(kernel_source(offset, step))
        from repro.analysis.conflicts import analyze_function

        analysis = analyze_function(interp, interp.intern("k"), assume_sapp=True)
        expected = brute_force_min_distance(offset, step)
        if offset == 0:
            # Same-element read-modify-write: no cross-invocation pair.
            assert analysis.conflict_free
        elif expected is None:
            assert analysis.conflict_free, [
                c.describe() for c in analysis.active_conflicts()
            ]
        else:
            assert analysis.min_distance() == expected


class TestTransformedKernelEquivalence:
    @settings(max_examples=25, **COMMON)
    @given(
        st.integers(1, 4),          # offset
        st.integers(1, 2),          # step
        st.integers(6, 14),         # array length
        st.integers(1, 4),          # processors
        st.integers(0, 9999),       # schedule seed
    )
    def test_machine_matches_sequential(self, offset, step, length, procs, seed):
        src = kernel_source(offset, step)
        bound = length  # iterate i over [0, length)

        # Sequential reference.
        i1 = Interpreter()
        r1 = SequentialRunner(i1)
        r1.eval_text(src)
        r1.eval_text(f"(setq v (make-array {length} 1))")
        r1.eval_text(f"(k v 0 {bound})")
        ref = list(i1.globals.lookup("v").items)

        # Transformed on the machine.
        i2 = Interpreter()
        curare = Curare(i2, assume_sapp=True)
        curare.load_program(src)
        result = curare.transform("k")
        assert result.transformed
        curare.runner.eval_text(f"(setq v (make-array {length} 1))")
        machine = Machine(i2, processors=procs, policy="random", seed=seed)
        machine.spawn_text(f"(k-cc v 0 {bound})")
        machine.run()
        got = list(i2.globals.lookup("v").items)
        assert got == ref
