"""Stress tests and edge cases: deep recursion, futures, machine limits."""

import pytest

from repro.lisp.interpreter import Interpreter
from repro.lisp.runner import SequentialRunner
from repro.lisp.values import Future
from repro.runtime.clock import FREE_SYNC
from repro.runtime.machine import Machine
from repro.sexpr.printer import write_str
from repro.transform.pipeline import Curare


class TestDeepRecursion:
    DEPTH = 400

    def _list_text(self) -> str:
        return "(setq d (list " + " ".join(["1"] * self.DEPTH) + "))"

    def test_sequential_deep(self):
        interp = Interpreter()
        runner = SequentialRunner(interp)
        runner.eval_text("(defun z (l) (when l (setf (car l) 0) (z (cdr l))))")
        runner.eval_text(self._list_text())
        runner.eval_text("(z d)")
        d = interp.globals.lookup("d")
        node, count = d, 0
        while node is not None:
            assert node.car == 0
            node, count = node.cdr, count + 1
        assert count == self.DEPTH

    def test_machine_deep_cri(self):
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program("(defun z (l) (when l (setf (car l) 0) (z (cdr l))))")
        curare.transform("z")
        curare.runner.eval_text(self._list_text())
        machine = Machine(interp, processors=4, cost_model=FREE_SYNC)
        machine.spawn_text("(z-cc d)")
        stats = machine.run()
        assert stats.processes == self.DEPTH + 1
        d = interp.globals.lookup("d")
        node = d
        while node is not None:
            assert node.car == 0
            node = node.cdr

    def test_sequential_spawn_transformed_deep(self):
        # Depth-first spawn execution nests generators; the raised
        # recursion limit must absorb this depth.
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program("(defun z (l) (when l (setf (car l) 0) (z (cdr l))))")
        curare.transform("z")
        curare.runner.eval_text(self._list_text())
        curare.runner.eval_text("(z-cc d)")
        d = interp.globals.lookup("d")
        assert d.car == 0


# The reference interpreter nests Python generator frames per
# evaluation step on the C stack; past its depth bound a program must
# fail with a typed error, not kill the process.  Each check runs in a
# child process, so a regression fails this test instead of the whole
# suite.  Every interpreted tick walks the whole frame chain, so a run
# this deep takes tens of seconds: the two children run side by side.
_DEEP_PRELUDE = """
import json
from repro import api
from repro.serve import AnalysisService, Request, ServeConfig

DN = "(defun dn (n) (if (= n 0) 0 (+ 1 (dn (- n 1)))))"
# Nine nested forms a level: the bound comes at a shallower depth.
NESTED = ("(defun dn (n) (if (= n 0) 0 (+ 1 (progn (progn (progn "
          "(progn (progn (progn (progn (progn (dn (- n 1)))))))))))))")


def run(source, expr, mode):
    try:
        return api.run(source, expr, api.RunOptions(eval_mode=mode)).value
    except api.ApiError as err:
        return err.code
"""

_DEEP_CHECKS = {
    "serve": _DEEP_PRELUDE + """
service = AnalysisService(ServeConfig(workers=1))
served = service.handle(Request(id=1, op="run", deadline_ms=600_000, params={
    "source": DN, "expr": "(dn 5000)", "eval_mode": "interpreter"}))
service.close()
print(json.dumps({
    "code": served["error"]["code"] if not served["ok"] else "ok",
    "bounded": "recursion too deep" in served["error"]["message"],
    "compiled": run(DN, "(dn 30000)", "compiled"),
}))
""",
    "api": _DEEP_PRELUDE + """
print(json.dumps({
    "code": run(NESTED, "(dn 5000)", "interpreter"),
    "interpreted": run(DN, "(dn 3000)", "interpreter"),
}))
""",
}


class TestInterpreterDepthBound:
    def test_too_deep_is_an_engine_error_not_a_crash(self):
        import json
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        env = dict(os.environ,
                   PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
        children = {
            name: subprocess.Popen([sys.executable, "-c", code],
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, text=True,
                                   env=env)
            for name, code in _DEEP_CHECKS.items()}
        results = {}
        try:
            for name, child in children.items():
                out, err = child.communicate(timeout=300)
                assert child.returncode == 0, (name, err[-2000:])
                results[name] = json.loads(out.splitlines()[-1])
        finally:
            for child in children.values():
                child.kill()
                child.wait(timeout=10)
        assert results == {
            "serve": {"code": "engine_error", "bounded": True,
                      "compiled": "30000"},
            "api": {"code": "engine_error", "interpreted": "3000"},
        }


class TestFutureEdges:
    def test_double_resolve_rejected(self):
        fut = Future()
        fut.resolve(1)
        with pytest.raises(RuntimeError):
            fut.resolve(2)

    def test_pending_future_prints_as_pending(self):
        fut = Future()
        assert "pending" in write_str(fut)

    def test_resolved_future_prints_value(self):
        fut = Future()
        fut.resolve(42)
        assert write_str(fut) == "42"

    def test_chained_futures_unwrap(self):
        inner = Future()
        inner.resolve(7)
        outer = Future()
        outer.resolve(inner)
        assert write_str(outer) == "7"

    def test_future_in_structure_prints_transparently(self, runner, interp):
        runner.eval_text("(setq f (future 99)) (setq pair (cons f nil))")
        assert write_str(runner.eval_text("pair")) == "(99)"

    def test_touch_of_chained_future(self, runner):
        assert runner.eval_text("(touch (future (touch (future 5))))") == 5

    def test_equal_sees_through_futures(self, runner):
        assert runner.eval_text(
            "(equal (cons (future 1) nil) (cons 1 nil))"
        ) is True

    def test_field_read_through_future_blocks_until_resolved(self):
        interp = Interpreter()
        runner = SequentialRunner(interp)
        runner.eval_text(
            "(defun make-slow-list () "
            "  (let ((i 0)) (while (< i 30) (setq i (1+ i))) (list 10 20)))"
        )
        machine = Machine(interp, processors=2)
        proc = machine.spawn_text("(car (future (make-slow-list)))")
        machine.run()
        assert proc.result == 10


class TestMachineLimits:
    def test_max_time_enforced(self):
        from repro.lisp.errors import LispError

        interp = Interpreter()
        machine = Machine(interp, processors=1, max_time=100)
        machine.spawn_text("(let ((i 0)) (while t (setq i (1+ i))))")
        with pytest.raises(LispError):
            machine.run()

    def test_many_processes_multiprogrammed(self):
        interp = Interpreter()
        runner = SequentialRunner(interp)
        runner.eval_text(
            "(defun fan (n) (when (> n 0) (spawn (leaf)) (fan (1- n))))"
            "(defun leaf () (let ((i 0)) (while (< i 10) (setq i (1+ i)))))"
        )
        machine = Machine(interp, processors=2, cost_model=FREE_SYNC)
        machine.spawn_text("(fan 50)")
        stats = machine.run()
        assert stats.processes == 51  # main + 50 leaves
        assert stats.peak_live_processes > 2  # more processes than CPUs

    def test_mean_concurrency_never_exceeds_processors(self):
        interp = Interpreter()
        curare = Curare(interp, assume_sapp=True)
        curare.load_program("(defun w (l) (when l (spawn (w (cdr l))) (length l)))")
        curare.runner.eval_text("(setq d (list 1 2 3 4 5 6 7 8 9 10))")
        machine = Machine(interp, processors=3, cost_model=FREE_SYNC)
        machine.spawn_text("(w d)")
        stats = machine.run()
        assert stats.mean_concurrency <= 3.0 + 1e-9
        assert max(busy for busy, _ in stats.concurrency_runs) <= 3
