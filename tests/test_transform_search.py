"""Unit tests: the any-result parallel search transform (§3.2.3 cat. 3)."""

import pytest

from repro.analysis.conflicts import analyze_function
from repro.declare import AnyResultDecl, DeclarationRegistry, PureDecl
from repro.ir.unparse import unparse_function
from repro.lisp.interpreter import Interpreter
from repro.runtime.clock import FREE_SYNC
from repro.runtime.machine import Machine
from repro.sexpr.printer import write_str
from repro.transform.pipeline import Curare
from repro.transform.search import SearchError, to_parallel_search

SEARCH = """
(defun find-big (lst)
  (cond ((null lst) nil)
        ((> (car lst) 100) (car lst))
        (t (find-big (cdr lst)))))
"""


def analyzed(interp, runner, src=SEARCH, name="find-big"):
    runner.eval_text(src)
    return analyze_function(interp, interp.intern(name), assume_sapp=True)


class TestTransformShape:
    def test_worker_and_wrapper_produced(self, interp, runner):
        a = analyzed(interp, runner)
        result = to_parallel_search(a)
        assert result.func.name.name == "find-big-search"
        assert result.wrapper.name.name == "find-big"
        assert result.hit_sites == 1

    def test_worker_has_prune_check(self, interp, runner):
        a = analyzed(interp, runner)
        result = to_parallel_search(a)
        text = write_str(unparse_function(result.func))
        assert ":curare-no-result" in text
        assert "lock-cell!" in text and "unlock-cell!" in text

    def test_spawn_hoisted_before_test(self, interp, runner):
        a = analyzed(interp, runner)
        result = to_parallel_search(a)
        text = write_str(unparse_function(result.func))
        assert text.index("spawn") < text.index("(> (car lst) 100)")
        assert "(consp lst)" in text  # termination guard

    def test_wrapper_syncs(self, interp, runner):
        a = analyzed(interp, runner)
        result = to_parallel_search(a)
        text = write_str(unparse_function(result.wrapper))
        assert "(sync)" in text

    def test_non_tail_search_rejected(self, interp, runner):
        a = analyzed(
            interp, runner,
            "(defun s (l) (if (null l) 0 (+ 1 (s (cdr l)))))", "s",
        )
        with pytest.raises(SearchError):
            to_parallel_search(a)

    def test_no_hit_leaves_rejected(self, interp, runner):
        a = analyzed(
            interp, runner,
            "(defun w (l) (if (null l) nil (w (cdr l))))", "w",
        )
        with pytest.raises(SearchError):
            to_parallel_search(a)

    def test_non_recursive_rejected(self, interp, runner):
        a = analyzed(interp, runner, "(defun g (x) x)", "g")
        with pytest.raises(SearchError):
            to_parallel_search(a)


class TestPipelineIntegration:
    def _curare(self):
        interp = Interpreter()
        decls = DeclarationRegistry([AnyResultDecl("find-big")])
        curare = Curare(interp, decls=decls, assume_sapp=True)
        curare.load_program(SEARCH)
        return curare

    def test_declaration_routes_to_search_transform(self):
        curare = self._curare()
        result = curare.transform("find-big")
        assert result.transformed and result.search is not None
        assert curare.interp.intern("find-big-search") in curare.interp.functions

    def test_without_declaration_ordinary_pipeline(self, curare):
        curare.load_program(SEARCH)
        result = curare.transform("find-big")
        assert result.search is None  # normal CRI path

    def test_result_satisfies_criterion(self):
        curare = self._curare()
        curare.transform("find-big")
        hit = curare.runner.eval_text("(find-big-cc (list 1 2 300 4 500))")
        assert hit in (300, 500)  # ANY acceptable result

    def test_miss_returns_nil(self):
        curare = self._curare()
        curare.transform("find-big")
        assert curare.runner.eval_text("(find-big-cc (list 1 2 3))") is None
        assert curare.runner.eval_text("(find-big-cc nil)") is None

    @pytest.mark.parametrize("seed", range(4))
    def test_machine_result_always_acceptable(self, seed):
        curare = self._curare()
        curare.transform("find-big")
        curare.runner.eval_text("(setq d (list 1 2 300 4 500 6 700))")
        machine = Machine(
            curare.interp, processors=4, policy="random", seed=seed
        )
        machine.spawn_text("(setq hit (find-big-cc d))")
        machine.run()
        hit = curare.interp.globals.lookup("hit")
        assert hit in (300, 500, 700)

    def test_first_wins_exactly_one_store(self):
        curare = self._curare()
        curare.transform("find-big")
        curare.runner.eval_text("(setq d (list 200 300 400))")
        machine = Machine(curare.interp, processors=4)
        machine.spawn_text("(setq hit (find-big-cc d))")
        machine.run()
        # Exactly one write to the result cell's car (besides none):
        # find it in the trace — all writes to one location.
        cell_writes = {}
        for event in machine.trace.writes():
            cell_writes.setdefault(event.loc, 0)
            cell_writes[event.loc] += 1
        assert all(count == 1 for count in cell_writes.values())

    def test_parallel_search_speedup(self):
        src = """
        (declaim (any-result find-match) (pure slow-test))
        (defun slow-test (x)
          (let ((i 0)) (while (< i 25) (setq i (1+ i))) (> x 100)))
        (defun find-match (lst)
          (cond ((null lst) nil)
                ((slow-test (car lst)) (car lst))
                (t (find-match (cdr lst)))))
        """
        from repro.lisp.runner import SequentialRunner

        # Sequential time.
        i1 = Interpreter()
        r1 = SequentialRunner(i1)
        r1.eval_text(src)
        r1.eval_text("(setq d (list 1 2 3 4 5 6 7 8 9 10 11 150))")
        t0 = r1.time
        r1.eval_text("(find-match d)")
        seq_time = r1.time - t0

        i2 = Interpreter()
        curare = Curare(i2, assume_sapp=True)
        curare.load_program(src)
        curare.transform("find-match")
        curare.runner.eval_text("(setq d (list 1 2 3 4 5 6 7 8 9 10 11 150))")
        machine = Machine(i2, processors=6, cost_model=FREE_SYNC)
        machine.spawn_text("(setq hit (find-match-cc d))")
        stats = machine.run()
        assert i2.globals.lookup("hit") == 150
        assert stats.total_time < seq_time / 2
