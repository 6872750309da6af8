"""Unit tests: the Figure 9 server pool."""

import pytest

from repro.lisp.interpreter import Interpreter
from repro.runtime.clock import CostModel
from repro.runtime.servers import run_server_pool
from repro.sexpr.printer import write_str
from repro.transform.pipeline import Curare


def make_enqueue_fn(src: str, name: str, **transform_kw):
    interp = Interpreter()
    curare = Curare(interp, assume_sapp=True)
    curare.load_program(src)
    curare.transform(name, mode="enqueue", **transform_kw)
    return interp, curare


class TestSingleSitePool:
    SRC = """
    (defun zero (l)
      (when l
        (setf (car l) 0)
        (zero (cdr l))))
    """

    def test_all_invocations_processed(self):
        interp, curare = make_enqueue_fn(self.SRC, "zero")
        curare.runner.eval_text("(setq d (list 1 2 3 4 5 6 7 8))")
        d = interp.globals.lookup("d")
        result = run_server_pool(interp, "zero-cc", [d], servers=3)
        assert write_str(d) == "(0 0 0 0 0 0 0 0)"
        assert result.total_invocations == 9  # 8 cells + nil base case

    def test_work_distributed_across_servers(self):
        interp, curare = make_enqueue_fn(self.SRC, "zero")
        curare.runner.eval_text("(setq d (list 1 2 3 4 5 6 7 8 9 10 11 12))")
        d = interp.globals.lookup("d")
        result = run_server_pool(interp, "zero-cc", [d], servers=3)
        assert sum(result.per_server) == 13
        # The distance-1 chain serializes, but at least the pool ran.
        assert len(result.per_server) == 3

    def test_one_server_is_sequential(self):
        interp, curare = make_enqueue_fn(self.SRC, "zero")
        curare.runner.eval_text("(setq d (list 1 2 3 4))")
        d = interp.globals.lookup("d")
        result = run_server_pool(interp, "zero-cc", [d], servers=1)
        assert write_str(d) == "(0 0 0 0)"

    def test_makespan_reported(self):
        interp, curare = make_enqueue_fn(self.SRC, "zero")
        curare.runner.eval_text("(setq d (list 1 2 3))")
        d = interp.globals.lookup("d")
        result = run_server_pool(interp, "zero-cc", [d], servers=2)
        assert result.makespan > 0
        assert result.stats.total_time == result.makespan


class TestMultiSitePool:
    TREE = """
    (defun scale (tr)
      (when tr
        (if (consp (car tr))
            (scale (car tr))
            (setf (car tr) (* 2 (car tr))))
        (if (consp (cdr tr))
            (scale (cdr tr))
            nil)))
    """

    def test_tree_recursion_via_ordered_queues(self):
        interp, curare = make_enqueue_fn(self.TREE, "scale")
        curare.runner.eval_text(
            "(setq tr (cons (cons 1 (cons 2 nil)) (cons (cons 3 nil) nil)))"
        )
        tr = interp.globals.lookup("tr")
        result = run_server_pool(
            interp, "scale-cc", [tr], servers=2, queues=2
        )
        assert write_str(tr) == "((2 4) (6))"
        assert result.total_invocations >= 3

    def test_quiescence_terminates_multi_queue(self):
        # No close-queue! is emitted for multi-site functions; the pool
        # must still terminate via quiescence detection.
        interp, curare = make_enqueue_fn(self.TREE, "scale")
        curare.runner.eval_text("(setq tr (cons 1 nil))")
        tr = interp.globals.lookup("tr")
        result = run_server_pool(interp, "scale-cc", [tr], servers=3, queues=2)
        assert write_str(tr) == "(2)"


class TestMultiSiteLinearRecursion:
    """A linear recursion with two call sites (Figure 5's shape) through
    per-site queues, with its conflict locks active in the pool."""

    FIG5 = """
    (defun f5 (l)
      (cond ((null l) nil)
            ((null (cdr l)) (f5 (cdr l)))
            (t (setf (cadr l) (+ (car l) (cadr l)))
               (f5 (cdr l)))))
    """

    @pytest.mark.parametrize("servers", [1, 2, 4])
    def test_correct_at_every_width(self, servers):
        interp, curare = make_enqueue_fn(self.FIG5, "f5")
        result = curare.transform("f5", mode="enqueue", suffix="-q")
        curare.runner.eval_text("(setq d (list 1 2 3 4 5 6))")
        d = interp.globals.lookup("d")
        pool = run_server_pool(
            interp, "f5-q", [d], servers=servers,
            queues=result.cri.queue_count,
        )
        assert write_str(d) == "(1 3 6 10 15 21)"

    def test_queue_count_recorded(self):
        interp, curare = make_enqueue_fn(self.FIG5, "f5")
        result = curare.transform("f5", mode="enqueue", suffix="-q")
        assert result.cri.queue_count == 2

    def test_queue_mismatch_guard(self):
        interp, curare = make_enqueue_fn(self.FIG5, "f5")
        curare.transform("f5", mode="enqueue", suffix="-q")
        curare.runner.eval_text("(setq d (list 1 2))")
        d = interp.globals.lookup("d")
        with pytest.raises(ValueError):
            run_server_pool(interp, "f5-q", [d], servers=2)  # queues=1

    def test_single_site_queue_count_one(self):
        interp, curare = make_enqueue_fn(
            "(defun w (l) (when l (w (cdr l))))", "w"
        )
        result = curare.transform("w", mode="enqueue", suffix="-q")
        assert result.cri.queue_count == 1


class TestPoolParameters:
    SRC = """
    (defun burn (n) (let ((i 0)) (while (< i n) (setq i (1+ i))) i))
    (defun work (l)
      (when l
        (work (cdr l))
        (burn 30)))
    """

    def test_more_servers_help_with_tail_work(self):
        times = {}
        for s in (1, 4):
            interp, curare = make_enqueue_fn(self.SRC, "work")
            curare.runner.eval_text("(setq d (list 1 2 3 4 5 6 7 8))")
            d = interp.globals.lookup("d")
            result = run_server_pool(
                interp, "work-cc", [d], servers=s,
                cost_model=CostModel(spawn=0, context_switch=0),
            )
            times[s] = result.makespan
        assert times[4] < times[1]

    def test_processors_fewer_than_servers(self):
        interp, curare = make_enqueue_fn(self.SRC, "work")
        curare.runner.eval_text("(setq d (list 1 2 3 4))")
        d = interp.globals.lookup("d")
        result = run_server_pool(interp, "work-cc", [d], servers=4, processors=2)
        assert result.total_invocations == 5
