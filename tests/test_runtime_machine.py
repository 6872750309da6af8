"""Unit tests: the simulated multiprocessor."""

import pytest

from repro.lisp.interpreter import Interpreter
from repro.runtime.clock import FREE_SYNC, CostModel
from repro.runtime.machine import DeadlockDetected, Machine
from repro.sexpr.printer import write_str


def fresh_machine(src="", processors=2, **kw):
    interp = Interpreter()
    if src:
        from repro.lisp.runner import SequentialRunner

        SequentialRunner(interp).eval_text(src)
    return interp, Machine(interp, processors=processors, **kw)


class TestBasics:
    def test_single_process_result(self):
        interp, m = fresh_machine()
        p = m.spawn_text("(+ 1 2)")
        m.run()
        assert p.result == 3
        assert p.state == "done"

    def test_time_advances(self):
        interp, m = fresh_machine()
        m.spawn_text("(+ 1 (+ 2 (+ 3 4)))")
        stats = m.run()
        assert stats.total_time > 0

    def test_needs_a_processor(self):
        interp = Interpreter()
        with pytest.raises(ValueError):
            Machine(interp, processors=0)

    def test_bad_policy(self):
        interp = Interpreter()
        with pytest.raises(ValueError):
            Machine(interp, policy="lifo")

    def test_run_main_returns_result(self):
        interp, m = fresh_machine()
        p = m.spawn_text("(* 6 7)")
        assert m.run_main(p) == 42

    def test_max_time_cap(self):
        interp, m = fresh_machine(max_time=50)
        m.spawn_text("(let ((i 0)) (while (< i 1000) (setq i (1+ i))))")
        with pytest.raises(Exception):
            m.run()


class TestSpawning:
    SRC = "(defun zero (l) (when l (setf (car l) 0) (spawn (zero (cdr l)))))"

    def test_spawned_processes_complete(self):
        interp, m = fresh_machine(self.SRC + " (setq d (list 1 2 3 4))", processors=4)
        m.spawn_text("(zero d)")
        stats = m.run()
        assert stats.processes == 5  # main + 4 spawns
        assert write_str(interp.globals.lookup("d")) == "(0 0 0 0)"

    def test_spawn_cost_charged(self):
        src = self.SRC + " (setq d (list 1 2 3 4))"
        cheap_i, cheap = fresh_machine(src, cost_model=CostModel(spawn=0, context_switch=0))
        cheap.spawn_text("(zero d)")
        t_cheap = cheap.run().total_time
        dear_i, dear = fresh_machine(src, cost_model=CostModel(spawn=50, context_switch=0))
        dear.spawn_text("(zero d)")
        t_dear = dear.run().total_time
        assert t_dear > t_cheap

    def test_more_processors_fewer_makespan(self):
        # With enough tail work, concurrency helps.
        src = """
        (defun burn (n) (let ((i 0)) (while (< i n) (setq i (1+ i))) i))
        (defun w (l) (when l (spawn (w (cdr l))) (burn 40)))
        """
        i1, m1 = fresh_machine(src + "(setq d (list 1 2 3 4 5 6 7 8))", processors=1,
                               cost_model=FREE_SYNC)
        m1.spawn_text("(w d)")
        t1 = m1.run().total_time
        i4, m4 = fresh_machine(src + "(setq d (list 1 2 3 4 5 6 7 8))", processors=4,
                               cost_model=FREE_SYNC)
        m4.spawn_text("(w d)")
        t4 = m4.run().total_time
        assert t4 < t1

    def test_concurrency_stats_sampled(self):
        src = """
        (defun burn (n) (let ((i 0)) (while (< i n) (setq i (1+ i))) i))
        (defun w (l) (when l (spawn (w (cdr l))) (burn 30)))
        (setq d (list 1 2 3 4 5 6))
        """
        interp, m = fresh_machine(src, processors=4, cost_model=FREE_SYNC)
        m.spawn_text("(w d)")
        stats = m.run()
        assert stats.mean_concurrency > 1.2
        assert stats.peak_live_processes >= 2


class TestFutures:
    def test_future_value(self):
        interp, m = fresh_machine()
        p = m.spawn_text("(touch (future (* 3 4)))")
        m.run()
        assert p.result == 12

    def test_future_parallel_fib(self):
        interp, m = fresh_machine(
            "(defun fib (n) (if (< n 2) n (+ (touch (future (fib (- n 1)))) (fib (- n 2)))))",
            processors=4,
        )
        p = m.spawn_text("(fib 9)")
        m.run()
        assert p.result == 34

    def test_touch_blocks_until_resolved(self):
        interp, m = fresh_machine(
            "(defun slow () (let ((i 0)) (while (< i 50) (setq i (1+ i))) 99))",
            processors=2,
        )
        p = m.spawn_text("(touch (future (slow)))")
        m.run()
        assert p.result == 99


class TestLocksOnMachine:
    def test_lock_orders_writes(self):
        src = """
        (setq cell (cons 0 nil))
        (defun bump ()
          (lock-loc! cell 'car)
          (let ((v (car cell)))
            (setf (car cell) (1+ v)))
          (unlock-loc! cell 'car))
        """
        interp, m = fresh_machine(src, processors=4)
        for _ in range(6):
            m.spawn_text("(bump)")
        m.run()
        cell = interp.globals.lookup("cell")
        assert cell.car == 6

    def test_unlocked_increment_races(self):
        # Demonstrates the machine really interleaves: without the lock
        # the read-modify-write can lose updates.
        src = """
        (setq cell (cons 0 nil))
        (defun bump-racy ()
          (let ((v (car cell)))
            (setf (car cell) (1+ v))))
        """
        interp, m = fresh_machine(src, processors=4,
                                  cost_model=CostModel(spawn=0, context_switch=0))
        for _ in range(6):
            m.spawn_text("(bump-racy)")
        m.run()
        cell = interp.globals.lookup("cell")
        assert cell.car < 6  # lost updates

    def test_deadlock_detected(self):
        interp, m = fresh_machine("(setq q (make-queue))")
        m.spawn_text("(dequeue! q)")
        with pytest.raises(DeadlockDetected):
            m.run()


class TestQueuesOnMachine:
    def test_producer_consumer(self):
        src = """
        (setq q (make-queue))
        (defun produce (n) (let ((i 0)) (while (< i n) (enqueue! q i) (setq i (1+ i))) (close-queue! q)))
        (defun consume (acc)
          (let ((x (dequeue! q)))
            (if (eq x ':queue-closed) acc (consume (+ acc x)))))
        """
        interp, m = fresh_machine(src, processors=2)
        m.spawn_text("(produce 5)")
        consumer = m.spawn_text("(setq got (consume 0))")
        m.run()
        assert interp.globals.lookup("got") == 10

    def test_blocked_consumer_woken_by_put(self):
        src = "(setq q (make-queue))"
        interp, m = fresh_machine(src, processors=2)
        consumer = m.spawn_text("(dequeue! q)")
        m.spawn_text("(progn (let ((i 0)) (while (< i 20) (setq i (1+ i)))) (enqueue! q 'hello))")
        m.run()
        assert consumer.result.name == "hello"

    def test_quiesce_queues_terminate(self):
        src = "(setq q (make-queue))"
        interp, m = fresh_machine(src, processors=1)
        q = interp.globals.lookup("q")
        m.register_quiesce_queue(q)
        p = m.spawn_text("(dequeue! q)")
        m.run()  # no deadlock: quiescence closes the queue
        assert p.result.name == ":queue-closed"


class TestSync:
    def test_sync_waits_for_descendants(self):
        src = """
        (setq cell (cons 0 nil))
        (defun fill3 (n)
          (when (> n 0)
            (spawn (fill3 (1- n)))
            (setf (car cell) (+ (car cell) 1))))
        """
        interp, m = fresh_machine(src, processors=1)
        p = m.spawn_text("(progn (fill3 3) (sync) (car cell))")
        m.run()
        assert p.result == 3


class TestDeterminism:
    def test_fifo_runs_identical(self):
        def one_run():
            interp, m = fresh_machine(
                """
                (defun w (l) (when l (spawn (w (cdr l))) (setf (car l) (* 2 (car l)))))
                (setq d (list 1 2 3 4 5))
                """,
                processors=3,
            )
            m.spawn_text("(w d)")
            stats = m.run()
            return stats.total_time, write_str(interp.globals.lookup("d"))

        assert one_run() == one_run()

    def test_random_policy_seeded_reproducible(self):
        def one_run(seed):
            interp, m = fresh_machine(
                """
                (defun w (l) (when l (spawn (w (cdr l))) (setf (car l) (* 2 (car l)))))
                (setq d (list 1 2 3 4 5))
                """,
                processors=3, policy="random", seed=seed,
            )
            m.spawn_text("(w d)")
            stats = m.run()
            return stats.total_time

        assert one_run(7) == one_run(7)


class TestStats:
    def test_utilization_bounded(self):
        interp, m = fresh_machine("", processors=3)
        m.spawn_text("(+ 1 2)")
        stats = m.run()
        assert 0.0 <= stats.utilization <= 1.0

    def test_context_switches_counted(self):
        interp, m = fresh_machine(
            "(defun f (n) (when (> n 0) (spawn (f (1- n)))))", processors=1
        )
        m.spawn_text("(f 4)")
        stats = m.run()
        assert stats.context_switches >= 1
