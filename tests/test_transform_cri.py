"""Unit tests: the CRI spawnify transform and spawn hoisting."""

import pytest

from repro.analysis.conflicts import analyze_function
from repro.ir import nodes as N
from repro.ir.unparse import unparse_function
from repro.sexpr.printer import write_str
from repro.transform.cri import TransformError, spawnify


def analyzed(interp, runner, src, name):
    runner.eval_text(src)
    return analyze_function(interp, interp.intern(name), assume_sapp=True)


class TestSpawnMode:
    def test_free_call_becomes_spawn(self, interp, runner):
        a = analyzed(interp, runner, "(defun f (l) (when l (f (cdr l)) (print 1)))", "f")
        result = spawnify(a)
        spawns = [n for n in result.func.walk() if isinstance(n, N.Spawn)]
        assert len(spawns) == 1 and result.spawned_sites == 1

    def test_tail_call_spawned_with_note(self, interp, runner, fig3_src):
        a = analyzed(interp, runner, fig3_src, "f3")
        result = spawnify(a)
        assert result.spawned_sites == 1
        assert any("nil" in note for note in result.notes)

    def test_tail_refused_when_not_free(self, interp, runner, fig3_src):
        a = analyzed(interp, runner, fig3_src, "f3")
        with pytest.raises(TransformError):
            spawnify(a, treat_tail_as_free=False)

    def test_stored_call_becomes_future(self, interp, runner):
        a = analyzed(
            interp, runner,
            "(defun f (l) (when l (setf (car l) (f (cdr l)))))", "f",
        )
        result = spawnify(a)
        assert result.future_sites == 1
        futures = [n for n in result.func.walk() if isinstance(n, N.FutureExpr)]
        assert len(futures) == 1

    def test_strict_call_rejected(self, interp, runner):
        a = analyzed(
            interp, runner, "(defun f (n) (if (<= n 1) 1 (* n (f (1- n)))))", "f"
        )
        with pytest.raises(TransformError):
            spawnify(a)

    def test_non_recursive_rejected(self, interp, runner):
        a = analyzed(interp, runner, "(defun f (x) x)", "f")
        with pytest.raises(TransformError):
            spawnify(a)

    def test_original_function_untouched(self, interp, runner, fig3_src):
        a = analyzed(interp, runner, fig3_src, "f3")
        before = write_str(unparse_function(a.func))
        spawnify(a)
        assert write_str(unparse_function(a.func)) == before

    def test_bad_mode_rejected(self, interp, runner, fig3_src):
        a = analyzed(interp, runner, fig3_src, "f3")
        with pytest.raises(TransformError):
            spawnify(a, mode="teleport")


class TestHoisting:
    def test_spawn_hoisted_past_pure_statement(self, interp, runner, fig3_src):
        a = analyzed(interp, runner, fig3_src, "f3")
        result = spawnify(a, hoist=True)
        assert result.hoisted == 1
        text = write_str(unparse_function(result.func))
        assert text.index("spawn") < text.index("print")

    def test_no_hoist_option(self, interp, runner, fig3_src):
        a = analyzed(interp, runner, fig3_src, "f3")
        result = spawnify(a, hoist=False)
        assert result.hoisted == 0
        text = write_str(unparse_function(result.func))
        assert text.index("print") < text.index("spawn")

    def test_not_hoisted_past_arg_producer(self, interp, runner):
        src = """
        (defun f (l)
          (when l
            (print 0)
            (setq nxt (cdr l))
            (f nxt)))
        """
        a = analyzed(interp, runner, src, "f")
        result = spawnify(a)
        text = write_str(unparse_function(result.func))
        # The spawn may hoist past (print 0) but never past the setq that
        # produces its argument.
        assert text.index("setq nxt") < text.index("spawn")

    def test_not_hoisted_past_heap_write(self, interp, runner, fig5_src):
        a = analyzed(interp, runner, fig5_src, "f5")
        result = spawnify(a)
        text = write_str(unparse_function(result.func))
        # Within the mutating branch, the setf stays before the spawn.
        progn = text[text.index("(progn") :]
        assert progn.index("setf") < progn.index("spawn")

    def test_not_hoisted_past_conflicting_statement(self, interp, runner):
        src = """
        (defun f (l)
          (when l
            (setf (cadr l) (car l))
            (f (cdr l))))
        """
        a = analyzed(interp, runner, src, "f")
        result = spawnify(a)
        text = write_str(unparse_function(result.func))
        assert text.index("setf") < text.index("spawn")

    def test_hoisting_out_of_the_value_position_keeps_nil(self):
        # The sequential function returns nil (the last invocation's
        # when fails), and so must the transformed one: the print the
        # spawn moves past must not become the sequence's value.
        from repro.lisp.interpreter import Interpreter
        from repro.lisp.runner import SequentialRunner
        from repro.perf import eval_mode_override
        from repro.transform.pipeline import Curare

        src = "(defun f (l) (when l (print (car l)) (f (cdr l))))"
        seq = SequentialRunner(Interpreter(), eval_mode="interpreter")
        seq.eval_text(src)
        assert seq.eval_text("(f (list 0))") is None
        for eval_mode in ("interpreter", "compiled"):
            with eval_mode_override(eval_mode):
                curare = Curare(Interpreter(), assume_sapp=True)
                curare.load_program(src)
                result = curare.transform("f")
                assert result.cri.hoisted == 1
                text = write_str(result.final_form)
                assert text.index("spawn") < text.index("print")
                assert curare.runner.eval_text("(f-cc (list 0))") is None
                assert curare.runner.eval_text("(f-cc (list 0 1 2))") is None

    def test_spawn_order_preserved_across_sites(self, interp, runner):
        src = """
        (defun f (tr)
          (when tr
            (f (car tr))
            (f (cdr tr))))
        """
        a = analyzed(interp, runner, src, "f")
        result = spawnify(a)
        text = write_str(unparse_function(result.func))
        assert text.index("(spawn (f (car tr)))") < text.index("(spawn (f (cdr tr)))")


class TestEnqueueMode:
    def test_single_site_enqueue_and_close(self, interp, runner, fig3_src):
        a = analyzed(interp, runner, fig3_src, "f3")
        result = spawnify(a, mode="enqueue")
        text = write_str(unparse_function(result.func))
        assert "enqueue!" in text and "*task-queue*" in text
        assert "close-queue!" in text  # kill token for the single site

    def test_multi_site_queues_per_callsite(self, interp, runner):
        src = "(defun f (tr) (when tr (f (car tr)) (f (cdr tr))))"
        a = analyzed(interp, runner, src, "f")
        result = spawnify(a, mode="enqueue")
        text = write_str(unparse_function(result.func))
        assert "*task-queue*-0" in text and "*task-queue*-1" in text
        assert "close-queue!" not in text  # quiescence termination instead

    def test_enqueue_args_wrapped_in_list(self, interp, runner, fig3_src):
        a = analyzed(interp, runner, fig3_src, "f3")
        result = spawnify(a, mode="enqueue")
        text = write_str(unparse_function(result.func))
        assert "(list (cdr l))" in text


class TestSemanticEquivalence:
    """Spawnified code must behave like the original sequentially."""

    PROGRAMS = [
        ("(defun f (l) (when l (setf (car l) 0) (f (cdr l))))",
         "(setq d (list 1 2 3))", "(f d)", "(f-run d)", "d"),
    ]

    def test_spawnified_fig5_sequential(self, interp, runner, fig5_src):
        from repro.lisp.runner import SequentialRunner

        a = analyzed(interp, runner, fig5_src, "f5")
        result = spawnify(a)
        result.func.name = interp.intern("f5cc")
        for node in result.func.walk():
            if isinstance(node, N.Call) and node.is_self_call:
                node.fn = interp.intern("f5cc")
        runner.eval_form(unparse_function(result.func))
        runner.eval_text("(setq a (list 1 2 3 4)) (setq b (list 1 2 3 4))")
        runner.eval_text("(f5 a) (f5cc b)")
        assert write_str(runner.eval_text("a")) == write_str(runner.eval_text("b"))
