"""Unit tests: lock insertion (§3.2.1)."""

import pytest

from repro.analysis.conflicts import analyze_function
from repro.ir.unparse import unparse_function
from repro.sexpr.printer import write_str
from repro.transform.locking import insert_locks, plan_locks


def analyzed(interp, runner, src, name):
    runner.eval_text(src)
    return analyze_function(interp, interp.intern(name), assume_sapp=True)


class TestPlanning:
    def test_fig5_plan(self, interp, runner, fig5_src):
        a = analyzed(interp, runner, fig5_src, "f5")
        specs, _arrays, _vars, _whole, unresolved = plan_locks(a.active_conflicts())
        assert not unresolved
        by_word = {str(s.word): s for s in specs}
        assert set(by_word) == {"car", "cdr.car"}
        assert not by_word["car"].write  # read side
        assert by_word["cdr.car"].write

    def test_conflict_free_plans_nothing(self, interp, runner, fig3_src):
        a = analyzed(interp, runner, fig3_src, "f3")
        specs, _arrays, _vars, _whole, unresolved = plan_locks(a.active_conflicts())
        assert not specs and not unresolved

    def test_coalescing_nested_words(self, interp, runner):
        # A write through word `cdr` conflicts with the read through
        # `cdr.car`; the nested chain coalesces to one lock on the
        # shortest word (§3.2.1's "replace the m locks by a single lock").
        src = """
        (defun f (l)
          (when l
            (setf (cdr l) (cddr l))
            (print (cadr l))
            (f (cdr l))))
        """
        a = analyzed(interp, runner, src, "f")
        specs, _arrays, _vars, _whole, _ = plan_locks(a.active_conflicts())
        words = {str(s.word) for s in specs}
        assert "cdr" in words
        assert "cdr.car" not in words
        holder = next(s for s in specs if str(s.word) == "cdr")
        assert holder.covers and holder.write

    def test_emission_order_shortest_first(self, interp, runner, fig5_src):
        a = analyzed(interp, runner, fig5_src, "f5")
        specs, _arrays, _vars, _whole, _ = plan_locks(a.active_conflicts())
        lengths = [len(s.word) for s in specs]
        assert lengths == sorted(lengths)

    def test_variable_conflicts_get_var_locks(self, interp, runner):
        a = analyzed(
            interp, runner,
            "(defun f (l) (when l (setq g (car l)) (f (cdr l))))", "f",
        )
        specs, _arrays, var_specs, _whole, unresolved = plan_locks(a.active_conflicts())
        assert not unresolved
        assert any(s.name.name == "g" and s.write for s in var_specs)


class TestInsertion:
    def test_fig5_emits_guarded_locks(self, interp, runner, fig5_src):
        a = analyzed(interp, runner, fig5_src, "f5")
        result = insert_locks(a)
        text = write_str(unparse_function(result.func))
        assert "lock-loc!" in text and "unlock-loc!" in text
        assert "read-lock-loc!" in text and "read-unlock-loc!" in text
        assert "heap-object-p" in text
        assert result.concurrency_bound == 1

    def test_lock_bases_bound_once(self, interp, runner, fig5_src):
        a = analyzed(interp, runner, fig5_src, "f5")
        result = insert_locks(a)
        text = write_str(unparse_function(result.func))
        assert "let*" in text  # base bindings

    def test_no_conflicts_no_wrapping(self, interp, runner, fig3_src):
        a = analyzed(interp, runner, fig3_src, "f3")
        result = insert_locks(a)
        assert result.lock_count == 0
        text = write_str(unparse_function(result.func))
        assert "lock" not in text

    def test_locked_function_sequentially_equivalent(self, interp, runner, fig5_src):
        a = analyzed(interp, runner, fig5_src, "f5")
        result = insert_locks(a)
        result.func.name = interp.intern("f5-locked")
        from repro.ir import nodes as N

        for node in result.func.walk():
            if isinstance(node, N.Call) and node.is_self_call:
                node.fn = interp.intern("f5-locked")
        runner.eval_form(unparse_function(result.func))
        runner.eval_text("(setq a (list 1 2 3 4 5)) (setq b (list 1 2 3 4 5))")
        runner.eval_text("(f5 a) (f5-locked b)")
        assert write_str(runner.eval_text("a")) == write_str(runner.eval_text("b"))

    def test_locked_function_preserves_return_value(self, interp, runner):
        src = """
        (defun f (l)
          (if (null (cdr l))
              'done
              (progn (setf (cadr l) (car l)) (f (cdr l)))))
        """
        a = analyzed(interp, runner, src, "f")
        result = insert_locks(a)
        result.func.name = interp.intern("f-locked")
        from repro.ir import nodes as N

        for node in result.func.walk():
            if isinstance(node, N.Call) and node.is_self_call:
                node.fn = interp.intern("f-locked")
        runner.eval_form(unparse_function(result.func))
        out = runner.eval_text("(f-locked (list 1 2 3))")
        assert out.name == "done"

    def test_base_case_skips_locks(self, interp, runner, fig5_src):
        # Calling with nil exercises the heap-object-p guards.
        a = analyzed(interp, runner, fig5_src, "f5")
        result = insert_locks(a)
        result.func.name = interp.intern("f5l")
        from repro.ir import nodes as N

        for node in result.func.walk():
            if isinstance(node, N.Call) and node.is_self_call:
                node.fn = interp.intern("f5l")
        runner.eval_form(unparse_function(result.func))
        assert runner.eval_text("(f5l nil)") is None

    def test_concurrency_bound_none_when_clean(self, interp, runner, fig3_src):
        a = analyzed(interp, runner, fig3_src, "f3")
        assert insert_locks(a).concurrency_bound is None
