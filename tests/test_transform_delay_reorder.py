"""Unit tests: the delay (§3.2.2) and reorder (§3.2.3) transforms."""

import pytest

from repro.analysis.conflicts import analyze_function
from repro.declare import DeclarationRegistry, ReorderableDecl
from repro.ir import nodes as N
from repro.ir.unparse import unparse_function
from repro.sexpr.printer import write_str
from repro.transform.cri import spawnify
from repro.transform.delay import delay_into_head
from repro.transform.reorder import atomicize_reorderable


def analyzed(interp, runner, src, name, decls=None):
    runner.eval_text(src)
    return analyze_function(
        interp, interp.intern(name), decls=decls, assume_sapp=True
    )


class TestDelay:
    # A conflicting write placed *after* the recursive call: the delay
    # transform must move it before the spawn.
    # write word `car` (this cell) conflicts with the read word `cdr.car`
    # (the next invocation's car) at distance 1 — and the write sits in
    # the tail, after the recursive call.
    TAIL_CONFLICT = """
    (defun f (l)
      (when l
        (f (cdr l))
        (setf (car l) (cadr l))))
    """

    def test_conflicting_statement_moved_before_spawn(self, interp, runner):
        a = analyzed(interp, runner, self.TAIL_CONFLICT, "f")
        cri = spawnify(a, hoist=False)
        result = delay_into_head(a, cri.func)
        assert result.moved >= 1
        assert result.resolved_all
        text = write_str(unparse_function(result.func))
        assert text.index("setf") < text.index("spawn")

    def test_dependencies_move_together(self, interp, runner):
        src = """
        (defun f (l)
          (when l
            (f (cdr l))
            (let ((v (cadr l)))
              (setf (car l) v))))
        """
        a = analyzed(interp, runner, src, "f")
        cri = spawnify(a, hoist=False)
        result = delay_into_head(a, cri.func)
        assert result.moved >= 1
        text = write_str(unparse_function(result.func))
        spawn_at = text.index("spawn")
        # The whole let (value producer + conflicting store) moved as one.
        assert text.index("(let ((v (cadr l)))") < spawn_at
        assert text.index("(setf (car l) v)") < spawn_at

    def test_nothing_to_move_when_conflict_free(self, interp, runner, fig3_src):
        a = analyzed(interp, runner, fig3_src, "f3")
        cri = spawnify(a)
        result = delay_into_head(a, cri.func)
        assert result.moved == 0 and result.resolved_all

    def test_already_in_head_not_moved(self, interp, runner, fig5_src):
        a = analyzed(interp, runner, fig5_src, "f5")
        cri = spawnify(a, hoist=False)
        result = delay_into_head(a, cri.func)
        assert result.moved == 0  # setf already precedes the call

    def test_delayed_function_invocation_serial_semantics(self, interp, runner):
        """The delay transform enforces the paper's §3.1.1 criterion:
        the result equals running the invocations serially in invocation
        order (head-first), which for this tail-write function is the
        shift-left result — NOT the depth-first unwind result.  The
        machine run must agree with the invocation-serial reference."""
        from repro.runtime.machine import Machine

        a = analyzed(interp, runner, self.TAIL_CONFLICT, "f")
        cri = spawnify(a, hoist=False)
        result = delay_into_head(a, cri.func)
        result.func.name = interp.intern("f-delayed")
        for node in result.func.walk():
            if isinstance(node, N.Call) and node.is_self_call:
                node.fn = interp.intern("f-delayed")
        runner.eval_form(unparse_function(result.func))
        # Sequential run of the delayed function = invocation-serial order.
        runner.eval_text("(setq b (list 1 2 3 4)) (f-delayed b)")
        serial = write_str(runner.eval_text("b"))
        assert serial == "(2 3 4 nil)"  # invocation order: shift-left
        # Concurrent run must reproduce it.
        runner.eval_text("(setq c (list 1 2 3 4))")
        m = Machine(interp, processors=3)
        m.spawn_text("(f-delayed c)")
        m.run()
        assert write_str(runner.eval_text("c")) == serial

    def test_tail_conflicts_reported(self, interp, runner):
        a = analyzed(interp, runner, self.TAIL_CONFLICT, "f")
        assert a.tail_conflicts()

    def test_head_conflicts_not_flagged_as_tail(self, interp, runner, fig5_src):
        a = analyzed(interp, runner, fig5_src, "f5")
        assert a.active_conflicts() and not a.tail_conflicts()


class TestReorder:
    ACCUM = """
    (defun f8 (l)
      (when l
        (setq acc (+ acc (car l)))
        (f8 (cdr l))))
    """

    def test_atomicize_wraps_update_in_lock(self, interp, runner):
        decls = DeclarationRegistry([ReorderableDecl("+")])
        a = analyzed(interp, runner, self.ACCUM, "f8", decls=decls)
        result = atomicize_reorderable(a, decls)
        assert result.atomicized == 1
        text = write_str(unparse_function(result.func))
        assert "lock-var!" in text and "unlock-var!" in text
        assert text.index("lock-var!") < text.index("setq acc")

    def test_no_declaration_no_wrapping(self, interp, runner):
        decls = DeclarationRegistry()
        a = analyzed(interp, runner, self.ACCUM, "f8", decls=decls)
        result = atomicize_reorderable(a, decls)
        assert result.atomicized == 0
        assert "lock-var!" not in write_str(unparse_function(result.func))

    def test_atomicized_sequentially_equivalent(self, interp, runner):
        decls = DeclarationRegistry([ReorderableDecl("+")])
        a = analyzed(interp, runner, self.ACCUM, "f8", decls=decls)
        result = atomicize_reorderable(a, decls)
        result.func.name = interp.intern("f8a")
        for node in result.func.walk():
            if isinstance(node, N.Call) and node.is_self_call:
                node.fn = interp.intern("f8a")
        runner.eval_form(unparse_function(result.func))
        runner.eval_text("(setq acc 0) (f8a (list 1 2 3 4))")
        assert runner.eval_text("acc") == 10

    def test_atomicized_correct_on_machine(self, interp, runner):
        """The whole point: concurrent atomicized updates never lose
        increments, in any order (commutativity)."""
        from repro.runtime.machine import Machine
        from repro.transform.cri import spawnify

        decls = DeclarationRegistry([ReorderableDecl("+")])
        a = analyzed(interp, runner, self.ACCUM, "f8", decls=decls)
        cri = spawnify(a)
        result = atomicize_reorderable(a, decls, cri.func)
        result.func.name = interp.intern("f8cc")
        for node in result.func.walk():
            if isinstance(node, N.Call) and node.is_self_call:
                node.fn = interp.intern("f8cc")
        runner.eval_form(unparse_function(result.func))
        runner.eval_text("(setq acc 0) (setq d (list 1 2 3 4 5 6 7 8))")
        m = Machine(interp, processors=4)
        m.spawn_text("(f8cc d)")
        m.run()
        assert interp.globals.lookup("acc") == 36
