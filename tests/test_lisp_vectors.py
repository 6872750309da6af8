"""Unit tests: Lisp arrays (vectors)."""

import pytest

from repro.lisp.errors import WrongType
from repro.lisp.vectors import LispVector


def ev(runner, text):
    return runner.eval_text(text)


class TestVectorValue:
    def test_make_and_len(self):
        v = LispVector(4, 0)
        assert len(v) == 4 and v.items == [0, 0, 0, 0]

    def test_default_initial_nil(self):
        assert LispVector(2).items == [None, None]

    def test_negative_size_rejected(self):
        with pytest.raises(WrongType):
            LispVector(-1)

    def test_identity_equality(self):
        a, b = LispVector(1), LispVector(1)
        assert a == a and a != b

    def test_index_checking(self):
        v = LispVector(3)
        with pytest.raises(WrongType):
            v.check_index(3, "aref")
        with pytest.raises(WrongType):
            v.check_index(-1, "aref")
        with pytest.raises(WrongType):
            v.check_index("x", "aref")
        with pytest.raises(WrongType):
            v.check_index(True, "aref")

    def test_unique_cell_ids(self):
        assert LispVector(1).cell_id != LispVector(1).cell_id


class TestVectorBuiltins:
    def test_make_array(self, runner):
        ev(runner, "(setq v (make-array 5 7))")
        assert ev(runner, "(aref v 0)") == 7
        assert ev(runner, "(array-length v)") == 5

    def test_setf_aref(self, runner):
        ev(runner, "(setq v (make-array 3 0)) (setf (aref v 1) 42)")
        assert ev(runner, "(aref v 1)") == 42
        assert ev(runner, "(aref v 0)") == 0

    def test_aset_returns_value(self, runner):
        ev(runner, "(setq v (make-array 2 0))")
        assert ev(runner, "(aset v 0 9)") == 9

    def test_arrayp(self, runner):
        ev(runner, "(setq v (make-array 1))")
        assert ev(runner, "(arrayp v)") is True
        assert ev(runner, "(arrayp (list 1))") is None

    def test_out_of_bounds(self, runner):
        ev(runner, "(setq v (make-array 2 0))")
        with pytest.raises(WrongType):
            ev(runner, "(aref v 5)")
        with pytest.raises(WrongType):
            ev(runner, "(setf (aref v 5) 1)")

    def test_aref_on_non_array(self, runner):
        with pytest.raises(WrongType):
            ev(runner, "(aref (list 1 2) 0)")

    def test_memory_traced(self, runner):
        ev(runner, "(setq v (make-array 2 0))")
        reads = len(runner.trace.reads())
        writes = len(runner.trace.writes())
        ev(runner, "(aref v 0) (setf (aref v 1) 5)")
        assert len(runner.trace.reads()) == reads + 1
        assert len(runner.trace.writes()) == writes + 1

    def test_elements_are_distinct_locations(self, runner):
        ev(runner, "(setq v (make-array 2 0)) (aref v 0) (aref v 1)")
        locs = {e.loc for e in runner.trace.reads()}
        assert len(locs) == 2

    def test_vector_holds_pointers(self, runner):
        # §2: "Lisp arrays can contain pointers."
        from repro.sexpr.printer import write_str

        ev(runner, "(setq v (make-array 2)) (setf (aref v 0) (list 1 2))")
        assert write_str(ev(runner, "(aref v 0)")) == "(1 2)"

    def test_locks_usable(self, runner):
        ev(runner, "(setq v (make-array 3 0))")
        ev(runner, "(lock-aref! v 1) (unlock-aref! v 1)")
        ev(runner, "(read-lock-aref! v 1) (read-unlock-aref! v 1)")


class TestVectorsOnMachine:
    def test_element_locks_order_writes(self):
        from repro.lisp.interpreter import Interpreter
        from repro.runtime.machine import Machine

        interp = Interpreter()
        from repro.lisp.runner import SequentialRunner

        SequentialRunner(interp).eval_text(
            """
            (setq v (make-array 1 0))
            (defun bump ()
              (lock-aref! v 0)
              (aset v 0 (1+ (aref v 0)))
              (unlock-aref! v 0))
            """
        )
        m = Machine(interp, processors=4)
        for _ in range(5):
            m.spawn_text("(bump)")
        m.run()
        v = interp.globals.lookup("v")
        assert v.items[0] == 5
