"""Unit tests: defstruct machinery."""

import pytest

from repro.lisp.errors import WrongType
from repro.lisp.structs import StructInstance, StructType


def ev(runner, text):
    return runner.eval_text(text)


class TestStructType:
    def test_names(self):
        st = StructType("node", ("next", "data"))
        assert st.accessor_name("next") == "node-next"
        assert st.constructor_name() == "make-node"
        assert st.predicate_name() == "node-p"

    def test_make_defaults_nil(self):
        st = StructType("node", ("next", "data"))
        inst = st.make(1)
        assert inst.get_field("next") == 1
        assert inst.get_field("data") is None

    def test_make_too_many_args(self):
        st = StructType("node", ("a",))
        with pytest.raises(WrongType):
            st.make(1, 2)

    def test_pointer_fields_default_all(self):
        st = StructType("node", ("next", "data"))
        assert st.pointer_fields == ("next", "data")


class TestStructInstance:
    def test_identity_equality(self):
        st = StructType("p", ("x",))
        a, b = st.make(1), st.make(1)
        assert a == a and a != b

    def test_set_get(self):
        st = StructType("p", ("x",))
        inst = st.make(0)
        inst.set_field("x", 9)
        assert inst.get_field("x") == 9

    def test_unknown_field_raises(self):
        st = StructType("p", ("x",))
        inst = st.make(0)
        with pytest.raises(WrongType):
            inst.get_field("y")
        with pytest.raises(WrongType):
            inst.set_field("y", 1)

    def test_cell_ids_unique(self):
        st = StructType("p", ("x",))
        assert st.make().cell_id != st.make().cell_id


class TestDefstructForms:
    def test_constructor_accessor_predicate(self, runner):
        ev(runner, "(defstruct node next data)")
        ev(runner, "(setq n (make-node nil 42))")
        assert ev(runner, "(node-data n)") == 42
        assert ev(runner, "(node-p n)") is True
        assert ev(runner, "(node-p 5)") is None

    def test_two_structs_distinct_predicates(self, runner):
        ev(runner, "(defstruct a f) (defstruct b f)")
        ev(runner, "(setq x (make-a 1))")
        assert ev(runner, "(a-p x)") is True
        assert ev(runner, "(b-p x)") is None

    def test_linked_structs(self, runner):
        ev(runner, "(defstruct node next data)")
        ev(runner, "(setq n2 (make-node nil 2)) (setq n1 (make-node n2 1))")
        assert ev(runner, "(node-data (node-next n1))") == 2

    def test_setf_through_accessor(self, runner):
        ev(runner, "(defstruct node next data)")
        ev(runner, "(setq n (make-node nil 0)) (setf (node-data n) 5)")
        assert ev(runner, "(node-data n)") == 5

    def test_field_with_default_syntax(self, runner):
        ev(runner, "(defstruct opt (field1 99) field2)")
        ev(runner, "(setq o (make-opt))")
        # Defaults are ignored (documented); fields exist.
        assert ev(runner, "(opt-field1 o)") is None

    def test_struct_registered_in_interp(self, runner, interp):
        ev(runner, "(defstruct rec next)")
        assert "rec" in interp.structs
        assert "rec-next" in interp.struct_accessors

    def test_struct_access_traced(self, runner):
        ev(runner, "(defstruct node next) (setq n (make-node nil))")
        before = len(runner.trace.reads())
        ev(runner, "(node-next n)")
        assert len(runner.trace.reads()) == before + 1


# A structure printed with Python ``repr`` and no guard overflowed the C
# stack when it reached itself (the interpreter raises the recursion
# limit), killing the process; the case runs in a child process so a
# regression fails this test instead of the whole suite.
_SELF_REACHING = """
from repro import api
print(api.run("(defstruct nd lf rt vl) (setq a (make-nd nil nil 0)) "
              "(setf (nd-lf a) a)", "a").value)
print(api.run("(defstruct nd lf rt vl) (setq b (make-nd nil (quote foo) 1.5))"
              " (setq c (list 1 b)) (setf (nd-rt b) c)", "c").value)
"""


class TestStructPrinting:
    def test_slots_print_as_lisp(self):
        from repro import api

        value = api.run("(defstruct nd lf rt vl)",
                        "(list (make-nd nil 'foo 1.5) (make-nd \"s\"))").value
        assert value == ('(#S(nd :lf nil :rt foo :vl 1.5) '
                         '#S(nd :lf "s" :rt nil :vl nil))')

    def test_repr_is_the_printed_form(self):
        st = StructType("p", ("x", "y"))
        assert repr(st.make(None, "s")) == '#S(p :x nil :y "s")'

    def test_structure_reaching_itself_prints_guarded(self):
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        env = dict(os.environ,
                   PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", _SELF_REACHING],
                              capture_output=True, text=True, timeout=60,
                              env=env)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.splitlines() == [
            "#S(nd :lf ... :rt nil :vl 0)",
            "(1 #S(nd :lf nil :rt ... :vl 1.5))",
        ]
