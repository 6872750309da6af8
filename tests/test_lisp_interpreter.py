"""Unit tests: the evaluator — special forms, calls, closures, setf."""

import sys
import threading

import pytest

from repro.lisp.errors import (
    ArityError,
    EvalError,
    SetfError,
    UnboundVariable,
    UndefinedFunction,
)
from repro.lisp.interpreter import Interpreter
from repro.lisp.runner import SequentialRunner
from repro.lisp.values import Builtin
from repro.sexpr.datum import SymbolTable, intern
from repro.sexpr.printer import write_str


def ev(runner, text):
    return runner.eval_text(text)


class TestSelfEvaluating:
    def test_numbers(self, runner):
        assert ev(runner, "42") == 42
        assert ev(runner, "-1.5") == -1.5

    def test_nil_t_strings(self, runner):
        assert ev(runner, "nil") is None
        assert ev(runner, "t") is True
        assert ev(runner, '"hi"') == "hi"

    def test_quote(self, runner):
        assert write_str(ev(runner, "'(1 2)")) == "(1 2)"
        assert ev(runner, "'sym").name == "sym"


class TestVariables:
    def test_setq_and_read(self, runner):
        ev(runner, "(setq x 10)")
        assert ev(runner, "x") == 10

    def test_unbound_raises(self, runner):
        with pytest.raises(UnboundVariable):
            ev(runner, "no-such-variable")

    def test_setq_multiple_pairs(self, runner):
        assert ev(runner, "(setq a 1 b 2)") == 2
        assert ev(runner, "(+ a b)") == 3

    def test_let_shadows(self, runner):
        ev(runner, "(setq x 1)")
        assert ev(runner, "(let ((x 2)) x)") == 2
        assert ev(runner, "x") == 1

    def test_let_parallel_semantics(self, runner):
        ev(runner, "(setq x 1)")
        assert ev(runner, "(let ((x 2) (y x)) y)") == 1

    def test_let_star_sequential(self, runner):
        assert ev(runner, "(let* ((x 2) (y x)) y)") == 2

    def test_setq_inside_let_mutates_binding(self, runner):
        ev(runner, "(setq x 1)")
        assert ev(runner, "(let ((x 5)) (setq x 6) x)") == 6
        assert ev(runner, "x") == 1


class TestControlFlow:
    def test_if(self, runner):
        assert ev(runner, "(if t 1 2)") == 1
        assert ev(runner, "(if nil 1 2)") == 2
        assert ev(runner, "(if nil 1)") is None

    def test_cond_first_match(self, runner):
        assert ev(runner, "(cond (nil 1) (t 2) (t 3))") == 2

    def test_cond_test_only_clause(self, runner):
        assert ev(runner, "(cond (nil) (7))") == 7

    def test_cond_no_match(self, runner):
        assert ev(runner, "(cond (nil 1))") is None

    def test_when_unless(self, runner):
        assert ev(runner, "(when t 1 2)") == 2
        assert ev(runner, "(when nil 1)") is None
        assert ev(runner, "(unless nil 3)") == 3
        assert ev(runner, "(unless t 3)") is None

    def test_and_or_short_circuit(self, runner):
        assert ev(runner, "(and 1 2 3)") == 3
        assert ev(runner, "(and 1 nil (no-such-fn))") is None
        assert ev(runner, "(or nil 2 (no-such-fn))") == 2
        assert ev(runner, "(or nil nil)") is None

    def test_while(self, runner):
        ev(runner, "(setq i 0) (while (< i 5) (setq i (1+ i)))")
        assert ev(runner, "i") == 5

    def test_dolist(self, runner):
        ev(runner, "(setq acc 0) (dolist (x (list 1 2 3)) (setq acc (+ acc x)))")
        assert ev(runner, "acc") == 6

    def test_dolist_result_form(self, runner):
        assert ev(runner, "(setq n 0) (dolist (x (list 1 2) n) (setq n (1+ n)))") == 2

    def test_progn(self, runner):
        assert ev(runner, "(progn 1 2 3)") == 3
        assert ev(runner, "(progn)") is None


class TestFunctions:
    def test_defun_and_call(self, runner):
        ev(runner, "(defun sq (x) (* x x))")
        assert ev(runner, "(sq 7)") == 49

    def test_recursion(self, runner):
        ev(runner, "(defun fact (n) (if (<= n 1) 1 (* n (fact (1- n)))))")
        assert ev(runner, "(fact 6)") == 720

    def test_lambda_and_funcall(self, runner):
        assert ev(runner, "(funcall (lambda (x) (+ x 1)) 5)") == 6

    def test_lambda_in_head_position(self, runner):
        assert ev(runner, "((lambda (a b) (* a b)) 3 4)") == 12

    def test_closure_captures(self, runner):
        ev(runner, "(defun make-adder (n) (lambda (x) (+ x n)))")
        assert ev(runner, "(funcall (make-adder 10) 5)") == 15

    def test_function_ref_and_apply(self, runner):
        assert ev(runner, "(apply #'+ (list 1 2 3))") == 6
        assert ev(runner, "(apply #'+ 1 2 (list 3 4))") == 10

    def test_rest_args(self, runner):
        ev(runner, "(defun count-args (&rest xs) (length xs))")
        assert ev(runner, "(count-args 1 2 3 4)") == 4

    def test_arity_error(self, runner):
        ev(runner, "(defun two (a b) a)")
        with pytest.raises(ArityError):
            ev(runner, "(two 1)")

    def test_undefined_function(self, runner):
        with pytest.raises(UndefinedFunction):
            ev(runner, "(totally-undefined 1)")

    def test_symbol_as_function_designator(self, runner):
        ev(runner, "(defun inc (x) (1+ x))")
        assert ev(runner, "(funcall 'inc 1)") == 2

    def test_declare_ignored(self, runner):
        ev(runner, "(defun d (x) (declare (type list x)) x)")
        assert ev(runner, "(d 9)") == 9


class TestSetfPlaces:
    def test_setf_variable(self, runner):
        ev(runner, "(setf v 3)")
        assert ev(runner, "v") == 3

    def test_setf_car_cdr(self, runner):
        ev(runner, "(setq l (list 1 2)) (setf (car l) 10) (setf (cdr l) nil)")
        assert write_str(ev(runner, "l")) == "(10)"

    def test_setf_cadr(self, runner):
        ev(runner, "(setq l (list 1 2 3)) (setf (cadr l) 99)")
        assert write_str(ev(runner, "l")) == "(1 99 3)"

    def test_setf_deep_cxr(self, runner):
        ev(runner, "(setq l (list 1 2 3 4)) (setf (cadddr l) 0)")
        assert write_str(ev(runner, "l")) == "(1 2 3 0)"

    def test_setf_struct_field(self, runner):
        ev(runner, "(defstruct pt x y) (setq p (make-pt 1 2)) (setf (pt-y p) 20)")
        assert ev(runner, "(pt-y p)") == 20

    def test_setf_gethash(self, runner):
        ev(runner, "(setq h (make-hash-table)) (setf (gethash 'k h) 5)")
        assert ev(runner, "(gethash 'k h)") == 5

    def test_setf_unsupported_place(self, runner):
        with pytest.raises(SetfError):
            ev(runner, "(setf (+ 1 2) 3)")

    def test_setf_returns_value(self, runner):
        ev(runner, "(setq l (list 1))")
        assert ev(runner, "(setf (car l) 42)") == 42


class TestMacros:
    def test_defmacro_expansion(self, runner):
        ev(runner, "(defmacro my-if (c a b) (list 'cond (list c a) (list t b)))")
        assert ev(runner, "(my-if t 1 2)") == 1
        assert ev(runner, "(my-if nil 1 2)") == 2

    def test_macro_with_quasiquote(self, runner):
        ev(runner, "(defmacro twice (e) `(+ ,e ,e))")
        assert ev(runner, "(twice 21)") == 42

    def test_macroexpand_all(self, runner, interp):
        ev(runner, "(defmacro inc2 (v) `(setq ,v (+ ,v 2)))")
        form = interp.load("(inc2 x)")[0]
        expanded = interp.macroexpand_all(form)
        assert write_str(expanded) == "(setq x (+ x 2))"


class TestQuasiquote:
    def test_simple(self, runner):
        ev(runner, "(setq a 5)")
        assert write_str(ev(runner, "`(x ,a)")) == "(x 5)"

    def test_splice(self, runner):
        assert write_str(ev(runner, "`(1 ,@(list 2 3) 4)")) == "(1 2 3 4)"

    def test_nested_quasiquote(self, runner):
        ev(runner, "(setq b 7)")
        out = ev(runner, "``(x ,,b)")
        # The inner template keeps its unquote structure with b substituted.
        assert "7" in write_str(out)

    def test_dotted_template(self, runner):
        ev(runner, "(setq tail 9)")
        assert write_str(ev(runner, "`(1 . ,tail)")) == "(1 . 9)"


class TestErrors:
    def test_illegal_function_position(self, runner):
        with pytest.raises(EvalError):
            ev(runner, "(1 2 3)")

    def test_malformed_let(self, runner):
        with pytest.raises(EvalError):
            ev(runner, "(let)")


class TestCosts:
    def test_time_advances(self, runner):
        before = runner.time
        ev(runner, "(+ 1 2)")
        assert runner.time > before

    def test_more_work_more_time(self, runner):
        ev(runner, "(defun burn (n) (let ((i 0)) (while (< i n) (setq i (1+ i))) i))")
        t0 = runner.time
        ev(runner, "(burn 10)")
        t_small = runner.time - t0
        t1 = runner.time
        ev(runner, "(burn 100)")
        t_big = runner.time - t1
        assert t_big > t_small * 5


class TestBuiltinWorlds:
    """The builtin table is built once per symbol table; every
    interpreter gets its own copy of it."""

    def test_defun_over_a_builtin_stays_in_its_world(self):
        one, two = Interpreter(), Interpreter()
        assert one.functions is not two.functions
        run_one, run_two = SequentialRunner(one), SequentialRunner(two)
        ev(run_one, "(defun car (x) 42)")
        assert ev(run_one, "(car '(1 2))") == 42
        assert ev(run_two, "(car '(1 2))") == 1
        assert ev(SequentialRunner(Interpreter()), "(car '(1 2))") == 1

    def test_define_builtin_stays_in_its_world(self):
        one, two = Interpreter(), Interpreter()
        car = intern("car")
        original = two.functions[car]
        one.define_builtin(Builtin("car", lambda x: "mine"))
        assert two.functions[car] is original
        assert Interpreter().functions[car] is original
        assert ev(SequentialRunner(one), "(car '(1 2))") == "mine"

    def test_private_table_keys_builtins_by_its_own_symbols(self):
        table = SymbolTable()
        world = Interpreter(table)
        assert world.functions
        assert all(table.intern(sym.name) is sym for sym in world.functions)
        assert not any(sym is intern(sym.name) for sym in world.functions)
        assert ev(SequentialRunner(world), "(cadr (list 1 2 3))") == 2
        assert ev(SequentialRunner(world), "(eval '(+ 1 2))") == 3

    def test_concurrent_worlds_share_one_table_build(self):
        table = SymbolTable()
        worlds = []
        start = threading.Barrier(8)

        def build():
            start.wait()
            worlds.append(Interpreter(table))

        threads = [threading.Thread(target=build) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(worlds) == 8
        car = table.intern("car")
        assert len({id(world.functions[car]) for world in worlds}) == 1
        assert len({id(world.functions) for world in worlds}) == 8
