"""Redefinition and frame keys: the compiled evaluator against the
reference interpreter.

A compiled site that resolves a head symbol keeps its last resolution
with the world's definition token and looks the head up again only
after the token changed (``Interpreter.define`` replaces it on every
write to ``functions`` or ``macros``).  Each case here runs every such
site, redefines its head by one of the ways a world can (``defun``,
``defun`` through ``eval``, ``defmacro``, ``define_builtin`` from
Python, a ``defstruct`` constructor and predicate), then runs the sites
again, and once more with the redefinition made in the middle of a
loop.  Values and effect streams must be the interpreter's, as in
:mod:`tests.test_lisp_compile`.

``spawn`` and ``(function f)`` sites keep their head the same way; the
runner runs spawned calls, so the function a spawn resolved is seen.

Frames are keyed by name: equal-named symbols of two tables, gensyms
and lambda lists with non-symbol entries must bind as they always did.
"""

from __future__ import annotations

import pytest

from repro.lisp.errors import LispError, UnboundVariable
from repro.lisp.interpreter import Interpreter
from repro.lisp.runner import SequentialRunner
from repro.lisp.values import Builtin
from repro.sexpr.datum import SymbolTable, lisp_list
from repro.sexpr.printer import write_str
from tests.test_lisp_compile import _fingerprint, _merge_ticks, _unfold

MODES = ("interpreter", "compiled", "merged")

#: One function per kind of compiled site that resolves a head: the
#: ``while`` test, a ``while``-body ``setq`` and statement, a ``seq``
#: statement, a call argument, a function body statement and a call's
#: head.  ``{h}`` is a unary head, ``{test}`` a loop test over ``i`` and
#: ``n``; ``redefine!`` is the case's redefinition.
SITES = """
(defun site-test (n)
  (let ((i 0) (acc nil))
    (while {test} (setq acc (cons i acc)) (setq i (+ i 1)))
    acc))
(defun site-setq (n)
  (let ((i 0) (x 0) (acc nil))
    (while (> n i) (setq x ({h} i)) ({h} x) (setq acc (cons x acc))
      (setq i (+ i 1)))
    acc))
(defun site-seq (x) (let ((y x)) (setq y (+ y 1)) ({h} y)))
(defun site-arg (x) (list ({h} x) x))
(defun site-body (x) (setq x (+ x 1)) ({h} x))
(defun site-head (x) (list ({h} (+ x 1))))
(defun site-mid (n)
  (let ((i 0) (acc nil))
    (while (> n i)
      (setq acc (cons ({h} i) acc))
      (when (= i 1) (redefine!))
      (setq i (+ i 1)))
    acc))
"""

CALLS = ["(site-test 6)", "(site-setq 3)", "(site-seq 1)", "(site-arg 2)",
         "(site-body 3)", "(site-head 4)"]


def _python_redefinition(interp: Interpreter) -> None:
    def redefine() -> None:
        interp.define_builtin(Builtin("1+", lambda x: x + 100, cost=3))
        interp.define_builtin(
            Builtin("<", lambda a, b: True if b > a + 2 else None, cost=2))

    interp.define_builtin(Builtin("redefine!", redefine))


#: name -> (setup, unary head, loop test, Python setup or None).
CASES = {
    "defun": (
        "(defun redefine! () (defun 1+ (x) (+ x 10))"
        " (defun < (a b) (> b (+ a 3))))",
        "1+", "(< i n)", None),
    "defun-by-eval": (
        "(defun redefine! () (eval '(defun 1+ (x) (+ x 20)))"
        " (eval '(defun < (a b) (> b (+ a 2)))))",
        "1+", "(< i n)", None),
    "defmacro": (
        "(defun redefine! () (defmacro 1+ (x) (list '+ x 1000))"
        " (defmacro < (a b) (list '> b (list '+ a 4))))",
        "1+", "(< i n)", None),
    "define_builtin": ("", "1+", "(< i n)", _python_redefinition),
    "defstruct": (
        "(defun make-box (x) (+ x 1)) (defun box-p (x) (< x 3))"
        " (defun redefine! () (defstruct box v))",
        "make-box", "(box-p i)", None),
}


def _run(setup: str, exprs: list[str], python_setup=None) -> dict[str, list]:
    """Fingerprint ``exprs`` one after another in one fresh world per
    mode, after loading ``setup``."""
    streams = {}
    for mode in MODES:
        interp = Interpreter()
        runner = SequentialRunner(
            interp, eval_mode="interpreter" if mode == "interpreter"
            else "compiled")
        if python_setup is not None:
            python_setup(interp)
        runner.eval_text(setup)
        streams[mode] = [_fingerprint(interp, form, mode)
                         for text in exprs for form in interp.load(text)]
    return streams


def _assert_parity(streams: dict[str, list], exprs: list[str]) -> None:
    want = streams["interpreter"]
    for text, got, merged, ref in zip(exprs, streams["compiled"],
                                      streams["merged"], want):
        assert _unfold(got, ref) == ref, f"effect streams diverge on {text}"
        assert merged == _merge_ticks(ref), f"tick runs diverge on {text}"


class TestRedefinition:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_site_sees_a_later_definition(self, case):
        setup, head, test, python_setup = CASES[case]
        sites = SITES.format(h=head, test=test)
        exprs = [*CALLS, "(redefine!)", *CALLS]
        streams = _run(setup + sites, exprs, python_setup)
        _assert_parity(streams, exprs)
        values = [events[-1] for events in streams["interpreter"]]
        before, after = values[:len(CALLS)], values[len(CALLS) + 1:]
        for text, old, new in zip(CALLS, before, after):
            assert old[0] == "ret", (text, old)
            assert old != new, f"{case}: {text} did not change"

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_redefinition_inside_a_running_loop(self, case):
        setup, head, test, python_setup = CASES[case]
        sites = SITES.format(h=head, test=test)
        exprs = ["(site-mid 4)"]
        streams = _run(setup + sites, exprs, python_setup)
        _assert_parity(streams, exprs)
        assert streams["interpreter"][0][-1][0] == "ret"

    def test_one_site_through_builtin_closure_and_macro(self):
        setup = """
        (defun probe (x) (let ((y x)) (setq y (+ y 1)) (1+ y)))
        (defun as-function () (defun 1+ (x) (- x 1)))
        (defun as-macro () (defmacro 1+ (x) (list '* x 2)))
        """
        exprs = ["(probe 1)", "(as-function)", "(probe 1)", "(as-macro)",
                 "(probe 1)", "(as-function)", "(probe 1)"]
        streams = _run(setup, exprs)
        _assert_parity(streams, exprs)
        values = [events[-1] for events in streams["interpreter"]]
        # A macro shadows the function of its name from then on.
        assert values[::2] == [("ret", "3"), ("ret", "1"), ("ret", "4"),
                               ("ret", "4")]


#: ``spawn`` and ``(function f)`` keep their head's resolution behind the
#: definition token too.  The sequential runner runs a spawned call at
#: once, so the function a spawn resolved shows in ``seen``.
SPAWN_SITES = """
(defun note (x) (setq seen (list 'old x)))
(defun site-spawn (x) (spawn (note x)) seen)
(defun site-function (x) (funcall #'note x))
(defun site-spawn-mid (n)
  (let ((i 0) (acc nil))
    (while (> n i)
      (spawn (note i))
      (setq acc (cons (funcall (function note) (+ i 10)) (cons seen acc)))
      (when (= i 1) (renote!))
      (setq i (+ i 1)))
    acc))
"""

SPAWN_CALLS = ["(site-spawn 1)", "(site-function 2)"]

#: name -> the definition of ``renote!``.
RENOTES = {
    "defun": "(defun renote! () (defun note (x) (setq seen (list 'new x))))",
    "defun-by-eval": "(defun renote! ()"
                     " (eval '(defun note (x) (setq seen (list 'eval x)))))",
    # A macro of the name leaves the function namespace, which is all
    # spawn and #' read, as it was.
    "defmacro": "(defun renote! () (defmacro note (x) (list 'quote x)))",
}


def _run_spawning(setup: str, exprs: list[str]) -> dict[str, list]:
    """Per mode, each expression's value (or error) with the runner's
    clock and trace after it; spawned calls run depth-first."""
    runs = {}
    for mode in ("interpreter", "compiled"):
        runner = SequentialRunner(Interpreter(), eval_mode=mode)
        runner.eval_text(setup)
        seen = []
        for text in exprs:
            try:
                value = ("ret", write_str(runner.eval_text(text)))
            except LispError as err:
                value = ("err", type(err).__name__, str(err))
            seen.append((value, runner.time,
                         [(e.time, e.kind, repr(e.detail))
                          for e in runner.trace]))
        runs[mode] = seen
    assert runs["compiled"] == runs["interpreter"]
    return runs["interpreter"]


class TestSpawnAndFunctionHeads:
    @pytest.mark.parametrize("case", sorted(RENOTES))
    def test_sites_see_a_later_definition(self, case):
        exprs = [*SPAWN_CALLS, "(renote!)", *SPAWN_CALLS]
        runs = _run_spawning(SPAWN_SITES + RENOTES[case], exprs)
        before = [run[0] for run in runs[:2]]
        after = [run[0] for run in runs[3:]]
        assert before == [("ret", "(old 1)"), ("ret", "(old 2)")]
        if case == "defmacro":
            assert after == before
        else:
            assert after != before

    @pytest.mark.parametrize("case", sorted(RENOTES))
    def test_a_redefinition_inside_a_running_loop(self, case):
        (run,) = _run_spawning(SPAWN_SITES + RENOTES[case],
                               ["(site-spawn-mid 4)"])
        assert run[0][0] == "ret"

    @pytest.mark.parametrize("text,want", [
        # The head is resolved before the arguments are evaluated.
        ("(spawn (nope (print 1)))",
         ("err", "UndefinedFunction", "undefined function: nope")),
        ("(funcall #'nope 1)",
         ("err", "UndefinedFunction", "undefined function: nope")),
    ])
    def test_an_undefined_head_fails_at_the_same_point(self, text, want):
        (run,) = _run_spawning("", [text])
        assert run[0] == want
        assert not run[2], "no output before the error"

    def test_a_definition_after_a_failed_resolution(self):
        runs = _run_spawning("", [
            "(defun try () (spawn (late 1)) #'late)", "(try)",
            "(defun late (x) (setq seen x))", "(list (try) seen)"])
        assert runs[1][0][1] == "UndefinedFunction"
        assert runs[3][0] == ("ret", "(#<function late/1> 1)")


class TestWorldIsolation:
    def test_worlds_on_one_symbol_table_keep_their_definitions(self):
        symbols = SymbolTable()
        worlds = [Interpreter(symbols) for _ in range(2)]
        runners = [SequentialRunner(w, eval_mode="compiled") for w in worlds]
        sites = SITES.format(h="1+", test="(< i n)")
        for runner in runners:
            runner.eval_text(sites + CASES["defun"][0])

        def values(runner):
            return [write_str(runner.eval_text(text)) for text in CALLS]

        reference = values(runners[0])
        assert values(runners[1]) == reference
        runners[0].eval_text("(redefine!)")
        changed = values(runners[0])
        assert all(a != b for a, b in zip(changed, reference))
        # The other world's sites ran under the builtins and still do.
        assert values(runners[1]) == reference
        runners[1].eval_text("(redefine!)")
        assert values(runners[1]) == changed


class TestFrameKeys:
    @pytest.mark.parametrize(
        "text,want",
        [
            ('(progn (defun f (1 "s") 7) (f 1 2))', ("ret", "7")),
            ('(progn (defun f (1 "s") s) (f 1 2))',
             ("err", "UnboundVariable", "unbound variable: s")),
            ('(progn (setq s 3) (defun f ("s") s) (f 9))', ("ret", "3")),
            ('(progn (defun f (a &rest "r") r) (f 1 2))',
             ("err", "UnboundVariable", "unbound variable: r")),
            ("(progn (defun f (&rest nil) 5) (f))", ("ret", "5")),
            ("(progn (defun f (a &rest 3) a) (f 1 2 3))", ("ret", "1")),
            ("(progn (defun f (x &rest r) (list x r)) (f 1 2 3))",
             ("ret", "(1 (2 3))")),
        ],
    )
    def test_lambda_list_entries(self, text, want):
        streams = _run("", [text])
        _assert_parity(streams, [text])
        assert streams["interpreter"][0][-1] == want

    def test_equal_named_symbols_of_two_tables_share_a_binding(self):
        other = SymbolTable()
        for mode in ("interpreter", "compiled"):
            interp = Interpreter()
            runner = SequentialRunner(interp, eval_mode=mode)
            runner.eval_text("(setq x 5) (defun get-x () x)")
            # Reference, setq target and let binding read in a table of
            # their own: each is the world's x by name.
            assert runner.eval_form(_read(other, "x")) == 5
            runner.eval_form(_read(other, "(setq x 6)"))
            assert runner.eval_text("(get-x)") == 6
            assert runner.eval_form(
                _read(other, "(let ((x 7)) (get-x))")) == 6
            assert runner.eval_form(
                _read(other, "((lambda (x) x) 8)")) == 8

    def test_gensyms_bind_by_name(self):
        for mode in ("interpreter", "compiled"):
            interp = Interpreter(SymbolTable())
            runner = SequentialRunner(interp, eval_mode=mode)
            g = interp.symbols.gensym("v")
            twin = SymbolTable().gensym("v")
            assert g.name == twin.name and g is not twin
            let = interp.intern("let")
            form = lisp_list(let, lisp_list(lisp_list(g, 1)),
                             lisp_list(interp.intern("+"), g, twin))
            assert runner.eval_form(form) == 2
            plain = interp.intern("v")
            form = lisp_list(let, lisp_list(lisp_list(g, 1)), plain)
            with pytest.raises(UnboundVariable, match="unbound variable: v"):
                runner.eval_form(form)


def _read(symbols: SymbolTable, text: str):
    from repro.sexpr.reader import Reader

    (form,) = Reader(symbols).read_all(text)
    return form
