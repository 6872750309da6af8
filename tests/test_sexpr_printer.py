"""Unit tests: printer, including read/print round-trips."""

import pytest

from repro.sexpr.datum import Cons, cons, intern, lisp_list
from repro.sexpr.printer import pretty_str, write_str
from repro.sexpr.reader import read


class TestWriteStr:
    def test_atoms(self):
        assert write_str(None) == "nil"
        assert write_str(True) == "t"
        assert write_str(42) == "42"
        assert write_str(2.5) == "2.5"
        assert write_str(intern("sym")) == "sym"

    def test_string_escaping(self):
        assert write_str('a"b') == '"a\\"b"'

    def test_list(self):
        assert write_str(lisp_list(1, 2, 3)) == "(1 2 3)"

    def test_dotted(self):
        assert write_str(cons(1, 2)) == "(1 . 2)"

    def test_quote_abbreviation(self):
        assert write_str(read("'x")) == "'x"
        assert write_str(read("`(a ,b)")) == "`(a ,b)"
        assert write_str(read("#'f")) == "#'f"

    def test_cycle_guard(self):
        c = cons(1, None)
        c.cdr = c
        out = write_str(c)
        assert "..." in out

    def test_max_length_guard(self):
        lst = lisp_list(*range(100))
        out = write_str(lst, max_length=5)
        assert "..." in out


class TestRoundTrip:
    CASES = [
        "42",
        "nil",
        "t",
        "(1 2 3)",
        "(a (b (c)) d)",
        "(1 . 2)",
        "(1 2 . 3)",
        "'(quoted list)",
        '"string with spaces"',
        "(defun f (l) (when l (print (car l)) (f (cdr l))))",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_roundtrip(self, text):
        first = read(text)
        printed = write_str(first)
        second = read(printed)
        assert write_str(second) == printed


class TestPretty:
    def test_short_form_stays_flat(self):
        assert "\n" not in pretty_str(read("(f a b)"))

    def test_long_defun_breaks(self):
        form = read(
            "(defun very-long-function-name (argument-one argument-two) "
            "(do-something argument-one) (do-something-else argument-two) "
            "(and-more argument-one argument-two))"
        )
        out = pretty_str(form)
        assert "\n" in out

    def test_pretty_output_rereadable(self):
        form = read(
            "(defun f5 (l) (cond ((null l) nil) ((null (cdr l)) (f5 (cdr l)))"
            " (t (setf (cadr l) (+ (car l) (cadr l))) (f5 (cdr l)))))"
        )
        out = pretty_str(form)
        assert write_str(read(out)) == write_str(form)


# --- differential: the one-pass printer against the re-writing one ------
#
# ``_oracle_write``/``_oracle_pretty`` are the printer as it was before
# ``pretty_str`` recorded each subform's flat text in one write: every
# level re-wrote its subforms with ``write_str``.  Output, including the
# guards and the order in which ``names`` is consulted, must not move.

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.sexpr.datum import Symbol  # noqa: E402
from repro.sexpr.printer import (  # noqa: E402
    _BODY_FORMS,
    _PRETTY_WIDTH,
    _QUOTE_ABBREV,
    _atom_str,
    _unwrap_future,
)


def _oracle_write_str(obj, max_depth=200, max_length=10_000, names=None):
    out = []
    _oracle_write(obj, out, max_depth, max_length, set(), names)
    return "".join(out)


def _oracle_write(obj, out, depth, length, on_path, names=None):
    obj = _unwrap_future(obj)
    if not isinstance(obj, Cons):
        if names is not None and isinstance(obj, Symbol):
            out.append(names[obj.name])
        else:
            out.append(_atom_str(obj))
        return
    if depth <= 0 or id(obj) in on_path:
        out.append("...")
        return
    if (
        isinstance(obj.car, Symbol)
        and obj.car.name in _QUOTE_ABBREV
        and isinstance(obj.cdr, Cons)
        and obj.cdr.cdr is None
    ):
        out.append(_QUOTE_ABBREV[obj.car.name])
        _oracle_write(obj.cdr.car, out, depth - 1, length, on_path, names)
        return
    on_path.add(id(obj))
    out.append("(")
    node = obj
    count = 0
    first = True
    while isinstance(node, Cons):
        if count >= length or (id(node) in on_path and node is not obj):
            out.append(" ...")
            node = None
            break
        if not first:
            out.append(" ")
        _oracle_write(node.car, out, depth - 1, length, on_path, names)
        first = False
        count += 1
        node = _unwrap_future(node.cdr)
    if node is not None:
        out.append(" . ")
        _oracle_write(node, out, depth - 1, length, on_path, names)
    out.append(")")
    on_path.discard(id(obj))


def _oracle_pretty(obj, indent=0, names=None):
    flat = _oracle_write_str(obj, names=names)
    if len(flat) + indent <= _PRETTY_WIDTH or not isinstance(obj, Cons):
        return flat
    head = obj.car
    items = []
    node = obj
    while isinstance(node, Cons):
        items.append(node.car)
        node = node.cdr
    if node is not None:
        return flat
    if isinstance(head, Symbol) and head.name in _BODY_FORMS:
        keep = _BODY_FORMS[head.name] + 1
        head_parts = [_oracle_write_str(x, names=names) for x in items[:keep]]
        head_line = "(" + " ".join(head_parts)
        body_indent = indent + 2
        lines = [head_line]
        for sub in items[keep:]:
            lines.append(" " * body_indent
                         + _oracle_pretty(sub, body_indent, names))
        return "\n".join(lines) + ")"
    head_txt = _oracle_write_str(items[0], names=names) if items else ""
    arg_indent = indent + len(head_txt) + 2
    if items[1:]:
        parts = [_oracle_pretty(items[1], arg_indent, names)]
        for sub in items[2:]:
            parts.append(" " * arg_indent
                         + _oracle_pretty(sub, arg_indent, names))
        return "(" + head_txt + " " + "\n".join(parts) + ")"
    return "(" + head_txt + ")"


class _FirstSeen(dict):
    """A ``names`` mapping filled on first lookup, like the facade's
    gensym renumbering: its insertion order is the print order."""

    def __missing__(self, name):
        self[name] = printed = f"{name}~{len(self)}"
        return printed


_HEADS = sorted(_BODY_FORMS) + sorted(_QUOTE_ABBREV) + [
    "f", "setf", "car", "a-rather-long-function-name", "#:lockbase12"]
_symbols = st.one_of(
    st.sampled_from(_HEADS),
    st.from_regex(r"[a-z][a-z0-9-]{0,14}", fullmatch=True),
).map(intern)
_atoms = st.one_of(
    _symbols,
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from([None, True]),
    st.text(alphabet='ab "\\\n', max_size=6),
)


def _forms(children):
    lists = st.lists(children, max_size=6).map(lambda xs: lisp_list(*xs))
    dotted = st.tuples(st.lists(children, min_size=1, max_size=3),
                       _atoms).map(lambda p: _dotted(p[0], p[1]))
    quoted = st.tuples(st.sampled_from(sorted(_QUOTE_ABBREV)),
                       children).map(lambda p: lisp_list(intern(p[0]), p[1]))
    headed = st.tuples(st.sampled_from(_HEADS), st.lists(children,
                                                         max_size=5)).map(
        lambda p: lisp_list(intern(p[0]), *p[1]))
    shared = children.map(lambda c: lisp_list(intern("f"), c, c))
    return st.one_of(lists, dotted, quoted, headed, shared)


def _dotted(items, tail):
    out = tail
    for item in reversed(items):
        out = Cons(item, out)
    return out


_sexprs = st.recursive(_atoms, _forms, max_leaves=60)
_DIFF = dict(deadline=None, max_examples=300,
             suppress_health_check=[HealthCheck.too_slow])


def _same_pretty(form, indent):
    assert pretty_str(form, indent) == _oracle_pretty(form, indent)
    new, old = _FirstSeen(), _FirstSeen()
    assert pretty_str(form, indent, names=new) == \
        _oracle_pretty(form, indent, names=old)
    assert list(new.items()) == list(old.items())


class TestPrettyDifferential:
    @settings(**_DIFF)
    @given(_sexprs, st.integers(0, 40))
    def test_matches_the_rewriting_printer(self, form, indent):
        _same_pretty(form, indent)

    @settings(**_DIFF)
    @given(_sexprs)
    def test_write_str_matches(self, form):
        assert write_str(form) == _oracle_write_str(form)
        names_new, names_old = _FirstSeen(), _FirstSeen()
        assert write_str(form, names=names_new) == \
            _oracle_write_str(form, names=names_old)
        assert list(names_new.items()) == list(names_old.items())
        for depth, length in ((3, 2), (1, 0), (0, 5)):
            assert write_str(form, depth, length) == \
                _oracle_write_str(form, depth, length)

    def _long_body(self, *extra):
        return read(
            "(defun a-long-function-name-for-breaking (argument-one l) "
            "(some-helper-function argument-one (car l) (cdr l)) "
            "(let ((x (another-helper argument-one)) (y 2)) "
            "(setf (car l) (+ x y argument-one)) (progn x y)))"
        ), extra

    def test_cycle_guard(self):
        form, _ = self._long_body()
        loop = lisp_list(intern("loop"), None)
        loop.cdr.car = loop  # prints as (loop ...)
        form.cdr.cdr.cdr.car.cdr.cdr.car = loop
        tail = lisp_list(1, 2)
        tail.cdr.cdr = tail  # a cdr cycle: the length guard ends it
        form.cdr.cdr.cdr.cdr.car.cdr.car.cdr.car = tail
        for indent in (0, 7, 40):
            _same_pretty(form, indent)
        assert "(loop ...)" in pretty_str(form)
        assert write_str(tail) == _oracle_write_str(tail)

    def test_cdr_chain_back_to_an_enclosing_list(self):
        # The parameter list's cdr chain runs on into the defun itself:
        # inside the defun that prints as (argument-one l ...), but on
        # its own (the head line re-prints it) it runs through the body.
        form, _ = self._long_body()
        params = form.cdr.cdr.car
        params.cdr.cdr = form
        for indent in (0, 21):
            _same_pretty(form, indent)
        assert "(argument-one l ...)" in write_str(form)
        assert "(argument-one l ...)" not in pretty_str(form)

    def test_resolved_futures_print_as_values(self):
        from repro.lisp.values import Future

        inner, tail, pending = Future(), Future(), Future()
        inner.resolve(read("(a-resolved-future-value-that-is-long (car l))"))
        tail.resolve(read("(rest-of-the-list-after-a-future-cdr x y)"))
        form, _ = self._long_body()
        form.cdr.cdr.cdr.car.cdr.car = inner
        last = form
        while last.cdr is not None:
            last = last.cdr
        last.cdr = tail
        form.cdr.cdr.cdr.cdr.car.cdr.cdr.car = pending
        for indent in (0, 9):
            _same_pretty(form, indent)
        assert write_str(form) == _oracle_write_str(form)
        assert "rest-of-the-list-after-a-future-cdr" in write_str(form)

    def test_depth_guard(self):
        deep = intern("bottom")
        for _ in range(230):
            deep = lisp_list(deep, intern("x"))
        form, _ = self._long_body()
        form.cdr.cdr.cdr.car.cdr.cdr.car = deep
        for indent in (0, 13):
            _same_pretty(form, indent)
            _same_pretty(deep, indent)
        assert "..." in pretty_str(deep)

    def test_length_guard(self):
        big = lisp_list(*range(10_001))
        form = lisp_list(intern("setq"), intern("data"),
                         lisp_list(intern("quote"), big))
        _same_pretty(form, 0)
        assert write_str(form).endswith(" ...))")
        exact = lisp_list(*range(10_000))
        assert write_str(exact) == _oracle_write_str(exact)
        assert "..." not in write_str(exact)


# --- pretty_str on cyclic lists ------------------------------------------
#
# Before the printer's cycle checks, a list wider than the page whose
# cdr chain loops (or that holds itself, or whose cdr chain runs back
# into an enclosing list) never came back from pretty_str.  Each case
# prints in a child process with a timeout, so a reintroduced hang
# fails fast instead of stalling the suite.

_LONG = "a-fairly-long-symbol-name"
_CYCLES_SCRIPT = f"""
import json, sys
from repro.sexpr.printer import pretty_str, write_str
from repro.sexpr.reader import read

cdr_cycle = read("({_LONG} another-long-symbol-name)")
cdr_cycle.cdr.cdr = cdr_cycle

car_cycle = read("({_LONG}-1 {_LONG}-2 ({_LONG}-3 {_LONG}-4 nil))")
car_cycle.cdr.cdr.car.cdr.cdr.car = car_cycle

defun = read("(defun f (x) ({_LONG} another-long-symbol-name yet-another))")
body = defun.cdr.cdr.cdr.car
body.cdr.cdr.cdr = defun

json.dump({{name: [pretty_str(form), write_str(form), write_str(inner)]
           for name, form, inner in (("cdr", cdr_cycle, cdr_cycle),
                                     ("car", car_cycle, car_cycle),
                                     ("defun", defun, body))}}, sys.stdout)
"""


@pytest.fixture(scope="module")
def cyclic_prints():
    import json
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _CYCLES_SCRIPT],
                          capture_output=True, text=True, timeout=60,
                          env=env)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


class TestPrettyCycles:
    def test_cdr_cycle_prints_flat(self, cyclic_prints):
        pretty, flat, _ = cyclic_prints["cdr"]
        assert pretty == flat
        assert len(flat) == 255_005 and flat.endswith(" ...)")

    def test_list_holding_itself_prints_it_flat(self, cyclic_prints):
        pretty, _, inner = cyclic_prints["car"]
        lines = pretty.split("\n")
        assert lines[0] == f"({_LONG}-1 {_LONG}-2"
        assert lines[1].strip() == f"({_LONG}-3 {_LONG}-4"
        assert lines[2].strip() == inner + "))"
        assert inner.endswith(f"{_LONG}-4 ...))")

    def test_cdr_chain_back_into_an_enclosing_defun(self, cyclic_prints):
        pretty, _, inner = cyclic_prints["defun"]
        lines = pretty.split("\n")
        assert lines[0] == "(defun f (x)"
        assert lines[1] == f"  ({_LONG} another-long-symbol-name"
        assert [line.strip() for line in lines[2:-1]] == [
            "yet-another", "defun", "f", "(x)"]
        assert lines[-1].strip() == inner + "))"
        assert inner == (f"({_LONG} another-long-symbol-name yet-another "
                         "defun f (x) ...)")
