"""The generator-style evaluator for the mini-Lisp.

Every ``eval_gen``/``apply_gen`` call is a Python generator that yields
:class:`~repro.lisp.effects.Effect` objects and returns the Lisp value.
Drivers (the sequential runner, the simulated multiprocessor) pull
effects and decide how time passes and when blocking operations proceed.

Supported language (the subset the paper's figures are written in, plus
the runtime forms Curare's transformations emit):

* special forms: ``quote``, ``if``, ``cond``, ``when``, ``unless``,
  ``progn``, ``let``, ``let*``, ``setq``, ``setf``, ``defun``,
  ``defmacro``, ``lambda``, ``function``, ``while``, ``dolist``,
  ``and``, ``or``, ``quasiquote``, ``declare`` (ignored),
  ``defstruct``, ``future``, ``spawn``
* functions: see :mod:`repro.lisp.builtins`
"""

from __future__ import annotations

import sys
from typing import Any, Generator, Iterable, Optional

from repro.lisp.effects import (
    Annotate,
    Effect,
    MemRead,
    MemWrite,
    SpawnProcess,
    Tick,
    WaitFuture,
)
from repro.lisp.builtins import builtin_table
from repro.lisp.env import Environment, binding_key
from repro.lisp.errors import (
    ArityError,
    EvalError,
    LispError,
    SetfError,
    UndefinedFunction,
    WrongType,
)
from repro.lisp.prelude import install_prelude
from repro.lisp.structs import StructInstance, StructType
from repro.lisp.values import Builtin, Closure, Future, Macro
from repro.sexpr.datum import Cons, Symbol, SymbolTable, DEFAULT_SYMBOLS, list_to_pylist

EvalGen = Generator[Effect, Any, Any]

# Deep Lisp recursion nests generator frames, and CPython 3.11 resumes
# each nested generator on the C stack, about 400 bytes a frame: an
# 8 MB stack holds some 20,000 before the process dies.  The limit stays
# below that, so a program that recurses too deeply raises (and
# ``apply_gen`` makes that a LispError) instead.  A plain one-call-per-
# level recursion uses six frames a level: (dn 3000) needs 18,000.
RECURSION_LIMIT = 19_000
if sys.getrecursionlimit() < RECURSION_LIMIT:
    sys.setrecursionlimit(RECURSION_LIMIT)


def _is_cxr(name: str) -> bool:
    """True for car/cdr and the composed c[ad]{2,4}r accessors."""
    if len(name) < 3 or name[0] != "c" or name[-1] != "r":
        return False
    middle = name[1:-1]
    return 1 <= len(middle) <= 4 and all(ch in "ad" for ch in middle)


def cxr_ops(name: str) -> list[str]:
    """Field sequence applied innermost-first: cadr -> ['cdr', 'car']."""
    middle = name[1:-1]
    return ["car" if ch == "a" else "cdr" for ch in reversed(middle)]


class Interpreter:
    """A Lisp world: symbol table, function/macro namespaces, structs.

    One interpreter instance is shared by the analyzer, the transformer,
    and the drivers, so that symbols and functions mean the same thing
    everywhere.
    """

    def __init__(self, symbols: Optional[SymbolTable] = None):
        self.symbols = symbols if symbols is not None else DEFAULT_SYMBOLS
        self.globals = Environment()
        # This world's own copy of the per-table builtin dict.
        self.functions: dict[Symbol, Any] = dict(
            self.symbols.derived(builtin_table))
        self.macros: dict[Symbol, Macro] = {}
        # Replaced by every write to ``functions`` or ``macros`` (all go
        # through ``define``): a compiled site that resolved a head
        # under this token may reuse that resolution until it changes.
        self.definition_token = object()
        self.structs: dict[str, StructType] = {}
        # accessor name -> (StructType, field); filled by defstruct.
        self.struct_accessors: dict[str, tuple[StructType, str]] = {}
        self.source_forms: dict[Symbol, Any] = {}  # defun name -> source
        # Lazily-attached repro.lisp.compile.Compiler (see get_compiler);
        # the interpreter itself never touches it.
        self.compiler: Optional[Any] = None
        install_prelude(self)

    # -- helpers ---------------------------------------------------------

    def intern(self, name: str) -> Symbol:
        return self.symbols.intern(name)

    def define(self, name: Symbol, value: Any) -> None:
        """Install ``value`` as ``name``'s macro (a :class:`Macro`) or
        function (anything else), and replace the definition token.

        The one writer of ``functions`` and ``macros``: ``defun``,
        ``defmacro``, the compiled ``defun`` and ``define_builtin`` (and
        so ``defstruct``) all come here, so a new token marks every
        change to either table.
        """
        if isinstance(value, Macro):
            self.macros[name] = value
        else:
            self.functions[name] = value
        self.definition_token = object()

    def define_builtin(self, builtin: Builtin) -> None:
        self.define(self.intern(builtin.name), builtin)

    def lookup_function(self, name: Symbol) -> Any:
        fn = self.functions.get(name)
        if fn is None:
            raise UndefinedFunction(name)
        return fn

    def load(self, text: str) -> list[Any]:
        """Read all forms from text; return them (does not evaluate)."""
        from repro.sexpr.reader import Reader

        return Reader(self.symbols).read_all(text)

    # -- evaluation ------------------------------------------------------

    def eval_gen(self, form: Any, env: Environment) -> EvalGen:
        """Evaluate ``form`` in ``env``; a generator of effects."""
        # Atoms ------------------------------------------------------
        if isinstance(form, Symbol):
            yield Tick(1, "var")
            return env.lookup(form.name)
        if not isinstance(form, Cons):
            # Self-evaluating: numbers, strings, nil, t, raw values.
            return form

        head = form.car
        if isinstance(head, Symbol):
            handler = _SPECIAL_FORMS.get(head.name)
            if handler is not None:
                return (yield from handler(self, form, env))
            macro = self.macros.get(head)
            if macro is not None:
                expansion = yield from self._expand_macro(macro, form, env)
                return (yield from self.eval_gen(expansion, env))
            # Ordinary call by name.
            fn = self.lookup_function(head)
            args = []
            arg_form = form.cdr
            while isinstance(arg_form, Cons):
                args.append((yield from self.eval_gen(arg_form.car, env)))
                arg_form = arg_form.cdr
            return (yield from self.apply_gen(fn, args))
        if isinstance(head, Cons) and isinstance(head.car, Symbol) and head.car.name == "lambda":
            fn = yield from self.eval_gen(head, env)
            args = []
            arg_form = form.cdr
            while isinstance(arg_form, Cons):
                args.append((yield from self.eval_gen(arg_form.car, env)))
                arg_form = arg_form.cdr
            return (yield from self.apply_gen(fn, args))
        raise EvalError("illegal function position", form)

    def eval_sequence(self, forms: Iterable[Any], env: Environment) -> EvalGen:
        result: Any = None
        for form in forms:
            result = yield from self.eval_gen(form, env)
        return result

    def apply_gen(self, fn: Any, args: list[Any]) -> EvalGen:
        """Apply a function value to evaluated arguments."""
        if isinstance(fn, Symbol):  # function designator
            fn = self.lookup_function(fn)
        if isinstance(fn, Builtin):
            yield Tick(fn.cost, fn.name)
            if fn.is_generator:
                return (yield from fn.fn(self, *args))
            return fn.fn(*args)
        if isinstance(fn, Closure):
            yield Tick(1, f"call {fn.name or 'lambda'}")
            call_env = self._bind_params(fn, args)
            try:
                return (yield from self.eval_sequence(fn.body, call_env))
            except RecursionError as err:
                raise EvalError(
                    f"recursion too deep in {fn.name or 'lambda'} ({err}); "
                    "the compiled eval mode does not nest Python frames"
                ) from None
        raise WrongType("a function", fn, "apply")

    def _bind_params(self, fn: Closure, args: list[Any]) -> Environment:
        env = Environment(fn.env)
        params = fn.params
        rest_sym: Optional[Symbol] = None
        required: list[Symbol] = []
        i = 0
        while i < len(params):
            p = params[i]
            if isinstance(p, Symbol) and p.name == "&rest":
                if i + 1 >= len(params):
                    raise ArityError(fn.name, "&rest needs a name", len(args))
                rest_sym = params[i + 1]
                i += 2
                continue
            required.append(p)
            i += 1
        if rest_sym is None:
            if len(args) != len(required):
                raise ArityError(fn.name, str(len(required)), len(args))
        else:
            if len(args) < len(required):
                raise ArityError(fn.name, f"at least {len(required)}", len(args))
        for name, value in zip(required, args):
            env.define(binding_key(name), value)
        if rest_sym is not None:
            from repro.sexpr.datum import lisp_list

            env.define(binding_key(rest_sym), lisp_list(*args[len(required) :]))
        return env

    def _expand_macro(self, macro: Macro, form: Any, env: Environment) -> EvalGen:
        args = list_to_pylist(form.cdr)
        yield Tick(1, f"macroexpand {macro.name}")
        call_env = self._bind_params(macro.closure, args)
        return (yield from self.eval_sequence(macro.closure.body, call_env))

    def macroexpand_all(self, form: Any) -> Any:
        """Fully macroexpand ``form`` without other evaluation.

        Used by the lowering pass so the IR only sees core forms.  Macro
        expanders must be effect-free (true of every macro in this
        code base); effects raised during expansion are executed eagerly.
        """
        if not isinstance(form, Cons) or not isinstance(form.car, Symbol):
            return form
        head: Symbol = form.car
        if head.name in ("quote", "function"):
            return form
        macro = self.macros.get(head)
        if macro is not None:
            gen = self._expand_macro(macro, form, self.globals)
            expansion = _drain(gen)
            return self.macroexpand_all(expansion)
        # Expand subforms (head position is left alone for special forms).
        items = []
        node: Any = form
        while isinstance(node, Cons):
            items.append(node.car)
            node = node.cdr
        new_items = [items[0]] + [self.macroexpand_all(x) for x in items[1:]]
        out: Any = node
        for item in reversed(new_items):
            out = Cons(item, out)
        return out

    # -- memory access helpers (shared with builtins) ---------------------

    def read_field_gen(self, obj: Any, field: str, context: str) -> EvalGen:
        """Traced read of ``obj.field``.

        Futures are transparent on read, as in Multilisp (paper §3.1):
        a strict read of a slot holding an unresolved future blocks the
        reading process until the producing invocation resolves it.
        """
        if isinstance(obj, Future):
            if obj.resolved:
                obj = obj.value
            else:
                obj = yield WaitFuture(obj)
        if isinstance(obj, (Cons, StructInstance)):
            yield MemRead(obj, field)
            value = obj.get_field(field)
            if isinstance(value, Future) and value.resolved:
                return value.value
            return value
        if obj is None and field in ("car", "cdr"):
            return None  # (car nil) = (cdr nil) = nil, as in CL
        raise WrongType("a cons or structure", obj, context)

    def write_field_gen(self, obj: Any, field: str, value: Any, context: str) -> EvalGen:
        """Traced write of ``obj.field = value``."""
        if isinstance(obj, (Cons, StructInstance)):
            yield MemWrite(obj, field, value)
            obj.set_field(field, value)
            return value
        raise WrongType("a cons or structure", obj, context)


def _drain(gen: EvalGen) -> Any:
    """Run a generator to completion ignoring effects (for macroexpansion)."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


# ---------------------------------------------------------------------------
# Special forms
# ---------------------------------------------------------------------------


def _args(form: Cons) -> list[Any]:
    return list_to_pylist(form.cdr)


def _sf_quote(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    args = _args(form)
    if len(args) != 1:
        raise EvalError("quote takes one argument", form)
    return args[0]
    yield  # pragma: no cover — makes this a generator


def _sf_function(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    args = _args(form)
    if len(args) != 1:
        raise EvalError("function takes one argument", form)
    target = args[0]
    if isinstance(target, Symbol):
        yield Tick(1, "function")
        return interp.lookup_function(target)
    if isinstance(target, Cons) and isinstance(target.car, Symbol) and target.car.name == "lambda":
        return (yield from interp.eval_gen(target, env))
    raise EvalError("bad function form", form)


def _sf_if(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    args = _args(form)
    if len(args) not in (2, 3):
        raise EvalError("if takes 2 or 3 arguments", form)
    yield Tick(1, "if")
    test = yield from interp.eval_gen(args[0], env)
    if test is not None and test is not False:
        return (yield from interp.eval_gen(args[1], env))
    if len(args) == 3:
        return (yield from interp.eval_gen(args[2], env))
    return None


def _sf_cond(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    yield Tick(1, "cond")
    for clause in _args(form):
        if not isinstance(clause, Cons):
            raise EvalError("malformed cond clause", form)
        parts = list_to_pylist(clause)
        test_form = parts[0]
        if isinstance(test_form, Symbol) and test_form.name == "t" or test_form is True:
            test: Any = True
        else:
            test = yield from interp.eval_gen(test_form, env)
        if test is not None and test is not False:
            if len(parts) == 1:
                return test
            return (yield from interp.eval_sequence(parts[1:], env))
    return None


def _sf_when(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    args = _args(form)
    if not args:
        raise EvalError("when needs a test", form)
    yield Tick(1, "when")
    test = yield from interp.eval_gen(args[0], env)
    if test is not None and test is not False:
        return (yield from interp.eval_sequence(args[1:], env))
    return None


def _sf_unless(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    args = _args(form)
    if not args:
        raise EvalError("unless needs a test", form)
    yield Tick(1, "unless")
    test = yield from interp.eval_gen(args[0], env)
    if test is None or test is False:
        return (yield from interp.eval_sequence(args[1:], env))
    return None


def _sf_progn(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    return (yield from interp.eval_sequence(_args(form), env))


def _sf_let(interp: Interpreter, form: Cons, env: Environment, sequential: bool = False) -> EvalGen:
    args = _args(form)
    if not args:
        raise EvalError("let needs a binding list", form)
    yield Tick(1, "let")
    bindings = list_to_pylist(args[0]) if args[0] is not None else []
    new_env = env.child()
    target_env = new_env if sequential else env
    pairs: list[tuple[str, Any]] = []
    for binding in bindings:
        if isinstance(binding, Symbol):
            name, init = binding, None
        elif isinstance(binding, Cons):
            parts = list_to_pylist(binding)
            if len(parts) == 1:
                name, init = parts[0], None
            elif len(parts) == 2:
                name, init = parts
            else:
                raise EvalError("malformed let binding", form)
        else:
            raise EvalError("malformed let binding", form)
        if not isinstance(name, Symbol):
            raise EvalError("let binding name must be a symbol", form)
        value = yield from interp.eval_gen(init, target_env)
        if sequential:
            new_env.define(name.name, value)
        else:
            pairs.append((name.name, value))
    for name, value in pairs:
        new_env.define(name, value)
    return (yield from interp.eval_sequence(args[1:], new_env))


def _sf_let_star(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    return (yield from _sf_let(interp, form, env, sequential=True))


def _sf_setq(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    args = _args(form)
    if len(args) % 2 != 0 or not args:
        raise EvalError("setq needs name/value pairs", form)
    value: Any = None
    for i in range(0, len(args), 2):
        name = args[i]
        if not isinstance(name, Symbol):
            raise EvalError("setq name must be a symbol", form)
        yield Tick(1, "setq")
        value = yield from interp.eval_gen(args[i + 1], env)
        env.assign(name.name, value)
    return value


def _sf_setf(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    args = _args(form)
    if len(args) % 2 != 0 or not args:
        raise EvalError("setf needs place/value pairs", form)
    value: Any = None
    for i in range(0, len(args), 2):
        value = yield from _setf_one(interp, args[i], args[i + 1], env, form)
    return value


def _setf_one(
    interp: Interpreter, place: Any, value_form: Any, env: Environment, form: Any
) -> EvalGen:
    if isinstance(place, Symbol):
        yield Tick(1, "setf-var")
        value = yield from interp.eval_gen(value_form, env)
        env.assign(place.name, value)
        return value
    if not (isinstance(place, Cons) and isinstance(place.car, Symbol)):
        raise SetfError(f"unsupported setf place: {place!r}")
    op = place.car.name
    place_args = list_to_pylist(place.cdr)

    if op in ("car", "cdr") or _is_cxr(op):
        if len(place_args) != 1:
            raise SetfError(f"({op} ...) place takes one subform")
        obj = yield from interp.eval_gen(place_args[0], env)
        ops = cxr_ops(op) if _is_cxr(op) else [op]
        # Traverse all but the final field with traced reads.
        for field in ops[:-1]:
            obj = yield from interp.read_field_gen(obj, field, f"setf {op}")
        value = yield from interp.eval_gen(value_form, env)
        yield from interp.write_field_gen(obj, ops[-1], value, f"setf {op}")
        return value

    if op in interp.struct_accessors:
        if len(place_args) != 1:
            raise SetfError(f"({op} ...) place takes one subform")
        _stype, field = interp.struct_accessors[op]
        obj = yield from interp.eval_gen(place_args[0], env)
        value = yield from interp.eval_gen(value_form, env)
        yield from interp.write_field_gen(obj, field, value, f"setf {op}")
        return value

    if op == "aref":
        if len(place_args) != 2:
            raise SetfError("(aref array index) place takes two subforms")
        vec = yield from interp.eval_gen(place_args[0], env)
        index = yield from interp.eval_gen(place_args[1], env)
        value = yield from interp.eval_gen(value_form, env)
        from repro.lisp.vectors import _gb_aset

        yield from _gb_aset(interp, vec, index, value)
        return value

    if op == "gethash":
        if len(place_args) != 2:
            raise SetfError("(gethash key table) place takes two subforms")
        key = yield from interp.eval_gen(place_args[0], env)
        table = yield from interp.eval_gen(place_args[1], env)
        value = yield from interp.eval_gen(value_form, env)
        from repro.lisp.builtins import hash_put_gen

        yield from hash_put_gen(interp, table, key, value)
        return value

    raise SetfError(f"unsupported setf place: ({op} ...)")


def _sf_defun(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    args = _args(form)
    if len(args) < 2:
        raise EvalError("defun needs a name, a lambda list, and a body", form)
    name, lambda_list = args[0], args[1]
    if not isinstance(name, Symbol):
        raise EvalError("defun name must be a symbol", form)
    params = list_to_pylist(lambda_list) if lambda_list is not None else []
    body = _strip_declares(args[2:])
    closure = Closure(name.name, params, body, interp.globals)
    interp.define(name, closure)
    interp.source_forms[name] = form
    yield Tick(1, "defun")
    return name


def _sf_defmacro(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    args = _args(form)
    if len(args) < 2:
        raise EvalError("defmacro needs a name, a lambda list, and a body", form)
    name, lambda_list = args[0], args[1]
    if not isinstance(name, Symbol):
        raise EvalError("defmacro name must be a symbol", form)
    params = list_to_pylist(lambda_list) if lambda_list is not None else []
    closure = Closure(name.name, params, args[2:], interp.globals)
    interp.define(name, Macro(name.name, closure))
    yield Tick(1, "defmacro")
    return name


def _sf_lambda(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    args = _args(form)
    if not args:
        raise EvalError("lambda needs a lambda list", form)
    params = list_to_pylist(args[0]) if args[0] is not None else []
    yield Tick(1, "lambda")
    return Closure("", params, _strip_declares(args[1:]), env)


def _strip_declares(body: list[Any]) -> list[Any]:
    out = []
    for form in body:
        if isinstance(form, Cons) and isinstance(form.car, Symbol) and form.car.name == "declare":
            continue
        out.append(form)
    return out


def _sf_while(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    args = _args(form)
    if not args:
        raise EvalError("while needs a test", form)
    while True:
        yield Tick(1, "while")
        test = yield from interp.eval_gen(args[0], env)
        if test is None or test is False:
            return None
        yield from interp.eval_sequence(args[1:], env)


def _sf_dolist(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    args = _args(form)
    if not args or not isinstance(args[0], Cons):
        raise EvalError("dolist needs (var list-form)", form)
    spec = list_to_pylist(args[0])
    if len(spec) not in (2, 3) or not isinstance(spec[0], Symbol):
        raise EvalError("dolist needs (var list-form [result])", form)
    var = spec[0].name
    yield Tick(1, "dolist")
    lst = yield from interp.eval_gen(spec[1], env)
    loop_env = env.child()
    loop_env.define(var, None)
    node = lst
    while isinstance(node, Cons):
        item = yield from interp.read_field_gen(node, "car", "dolist")
        loop_env.define(var, item)
        yield from interp.eval_sequence(args[1:], loop_env)
        node = yield from interp.read_field_gen(node, "cdr", "dolist")
    if len(spec) == 3:
        loop_env.define(var, None)
        return (yield from interp.eval_gen(spec[2], loop_env))
    return None


def _sf_and(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    yield Tick(1, "and")
    result: Any = True
    for sub in _args(form):
        result = yield from interp.eval_gen(sub, env)
        if result is None or result is False:
            return None
    return result


def _sf_or(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    yield Tick(1, "or")
    for sub in _args(form):
        result = yield from interp.eval_gen(sub, env)
        if result is not None and result is not False:
            return result
    return None


def _sf_declare(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    return None
    yield  # pragma: no cover


def _sf_declaim(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    """Top-level declaim forms are inert at evaluation time; the Curare
    driver reads them before evaluation (declare/parser.py)."""
    return None
    yield  # pragma: no cover


def _sf_defstruct(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    """(defstruct name field...) or, with inheritance (§2 footnote 2's
    "related group of objects"), (defstruct (child (:include parent))
    extra-field...): the child starts with every parent field, and the
    parent's accessors work on child instances because field names are
    shared — exactly the property the footnote relies on for analysis.
    """
    args = _args(form)
    parent: Optional[StructType] = None
    if args and isinstance(args[0], Cons):
        header = list_to_pylist(args[0])
        if not header or not isinstance(header[0], Symbol):
            raise EvalError("malformed defstruct header", form)
        name = header[0].name
        for option in header[1:]:
            if (
                isinstance(option, Cons)
                and isinstance(option.car, Symbol)
                and option.car.name == ":include"
                and isinstance(option.cdr, Cons)
                and isinstance(option.cdr.car, Symbol)
            ):
                parent_name = option.cdr.car.name
                parent = interp.structs.get(parent_name)
                if parent is None:
                    raise EvalError(f"unknown included struct {parent_name}", form)
            else:
                raise EvalError("unsupported defstruct option", form)
    elif args and isinstance(args[0], Symbol):
        name = args[0].name
    else:
        raise EvalError("defstruct needs a name symbol", form)
    fields = list(parent.field_names) if parent is not None else []
    for f in args[1:]:
        if isinstance(f, Symbol):
            fields.append(f.name)
        elif isinstance(f, Cons) and isinstance(f.car, Symbol):
            fields.append(f.car.name)  # (field default) — default ignored
        else:
            raise EvalError("malformed defstruct field", form)
    stype = StructType(name, tuple(fields))
    if parent is not None:
        stype.parent = parent
    interp.structs[name] = stype
    yield Tick(1, "defstruct")

    # Constructor.
    def make_fn(*values: Any, _stype: StructType = stype) -> StructInstance:
        return _stype.make(*values)

    interp.define_builtin(Builtin(stype.constructor_name(), make_fn, cost=1))

    # Predicate: true for the type and its :include descendants.
    def pred_fn(obj: Any, _stype: StructType = stype) -> Any:
        return (
            True
            if isinstance(obj, StructInstance)
            and obj.struct_type.is_subtype_of(_stype)
            else None
        )

    interp.define_builtin(Builtin(stype.predicate_name(), pred_fn, cost=1))

    # Accessors (generator builtins: they read memory).
    for field in fields:
        accessor = stype.accessor_name(field)
        interp.struct_accessors[accessor] = (stype, field)

        def reader(interp_: Interpreter, obj: Any, _field: str = field, _acc: str = accessor) -> EvalGen:
            return (yield from interp_.read_field_gen(obj, _field, _acc))

        interp.define_builtin(
            Builtin(accessor, reader, is_generator=True, cost=1, reads_memory=True)
        )
    return interp.intern(name)


def _sf_future(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    """(future EXPR) — evaluate EXPR in a child process, return a future."""
    args = _args(form)
    if len(args) != 1:
        raise EvalError("future takes one expression", form)
    expr = args[0]
    fut = Future(label="future")
    thunk = lambda: interp.eval_gen(expr, env)
    yield Tick(1, "future")
    result = yield SpawnProcess(thunk, future=fut, label="future")
    # The driver replies with the future (machine) or with the future
    # already resolved (sequential runner).
    return result if result is not None else fut


def _sf_spawn(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    """(spawn (f args...)) — evaluate args now, run the call asynchronously.

    This is the shape of a CRI recursive call after transformation
    (Figure 7): the caller does not use the result.
    """
    args = _args(form)
    if len(args) != 1 or not isinstance(args[0], Cons):
        raise EvalError("spawn takes exactly one call form", form)
    call = list_to_pylist(args[0])
    head = call[0]
    if not isinstance(head, Symbol):
        raise EvalError("spawn call head must be a function name", form)
    fn = interp.lookup_function(head)
    arg_values = []
    for sub in call[1:]:
        arg_values.append((yield from interp.eval_gen(sub, env)))
    yield Tick(1, "spawn")
    yield Annotate("spawn-call", {"function": head.name})
    thunk = lambda: interp.apply_gen(fn, arg_values)
    yield SpawnProcess(thunk, future=None, label=head.name)
    return None


def _sf_quasiquote(interp: Interpreter, form: Cons, env: Environment) -> EvalGen:
    args = _args(form)
    if len(args) != 1:
        raise EvalError("quasiquote takes one argument", form)
    yield Tick(1, "quasiquote")
    return (yield from _qq_expand(interp, args[0], env, 1))


def _qq_expand(interp: Interpreter, template: Any, env: Environment, depth: int) -> EvalGen:
    """Expand a quasiquote template at nesting ``depth``."""
    if not isinstance(template, Cons):
        return template
    head = template.car
    if isinstance(head, Symbol):
        if head.name == "unquote":
            inner = template.cdr.car if isinstance(template.cdr, Cons) else None
            if depth == 1:
                return (yield from interp.eval_gen(inner, env))
            expanded = yield from _qq_expand(interp, inner, env, depth - 1)
            return Cons(head, Cons(expanded, None))
        if head.name == "quasiquote":
            inner = template.cdr.car if isinstance(template.cdr, Cons) else None
            expanded = yield from _qq_expand(interp, inner, env, depth + 1)
            return Cons(head, Cons(expanded, None))
    # A list: expand elements, honoring unquote-splicing at this depth.
    pieces: list[tuple[bool, Any]] = []  # (spliced?, value)
    node: Any = template
    tail: Any = None
    while isinstance(node, Cons):
        item = node.car
        if (
            isinstance(item, Cons)
            and isinstance(item.car, Symbol)
            and item.car.name == "unquote-splicing"
            and depth == 1
        ):
            inner = item.cdr.car if isinstance(item.cdr, Cons) else None
            value = yield from interp.eval_gen(inner, env)
            pieces.append((True, value))
        else:
            pieces.append((False, (yield from _qq_expand(interp, item, env, depth))))
        nxt = node.cdr
        if nxt is not None and not isinstance(nxt, Cons):
            # Dotted tail.
            tail = yield from _qq_expand(interp, nxt, env, depth)
            break
        if (
            isinstance(nxt, Cons)
            and isinstance(nxt.car, Symbol)
            and nxt.car.name == "unquote"
        ):
            # `(a . ,x) reads as (a unquote x): the unquote form is the
            # dotted tail, not two more elements.
            tail = yield from _qq_expand(interp, nxt, env, depth)
            break
        node = nxt
    result: Any = tail
    for spliced, value in reversed(pieces):
        if spliced:
            # Copy the spliced list onto the front.
            items = []
            sub = value
            while isinstance(sub, Cons):
                items.append(sub.car)
                sub = sub.cdr
            for item in reversed(items):
                result = Cons(item, result)
        else:
            result = Cons(value, result)
    return result


_SPECIAL_FORMS = {
    "quote": _sf_quote,
    "quasiquote": _sf_quasiquote,
    "function": _sf_function,
    "if": _sf_if,
    "cond": _sf_cond,
    "when": _sf_when,
    "unless": _sf_unless,
    "progn": _sf_progn,
    "let": _sf_let,
    "let*": _sf_let_star,
    "setq": _sf_setq,
    "setf": _sf_setf,
    "defun": _sf_defun,
    "defmacro": _sf_defmacro,
    "lambda": _sf_lambda,
    "while": _sf_while,
    "dolist": _sf_dolist,
    "and": _sf_and,
    "or": _sf_or,
    "declare": _sf_declare,
    "declaim": _sf_declaim,
    "defstruct": _sf_defstruct,
    "future": _sf_future,
    "spawn": _sf_spawn,
}

SPECIAL_FORM_NAMES = frozenset(_SPECIAL_FORMS)
