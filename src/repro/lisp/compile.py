"""A one-pass compiler from the S-expression IR to Python closures.

The reference evaluator (:mod:`repro.lisp.interpreter`) re-examines
every form on every evaluation: dispatch on the head symbol, re-parse
the argument list, re-walk binding specs.  This module does that work
once, at compile time, and emits a tree of Python closures — drython's
expression-as-calls style — where each node is a *code* callable

    ``Code = (env) -> effect generator``

that performs only the dynamic part of evaluation.  The emitted
generators yield exactly the :class:`~repro.lisp.effects.Effect`
sequence the interpreter would, in the same order, with the same
payloads, raising the same typed errors at the same evaluation points —
so the race checker, flight recorder, chaos harness, and golden-trace
projections cannot distinguish the two evaluation modes.

Parity rules the design:

* **No allocation at compile time.**  Compilation may run lazily in the
  middle of a program (a ``defun`` body compiles when the defun
  executes), so the compiler never creates :class:`Cons` cells or
  :class:`Future` objects — their process-global ids must advance in
  exactly the interpreter's order.  Effect objects the compiler *does*
  pre-build (the per-opcode :class:`Tick` singletons) compare by value
  and are shared by every process, so nothing may mutate an effect;
  reuse is then invisible to drivers.
* **Fallback on compile error.**  :meth:`Compiler.code_for` wraps
  compilation in ``try/except (LispError, ValueError)``; any form the
  compiler cannot handle — malformed syntax, dotted binding lists —
  compiles to a *delegation* code that hands the whole form to
  ``interp.eval_gen`` at runtime.  The interpreter then raises the
  reference error at the reference point (or never, if the form is dead
  code).  Delegation is also used wholesale for the cold macro-world
  forms (``quasiquote``, ``defmacro``, ``defstruct``) whose expansion
  allocates fresh cells: running the reference implementation is the
  only way to preserve allocation order.
* **Runtime environment checks.**  Anything that depends on mutable
  interpreter state — is this head a macro? is this function defined?
  is this setf op a struct accessor? — is checked at execution time,
  exactly when the interpreter would, never frozen in at compile time.
  A site that resolves a head symbol (a call's head, an inline builtin)
  keeps its last resolution together with the world's
  :attr:`~repro.lisp.interpreter.Interpreter.definition_token`.
  :meth:`~repro.lisp.interpreter.Interpreter.define`, the only writer
  of ``functions`` and ``macros``, replaces the token, so while the
  token is unchanged both tables hold what they held at the last
  resolution; the site repeats the two lookups only once it changed.
  The interpreter's evaluation point is kept, and the Symbol is not
  hashed on every execution.
* **Frames keyed by name, addressed at compile time.**  Variable
  references, ``setq`` targets and parameter, ``let`` and ``dolist``
  bindings carry the name string (:func:`~repro.lisp.env.binding_key`)
  computed at compile time, so frame dicts hash a ``str``, whose hash
  CPython caches (see :mod:`repro.lisp.env`).  Frames stay dicts
  because interpreter-run code reads compiled frames by name: a macro
  call site, a delegated form, and ``funcall``/``apply``/``mapcar``.
  The compiler threads a static :data:`Scope` through every form: the
  run-time frames it knows, innermost first (a closure's parameters, a
  ``let``/``let*``/``dolist`` frame).  A reference or ``setq`` target
  bound in the innermost known frame, or in the one outside it, reads
  or writes that frame's dict directly; every other one keeps
  :meth:`~repro.lisp.env.Environment.lookup`/``assign``.  That holds
  for a ``let*``'s own names inside its inits, since a closure or
  future made there may read the frame after a later binding lands,
  and for everything past a frame the compiler does not know (a
  closure the interpreter made, a top-level form).  A ``defun`` closes
  over the globals, so its body never inherits an enclosing scope.

Calls are stackless: a compiled call site yields
:class:`~repro.lisp.trampoline.Invoke` with the callee's generator
instead of ``yield from``-ing it, and the surrounding
:func:`~repro.lisp.trampoline.trampoline` (sibilant's ``eval_k`` chain
loop) maintains the Lisp call chain as an explicit list.  Deep Lisp
recursion therefore no longer nests Python frames — programs that
overflow the interpreter run fine compiled.

Closure bodies compile once per definition site, and only on the first
*application*: the compiled entry point (a ``Proto = (env, args) ->
effect generator`` that performs the arity check, parameter binding,
and body evaluation itself) is built lazily by :func:`_entry_for`,
cached on :attr:`Closure.compiled <repro.lisp.values.Closure.compiled>`,
and shared through the definition site's proto cell by every closure
the site produces.  Functions that are defined but never called — the
common case for analysis-only workloads — never compile their bodies.
Build/reuse activity is exported through the
``perf.cache.lisp.compile.*`` counters.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.lisp.effects import Annotate, SpawnProcess, Tick
from repro.lisp.env import Environment, binding_key
from repro.lisp.errors import (
    EvalError,
    LispError,
    SetfError,
    UndefinedFunction,
    WrongType,
)
from repro.lisp.builtins import hash_put_gen
from repro.lisp.interpreter import (
    EvalGen,
    Interpreter,
    _is_cxr,
    _setf_one as ref_setf_one,
    _strip_declares,
    cxr_ops,
)
from repro.lisp.trampoline import TICK_RUN_CAP, Invoke, TickRun, trampoline
from repro.lisp.values import Builtin, Closure, Future
from repro.lisp.vectors import _gb_aset
from repro.perf.cache import EventCounter
from repro.sexpr.datum import Cons, Symbol, lisp_list, list_to_pylist

__all__ = [
    "Code",
    "Proto",
    "Compiler",
    "get_compiler",
    "compiled_eval_gen",
    "compiled_eval_sequence",
    "compiled_apply_gen",
]

#: A compiled form: run it in an environment, get an effect generator.
Code = Callable[[Environment], EvalGen]

#: A compiled closure entry: (defining env, evaluated args) -> generator.
#: The proto performs the call Tick, the arity check, parameter binding,
#: and body evaluation itself.
Proto = Callable[[Environment, List[Any]], EvalGen]

#: An argument plan: (kind, payload).  Kind 0 = constant (payload is the
#: value), kind 2 = general (payload is a Code), kinds 1, 5 and 6 = a
#: variable (payload is its name) read from the innermost frame (5), the
#: frame outside it (6) or by run-time lookup (1).  Constants and
#: variables evaluate inline at the use site without allocating a
#: generator frame.
Plan = Tuple[int, Any]

#: The static scope a form compiles in: ``(names, pending, outer)`` for
#: each run-time frame the compiler knows, innermost first, ending in
#: None where the frames are no longer known.  ``names`` are bound in
#: that frame whenever the form runs; ``pending`` are the names a
#: ``let*`` frame gains after its init that holds the form.
Scope = Optional[Tuple[FrozenSet[str], FrozenSet[str], Any]]
_NO_NAMES: FrozenSet[str] = frozenset()

# Closure-entry build/reuse activity, exported as
# perf.cache.lisp.compile.{hits,misses}: misses count fresh proto
# builds, hits count definition sites reusing an already-built proto.
_COMPILE_EVENTS = EventCounter("lisp.compile")

# Per-opcode Tick singletons.  Tick compares by value and nothing
# mutates an effect, so yielding one shared instance is
# indistinguishable from the interpreter's per-yield construction.
_T_VAR = Tick(1, "var")
_T_IF = Tick(1, "if")
_T_COND = Tick(1, "cond")
_T_WHEN = Tick(1, "when")
_T_UNLESS = Tick(1, "unless")
_T_LET = Tick(1, "let")
_T_SETQ = Tick(1, "setq")
_T_SETF_VAR = Tick(1, "setf-var")
_T_DEFUN = Tick(1, "defun")
_T_LAMBDA = Tick(1, "lambda")
_T_WHILE = Tick(1, "while")
_T_DOLIST = Tick(1, "dolist")
_T_AND = Tick(1, "and")
_T_OR = Tick(1, "or")
_T_FUNCTION = Tick(1, "function")
_T_FUTURE = Tick(1, "future")
_T_SPAWN = Tick(1, "spawn")


def _inline_ticks(kind: int, payload: Any) -> int:
    """The most unit ticks a ``while`` test or statement plan folds."""
    if kind in (1, 5, 6):
        return 1
    if kind == 3:
        return 1 + sum(1 for k, _ in payload[2] if k != 0)
    if kind == 4:
        return 1 + _inline_ticks(payload[1], payload[2])
    return 0


def _var_plan(scope: Scope, name: str) -> Plan:
    """The plan of a reference to ``name``: kind 5 when the innermost
    known frame binds it, 6 when the frame outside that one does, else
    1.  Only the global frame and a ``let*`` frame during its inits gain
    names after they are built, so a name found in ``names`` is there
    whenever the reference runs.  Deeper frames and the globals hold
    0.3% of the references of a ``simulate`` run and stay looked up."""
    for kind in (5, 6):
        if scope is None:
            break
        names, pending, scope = scope
        if name in names:
            return (kind, name)
        if name in pending:
            break
    return (1, name)


def _value(plan: Plan, env: Environment) -> EvalGen:
    """A plan's value at a cold site (a variable by run-time lookup,
    which finds the binding any addressing would; an inline call by its
    generic code)."""
    kind, payload = plan
    if kind == 0:
        return payload
    if kind == 2:
        return (yield from payload(env))
    if kind == 3:
        return (yield from payload[1](env))
    yield _T_VAR
    return env.lookup(payload)


def _resolve_inline(interp: Interpreter, head: Symbol, memo: List[Any]) -> None:
    """Resolve an inline call site's head under the current definition
    token.  ``memo`` is ``[token, fn, tick]``: ``fn`` is the plain
    builtin the consumer runs in its own frame, or None when the head is
    a macro, a closure, a generator builtin or undefined (the site then
    runs its generic code, which resolves the head itself); ``tick`` is
    ``fn``'s Tick, rebuilt only when ``fn`` changes.  A site reads
    ``fn`` and ``tick`` together, before any yield: another process may
    re-resolve the shared memo while this one is suspended."""
    fn = interp.functions.get(head)
    if fn.__class__ is Builtin and not fn.is_generator \
            and interp.macros.get(head) is None:
        if memo[1] is not fn:
            memo[1] = fn
            memo[2] = Tick(fn.cost, fn.name)
    else:
        memo[1] = None
    memo[0] = interp.definition_token


def get_compiler(interp: Interpreter) -> "Compiler":
    """The compiler attached to ``interp``, created on first use."""
    compiler = getattr(interp, "compiler", None)
    if compiler is None:
        compiler = Compiler(interp)
        interp.compiler = compiler
    return compiler  # type: ignore[no-any-return]


def compiled_eval_gen(interp: Interpreter, form: Any, env: Environment) -> EvalGen:
    """Compiled counterpart of :meth:`Interpreter.eval_gen`."""
    return trampoline(get_compiler(interp).code_for(form)(env))


def compiled_eval_sequence(
    interp: Interpreter, forms: List[Any], env: Environment
) -> EvalGen:
    """Compiled counterpart of :meth:`Interpreter.eval_sequence`.

    Forms compile lazily, one at a time, as the sequence advances — so a
    ``defmacro`` executed early in the sequence is installed before any
    later form that uses it reaches the compiler.
    """
    return trampoline(_sequence_frame(get_compiler(interp), forms, env))


def compiled_apply_gen(interp: Interpreter, fn: Any, args: List[Any]) -> EvalGen:
    """Compiled counterpart of :meth:`Interpreter.apply_gen`."""
    return trampoline(_apply_frame(interp, fn, args))


def _sequence_frame(compiler: "Compiler", forms: List[Any], env: Environment) -> EvalGen:
    result: Any = None
    for form in forms:
        result = yield from compiler.code_for(form)(env)
    return result


def _apply_frame(interp: Interpreter, fn: Any, args: List[Any]) -> EvalGen:
    """Apply a function value inside a trampoline (mirrors apply_gen)."""
    if isinstance(fn, Symbol):  # function designator
        fn = interp.lookup_function(fn)
    if isinstance(fn, Builtin):
        yield Tick(fn.cost, fn.name)
        if fn.is_generator:
            return (yield from fn.fn(interp, *args))
        return fn.fn(*args)
    if isinstance(fn, Closure):
        proto = fn.compiled
        if proto is None:
            proto = _entry_for(interp, fn)
        return (yield Invoke(proto(fn.env, args)))
    raise WrongType("a function", fn, "apply")


def _entry_for(interp: Interpreter, fn: Closure) -> Proto:
    """Resolve (and cache on ``fn``) the compiled entry for a closure.

    Bodies compile on the first *application*, not at definition — a
    program that defines functions only to analyze them never pays for
    compiling their bodies.  The definition site's shared cell
    (``fn.compiled_site``, ``[proto, scope]``) makes the compiled body
    common to every closure the site mints, compiled in the site's
    scope."""
    site = fn.compiled_site
    if site is not None and site[0] is not None:
        _COMPILE_EVENTS.hits += 1
        proto = site[0]
    else:
        _COMPILE_EVENTS.misses += 1
        proto = get_compiler(interp).build_proto(
            fn.name, fn.params, fn.body, site[1] if site is not None else None)
        if site is not None:
            site[0] = proto
    fn.compiled = proto
    return proto


def _args(form: Cons) -> List[Any]:
    return list_to_pylist(form.cdr)


class Compiler:
    """One compiler per :class:`Interpreter` world.

    Stateless apart from the interpreter reference: all reuse caching
    lives on the emitted closures (definition-site proto cells,
    per-call-site builtin Tick memos, ``Closure.compiled``), and the
    :data:`Scope` is a parameter, so a form that fails to compile leaves
    nothing behind for the next one.
    """

    __slots__ = ("interp",)

    def __init__(self, interp: Interpreter) -> None:
        self.interp = interp

    # -- entry points ----------------------------------------------------

    def code_for(self, form: Any, scope: Scope = None) -> Code:
        """Compile ``form`` in ``scope``, falling back to interpreter
        delegation.

        Never raises: a form the compiler rejects — malformed syntax,
        dotted lists where proper ones are required — compiles to a
        delegation code so the reference interpreter raises the
        reference error at the reference evaluation point (or not at
        all, for dead code).
        """
        try:
            return self._compile(form, scope)
        except (LispError, ValueError):
            return self._delegate(form)

    def _delegate(self, form: Any) -> Code:
        interp = self.interp

        def delegated(env: Environment) -> EvalGen:
            return (yield from interp.eval_gen(form, env))

        return delegated

    # -- dispatch --------------------------------------------------------

    def _compile(self, form: Any, scope: Scope) -> Code:
        if isinstance(form, Symbol):
            kind, name = _var_plan(scope, form.name)

            def var_code(env: Environment) -> EvalGen:
                yield _T_VAR
                return (env.bindings[name] if kind == 5 else
                        env.parent.bindings[name] if kind == 6 else
                        env.lookup(name))

            return var_code
        if not isinstance(form, Cons):

            def const_code(env: Environment, value: Any = form) -> EvalGen:
                return value
                yield  # pragma: no cover — makes this a generator

            return const_code
        head = form.car
        if isinstance(head, Symbol):
            handler = _FORM_COMPILERS.get(head.name)
            if handler is not None:
                return handler(self, form, scope)
            return self._compile_call(form, head, scope)
        if isinstance(head, Cons) and isinstance(head.car, Symbol) and head.car.name == "lambda":
            return self._compile_lambda_call(form, head, scope)
        raise EvalError("illegal function position", form)

    def _plan(self, form: Any, scope: Scope) -> Plan:
        """Plan an expression position: constant / variable / general."""
        if isinstance(form, Symbol):
            return _var_plan(scope, form.name)
        if not isinstance(form, Cons):
            return (0, form)
        h = form.car
        if isinstance(h, Symbol) and h.name == "quote":
            quoted = _args(form)
            if len(quoted) == 1:
                return (0, quoted[0])
        return (2, self.code_for(form, scope))

    def _plan_inline(self, form: Any, scope: Scope) -> Plan:
        """Plan an operand position that may execute in the consumer's
        own frame (kind 3): a call whose arguments are all constants or
        variables.  When the head resolves to a plain builtin at
        execution time, the consumer evaluates it without materializing
        a per-execution generator — the hot path for loop tests and
        increments — and otherwise falls back to the generic compiled
        code, so redefinition, macros, closures, and error points behave
        exactly as in :meth:`_compile_call`.  The effect stream is
        identical either way."""
        plan = self._plan(form, scope)
        if plan[0] != 2 or not isinstance(form, Cons):
            return plan
        head = form.car
        if not isinstance(head, Symbol) or head.name in _FORM_COMPILERS:
            return plan
        subplans: List[Plan] = []
        node: Any = form.cdr
        while isinstance(node, Cons):
            sub = self._plan(node.car, scope)
            if sub[0] == 2:
                return plan
            subplans.append(sub)
            node = node.cdr
        if node is not None:
            return plan  # dotted argument tail: generic path
        memo: List[Any] = [None, None, None]  # see _resolve_inline
        return (3, (head, plan[1], tuple(subplans), memo))

    def _plan_stmt(self, form: Any, scope: Scope) -> Plan:
        """Plan a statement position: :meth:`_plan_inline`, plus a
        single-pair ``setq`` executes in the consumer's own frame
        (kind 4, payload ``(name, value kind, value payload, target
        kind)``).  A loop-body increment would otherwise materialize a
        child generator every iteration; the effect stream (``setq``
        tick, then the value expression's effects) is identical to the
        generic :meth:`_compile_setq` path."""
        if isinstance(form, Cons):
            head = form.car
            if isinstance(head, Symbol) and head.name == "setq":
                args = _args(form)
                if len(args) == 2 and isinstance(args[0], Symbol):
                    vk, vp = self._plan_inline(args[1], scope)
                    sk, name = _var_plan(scope, args[0].name)
                    return (4, (name, vk, vp, sk))
        return self._plan_inline(form, scope)

    def _seq(self, forms: List[Any], scope: Scope) -> Code:
        """Compile a body sequence (empty -> None, as eval_sequence)."""
        if len(forms) == 1:
            return self.code_for(forms[0], scope)
        plans = tuple(self._plan_inline(f, scope) for f in forms)
        interp = self.interp

        def seq_code(env: Environment) -> EvalGen:
            result: Any = None
            for kind, payload in plans:
                if kind == 2:
                    # Flat-chain the statement (see let_star_code).
                    result = yield Invoke(payload(env))
                elif kind == 0:
                    result = payload
                elif kind == 3:
                    head, fallback, subplans, memo = payload
                    if memo[0] is not interp.definition_token:
                        _resolve_inline(interp, head, memo)
                    fn = memo[1]
                    if fn is not None:
                        tick = memo[2]
                        cargs: List[Any] = []
                        for k2, p2 in subplans:
                            if k2 == 0:
                                cargs.append(p2)
                            else:
                                yield _T_VAR
                                cargs.append(env.bindings[p2] if k2 == 5 else
                                             env.parent.bindings[p2] if k2 == 6 else
                                             env.lookup(p2))
                        yield tick
                        result = fn.fn(*cargs)
                    else:
                        result = yield from fallback(env)
                else:
                    yield _T_VAR
                    result = (env.bindings[payload] if kind == 5 else
                              env.parent.bindings[payload] if kind == 6 else
                              env.lookup(payload))
            return result

        return seq_code

    # -- calls -----------------------------------------------------------

    def _arg_plans(self, form: Cons, scope: Scope) -> Tuple[Plan, ...]:
        # Mirror the interpreter's argument walk: iterate the cons
        # chain, silently ignoring a dotted tail.
        plans: List[Plan] = []
        node: Any = form.cdr
        while isinstance(node, Cons):
            plans.append(self._plan_inline(node.car, scope))
            node = node.cdr
        return tuple(plans)

    def _compile_call(self, form: Cons, head: Symbol, scope: Scope) -> Code:
        plans = self._arg_plans(form, scope)
        interp = self.interp
        # The head's last resolution: [token, macro?, fn, fn's Tick when
        # a Builtin] (see _resolve_inline for the token).
        memo: List[Any] = [None, False, None, None]

        def call_code(env: Environment) -> EvalGen:
            # Both namespaces are consulted at execution time, exactly
            # when the interpreter would: macros and functions defined
            # after this site compiled are still honored, because
            # defining one replaces the token.
            if memo[0] is not interp.definition_token:
                fn = interp.functions.get(head)
                if fn.__class__ is Builtin and memo[2] is not fn:
                    memo[3] = Tick(fn.cost, fn.name)
                memo[1] = interp.macros.get(head) is not None
                memo[2] = fn
                memo[0] = interp.definition_token
            if memo[1]:
                return (yield from interp.eval_gen(form, env))
            fn = memo[2]
            if fn is None:
                raise UndefinedFunction(head)
            tick = memo[3]
            args: List[Any] = []
            for kind, payload in plans:
                if kind == 0:
                    args.append(payload)
                elif kind == 3:
                    ihead, fallback, subplans, imemo = payload
                    if imemo[0] is not interp.definition_token:
                        _resolve_inline(interp, ihead, imemo)
                    ifn = imemo[1]
                    if ifn is not None:
                        itick = imemo[2]
                        cargs: List[Any] = []
                        for k2, p2 in subplans:
                            if k2 == 0:
                                cargs.append(p2)
                            else:
                                yield _T_VAR
                                cargs.append(env.bindings[p2] if k2 == 5 else
                                             env.parent.bindings[p2] if k2 == 6 else
                                             env.lookup(p2))
                        yield itick
                        args.append(ifn.fn(*cargs))
                    else:
                        args.append((yield from fallback(env)))
                elif kind == 2:
                    args.append((yield from payload(env)))
                else:
                    yield _T_VAR
                    args.append(env.bindings[payload] if kind == 5 else
                                env.parent.bindings[payload] if kind == 6 else
                                env.lookup(payload))
            cls = fn.__class__
            if cls is Builtin:
                yield tick
                if fn.is_generator:
                    return (yield from fn.fn(interp, *args))
                return fn.fn(*args)
            if cls is Closure:
                proto = fn.compiled
                if proto is None:
                    proto = _entry_for(interp, fn)
                return (yield Invoke(proto(fn.env, args)))
            return (yield from _apply_frame(interp, fn, args))

        return call_code

    def _compile_lambda_call(self, form: Cons, head: Cons, scope: Scope) -> Code:
        head_code = self.code_for(head, scope)
        plans = self._arg_plans(form, scope)
        interp = self.interp

        def lambda_call_code(env: Environment) -> EvalGen:
            fn = yield from head_code(env)
            args: List[Any] = []
            for plan in plans:
                args.append((yield from _value(plan, env)))
            return (yield from _apply_frame(interp, fn, args))

        return lambda_call_code

    # -- closures --------------------------------------------------------

    def build_proto(self, name: str, params: List[Any], body: List[Any],
                    scope: Scope = None) -> Proto:
        """Compile a closure entry point; ``scope`` is the defining
        site's (None for a ``defun`` or a closure the interpreter made).

        The proto mirrors ``apply_gen``'s closure branch + ``_bind_params``
        exactly: call Tick first, then the arity check, then parameter
        binding (rest list built *after* the required bindings), then the
        body sequence in a fresh child of the defining environment.
        """
        rest_sym: Optional[Symbol] = None
        required: List[Any] = []
        i = 0
        n = len(params)
        while i < n:
            p = params[i]
            if isinstance(p, Symbol) and p.name == "&rest":
                if i + 1 >= n:
                    # Malformed lambda list: the interpreter raises on
                    # every application, after the call Tick.
                    tick_bad = Tick(1, f"call {name or 'lambda'}")

                    def bad_proto(env: Environment, args: List[Any]) -> EvalGen:
                        yield tick_bad
                        raise _arity_error(name, "&rest needs a name", len(args))

                    return bad_proto
                rest_sym = params[i + 1]
                i += 2
                continue
            required.append(p)
            i += 1
        nreq = len(required)
        keys = tuple(binding_key(p) for p in required)
        rest_key = binding_key(rest_sym) if rest_sym is not None else None
        expected = str(nreq) if rest_key is None else f"at least {nreq}"
        tick = Tick(1, f"call {name or 'lambda'}")
        frame = frozenset(k for k in (*keys, rest_key) if k.__class__ is str)
        body_plans = tuple(self._plan_inline(f, (frame, _NO_NAMES, scope))
                           for f in body)
        interp = self.interp

        def proto(env: Environment, args: List[Any]) -> EvalGen:
            yield tick
            if len(args) != nreq and (rest_key is None or len(args) < nreq):
                raise _arity_error(name, expected, len(args))
            call_env = Environment(env)
            bindings = call_env.bindings
            for k, v in zip(keys, args):
                bindings[k] = v
            if rest_key is not None:
                bindings[rest_key] = lisp_list(*args[nreq:])
            result: Any = None
            for kind, payload in body_plans:
                if kind == 2:
                    # Flat-chain the statement (see let_star_code).
                    result = yield Invoke(payload(call_env))
                elif kind == 0:
                    result = payload
                elif kind == 3:
                    head, fallback, subplans, memo = payload
                    if memo[0] is not interp.definition_token:
                        _resolve_inline(interp, head, memo)
                    fn = memo[1]
                    if fn is not None:
                        ftick = memo[2]
                        cargs: List[Any] = []
                        for k2, p2 in subplans:
                            if k2 == 0:
                                cargs.append(p2)
                            else:
                                yield _T_VAR
                                cargs.append(bindings[p2] if k2 == 5 else
                                             env.bindings[p2] if k2 == 6 else
                                             call_env.lookup(p2))
                        yield ftick
                        result = fn.fn(*cargs)
                    else:
                        result = yield from fallback(call_env)
                else:
                    yield _T_VAR
                    result = (bindings[payload] if kind == 5 else
                              env.bindings[payload] if kind == 6 else
                              call_env.lookup(payload))
            return result

        return proto

    def _compile_defun(self, form: Cons, scope: Scope) -> Code:
        args = _args(form)
        if len(args) < 2:
            raise EvalError("defun needs a name, a lambda list, and a body", form)
        name, lambda_list = args[0], args[1]
        if not isinstance(name, Symbol):
            raise EvalError("defun name must be a symbol", form)
        params = list_to_pylist(lambda_list) if lambda_list is not None else []
        body = _strip_declares(args[2:])
        interp = self.interp
        fname = name.name
        # One proto per definition site, built on the first *application*
        # (via _entry_for) and shared by every closure this site produces.
        # Definitions that are never called never compile their bodies.
        # The closure's env is the globals, so no enclosing scope applies.
        state: List[Any] = [None, None]

        def defun_code(env: Environment) -> EvalGen:
            closure = Closure(fname, params, body, interp.globals)
            closure.compiled_site = state
            closure.compiled = state[0]
            interp.define(name, closure)
            interp.source_forms[name] = form
            yield _T_DEFUN
            return name

        return defun_code

    def _compile_lambda(self, form: Cons, scope: Scope) -> Code:
        args = _args(form)
        if not args:
            raise EvalError("lambda needs a lambda list", form)
        params = list_to_pylist(args[0]) if args[0] is not None else []
        body = _strip_declares(args[1:])
        state: List[Any] = [None, scope]  # the site's [proto, scope]

        def lambda_code(env: Environment) -> EvalGen:
            yield _T_LAMBDA
            closure = Closure("", params, body, env)
            closure.compiled_site = state
            closure.compiled = state[0]
            return closure

        return lambda_code

    # -- special forms ---------------------------------------------------

    def _compile_quote(self, form: Cons, scope: Scope) -> Code:
        args = _args(form)
        if len(args) != 1:
            raise EvalError("quote takes one argument", form)

        def quote_code(env: Environment, value: Any = args[0]) -> EvalGen:
            return value
            yield  # pragma: no cover — makes this a generator

        return quote_code

    def _compile_function(self, form: Cons, scope: Scope) -> Code:
        args = _args(form)
        if len(args) != 1:
            raise EvalError("function takes one argument", form)
        target = args[0]
        if isinstance(target, Symbol):
            interp = self.interp
            memo: List[Any] = [None, None]  # [token, fn] (see call_code)

            def function_code(env: Environment) -> EvalGen:
                yield _T_FUNCTION
                if memo[0] is not interp.definition_token:
                    memo[1] = interp.functions.get(target)
                    memo[0] = interp.definition_token
                fn = memo[1]
                if fn is None:
                    raise UndefinedFunction(target)
                return fn

            return function_code
        if isinstance(target, Cons) and isinstance(target.car, Symbol) and target.car.name == "lambda":
            return self.code_for(target, scope)
        raise EvalError("bad function form", form)

    def _compile_if(self, form: Cons, scope: Scope) -> Code:
        args = _args(form)
        if len(args) not in (2, 3):
            raise EvalError("if takes 2 or 3 arguments", form)
        tk, tp = self._plan(args[0], scope)
        then_k, then_p = self._plan(args[1], scope)
        else_plan: Optional[Plan] = self._plan(args[2], scope) if len(args) == 3 else None

        def if_code(env: Environment) -> EvalGen:
            yield _T_IF
            if tk == 0:
                test = tp
            elif tk == 2:
                test = yield from tp(env)
            else:
                yield _T_VAR
                test = (env.bindings[tp] if tk == 5 else
                        env.parent.bindings[tp] if tk == 6 else env.lookup(tp))
            if test is not None and test is not False:
                if then_k == 0:
                    return then_p
                if then_k == 2:
                    return (yield from then_p(env))
                yield _T_VAR
                return (env.bindings[then_p] if then_k == 5 else
                        env.parent.bindings[then_p] if then_k == 6 else
                        env.lookup(then_p))
            if else_plan is None:
                return None
            ek, ep = else_plan
            if ek == 0:
                return ep
            if ek == 2:
                return (yield from ep(env))
            yield _T_VAR
            return (env.bindings[ep] if ek == 5 else
                    env.parent.bindings[ep] if ek == 6 else env.lookup(ep))

        return if_code

    def _compile_cond(self, form: Cons, scope: Scope) -> Code:
        clauses: List[Tuple[Optional[Plan], Code, bool]] = []
        for clause in _args(form):
            if not isinstance(clause, Cons):
                raise EvalError("malformed cond clause", form)
            parts = list_to_pylist(clause)
            test_form = parts[0]
            if isinstance(test_form, Symbol) and test_form.name == "t" or test_form is True:
                test_plan: Optional[Plan] = None  # constant truth
            else:
                test_plan = self._plan(test_form, scope)
            clauses.append((test_plan, self._seq(parts[1:], scope), len(parts) == 1))

        def cond_code(env: Environment) -> EvalGen:
            yield _T_COND
            for test_plan, body_code, single in clauses:
                if test_plan is None:
                    test: Any = True
                else:
                    kind, payload = test_plan
                    if kind == 0:
                        test = payload
                    elif kind == 2:
                        test = yield from payload(env)
                    else:
                        yield _T_VAR
                        test = (env.bindings[payload] if kind == 5 else
                                env.parent.bindings[payload] if kind == 6 else
                                env.lookup(payload))
                if test is not None and test is not False:
                    if single:
                        return test
                    return (yield from body_code(env))
            return None

        return cond_code

    def _compile_when(self, form: Cons, scope: Scope) -> Code:
        return self._when_unless(form, scope, negate=False, tick=_T_WHEN, what="when")

    def _compile_unless(self, form: Cons, scope: Scope) -> Code:
        return self._when_unless(form, scope, negate=True, tick=_T_UNLESS, what="unless")

    def _when_unless(self, form: Cons, scope: Scope, negate: bool, tick: Tick,
                     what: str) -> Code:
        args = _args(form)
        if not args:
            raise EvalError(f"{what} needs a test", form)
        tk, tp = self._plan(args[0], scope)
        body_code = self._seq(args[1:], scope)

        def when_code(env: Environment) -> EvalGen:
            yield tick
            if tk == 0:
                test = tp
            elif tk == 2:
                test = yield from tp(env)
            else:
                yield _T_VAR
                test = (env.bindings[tp] if tk == 5 else
                        env.parent.bindings[tp] if tk == 6 else env.lookup(tp))
            truthy = test is not None and test is not False
            if truthy != negate:
                return (yield from body_code(env))
            return None

        return when_code

    def _compile_progn(self, form: Cons, scope: Scope) -> Code:
        return self._seq(_args(form), scope)

    def _compile_let(self, form: Cons, scope: Scope) -> Code:
        return self._let(form, scope, sequential=False)

    def _compile_let_star(self, form: Cons, scope: Scope) -> Code:
        return self._let(form, scope, sequential=True)

    def _let(self, form: Cons, scope: Scope, sequential: bool) -> Code:
        args = _args(form)
        if not args:
            raise EvalError("let needs a binding list", form)
        parsed: List[Tuple[str, Any]] = []
        bindings = list_to_pylist(args[0]) if args[0] is not None else []
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
            parsed.append((name.name, init))
        names = [name for name, _init in parsed]
        # A let*'s init i runs in the new frame, which holds the names
        # before i; the names from i on land after it (pending).
        specs = [(name, self._plan(init, (frozenset(names[:i]), frozenset(names[i:]),
                                          scope) if sequential else scope))
                 for i, (name, init) in enumerate(parsed)]
        body_code = self._seq(args[1:], (frozenset(names), _NO_NAMES, scope))

        if sequential:

            def let_star_code(env: Environment) -> EvalGen:
                yield _T_LET
                new_env = Environment(env)
                frame = new_env.bindings
                for name, (kind, payload) in specs:
                    if kind == 0:
                        value = payload
                    elif kind == 2:
                        value = yield from payload(new_env)
                    else:
                        yield _T_VAR
                        value = (frame[payload] if kind == 5 else
                                 env.bindings[payload] if kind == 6 else
                                 new_env.lookup(payload))
                    frame[name] = value
                # Run the body as a trampoline frame of its own: its
                # effects then reach the driver without passing through
                # this generator — the chain stays flat however deeply
                # lets, loops, and calls nest.
                return (yield Invoke(body_code(new_env)))

            return let_star_code

        def let_code(env: Environment) -> EvalGen:
            yield _T_LET
            new_env = Environment(env)
            values: List[Any] = []
            for _name, (kind, payload) in specs:
                if kind == 0:
                    values.append(payload)
                elif kind == 2:
                    values.append((yield from payload(env)))
                else:
                    yield _T_VAR
                    values.append(env.bindings[payload] if kind == 5 else
                                  env.parent.bindings[payload] if kind == 6 else
                                  env.lookup(payload))
            frame = new_env.bindings
            for (name, _plan), value in zip(specs, values):
                frame[name] = value
            # Flat-chain the body (see let_star_code).
            return (yield Invoke(body_code(new_env)))

        return let_code

    def _compile_setq(self, form: Cons, scope: Scope) -> Code:
        args = _args(form)
        if len(args) % 2 != 0 or not args:
            raise EvalError("setq needs name/value pairs", form)
        pairs: List[Tuple[str, Plan, int]] = []
        for i in range(0, len(args), 2):
            name = args[i]
            if not isinstance(name, Symbol):
                raise EvalError("setq name must be a symbol", form)
            sk, key = _var_plan(scope, name.name)
            pairs.append((key, self._plan_inline(args[i + 1], scope), sk))
        interp = self.interp

        def setq_code(env: Environment) -> EvalGen:
            value: Any = None
            for name, (kind, payload), sk in pairs:
                yield _T_SETQ
                if kind == 0:
                    value = payload
                elif kind == 3:
                    head, fallback, subplans, memo = payload
                    if memo[0] is not interp.definition_token:
                        _resolve_inline(interp, head, memo)
                    fn = memo[1]
                    if fn is not None:
                        tick = memo[2]
                        cargs: List[Any] = []
                        for k2, p2 in subplans:
                            if k2 == 0:
                                cargs.append(p2)
                            else:
                                yield _T_VAR
                                cargs.append(env.bindings[p2] if k2 == 5 else
                                             env.parent.bindings[p2] if k2 == 6 else
                                             env.lookup(p2))
                        yield tick
                        value = fn.fn(*cargs)
                    else:
                        value = yield from fallback(env)
                elif kind == 2:
                    value = yield from payload(env)
                else:
                    yield _T_VAR
                    value = (env.bindings[payload] if kind == 5 else
                             env.parent.bindings[payload] if kind == 6 else
                             env.lookup(payload))
                if sk == 1:
                    env.assign(name, value)
                else:
                    (env.bindings if sk == 5 else env.parent.bindings)[name] = value
            return value

        return setq_code

    def _compile_setf(self, form: Cons, scope: Scope) -> Code:
        args = _args(form)
        if len(args) % 2 != 0 or not args:
            raise EvalError("setf needs place/value pairs", form)
        pair_codes = [
            self._setf_one(args[i], args[i + 1], form, scope)
            for i in range(0, len(args), 2)
        ]
        if len(pair_codes) == 1:
            return pair_codes[0]

        def setf_code(env: Environment) -> EvalGen:
            value: Any = None
            for pair_code in pair_codes:
                value = yield from pair_code(env)
            return value

        return setf_code

    def _setf_one(self, place: Any, value_form: Any, form: Any, scope: Scope) -> Code:
        interp = self.interp
        if isinstance(place, Symbol):
            vk, vp = self._plan(value_form, scope)
            sk, name = _var_plan(scope, place.name)

            def setf_var_code(env: Environment) -> EvalGen:
                yield _T_SETF_VAR
                if vk == 0:
                    value = vp
                elif vk == 2:
                    value = yield from vp(env)
                else:
                    yield _T_VAR
                    value = (env.bindings[vp] if vk == 5 else
                             env.parent.bindings[vp] if vk == 6 else env.lookup(vp))
                if sk == 1:
                    env.assign(name, value)
                else:
                    (env.bindings if sk == 5 else env.parent.bindings)[name] = value
                return value

            return setf_var_code
        if not (isinstance(place, Cons) and isinstance(place.car, Symbol)):
            raise SetfError(f"unsupported setf place: {place!r}")
        op = place.car.name
        place_args = list_to_pylist(place.cdr)
        context = f"setf {op}"

        if op in ("car", "cdr") or _is_cxr(op):
            if len(place_args) != 1:
                raise SetfError(f"({op} ...) place takes one subform")
            ok, op_ = self._plan(place_args[0], scope)
            vk_, vp_ = self._plan(value_form, scope)
            ops = cxr_ops(op) if _is_cxr(op) else [op]
            walk = ops[:-1]
            final = ops[-1]

            def setf_cxr_code(env: Environment) -> EvalGen:
                if ok == 0:
                    obj = op_
                elif ok == 2:
                    obj = yield from op_(env)
                else:
                    yield _T_VAR
                    obj = (env.bindings[op_] if ok == 5 else
                           env.parent.bindings[op_] if ok == 6 else env.lookup(op_))
                for field in walk:
                    obj = yield from interp.read_field_gen(obj, field, context)
                if vk_ == 0:
                    value = vp_
                elif vk_ == 2:
                    value = yield from vp_(env)
                else:
                    yield _T_VAR
                    value = (env.bindings[vp_] if vk_ == 5 else
                             env.parent.bindings[vp_] if vk_ == 6 else env.lookup(vp_))
                yield from interp.write_field_gen(obj, final, value, context)
                return value

            return setf_cxr_code

        if op in ("aref", "gethash"):
            # The interpreter consults struct_accessors before these
            # names; a struct accessor can shadow them in principle, so
            # keep the runtime check and fall back to the reference
            # implementation when it fires.
            if len(place_args) != 2:
                raise SetfError(
                    "(aref array index) place takes two subforms"
                    if op == "aref"
                    else "(gethash key table) place takes two subforms"
                )
            first_plan = self._plan(place_args[0], scope)
            second_plan = self._plan(place_args[1], scope)
            value_plan2 = self._plan(value_form, scope)
            is_aref = op == "aref"

            def setf_indexed_code(env: Environment) -> EvalGen:
                if interp.struct_accessors.get(op) is not None:
                    return (yield from ref_setf_one(interp, place, value_form, env, form))
                first = yield from _value(first_plan, env)
                second = yield from _value(second_plan, env)
                value = yield from _value(value_plan2, env)
                if is_aref:
                    yield from _gb_aset(interp, first, second, value)
                else:
                    # Place args are (key table); hash_put_gen wants
                    # (table, key).
                    yield from hash_put_gen(interp, second, first, value)
                return value

            return setf_indexed_code

        # Struct accessor — or unsupported.  Which one is only knowable
        # at execution time (defstruct may run after this compiles), so
        # both the dispatch and the arity complaint happen at runtime.
        ok_arity = len(place_args) == 1
        obj_plan2: Optional[Plan] = self._plan(place_args[0], scope) if ok_arity else None
        accessor_value_plan: Optional[Plan] = self._plan(value_form, scope) if ok_arity else None
        unsupported = f"unsupported setf place: ({op} ...)"
        takes_one = f"({op} ...) place takes one subform"

        def setf_accessor_code(env: Environment) -> EvalGen:
            entry = interp.struct_accessors.get(op)
            if entry is None:
                raise SetfError(unsupported)
            if not ok_arity:
                raise SetfError(takes_one)
            assert obj_plan2 is not None and accessor_value_plan is not None
            obj = yield from _value(obj_plan2, env)
            value = yield from _value(accessor_value_plan, env)
            yield from interp.write_field_gen(obj, entry[1], value, context)
            return value

        return setf_accessor_code

    def _compile_while(self, form: Cons, scope: Scope) -> Code:
        """``while`` folds its inline unit ticks: it counts them in a
        local and yields one :class:`TickRun` per run instead of one
        trampoline crossing per tick.  A run goes out before any
        ``Invoke``, visible effect, fallback call or other-cost tick,
        at loop exit, before an error leaves the loop, and before it
        could pass :data:`TICK_RUN_CAP`; the effect stream after the
        trampoline's merging is the unfolded one's."""
        args = _args(form)
        if not args:
            raise EvalError("while needs a test", form)
        tk, tp = self._plan_inline(args[0], scope)
        body_plans = tuple(self._plan_stmt(f, scope) for f in args[1:])
        # One iteration folds at most ``per_iter`` ticks; flushing at the
        # top once the count passes ``limit`` keeps every run within the
        # cap.  A body that could fold more runs out of line instead.
        per_iter = 1 + sum(_inline_ticks(k, p) for k, p in ((tk, tp), *body_plans))
        if per_iter > TICK_RUN_CAP:
            tk, tp = 2, self.code_for(args[0], scope)
            body_plans = tuple((2, self.code_for(f, scope)) for f in args[1:])
            per_iter = 1
        limit = TICK_RUN_CAP - per_iter
        interp = self.interp

        def while_code(env: Environment) -> EvalGen:
            n = 0  # folded unit ticks not yet yielded; ``last`` ends them
            last: Any = None
            frame = env.bindings
            outer = env.parent.bindings if env.parent is not None else None
            try:
                while True:
                    if n > limit:
                        yield TickRun(n, last)
                        n = 0
                    n += 1
                    last = _T_WHILE
                    if tk == 3:
                        head, fallback, subplans, memo = tp
                        if memo[0] is not interp.definition_token:
                            _resolve_inline(interp, head, memo)
                        fn = memo[1]
                        if fn is not None:
                            tick = memo[2]
                            cargs: List[Any] = []
                            for k2, p2 in subplans:
                                if k2 == 0:
                                    cargs.append(p2)
                                else:
                                    n += 1
                                    last = _T_VAR
                                    cargs.append(frame[p2] if k2 == 5 else
                                                 outer[p2] if k2 == 6 else
                                                 env.lookup(p2))
                            if fn.cost == 1:
                                n += 1
                                last = tick
                            else:  # the while tick keeps n above 0 here
                                yield TickRun(n, last)
                                n = 0
                                yield tick
                            test = fn.fn(*cargs)
                        else:
                            yield TickRun(n, last)
                            n = 0
                            test = yield from fallback(env)
                    elif tk == 0:
                        test = tp
                    elif tk == 2:
                        yield TickRun(n, last)
                        n = 0
                        test = yield from tp(env)
                    else:
                        n += 1
                        last = _T_VAR
                        test = (frame[tp] if tk == 5 else outer[tp] if tk == 6 else
                                env.lookup(tp))
                    if test is None or test is False:
                        if n:
                            yield TickRun(n, last)
                        return None
                    for kind, payload in body_plans:
                        if kind == 4:
                            name, vk, vp, sk = payload
                            n += 1
                            last = _T_SETQ
                            if vk == 3:
                                head, fallback, subplans, memo = vp
                                if memo[0] is not interp.definition_token:
                                    _resolve_inline(interp, head, memo)
                                fn = memo[1]
                                if fn is not None:
                                    tick = memo[2]
                                    cargs3: List[Any] = []
                                    for k2, p2 in subplans:
                                        if k2 == 0:
                                            cargs3.append(p2)
                                        else:
                                            n += 1
                                            last = _T_VAR
                                            cargs3.append(frame[p2] if k2 == 5 else
                                                          outer[p2] if k2 == 6 else
                                                          env.lookup(p2))
                                    if fn.cost == 1:
                                        n += 1
                                        last = tick
                                    else:
                                        if n:
                                            yield TickRun(n, last)
                                            n = 0
                                        yield tick
                                    value = fn.fn(*cargs3)
                                else:
                                    if n:
                                        yield TickRun(n, last)
                                        n = 0
                                    value = yield from fallback(env)
                            elif vk == 0:
                                value = vp
                            elif vk == 2:
                                if n:
                                    yield TickRun(n, last)
                                    n = 0
                                value = yield Invoke(vp(env))
                            else:
                                n += 1
                                last = _T_VAR
                                value = (frame[vp] if vk == 5 else outer[vp] if vk == 6 else
                                         env.lookup(vp))
                            if sk == 5:
                                frame[name] = value
                            elif sk == 6:
                                outer[name] = value
                            else:
                                env.assign(name, value)
                        elif kind == 2:
                            # Flat-chain the statement (see let_star_code).
                            if n:
                                yield TickRun(n, last)
                                n = 0
                            yield Invoke(payload(env))
                        elif kind == 3:
                            head, fallback, subplans, memo = payload
                            if memo[0] is not interp.definition_token:
                                _resolve_inline(interp, head, memo)
                            fn = memo[1]
                            if fn is not None:
                                tick = memo[2]
                                cargs2: List[Any] = []
                                for k2, p2 in subplans:
                                    if k2 == 0:
                                        cargs2.append(p2)
                                    else:
                                        n += 1
                                        last = _T_VAR
                                        cargs2.append(frame[p2] if k2 == 5 else
                                                      outer[p2] if k2 == 6 else
                                                      env.lookup(p2))
                                if fn.cost == 1:
                                    n += 1
                                    last = tick
                                else:
                                    if n:
                                        yield TickRun(n, last)
                                        n = 0
                                    yield tick
                                fn.fn(*cargs2)
                            else:
                                if n:
                                    yield TickRun(n, last)
                                    n = 0
                                yield from fallback(env)
                        elif kind != 0:
                            n += 1
                            last = _T_VAR
                            if kind == 1:
                                env.lookup(payload)
            except Exception:
                # The ticks before the error were spent: charge them.
                if n:
                    yield TickRun(n, last)
                raise

        return while_code

    def _compile_dolist(self, form: Cons, scope: Scope) -> Code:
        args = _args(form)
        if not args or not isinstance(args[0], Cons):
            raise EvalError("dolist needs (var list-form)", form)
        spec = list_to_pylist(args[0])
        if len(spec) not in (2, 3) or not isinstance(spec[0], Symbol):
            raise EvalError("dolist needs (var list-form [result])", form)
        var = spec[0].name
        list_plan = self._plan(spec[1], scope)
        inner = (frozenset((var,)), _NO_NAMES, scope)
        body_codes = [self.code_for(f, inner) for f in args[1:]]
        result_code: Optional[Code] = (
            self.code_for(spec[2], inner) if len(spec) == 3 else None)
        interp = self.interp

        def dolist_code(env: Environment) -> EvalGen:
            yield _T_DOLIST
            lst = yield from _value(list_plan, env)
            loop_env = Environment(env)
            frame = loop_env.bindings
            frame[var] = None
            node = lst
            while isinstance(node, Cons):
                frame[var] = yield from interp.read_field_gen(node, "car", "dolist")
                for c in body_codes:
                    # Flat-chain the statement (see let_star_code).
                    yield Invoke(c(loop_env))
                node = yield from interp.read_field_gen(node, "cdr", "dolist")
            if result_code is not None:
                frame[var] = None
                return (yield from result_code(loop_env))
            return None

        return dolist_code

    def _compile_and(self, form: Cons, scope: Scope) -> Code:
        plans = [self._plan(f, scope) for f in _args(form)]

        def and_code(env: Environment) -> EvalGen:
            yield _T_AND
            result: Any = True
            for kind, payload in plans:
                if kind == 0:
                    result = payload
                elif kind == 2:
                    result = yield from payload(env)
                else:
                    yield _T_VAR
                    result = (env.bindings[payload] if kind == 5 else
                              env.parent.bindings[payload] if kind == 6 else
                              env.lookup(payload))
                if result is None or result is False:
                    return None
            return result

        return and_code

    def _compile_or(self, form: Cons, scope: Scope) -> Code:
        plans = [self._plan(f, scope) for f in _args(form)]

        def or_code(env: Environment) -> EvalGen:
            yield _T_OR
            for kind, payload in plans:
                if kind == 0:
                    result: Any = payload
                elif kind == 2:
                    result = yield from payload(env)
                else:
                    yield _T_VAR
                    result = (env.bindings[payload] if kind == 5 else
                              env.parent.bindings[payload] if kind == 6 else
                              env.lookup(payload))
                if result is not None and result is not False:
                    return result
            return None

        return or_code

    def _compile_declare(self, form: Cons, scope: Scope) -> Code:
        def declare_code(env: Environment) -> EvalGen:
            return None
            yield  # pragma: no cover — makes this a generator

        return declare_code

    def _compile_future(self, form: Cons, scope: Scope) -> Code:
        args = _args(form)
        if len(args) != 1:
            raise EvalError("future takes one expression", form)
        expr_code = self.code_for(args[0], scope)

        def future_code(env: Environment) -> EvalGen:
            # Future created *before* the Tick, as in the interpreter:
            # future ids are a process-global sequence and allocation
            # order is part of trace parity.
            fut = Future(label="future")

            def thunk(env_: Environment = env) -> EvalGen:
                return trampoline(expr_code(env_))

            yield _T_FUTURE
            result = yield SpawnProcess(thunk, future=fut, label="future")
            return result if result is not None else fut

        return future_code

    def _compile_spawn(self, form: Cons, scope: Scope) -> Code:
        args = _args(form)
        if len(args) != 1 or not isinstance(args[0], Cons):
            raise EvalError("spawn takes exactly one call form", form)
        call = list_to_pylist(args[0])
        head = call[0]
        if not isinstance(head, Symbol):
            raise EvalError("spawn call head must be a function name", form)
        plans = [self._plan(sub, scope) for sub in call[1:]]
        interp = self.interp
        fname = head.name
        memo: List[Any] = [None, None]  # [token, fn] (see call_code)

        def spawn_code(env: Environment) -> EvalGen:
            if memo[0] is not interp.definition_token:
                memo[1] = interp.functions.get(head)
                memo[0] = interp.definition_token
            fn = memo[1]
            if fn is None:
                raise UndefinedFunction(head)
            arg_values: List[Any] = []
            for kind, payload in plans:
                if kind == 0:
                    arg_values.append(payload)
                elif kind == 2:
                    arg_values.append((yield from payload(env)))
                else:
                    yield _T_VAR
                    arg_values.append(env.bindings[payload] if kind == 5 else
                                      env.parent.bindings[payload] if kind == 6 else
                                      env.lookup(payload))
            yield _T_SPAWN
            yield Annotate("spawn-call", {"function": fname})

            def thunk(fn_: Any = fn, argv: List[Any] = arg_values) -> EvalGen:
                return trampoline(_apply_frame(interp, fn_, argv))

            yield SpawnProcess(thunk, future=None, label=fname)
            return None

        return spawn_code

    def _compile_delegated(self, form: Cons, scope: Scope) -> Code:
        """Forms that must run on the reference implementation.

        ``quasiquote`` (and macro expansion generally) allocates fresh
        Cons cells as it builds its result; ``defmacro``/``defstruct``
        are cold definition forms.  Delegation preserves cell-allocation
        order exactly.
        """
        return self._delegate(form)


def _arity_error(name: str, expected: str, got: int) -> LispError:
    from repro.lisp.errors import ArityError

    return ArityError(name, expected, got)


_FORM_COMPILERS: Dict[str, Callable[[Compiler, Cons], Code]] = {
    "quote": Compiler._compile_quote,
    "quasiquote": Compiler._compile_delegated,
    "function": Compiler._compile_function,
    "if": Compiler._compile_if,
    "cond": Compiler._compile_cond,
    "when": Compiler._compile_when,
    "unless": Compiler._compile_unless,
    "progn": Compiler._compile_progn,
    "let": Compiler._compile_let,
    "let*": Compiler._compile_let_star,
    "setq": Compiler._compile_setq,
    "setf": Compiler._compile_setf,
    "defun": Compiler._compile_defun,
    "defmacro": Compiler._compile_delegated,
    "lambda": Compiler._compile_lambda,
    "while": Compiler._compile_while,
    "dolist": Compiler._compile_dolist,
    "and": Compiler._compile_and,
    "or": Compiler._compile_or,
    "declare": Compiler._compile_declare,
    "declaim": Compiler._compile_declare,
    "defstruct": Compiler._compile_delegated,
    "future": Compiler._compile_future,
    "spawn": Compiler._compile_spawn,
}
