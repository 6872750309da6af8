"""Differential tests: the closure compiler vs the reference interpreter.

The compiled evaluator (:mod:`repro.lisp.compile`) must be *stream
equivalent* to the generator interpreter: same values, same effect
sequence (ticks, memory traffic, outputs), same typed errors — so every
driver (sequential runner, simulated machine, bench harness) can flip
``eval_mode`` without observable change.  The production trampoline
merges each run of adjacent ticks into one, so the comparison has two
steps: compiled frames driven through a non-merging trampoline (kept
here as the oracle) match the interpreter effect for effect (a
compiled ``while`` folds its unit ticks itself, so each folded run
matches as that many cost-1 ticks ending in its last label), and the
production stream is the interpreter's with its tick runs merged.
Three layers of evidence:

1. Hypothesis differential tests over randomly generated programs,
   comparing full effect fingerprints and error identity.
2. Golden workloads (fig06/07/10) byte-identical across modes on the
   simulated machine — results, outputs, stats, canonical traces, and
   recorder projections.
3. Deep recursion: the CPS trampoline evaluates far beyond the Python
   recursion limit, where the interpreter's nested generators cannot go.

Plus property tests pinning :class:`~repro.paths.automata.DenseDFA`
against the legacy NFA path it replaced.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.lisp.compile import compiled_eval_gen, get_compiler
from repro.lisp.effects import (
    Annotate,
    MemRead,
    MemWrite,
    Output,
    Tick,
    VarRead,
    VarWrite,
)
from repro.lisp.errors import (
    LispError,
    UnboundVariable,
    UndefinedFunction,
    WrongType,
)
from repro.lisp.interpreter import Interpreter
from repro.lisp.runner import SequentialRunner
from repro.lisp.trampoline import TICK_RUN_CAP, Invoke, TickRun
from repro.obs import Recorder, chrome_trace_dict
from repro.obs.golden import diff_projections, structural_projection
from repro.obs.workloads import run_trace_workload, trace_workloads
from repro.paths.automata import (
    build_nfa,
    dense_for,
    language_word_is_prefix_of,
    matches,
    prefix_of_language,
)
from repro.paths.regex import Alt, Cat, Eps, Star, Sym
from repro.perf import eval_mode_override
from repro.sexpr.printer import write_str

# ---------------------------------------------------------------------------
# Effect-stream fingerprinting
# ---------------------------------------------------------------------------


def _oracle_trampoline(gen):
    """The trampoline as it was before tick merging: every effect a
    frame yields reaches the driver as it is."""
    stack = [gen]
    to_send = None
    pending = None
    while stack:
        top = stack[-1]
        try:
            if pending is not None:
                exc, pending = pending, None
                item = top.throw(exc)
            else:
                item = top.send(to_send)
        except StopIteration as stop:
            stack.pop()
            to_send = stop.value
            continue
        except BaseException as exc:
            stack.pop()
            if not stack:
                raise
            pending = exc
            to_send = None
            continue
        if type(item) is Invoke:
            stack.append(item.gen)
            to_send = None
            continue
        try:
            to_send = yield item
        except GeneratorExit:
            while stack:
                stack.pop().close()
            raise
        except BaseException as exc:
            pending = exc
            to_send = None
    return to_send


def _merge_ticks(events: list[tuple]) -> list[tuple]:
    """A fingerprint with its tick runs merged the way the production
    trampoline merges them: a run ends at the next other entry, or once
    its cost reaches ``TICK_RUN_CAP``; a run of one tick is kept as it
    is, a longer one becomes one ``"merged"`` tick of the summed cost."""
    out: list[tuple] = []
    run: list[tuple] = []
    cost = 0
    for event in events:
        if event[0] == "tick":
            run.append(event)
            cost += event[1]
            if cost < TICK_RUN_CAP:
                continue
        if run:
            out.append(run[0] if len(run) == 1
                       else ("tick", cost, "merged"))
            run, cost = [], 0
        if event[0] != "tick":
            out.append(event)
    assert not run, "a fingerprint ends with its ret or err entry"
    return out


def _unfold(compiled: list[tuple], interp: list[tuple]) -> list[tuple]:
    """``compiled`` with each folded run ``("ticks", n, op)`` replaced by
    the interpreter's ``n`` entries at that point, provided they are
    cost-1 ticks ending in ``op``: the stream the oracle trampoline
    would show had the loop yielded its ticks one by one."""
    out: list[tuple] = []
    for event in compiled:
        if event[0] != "ticks":
            out.append(event)
            continue
        _tag, n, op = event
        run = interp[len(out):len(out) + n]
        assert len(run) == n and all(e[:2] == ("tick", 1) for e in run), \
            f"folded run of {n} does not match {run[:3]}..."
        assert run[-1][2] == op, f"folded run ends in {op}, not {run[-1]}"
        out.extend(run)
    return out


def _fingerprint(interp: Interpreter, form, mode: str) -> list[tuple]:
    """Drive one form to completion, recording every effect.

    ``mode`` is ``"interpreter"``, ``"compiled"`` (compiled frames
    driven through :func:`_oracle_trampoline`) or ``"merged"`` (the
    production ``compiled_eval_gen``).  Cell identities are
    canonicalized first-seen (fresh interpreters allocate different
    cells), values are printed with ``write_str`` so structurally equal
    data compares equal.  The terminal entry is either ``("ret",
    value)`` or ``("err", type-name, message)`` — so a fingerprint
    captures the *complete* observable behaviour.
    """
    ids: dict[int, str] = {}

    def canon(obj) -> str:
        key = id(obj)
        if key not in ids:
            ids[key] = f"#{len(ids)}"
        return ids[key]

    if mode == "merged":
        gen = compiled_eval_gen(interp, form, interp.globals)
    elif mode == "compiled":
        gen = _oracle_trampoline(
            get_compiler(interp).code_for(form)(interp.globals))
    else:
        gen = interp.eval_gen(form, interp.globals)

    events: list[tuple] = []
    reply = None
    while True:
        try:
            effect = gen.send(reply)
        except StopIteration as stop:
            events.append(("ret", write_str(stop.value)))
            return events
        except LispError as err:
            events.append(("err", type(err).__name__, str(err)))
            return events
        reply = None
        if isinstance(effect, Tick):
            events.append(("tick", effect.cost, effect.op))
        elif isinstance(effect, TickRun):
            events.append(("ticks", effect.count, effect.last.op))
        elif isinstance(effect, MemRead):
            events.append(("read", canon(effect.cell), effect.field))
        elif isinstance(effect, MemWrite):
            events.append(
                ("write", canon(effect.cell), effect.field,
                 write_str(effect.value))
            )
        elif isinstance(effect, VarRead):
            events.append(("varread", str(effect.name)))
        elif isinstance(effect, VarWrite):
            events.append(("varwrite", str(effect.name)))
        elif isinstance(effect, Output):
            events.append(("output", write_str(effect.value)))
        elif isinstance(effect, Annotate):
            events.append(("annotate", effect.kind))
        else:  # pragma: no cover - generated programs stay sequential
            events.append((type(effect).__name__,))
    raise AssertionError("unreachable")


def _differential(defs: str, exprs: list[str]) -> None:
    """Assert the modes produce matching fingerprints for every expr.

    ``defs`` is loaded per-mode in a fresh interpreter (definitions are
    drained through a matching-mode runner first, so compiled functions
    compile their own prototypes); each expression in ``exprs`` is then
    fingerprinted.  The compiled stream must equal the interpreter's
    event for event (a folded run standing for its unit ticks, see
    :func:`_unfold`), and the merged stream must equal it with its tick
    runs merged.
    """
    streams: dict[str, list[list[tuple]]] = {}
    for mode in ("interpreter", "compiled", "merged"):
        interp = Interpreter()
        runner = SequentialRunner(
            interp, eval_mode="interpreter" if mode == "interpreter"
            else "compiled")
        if defs:
            runner.eval_text(defs)
        per_mode: list[list[tuple]] = []
        for text in exprs:
            forms = list(interp.load(text))
            assert len(forms) == 1, text
            per_mode.append(_fingerprint(interp, forms[0], mode))
        streams[mode] = per_mode
    for text, got, want, merged in zip(
        exprs, streams["compiled"], streams["interpreter"], streams["merged"]
    ):
        assert _unfold(got, want) == want, f"effect streams diverge on {text}"
        assert merged == _merge_ticks(want), f"tick runs diverge on {text}"


# ---------------------------------------------------------------------------
# Random program generation
# ---------------------------------------------------------------------------

_BINOPS = ("+", "-", "*", "min", "max")
_COMPARES = ("<", ">", "<=", ">=", "=")


@st.composite
def _expr(draw, depth: int = 3, names: tuple = ("a", "b", "c")) -> str:
    if depth == 0:
        if draw(st.booleans()):
            return str(draw(st.integers(-9, 9)))
        return draw(st.sampled_from(names))
    kind = draw(st.integers(0, 7))
    sub = _expr(depth=depth - 1, names=names)
    if kind == 0:
        return str(draw(st.integers(-99, 99)))
    if kind == 1:
        return draw(st.sampled_from(names))
    if kind == 2:
        op = draw(st.sampled_from(_BINOPS))
        return f"({op} {draw(sub)} {draw(sub)})"
    if kind == 3:
        op = draw(st.sampled_from(_COMPARES))
        return f"({op} {draw(sub)} {draw(sub)})"
    if kind == 4:
        return f"(if {draw(sub)} {draw(sub)} {draw(sub)})"
    if kind == 5:
        fresh = f"v{depth}"
        inner = _expr(depth=depth - 1, names=names + (fresh,))
        return f"(let (({fresh} {draw(sub)})) {draw(inner)})"
    if kind == 6:
        op = draw(st.sampled_from(("1+", "1-")))
        return f"({op} {draw(sub)})"
    return f"(progn {draw(sub)} {draw(sub)})"


class TestRandomProgramDifferential:
    @settings(max_examples=80, deadline=None)
    @given(_expr())
    def test_pure_expressions(self, text):
        _differential("", [f"(let ((a 2) (b -3) (c 7)) {text})"])

    @settings(max_examples=40, deadline=None)
    @given(_expr(depth=2), st.integers(0, 12))
    def test_loop_and_function_bodies(self, body, n):
        # Exercises the while-body fast path (inline single-pair setq)
        # and recursive compiled prototypes around a random expression.
        defs = f"""
        (defun churn (a b)
          (let ((c 0) (i 0))
            (while (< i a)
              (setq c (+ c {body}))
              (setq i (1+ i)))
            c))
        (defun tree (a)
          (if (< a 2) 1 (+ (tree (- a 1)) (tree (- a 2)) {body})))
        """
        _differential(
            defs, [f"(churn {n} 4)", f"(tree {min(n, 9)})"]
        )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=0, max_size=8))
    def test_heap_traffic(self, items):
        # cons/car/cdr emit MemRead/MemWrite effects; the canonical-id
        # fingerprint must line up cell-for-cell across modes.
        defs = """
        (defun build (lst)
          (if (null lst) nil (cons (car lst) (build (cdr lst)))))
        (defun total (lst)
          (let ((acc 0))
            (while lst
              (setq acc (+ acc (car lst)))
              (setq lst (cdr lst)))
            acc))
        """
        quoted = "(" + " ".join(str(i) for i in items) + ")"
        _differential(
            defs,
            [f"(total (build (quote {quoted})))",
             f"(print (build (quote {quoted})))"],
        )


class TestStatementForms:
    def test_multi_pair_setq(self):
        _differential(
            "",
            ["(let ((x 1) (y 2)) (setq x (+ x y) y (* x 10)) (cons x y))"],
        )

    def test_while_with_complex_body(self):
        # Bodies that are NOT single-pair setq must fall back to the
        # general statement path with identical streams.
        defs = """
        (defun weave (n)
          (let ((i 0) (acc nil))
            (while (< i n)
              (if (= (mod i 2) 0)
                  (setq acc (cons i acc))
                  (print i))
              (setq i (1+ i)))
            acc))
        """
        _differential(defs, ["(weave 7)"])


# ---------------------------------------------------------------------------
# Typed errors
# ---------------------------------------------------------------------------


class TestErrorParity:
    @pytest.mark.parametrize(
        "text,exc",
        [
            ("(car 5)", WrongType),
            ("definitely-unbound", UnboundVariable),
            ("(no-such-function 1 2)", UndefinedFunction),
            ("(+ 1 \"two\")", WrongType),
        ],
    )
    def test_same_error_both_modes(self, text, exc):
        seen = {}
        for mode in ("interpreter", "compiled", "merged"):
            interp = Interpreter()
            (form,) = list(interp.load(text))
            events = _fingerprint(interp, form, mode)
            assert events[-1][0] == "err", (mode, events[-1])
            assert events[-1][1] == exc.__name__
            seen[mode] = events
        assert seen["compiled"] == seen["interpreter"]
        assert seen["merged"] == _merge_ticks(seen["interpreter"])

    def test_error_inside_loop_after_effects(self):
        # Effects emitted *before* the failure must match too: errors
        # may not rewind or reorder the observable prefix.
        defs = """
        (defun blow-up (n)
          (let ((i 0))
            (while (< i n)
              (print i)
              (setq i (1+ i)))
            (car n)))
        """
        _differential(defs, ["(blow-up 3)"])


# ---------------------------------------------------------------------------
# Tick merging: the production stream is the oracle's with runs merged
# ---------------------------------------------------------------------------

_ERRORS = ("(car 5)", "definitely-unbound", "(no-such-function 1 2)",
           "(+ 1 \"two\")")


def _with_error(text: str, error, where: int) -> str:
    if error is None:
        return text
    return (f"(progn {error} {text})", f"(progn {text} {error})",
            f"(if {text} {error} {text})")[where]


class TestTickMerging:
    """``_differential`` checks every program above this way too; these
    add typed errors at random points and loops long enough for a run
    to reach ``TICK_RUN_CAP``."""

    @settings(max_examples=60, deadline=None)
    @given(_expr(), st.sampled_from(_ERRORS + (None,)), st.integers(0, 2))
    def test_expressions_and_errors(self, text, error, where):
        text = _with_error(text, error, where)
        _differential("", [f"(let ((a 2) (b -3) (c 7)) {text})"])

    @settings(max_examples=25, deadline=None)
    @given(_expr(depth=2), st.integers(0, 700),
           st.sampled_from(_ERRORS + (None,)))
    def test_long_loops_and_errors(self, body, n, error):
        defs = f"""
        (defun churn (a b)
          (let ((c 0) (i 0))
            (while (< i a)
              (setq c (+ c {body}))
              (setq i (1+ i)))
            {error or "c"}))
        """
        _differential(defs, [f"(churn {n} 4)", f"(progn (churn {n} 1) a)"])

    def test_a_long_run_is_cut_at_the_cap(self):
        defs = """
        (defun spin (n)
          (let ((i 0)) (while (< i n) (setq i (1+ i))) (car i)))
        """
        _differential(defs, ["(spin 1000)"])
        interp = Interpreter()
        SequentialRunner(interp, eval_mode="compiled").eval_text(defs)
        (form,) = interp.load("(spin 1000)")
        merged = _fingerprint(interp, form, "merged")
        ticks = [event[1] for event in merged if event[0] == "tick"]
        assert len(ticks) > 3
        assert all(cost >= TICK_RUN_CAP for cost in ticks[:-1])
        assert ticks[-1] < TICK_RUN_CAP
        assert merged[-1][:2] == ("err", "WrongType")

    def test_a_loop_body_longer_than_the_cap(self):
        # One iteration of this body would fold more than a run holds,
        # so its statements run out of line; streams still match.
        body = " ".join(["(setq c (+ c i))"] * (TICK_RUN_CAP // 2))
        defs = f"""
        (defun wide (n)
          (let ((c 0) (i 0))
            (while (< i n) {body} (setq i (1+ i)))
            c))
        """
        _differential(defs, ["(wide 3)"])


# ---------------------------------------------------------------------------
# Deep recursion: the trampoline's raison d'être
# ---------------------------------------------------------------------------

_COUNT_DOWN = """
(defun count-down (n)
  (if (< n 1) 0 (1+ (count-down (1- n)))))
"""


class TestDeepRecursion:
    def test_both_modes_agree_at_safe_depth(self):
        for mode in ("interpreter", "compiled"):
            interp = Interpreter()
            runner = SequentialRunner(interp, eval_mode=mode)
            runner.eval_text(_COUNT_DOWN)
            assert runner.call("count-down", 400) == 400

    def test_compiled_mode_exceeds_python_recursion_limit(self):
        # The interpreter nests one generator frame per Lisp frame and
        # exhausts the C stack at this depth (regardless of
        # sys.setrecursionlimit); the compiled trampoline keeps its
        # continuation stack on the heap, so depth is bounded by memory
        # only.  (Do not add an interpreter-mode run here.)
        depth = 30_000
        interp = Interpreter()
        runner = SequentialRunner(interp, eval_mode="compiled")
        runner.eval_text(_COUNT_DOWN)
        assert runner.call("count-down", depth) == depth


# ---------------------------------------------------------------------------
# Golden workloads on the simulated machine
# ---------------------------------------------------------------------------

WORKLOADS = ("fig06", "fig07", "fig10")


def _run_workload(name: str, mode: str, with_recorder: bool):
    recorder = Recorder() if with_recorder else None
    with eval_mode_override(mode):
        run = run_trace_workload(trace_workloads()[name], recorder)
    machine = run.extra["machine"]
    assert machine.eval_mode == mode
    ids: dict[int, str] = {}

    def canon(value):
        if isinstance(value, int):
            if value not in ids:
                ids[value] = f"#{len(ids)}"
            return ids[value]
        return value

    events = []
    for e in machine.trace:
        loc = tuple(canon(x) for x in e.loc) if e.loc is not None else None
        detail = write_str(e.detail) if e.kind == "output" else repr(e.detail)
        events.append((e.seq, e.time, e.proc, e.kind, loc, detail))
    stats = run.stats
    return {
        "result": run.result_text,
        "trace": events,
        "outputs": [write_str(o) for o in machine.outputs],
        "stats": (
            stats.total_time,
            stats.processes,
            stats.spawns,
            stats.context_switches,
            stats.lock_acquisitions,
            stats.lock_contentions,
            stats.cpu_busy,
            stats.concurrency_runs,
            stats.peak_live_processes,
        ),
        "projection": (
            structural_projection(chrome_trace_dict(recorder))
            if recorder is not None
            else None
        ),
    }


@pytest.mark.parametrize("with_recorder", [False, True],
                         ids=["bare", "recorded"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_compiled_mode_matches_interpreter(name, with_recorder):
    reference = _run_workload(name, "interpreter", with_recorder)
    compiled = _run_workload(name, "compiled", with_recorder)
    assert compiled["result"] == reference["result"]
    assert compiled["outputs"] == reference["outputs"]
    assert compiled["stats"] == reference["stats"]
    assert compiled["trace"] == reference["trace"]
    if with_recorder:
        assert diff_projections(reference["projection"],
                                compiled["projection"]) == []


# ---------------------------------------------------------------------------
# DenseDFA vs the legacy NFA path
# ---------------------------------------------------------------------------

FIELDS = ["car", "cdr", "next"]

fields = st.sampled_from(FIELDS)
words = st.lists(fields, min_size=0, max_size=6).map(tuple)


@st.composite
def regexes(draw, depth=3):
    if depth == 0:
        return draw(st.sampled_from([Sym(f) for f in FIELDS] + [Eps]))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return Sym(draw(fields))
    if kind == 1:
        return Cat(draw(regexes(depth=depth - 1)), draw(regexes(depth=depth - 1)))
    if kind == 2:
        return Alt(draw(regexes(depth=depth - 1)), draw(regexes(depth=depth - 1)))
    if kind == 3:
        return Star(draw(regexes(depth=depth - 1)))
    return Eps


class TestDenseDFA:
    @settings(max_examples=80, deadline=None)
    @given(regexes(), words)
    def test_membership_matches_nfa(self, r, w):
        nfa = build_nfa(r)
        dense = dense_for(r)
        state = dense.run(w)
        accepted = state >= 0 and dense.accepting[state]
        assert accepted == nfa.accepts_in(nfa.run(w))
        assert accepted == matches(r, w)

    @settings(max_examples=80, deadline=None)
    @given(regexes(), words)
    def test_reach_accept_matches_prefix_test(self, r, w):
        # Passing nfa= forces the legacy simulation, an independent
        # oracle for the dense reach-accept relation.
        dense = dense_for(r)
        state = dense.run(w)
        is_prefix = state >= 0 and dense.reach_accept[state]
        assert is_prefix == prefix_of_language(w, r, nfa=build_nfa(r))
        assert is_prefix == prefix_of_language(w, r)

    @settings(max_examples=80, deadline=None)
    @given(regexes(), words)
    def test_language_word_prefix_matches_nfa(self, r, w):
        assert language_word_is_prefix_of(r, w) == language_word_is_prefix_of(
            r, w, nfa=build_nfa(r)
        )

    @settings(max_examples=60, deadline=None)
    @given(regexes(), words)
    def test_reach_accept_plus_means_live_extension(self, r, w):
        # reach_accept_plus promises a *proper* extension completing to
        # an accepted word; verify by taking each one-symbol step.
        dense = dense_for(r)
        state = dense.run(w)
        if state < 0:
            return
        extensions = [
            s for f in dense.symbols
            if (s := dense.run(tuple(w) + (f,))) >= 0 and dense.reach_accept[s]
        ]
        assert dense.reach_accept_plus[state] == bool(extensions)

    @settings(max_examples=30, deadline=None)
    @given(regexes())
    def test_dense_for_is_memoized(self, r):
        assert dense_for(r) is dense_for(r)
