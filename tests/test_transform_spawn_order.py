"""Unit tests: conflicts the spawn already orders take no lock (§3.1).

Under CRI, invocation i+1 starts only when invocation i reaches its
recursive call (Figure 7).  A conflict whose two references both run
before a function's only spawn is therefore already in invocation
order: the locking pass leaves it unlocked, and the §6 report lists it
as "ordered by the spawn (§3.1)".  The rule needs one self-call site
that became a ``spawn`` outside any ``while`` or ``lambda``, and
last-use release; each negated condition keeps the lock.
``early_release=False`` stays the paper's literal §3.2.1 protocol:
every active conflict locked and held to the end of the invocation.
"""

import hashlib
import importlib.util
import pathlib
import sys

import pytest

from benchmarks.bench_a2_lock_concurrency import source_for as a2_source
from benchmarks.bench_a8_early_release import SRC as A8_SRC
from repro import api
from repro.harness.workloads import fig5_source
from repro.lisp.interpreter import Interpreter
from repro.lisp.runner import SequentialRunner
from repro.obs import Recorder
from repro.runtime.machine import Machine
from repro.runtime.racecheck import RaceDetector
from repro.sexpr.printer import write_str
from repro.transform import pipeline
from repro.transform.locking import LockingResult
from repro.transform.pipeline import Curare

ROOT = pathlib.Path(__file__).resolve().parents[1]

BURN = """
(declaim (pure burn))
(defun burn (n) (let ((i 0)) (while (< i n) (setq i (1+ i))) i))
"""
DATA = "(setq d (list 1 2 3 4 5 6 7 8))"
#: FIFO, then four random schedules.
SCHEDULES = [None, 0, 1, 2, 3]


def run_cc(src, name, setup, call, seed=None, assume_sapp=True, **options):
    """Transform ``name``, run ``call`` on the machine under the race
    detector, then read the final state back with ``(progn call)``'s
    last form.  Returns (transform result, final state text, races)."""
    interp = Interpreter()
    curare = Curare(interp, assume_sapp=assume_sapp)
    curare.load_program(src)
    result = curare.transform(name, **options)
    curare.runner.eval_text(setup)
    detector = RaceDetector()
    policy = {} if seed is None else {"policy": "random", "seed": seed}
    machine = Machine(interp, processors=4, race_detector=detector, **policy)
    entry, readback = call
    machine.spawn_text(entry.replace(f"({name} ", f"({name}-cc ", 1))
    machine.run()
    return (result, write_str(curare.runner.eval_text(readback)),
            detector.races)


def reference(src, setup, call):
    runner = SequentialRunner(Interpreter())
    runner.eval_text(src)
    runner.eval_text(setup)
    entry, readback = call
    runner.eval_text(entry)
    return write_str(runner.eval_text(readback))


#: name -> (source, function, setup, (entry call, read-back),
#: assume_sapp).  Every conflict of these runs before the spawn.
HEAD_ONLY = {
    "walk1": (BURN + """
        (defun f (l)
          (when (cdr l)
            (setf (cadr l) (+ (car l) (cadr l)))
            (f (cdr l))
            (burn 30)))""", "f", DATA, ("(f d)", "d"), True),
    "walk2": (BURN + """
        (defun f (l)
          (when (cddr l)
            (if (> (car l) 2) (setf (caddr l) (- (caddr l) (car l))) nil)
            (f (cdr l))
            (burn 30)))""", "f", DATA, ("(f d)", "d"), True),
    "accum": (BURN + """
        (defun f (l acc)
          (when l
            (setf (car acc) (+ (* 2 (car acc)) (car l)))
            (f (cdr l) acc)
            (burn 30)))""", "f", DATA + " (setq acc (list 0))",
              ("(f d acc)", "acc"), True),
    # No sapp declaration: the unknown forces the serialization lock,
    # and nothing after the spawn touches shared state.
    "walk1-no-sapp": (BURN + """
        (defun f (l)
          (when (cdr l)
            (setf (cadr l) (+ (car l) (cadr l)))
            (f (cdr l))
            (burn 30)))""", "f", DATA, ("(f d)", "d"), False),
    "escape": (BURN + """
        (setq bias 3) (setq last 0)
        (defun f (l)
          (when l
            (setf (car l) (+ (car l) (symbol-value 'bias)))
            (set 'last (car l))
            (f (cdr l))
            (burn 30)))""", "f", DATA, ("(f d)", "(list d last)"), False),
    "unknown-callee": ("""
        (defun helper (l) (setf (car l) (* 3 (car l))))
        (defun f (l)
          (when l
            (helper l)
            (f (cdr l))))""", "f", DATA, ("(f d)", "d"), True),
    "stencil": ("""
        (defun stencil (v i n)
          (when (< i n)
            (setf (aref v (1+ i)) (+ (aref v (1+ i)) (aref v i)))
            (stencil v (1+ i) n)))""", "stencil", "(setq v (make-array 8 1))",
                ("(stencil v 0 7)", "v"), True),
}


class TestHeadOnly:
    @pytest.mark.parametrize("case", sorted(HEAD_ONLY))
    def test_takes_no_lock_and_runs_race_free(self, case):
        src, name, setup, call, sapp = HEAD_ONLY[case]
        want = reference(src, setup, call)
        for seed in SCHEDULES:
            result, got, races = run_cc(src, name, setup, call, seed,
                                        assume_sapp=sapp)
            assert result.lock_count == 0
            ordered = result.locking.ordered
            assert {id(c) for c in ordered} == \
                {id(c) for c in result.analysis.active_conflicts()}
            assert races == [], (case, seed)
            assert got == want, (case, seed)

    def test_report_lists_them_as_ordered(self):
        src, name, setup, call, _ = HEAD_ONLY["walk1"]
        interp = Interpreter()
        recorder = Recorder()
        curare = Curare(interp, assume_sapp=True, recorder=recorder)
        curare.load_program(src)
        result = curare.transform(name)
        text = result.report()
        assert "force synchronization" not in text
        assert "no unresolved conflicts" in text
        described = result.analysis.active_conflicts()[0].describe()
        assert f"ordered by the spawn (§3.1): {described}" in text
        assert result.analysis.active_conflicts()[0].dismissed_by is None
        events = [e for e in recorder.events if e.name == "pipeline.result"]
        assert events[-1].args["conflicts_ordered"] == \
            len(result.locking.ordered) >= 1
        assert events[-1].args["locks_inserted"] == 0

    def test_literal_protocol_keeps_every_lock(self):
        src, name, setup, call, _ = HEAD_ONLY["walk1"]
        result, got, races = run_cc(src, name, setup, call,
                                    early_release=False)
        assert result.lock_count == 2 and result.locking.ordered == []
        assert result.locking.concurrency_bound == 1
        assert races == [] and got == reference(src, setup, call)

    def test_figure_5_keeps_its_two_locks(self):
        # f5 has two self-call sites, one in each exclusive cond arm.
        result, got, races = run_cc(fig5_source(), "f5", DATA,
                                    ("(f5 d)", "d"))
        assert result.lock_count == 2 and result.locking.ordered == []
        assert races == [] and got == "(1 3 6 10 15 21 28 36)"


#: Two self-call sites over a DAG: the shared node is reached through
#: both subtrees, so invocations in sibling subtrees meet at it.
DAG_TREE = """
(defstruct nd lf rt vl)
(defun tw (n)
  (when n
    (setf (nd-vl n) (+ (nd-vl n) 1))
    (tw (nd-lf n))
    (tw (nd-rt n))))
"""
DAG = ("(setq s (make-nd nil nil 0)) "
       "(setq root (make-nd (make-nd nil s 0) (make-nd s nil 0) 0))")

#: name -> (source, function, setup, (entry call, read-back), the
#: invocation-serial final state or None for the sequential
#: interpreter's, transform options).
KEEPS_LOCK = {
    "two-sites": (DAG_TREE, "tw", DAG, ("(tw root)", "(nd-vl s)"),
                  None, {}),
    "future": ("""
        (defun f (l)
          (if (null (cdr l))
              (list (car l))
              (progn (setf (cadr l) (+ (car l) (cadr l)))
                     (cons (car l) (f (cdr l))))))""", "f", DATA,
               ("(f d)", "d"), None, {"prefer_dps": False}),
    "while": ("""
        (defun f (l)
          (when (cdr l)
            (setf (cadr l) (+ (car l) (cadr l)))
            (let ((i 0))
              (while (< i 1)
                (f (cdr l))
                (setq i (1+ i))))))""", "f", DATA, ("(f d)", "d"),
              None, {}),
    # Invocation i writes cell i+1 after its spawn; the original
    # recursion runs tails deepest-first, invocation order runs them
    # first to last (§3.1.1).
    "tail": (BURN + """
        (defun f (l)
          (when (cdr l)
            (f (cdr l))
            (burn 20)
            (setf (cadr l) (+ (car l) (cadr l)))))""", "f", DATA,
             ("(f d)", "d"), "(1 3 6 10 15 21 28 36)", {}),
    "closure": ("""
        (defun f (l)
          (when (cdr l)
            (let ((bump (lambda () (setf (cadr l) (+ (car l) (cadr l))))))
              (funcall bump)
              (f (cdr l)))))""", "f", DATA, ("(f d)", "d"), None, {}),
}


def strip_locks(analysis, func=None, early_release=True):
    """The locking pass with every lock removed by hand."""
    return LockingResult(func=func)


class TestEachConditionKeepsTheLock:
    @pytest.mark.parametrize("case", sorted(KEEPS_LOCK))
    def test_lock_kept_and_run_race_free(self, case):
        src, name, setup, call, serial, options = KEEPS_LOCK[case]
        want = serial or reference(src, setup, call)
        for seed in SCHEDULES:
            result, got, races = run_cc(src, name, setup, call, seed,
                                        assume_sapp=case != "two-sites",
                                        **options)
            assert result.lock_count >= 1
            assert result.locking.ordered == []
            assert races == [], (case, seed)
            assert got == want, (case, seed)
        if case == "future":
            assert result.cri.future_sites == 1
        if case == "two-sites":
            assert got == "2"  # the shared node is visited twice

    @pytest.mark.parametrize("case", ["two-sites", "tail"])
    def test_detector_sees_the_races_without_it(self, case, monkeypatch):
        src, name, setup, call, _serial, options = KEEPS_LOCK[case]
        monkeypatch.setattr(pipeline, "insert_locks", strip_locks)
        result, _got, races = run_cc(src, name, setup, call,
                                     assume_sapp=case != "two-sites",
                                     **options)
        assert result.lock_count == 0
        assert races


class TestCrossWord:
    """Two accessor words name one runtime lock: invocation i writes
    cell i+2's car in its tail through ``cddr.car``, and invocation
    i+2 reads it in its head through ``car``.  The rule is decided per
    conflict, so the ``car`` lock stays although every use of it runs
    before the spawn."""

    SRC = BURN + """
    (defun f (l)
      (when (cddr l)
        (if (> (car l) 0)
            (progn (setf (caddr l) (+ (caddr l) (car l))) (burn 30))
            nil)
        (f (cdr l))
        (burn 200)
        (setf (caddr l) (* 2 (caddr l)))))
    """

    @pytest.mark.parametrize("seed", SCHEDULES)
    def test_both_words_locked_and_invocation_serial(self, seed):
        result, got, races = run_cc(self.SRC, "f", DATA, ("(f d)", "d"),
                                    seed)
        words = {str(spec.word) for spec in result.locking.locks}
        assert {"car", "cdr.cdr.car"} <= words
        # The head-to-head pairs are ordered; the tail's are not.
        assert result.locking.ordered
        assert races == []
        assert got == "(1 2 8 12 26 36 66 88)"


def _perfbench_gen():
    path = ROOT / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("_perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _literal_forms(src, name, **options):
    result = api.transform(src, name, api.TransformOptions(
        early_release=False, **options))
    return "\n".join(form for group in result.forms for form in group)


def literal_cases():
    cases = {"fig05": _literal_forms(fig5_source(), "f5", assume_sapp=True)}
    for k in (1, 2, 3, 4, 0):
        cases[f"a2-k{k}"] = _literal_forms(a2_source(k), "f",
                                           assume_sapp=True)
    cases["a8"] = _literal_forms(A8_SRC, "f", assume_sapp=True)
    cases["perfbench-transform-seed7"] = "\n".join(
        _literal_forms(p.source, p.name, use_delay=delay)
        for p in _perfbench_gen().generate("transform", 7)
        for delay in (False, True))
    return cases


#: sha256 of the forms ``early_release=False`` emitted before the
#: spawn-order rule existed.  The literal protocol must not move.
LITERAL_DIGESTS = {
    "fig05":
        "4f3f3600be7bf3e7bbd8b0c408e135b3c24155d4f1e720a00f28be9a07bfb8c0",
    "a2-k1":
        "3c440bd23a19596d3cc3387a0cc1df999df6538eb1c080ef4b7effa3822ce10e",
    "a2-k2":
        "fa2e09f09e4f38fcd2d4140c4373a14fae56927689311f39a6780a57b895415e",
    "a2-k3":
        "02cb582196e8e6b9eb7e3777c5a61b31844622e0497567665d4ef212151b51c3",
    "a2-k4":
        "81af437e1cf7af6d301056247f68201e6b2b6019a952114b77fd65a29281e459",
    "a2-k0":
        "ba37fc8c1956d9dc722be7e2625bd7023e0f585b7c73a1f6fd352d02dc33d665",
    "a8":
        "27c86b1f89ac628d2662ba16e09dfe90b1dba51f36feb0ee299493f6fd37bddd",
    "perfbench-transform-seed7":
        "0777e7aa047f937e15e10b94a32ef0892943055bfb710ce78037198c7dd73e6f",
}


class TestLiteralProtocol:
    def test_forms_byte_identical(self):
        digests = {name: hashlib.sha256(text.encode()).hexdigest()
                   for name, text in literal_cases().items()}
        assert digests == LITERAL_DIGESTS
