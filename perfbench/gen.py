"""Seeded generator of benchmark programs: Lisp text only.

This module never imports the engine, so generating a run's inputs
costs nothing inside ``setup_s``.  Every program is built from one of
the template families below, with names, sizes and constants drawn
from ``random.Random`` streams derived from the benchmark seed.

Continuous parameters (list length, tree size, busy work, processor
count) are drawn stratified: with ``n`` programs of a family, each of
``n`` equal slices of a range gets one draw.  Every seed therefore
covers each range evenly and does the same amount of work, which keeps
medians and percentiles from jumping between seeds, while the values
themselves stay continuous (no clusters for a percentile to sit
between).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Why each family is in the traffic, and what Curare does with it at
#: the current commit (each outcome checked by the generator test).
FAMILIES: Dict[str, str] = {
    "walk1": "distance-1 list walker (Fig. 5 shape): transformed with locks",
    "walk2": "distance-2 list walker: transformed with locks",
    "tree": "defstruct tree walker, two spawn sites",
    "accum": "reorderable accumulator into a cons cell: atomicity lock",
    "remq": "remq-style constructor: destination-passing style",
    "strict": "strict self-call with (declaim (reorderable +)): "
              "converted to iteration",
    "strict_refused": "strict self-call without the declaration: refused "
                      "(neither tail-recursive nor an associative-op "
                      "linear recursion)",
    "search": "any-result search: first-wins parallel search",
    "hof_map": "funcall of a lambda argument, mapped in place",
    "hof_fold": "funcall of a lambda argument, folded into a cons cell",
    "escape_set": "set escape: transformed under a conservative lock",
    "escape_eval": "eval escape: transformed under a conservative lock",
    "misdeclared": "a lying (declaim (unordered-writes setf)) hides a real "
                   "race between invocations (chaos only)",
}

#: Family counts per pass over a workload's op list.  The higher-order
#: shapes (funcall of a lambda, set/eval escapes) carry the most weight,
#: because they are the ones most likely to break SAPP-based soundness.
MIX: Dict[str, Dict[str, int]] = {
    "transform": {
        "walk1": 9, "walk2": 7, "tree": 10, "accum": 8, "remq": 8,
        "strict": 7, "strict_refused": 7, "search": 8,
        "hof_map": 12, "hof_fold": 10, "escape_set": 7, "escape_eval": 7,
    },
    "simulate": {
        "walk1": 10, "walk2": 8, "tree": 10, "accum": 8, "remq": 8,
        "strict": 6, "search": 8,
        "hof_map": 12, "hof_fold": 10, "escape_set": 10, "escape_eval": 10,
    },
    "chaos": {
        "walk1": 10, "walk2": 9, "tree": 9, "accum": 9, "remq": 9,
        "strict": 6, "search": 6,
        "hof_map": 11, "hof_fold": 9, "escape_set": 5, "escape_eval": 5,
        "misdeclared": 12,
    },
    "serve": {
        "walk1": 2, "walk2": 2, "tree": 2, "accum": 2, "remq": 2,
        "strict": 1, "strict_refused": 1, "search": 2,
        "hof_map": 3, "hof_fold": 3, "escape_set": 2, "escape_eval": 2,
    },
}

#: Size ranges per workload: list length, tree nodes, head and tail
#: busy-loop iterations, processors.  (An ``any-result`` search also
#: draws where its one match sits, between a tenth and nine tenths of
#: the list; a ``remq`` list drops a quarter of its cells.)
#: ``simulate`` follows Fig. 10: 16-64 cells, trees of depth 3-5, P 2-8,
#: and head and tail busy work around the h=8, t=40 burn units of
#: ``benchmarks/bench_fig10_execution_time.py`` (h 4-12, t 28-52), so
#: the tail an invocation overlaps with its successors outweighs the
#: spawn and lock overhead, as in the paper.  ``chaos`` is sized so the
#: per-tick machine loop dominates a cell.  ``serve`` keeps data small
#: because the engine work there is the restructuring.  ``transform``
#: never runs a program inside its window, so its busy work only sets
#: what the output check after the window costs.
SIZES: Dict[str, Dict[str, Tuple[float, float]]] = {
    "transform": {"cells": (16, 64), "nodes": (7, 31), "head": (1, 8),
                  "tail": (1, 8), "procs": (2, 8)},
    "simulate": {"cells": (16, 64), "nodes": (7, 31), "head": (4, 12),
                 "tail": (28, 52), "procs": (2, 8)},
    "chaos": {"cells": (10, 28), "nodes": (7, 31), "head": (2, 12),
              "tail": (2, 12), "procs": (2, 8)},
    "serve": {"cells": (8, 24), "nodes": (7, 15), "head": (2, 10),
              "tail": (2, 10), "procs": (2, 6)},
}

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Program:
    """One generated program.

    ``source`` holds the declaim forms, the definitions and the data
    set-up.  ``call`` is the run expression with ``{fn}`` standing for
    the entry function (the original name for the sequential reference,
    the transformed name for the machine).  Run expressions return the
    mutated structure itself: the facade prints the main process's
    value after the machine finishes, so a structure returned by
    pointer is read only once every spawned invocation is done.
    """

    family: str
    slot: int
    name: str
    source: str
    setup: str
    call: str
    read_back: Optional[str]
    sapp: bool
    processors: int
    expect_transformed: bool

    @property
    def program(self) -> str:
        """Definitions plus data: what the facade loads."""
        return self.source + "\n" + self.setup

    def expr(self, fn: str) -> str:
        return self.call.format(fn=fn)


def _strata(rng: random.Random, n: int, lo: float, hi: float,
            key: str) -> List[float]:
    """``n`` draws, one from each of ``n`` equal slices of [lo, hi].

    Which slice the ``i``-th program of a family gets comes from a
    stream keyed on ``key`` alone, not on the benchmark seed: every
    seed pairs list length, busy work and processors the same way, so
    a seed changes the programs but not how much work a pass is.  The
    seed moves each draw within its slice.
    """
    order = list(range(n))
    random.Random(key).shuffle(order)
    width = (hi - lo) / n
    return [lo + (k + rng.random()) * width for k in order]


def _tag(rng: random.Random) -> str:
    return "".join(rng.choice(_LETTERS) for _ in range(4))


def _ints(rng: random.Random, n: int, lo: int = 1, hi: int = 99) -> str:
    return " ".join(str(rng.randint(lo, hi)) for _ in range(n))


def _burn(name: str) -> str:
    return (f"(defun {name} (n) (let ((i 0)) "
            f"(while (< i n) (setq i (1+ i))) i))")


def _tree_text(rng: random.Random, struct: str, nodes: int) -> str:
    """A binary tree of ``nodes`` nodes in heap order (node k has
    children 2k+1 and 2k+2), so its depth is ceil(log2(nodes + 1))."""

    def build(k: int) -> str:
        if k >= nodes:
            return "nil"
        return (f"(make-{struct} {build(2 * k + 1)} {build(2 * k + 2)} "
                f"{rng.randint(1, 99)})")

    return build(0)


def _program(family: str, slot: int, index: int, rng: random.Random,
             cells: int, nodes: int, head: int, tail: int, procs: int,
             position: float, sapp: bool) -> Program:
    tag = f"{_tag(rng)}{index}"
    fn = f"{family.replace('_', '-')}-{tag}"
    burn = f"burn-{tag}"
    data = f"data-{tag}"
    k = rng.randint(1, 9)
    decls = [f"(declaim (pure {burn}))"]
    defs = [_burn(burn)]
    setup = f"(setq {data} (list {_ints(rng, cells)}))"
    read_back: Optional[str] = None
    expect = True
    sapp_param = "l"
    if family in ("walk1", "walk2"):
        if family == "walk1":
            guard, target, update = "(cdr l)", "(cadr l)", \
                f"(+ (car l) (cadr l) {k})"
        else:
            guard, target, update = "(cddr l)", "(caddr l)", \
                f"(- (caddr l) (car l) {k})"
        defs.append(
            f"(defun {fn} (l)\n  (when {guard}\n    ({burn} {head})\n"
            f"    (setf {target} {update})\n    ({fn} (cdr l))\n"
            f"    ({burn} {tail})))")
        call = f"(progn ({{fn}} {data}) {data})"
    elif family == "tree":
        struct = f"sn{tag}"
        left, right, val = f"lf{tag}", f"rt{tag}", f"vl{tag}"
        defs.insert(0, f"(defstruct {struct} {left} {right} {val})")
        defs.append(
            f"(defun {fn} (n)\n  (when n\n    ({burn} {head})\n"
            f"    (setf ({struct}-{val} n) (+ ({struct}-{val} n) {k}))\n"
            f"    ({fn} ({struct}-{left} n))\n"
            f"    ({fn} ({struct}-{right} n))\n    ({burn} {tail})))")
        setup = f"(setq {data} {_tree_text(rng, struct, nodes)})"
        call = f"(progn ({{fn}} {data}) {data})"
        sapp_param = "n"
    elif family == "accum":
        cell = f"cell-{tag}"
        decls.append("(declaim (reorderable +))")
        defs.append(
            f"(defun {fn} (l acc)\n  (when l\n    ({burn} {head})\n"
            f"    (setf (car acc) (+ (car acc) (* {k} (car l))))\n"
            f"    ({fn} (cdr l) acc)\n    ({burn} {tail})))")
        setup += f"\n(setq {cell} (list 0))"
        call = f"(progn ({{fn}} {data} {cell}) {cell})"
    elif family == "remq":
        drop = rng.randint(1, 9)
        items = [rng.choice([v for v in range(1, 10) if v != drop])
                 for _ in range(cells)]
        for k in rng.sample(range(cells), cells // 4):
            items[k] = drop
        setup = f"(setq {data} (list {' '.join(map(str, items))}))"
        defs.append(
            f"(defun {fn} (obj lst)\n  (cond ((null lst) nil)\n"
            f"        ((eq obj (car lst)) ({fn} obj (cdr lst)))\n"
            f"        (t ({burn} {head})\n"
            f"           (cons (car lst) ({fn} obj (cdr lst))))))")
        call = f"({{fn}} {drop} {data})"
        sapp_param = "lst"
    elif family in ("strict", "strict_refused"):
        if family == "strict":
            decls.append("(declaim (reorderable +))")
        else:
            expect = False
        defs.append(
            f"(defun {fn} (l)\n  (if (null l) 0\n"
            f"      (+ (progn ({burn} {head}) (* {k} (car l))) ({fn} (cdr l)))))")
        call = f"({{fn}} {data})"
    elif family == "search":
        test = f"test-{tag}"
        values = rng.sample(range(1, 10 * cells), cells)
        want = values[min(cells - 1, int(position * cells))]
        setup = f"(setq {data} (list {' '.join(map(str, values))}))"
        decls.append(f"(declaim (any-result {fn}) (pure {test}))")
        defs.append(f"(defun {test} (x) ({burn} {head}) (= x {want}))")
        defs.append(
            f"(defun {fn} (lst)\n  (cond ((null lst) nil)\n"
            f"        (({test} (car lst)) (car lst))\n"
            f"        (t ({fn} (cdr lst)))))")
        call = f"({{fn}} {data})"
        sapp_param = "lst"
    elif family == "hof_map":
        defs.append(
            f"(defun {fn} (fn l)\n  (when l\n    ({burn} {head})\n"
            f"    (setf (car l) (funcall fn (car l)))\n"
            f"    ({fn} fn (cdr l))\n    ({burn} {tail})))")
        call = (f"(progn ({{fn}} (lambda (x) (+ (* x {k}) "
                f"{rng.randint(1, 9)})) {data}) {data})")
    elif family == "hof_fold":
        cell = f"cell-{tag}"
        defs.append(
            f"(defun {fn} (fn l acc)\n  (when l\n    ({burn} {head})\n"
            f"    (setf (car acc) (funcall fn (car acc) (car l)))\n"
            f"    ({fn} fn (cdr l) acc)\n    ({burn} {tail})))")
        setup += f"\n(setq {cell} (list {rng.randint(0, 9)}))"
        call = (f"(progn ({{fn}} (lambda (a x) (+ a (* x {k}))) "
                f"{data} {cell}) {cell})")
    elif family == "escape_set":
        bias, last = f"bias-{tag}", f"last-{tag}"
        defs.append(
            f"(defun {fn} (l)\n  (when l\n    ({burn} {head})\n"
            f"    (setf (car l) (+ (car l) (symbol-value '{bias})))\n"
            f"    (set '{last} (car l))\n"
            f"    ({fn} (cdr l))\n    ({burn} {tail})))")
        setup = f"(setq {bias} {k})\n(setq {last} 0)\n" + setup
        call = f"(progn ({{fn}} {data}) {data})"
    elif family == "escape_eval":
        bias = f"bias-{tag}"
        defs.append(
            f"(defun {fn} (l)\n  (when l\n    ({burn} {head})\n"
            f"    (setf (car l) (eval (list '+ (car l) '{bias})))\n"
            f"    ({fn} (cdr l))\n    ({burn} {tail})))")
        setup = f"(setq {bias} {k})\n" + setup
        call = f"(progn ({{fn}} {data}) {data})"
    elif family == "misdeclared":
        decls.append("(declaim (unordered-writes setf))")
        defs.append(
            f"(defun {fn} (l)\n  (when l\n    ({burn} {head})\n"
            f"    ({fn} (cdr l))\n    (setf (car l) 0)\n"
            f"    (when (cdr l) (setf (cadr l) 1))))")
        call = f"({{fn}} {data})"
        read_back = f"(identity {data})"
    else:
        raise ValueError(f"unknown family {family!r}")
    if sapp:
        decls.append(f"(declaim (sapp {fn} {sapp_param}))")
    source = "\n".join(decls + defs)
    return Program(family=family, slot=slot, name=fn, source=source,
                   setup=setup,
                   call=call, read_back=read_back, sapp=sapp,
                   processors=procs, expect_transformed=expect)


def generate(workload: str, seed: int, window: int = 0) -> List[Program]:
    """The op list of ``workload`` for ``seed`` (and, for ``serve``,
    for window ``window``: each serve window gets fresh programs so its
    first occurrences miss the result cache)."""
    mix = MIX[workload]
    sizes = SIZES[workload]
    rng = random.Random(f"perfbench/{workload}/{seed}/{window}")
    programs: List[Program] = []
    for family in sorted(mix):
        n = mix[family]
        frng = random.Random(rng.random())
        draws = {key: _strata(frng, n, lo, hi + 1,
                              f"perfbench/{workload}/{family}/{key}")
                 for key, (lo, hi) in sizes.items()}
        draws["position"] = _strata(frng, n, 0.1, 0.9,
                                    f"perfbench/{workload}/{family}/position")
        for i in range(n):
            programs.append(_program(
                family, i, len(programs), frng,
                cells=int(draws["cells"][i]),
                nodes=int(draws["nodes"][i]),
                head=int(draws["head"][i]),
                tail=int(draws["tail"][i]),
                procs=int(draws["procs"][i]),
                position=draws["position"][i],
                sapp=i % 2 == 0,
            ))
    rng.shuffle(programs)
    return programs


def option_plan(n: int) -> List[Dict[str, bool]]:
    """Transform options by op position: a fixed quarter of requests
    set ``use_delay`` and another quarter ``early_release``, so the
    delay pass and early lock release run in every pass."""
    plan = []
    for i in range(n):
        slot = i % 4
        plan.append({"use_delay": slot == 1, "early_release": slot == 3})
    return plan


def family_shares(programs: Sequence[Program]) -> Dict[str, float]:
    counts: Dict[str, int] = {}
    for p in programs:
        counts[p.family] = counts.get(p.family, 0) + 1
    return {f: round(c / len(programs), 4) for f, c in sorted(counts.items())}
