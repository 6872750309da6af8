"""The yardstick the timing metrics are normalised by: a tiny Lisp.

A fixed program run by a fixed evaluator of a few dozen lines, written
here and never importing ``repro``.  It does what the engine does on a
small scale (reads S-expressions into lists, walks environments, calls
closures, mutates cons cells), so a host that slows the engine slows
the yardstick by about the same share.  On the 2-vCPU VM this was
tuned on, ten fixed ``simulate`` ops timed over and over for two
minutes had a quartile spread of 0.22 in wall time (medians of four
passes); divided by a plain arithmetic loop read beside them, 0.08,
because the loop slowed less than the engine when the host was
busiest; divided by this evaluator, 0.04.

Changing this file changes every timing metric of the benchmark.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class Pair:
    __slots__ = ("car", "cdr")

    def __init__(self, car: Any, cdr: Any):
        self.car = car
        self.cdr = cdr


class Env(dict):
    """A frame of bindings with a link to the enclosing one."""

    __slots__ = ("outer",)

    def __init__(self, names: Sequence[str], values: Sequence[Any],
                 outer: Optional["Env"]):
        super().__init__(zip(names, values))
        self.outer = outer

    def find(self, name: str) -> "Env":
        env = self
        while name not in env:
            env = env.outer
        return env


class Lambda:
    __slots__ = ("params", "body", "env")

    def __init__(self, params: List[str], body: Any, env: Env):
        self.params = params
        self.body = body
        self.env = env


def read(text: str) -> Any:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()

    def walk(i: int) -> Tuple[Any, int]:
        token = tokens[i]
        if token == "(":
            out = []
            i += 1
            while tokens[i] != ")":
                form, i = walk(i)
                out.append(form)
            return out, i + 1
        try:
            return int(token), i + 1
        except ValueError:
            return token, i + 1

    return walk(0)[0]


def evaluate(x: Any, env: Env) -> Any:
    while True:
        if isinstance(x, str):
            return env.find(x)[x]
        if not isinstance(x, list):
            return x
        head = x[0]
        if head == "quote":
            return x[1]
        if head == "if":
            x = x[2] if evaluate(x[1], env) is not None else x[3]
            continue
        if head == "define":
            env[x[1]] = evaluate(x[2], env)
            return None
        if head == "lambda":
            return Lambda(x[1], x[2], env)
        if head == "begin":
            for form in x[1:-1]:
                evaluate(form, env)
            x = x[-1]
            continue
        fn = evaluate(head, env)
        args = [evaluate(arg, env) for arg in x[1:]]
        if isinstance(fn, Lambda):
            env = Env(fn.params, args, fn.env)
            x = fn.body
            continue
        return fn(*args)


def _set_car(pair: Pair, value: Any) -> None:
    pair.car = value


BUILTINS: Dict[str, Callable[..., Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "<": lambda a, b: True if a < b else None,
    "cons": Pair,
    "car": lambda p: p.car,
    "cdr": lambda p: p.cdr,
    "null?": lambda p: True if p is None else None,
    "set-car!": _set_car,
}

#: Builds the list 1..40, turns it into its prefix sums in place (the
#: Fig. 5 shape) and adds them up: 40 * 41 * 42 / 6.
PROGRAM = """
(begin
 (define build (lambda (n acc)
   (if (< n 1) acc (build (- n 1) (cons n acc)))))
 (define prefix (lambda (l)
   (if (null? l) nil
     (if (null? (cdr l)) nil
       (begin (set-car! (cdr l) (+ (car l) (car (cdr l))))
              (prefix (cdr l)))))))
 (define total (lambda (l acc)
   (if (null? l) acc (total (cdr l) (+ acc (car l))))))
 (define data (build 40 nil))
 (prefix data)
 (total data 0))
"""
EXPECTED = 11480
#: Runs of ``PROGRAM`` per reading (about 3-5 ms together).
RUNS = 3


def reading() -> float:
    """Seconds ``RUNS`` runs of ``PROGRAM`` take, from reading the text
    to the final sum."""
    start = time.perf_counter()
    for _ in range(RUNS):
        env = Env(("nil",), (None,), None)
        env.update(BUILTINS)
        value = evaluate(read(PROGRAM), env)
    took = time.perf_counter() - start
    if value != EXPECTED:
        raise AssertionError(f"yardstick computed {value}, not {EXPECTED}")
    return took
