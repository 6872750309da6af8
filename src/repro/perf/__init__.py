"""Hot-path performance layer: interning, memoization, batched stepping.

Three coordinated optimizations live behind this package:

1. **Hash-consing** of path regexes and accessors
   (:mod:`repro.paths.regex`, :mod:`repro.paths.accessor`) so
   structurally-equal automata inputs are pointer-equal.
2. **Memoization** of the expensive automata derivations — NFA
   construction, determinization + minimization, prefix-closure
   conflict tests, transfer-function powers — behind counting LRU
   caches (:mod:`repro.perf.cache`).
3. **Batched machine stepping** — :class:`repro.runtime.machine.Machine`
   defaults to an event-heap stepper that advances simulated time in
   multi-tick batches while reproducing the per-tick stepper's effect
   traces and statistics byte-for-byte.

There is one code path: the caches and interning are always on, a
Machine steps with the heap stepper and evaluates compiled code.  The
reference implementations (the per-tick stepper, the interpreter, NFA
simulation) are reached only by asking for them explicitly, as the
differential tests do.  ``repro bench`` (:mod:`repro.perf.bench`)
gates on counted work and yardstick-normalised time.  See
``docs/performance.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.perf.cache import (
    EventCounter,
    InternTable,
    LRUCache,
    cache_stats,
    clear_caches,
    named_caches,
    publish_cache_stats,
)

__all__ = [
    "EventCounter",
    "InternTable",
    "LRUCache",
    "cache_stats",
    "clear_caches",
    "named_caches",
    "publish_cache_stats",
    "default_stepper",
    "stepper_override",
    "default_eval_mode",
    "eval_mode_override",
    "EVAL_MODES",
]

# Default Machine stepper when the caller does not pass one explicitly.
# "heap" is the batched event-heap scheduler; "ticker" the legacy
# per-tick polling loop kept as the differential-testing reference.
_STEPPER_OVERRIDE: "str | None" = None


def default_stepper() -> str:
    """The stepper a Machine uses when none is requested: an active
    :func:`stepper_override`, else ``"heap"``."""
    return _STEPPER_OVERRIDE or "heap"


@contextmanager
def stepper_override(name: str) -> Iterator[None]:
    """Force the default Machine stepper within a block.

    Used by the differential tests to run the same workload under both
    steppers without threading a parameter through every harness layer.
    """
    if name not in ("heap", "ticker"):
        raise ValueError(f"unknown stepper {name!r}")
    global _STEPPER_OVERRIDE
    previous = _STEPPER_OVERRIDE
    _STEPPER_OVERRIDE = name
    try:
        yield
    finally:
        _STEPPER_OVERRIDE = previous


#: The two evaluation strategies for the Lisp substrate.  "interpreter"
#: is the generator-style reference evaluator; "compiled" is the
#: closure-emitting compiler (repro.lisp.compile) driven through the CPS
#: trampoline.  Their effect streams are identical once the trampoline's
#: merged tick runs are split back into single ticks, and every machine
#: run is identical in both.
EVAL_MODES = ("interpreter", "compiled")

_EVAL_MODE_OVERRIDE: "str | None" = None


def default_eval_mode() -> str:
    """The evaluation mode drivers use when none is requested: an
    active :func:`eval_mode_override`, else ``"compiled"``."""
    return _EVAL_MODE_OVERRIDE or "compiled"


@contextmanager
def eval_mode_override(mode: str) -> Iterator[None]:
    """Force the default evaluation mode within a block.

    The differential tests run the same workload under both evaluators
    with this, without threading a parameter through every layer.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"unknown eval mode {mode!r}")
    global _EVAL_MODE_OVERRIDE
    previous = _EVAL_MODE_OVERRIDE
    _EVAL_MODE_OVERRIDE = mode
    try:
        yield
    finally:
        _EVAL_MODE_OVERRIDE = previous
