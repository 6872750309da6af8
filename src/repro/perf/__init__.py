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

The whole layer is toggleable: :func:`set_perf_enabled` switches the
caches off and flips the default machine stepper back to the legacy
per-tick loop, which is how ``repro bench`` measures its pre-layer
baseline inside a single process.  See ``docs/performance.md``.
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
    perf_disabled,
    perf_enabled,
    publish_cache_stats,
    set_perf_enabled,
)

__all__ = [
    "EventCounter",
    "InternTable",
    "LRUCache",
    "cache_stats",
    "clear_caches",
    "named_caches",
    "perf_disabled",
    "perf_enabled",
    "publish_cache_stats",
    "set_perf_enabled",
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
    """Resolve the stepper a Machine uses when none is requested.

    Honors an active :func:`stepper_override`, then the global perf
    switch (disabled ⇒ the legacy ``"ticker"`` loop, matching the
    pre-layer runtime exactly).
    """
    if _STEPPER_OVERRIDE is not None:
        return _STEPPER_OVERRIDE
    return "heap" if perf_enabled() else "ticker"


@contextmanager
def stepper_override(name: str) -> Iterator[None]:
    """Force the default Machine stepper within a block.

    Used by the differential tests and the bench harness to run the
    same workload under both steppers without threading a parameter
    through every harness layer.
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
    """Resolve the evaluation mode drivers use when none is requested.

    Honors an active :func:`eval_mode_override`, then the global perf
    switch (disabled ⇒ the reference interpreter, matching the
    pre-layer evaluator exactly).
    """
    if _EVAL_MODE_OVERRIDE is not None:
        return _EVAL_MODE_OVERRIDE
    return "compiled" if perf_enabled() else "interpreter"


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
