"""Blocker requests sized by time, not by loop count.

Service tests hold a worker with ``(spin n)``, a counting loop.  What
they need is a request that runs for a given time, and a fixed ``n``
shrinks with every evaluator speed-up.  :func:`spins_for` derives ``n``
from one timed run per test session instead.
"""

from __future__ import annotations

import functools
import time

SPIN_SRC = "(defun spin (n) (let ((i 0)) (while (< i n) (setq i (1+ i))) i))"

_PROBE_SPINS = 20_000


@functools.lru_cache(maxsize=None)
def _seconds_per_spin() -> float:
    from repro import api

    options = api.RunOptions(processors=1)
    api.run(SPIN_SRC, "(spin 10)", options)  # imports and caches warm
    start = time.perf_counter()
    api.run(SPIN_SRC, f"(spin {_PROBE_SPINS})", options)
    return (time.perf_counter() - start) / _PROBE_SPINS


def spins_for(ms: float) -> int:
    """The ``n`` for which ``(spin n)`` runs about ``ms`` milliseconds
    through ``api.run`` on this host."""
    return max(1, round(ms / 1000.0 / _seconds_per_spin()))
