"""Paths, limits and helpers shared by the benchmark's modules."""

from __future__ import annotations

import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Run artifacts (traces, determinism fingerprints, cache roots);
#: ignored by git.
STATE = ROOT / ".perfbench"

#: A run measures whole passes: at least this many, and no more than
#: fit into ``--seconds``.
MIN_PASSES = 3
#: ``setup_s`` is the median of this many set-ups per run.  One set-up
#: varies by about a tenth (the first warm-up op alone, which pays for
#: lazy first use, took 42-75 ms of a 0.45 s ``simulate`` set-up).  Over
#: two sets of ten runs per workload, medians of five spread 0.07-0.18
#: and moved at most 5.1% between the sets; medians of three,
#: 0.04-0.16 and 4.3%.  Five cost about 2 s more a run.
SETUP_REPEATS = 5
#: ``PYTHONHASHSEED`` of the benchmark process and the servers it starts.
HASH_SEED = "0"

clock = time.perf_counter

_CORES = sorted(os.sched_getaffinity(0))
#: Process placement.  In-process workloads run on ``CORE``; so do
#: ``repro serve`` and ``repro cache-serve``.  ``repro serve`` runs
#: Python on one core at a time anyway (the GIL); spread over two
#: cores, its pool threads hand the GIL back and forth across them, and
#: whole runs fall into a mode where every window takes twice as long.
CORE = _CORES[-1]
#: The ``serve`` client runs on another core, where there is one, so
#: its encoding, decoding and socket work stay out of the servers'
#: figures.
CLIENT_CORE = _CORES[-2] if len(_CORES) > 1 else CORE


def pin(core: int) -> None:
    """Run the calling thread (and the threads and children it starts
    from now on) on ``core`` only."""
    os.sched_setaffinity(0, {core})


@contextmanager
def pinned(core: int) -> Iterator[None]:
    """Run the calling thread on ``core`` for the ``with`` block."""
    before = os.sched_getaffinity(0)
    pin(core)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class BenchError(Exception):
    """The benchmark cannot run here (no engine, a server that will
    not start); exit 2 without a result."""


def _spin(iterations: int) -> float:
    """Seconds a fixed pure-Python loop that never touches ``repro``
    takes: how fast the host is right now."""
    start = clock()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    if acc < 0:  # keeps the loop from being optimised into nothing
        raise AssertionError
    return clock() - start


def probe_ms() -> float:
    """The host probe timed at the start and end of every run: a
    diagnostic, not a metric."""
    return _spin(400_000) * 1000.0


#: Host-normalised times are stated for a host that takes this long
#: for one reading of the yardstick (``yardstick.py``): about what the
#: 2-vCPU VM the benchmark was tuned on takes at the faster of its two
#: speeds.
REFERENCE_S = 0.0033
#: In-process workloads read the yardstick again once this much time has
#: passed since the last reading, between two ops.
YARDSTICK_INTERVAL_S = 0.04


class HostTime:
    """Turns wall times into host-normalised times.

    The host this benchmark was tuned on switches between two speeds,
    in phases of a second to a minute, and the yardstick (a tiny Lisp
    in ``yardstick.py``) slows by about the same share as the engine
    does.  So the yardstick is read before and after each timed
    stretch of work, and a wall time ``t`` measured between two
    readings ``a`` and ``b`` counts as
    ``t * REFERENCE_S / ((a + b) / 2)``: the time the work would have
    taken on a host where the yardstick takes ``REFERENCE_S``.  The
    yardstick never touches ``repro``, so a change to the engine moves
    normalised times exactly as much as wall times; the readings
    themselves are never inside a timed stretch.
    """

    def __init__(self, core: Optional[int] = None):
        #: Read the yardstick on this core (``serve``: the servers'
        #: core), or on the calling thread's own.
        self.core = core
        self.last = self.reading()
        self.readings: List[float] = [self.last]

    def reading(self) -> float:
        if self.core is None:
            return yardstick.reading()
        with pinned(self.core):
            return yardstick.reading()

    def factor(self) -> float:
        """Read the yardstick; return the factor for wall times
        measured since the previous reading."""
        now = self.reading()
        self.readings.append(now)
        factor = 2.0 * REFERENCE_S / (self.last + now)
        self.last = now
        return factor

    def summary(self) -> Dict[str, float]:
        """Yardstick readings in ms (min, median, max): a diagnostic."""
        ms = [r * 1000.0 for r in self.readings]
        return {"yardstick_min_ms": round(min(ms), 3),
                "yardstick_median_ms": round(statistics.median(ms), 3),
                "yardstick_max_ms": round(max(ms), 3),
                "yardstick_readings": len(ms)}


def peak_rss_mb(pid: str = "self") -> float:
    """VmHWM (peak resident set) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def quantile(values: List[float], q: float) -> float:
    """The ``q`` quantile by the exclusive method of
    ``statistics.quantiles`` (``q`` a multiple of 1/100)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=100)
    return cuts[round(q * 100) - 1]


def require_engine() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no engine source at {SRC}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_engine() -> None:
    require_engine()
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    import repro.api  # noqa: F401
    import repro.perf  # noqa: F401
