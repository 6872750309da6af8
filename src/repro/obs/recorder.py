"""The flight recorder: structured spans, instants, and metrics.

This is the zero-dependency tracing core the rest of the system hooks
into.  Three producers feed one :class:`Recorder`:

* the **machine** (``runtime/machine.py``) — effect-loop events on the
  *simulated* clock: process lifetimes, lock waits/grants/releases,
  future resolution, race-check verdicts, and an end-of-run rollup;
* the **pipeline** (``transform/pipeline.py``) — per-pass wall-clock
  timing and conflict/lock counters;
* the **harness** (``harness/runner.py``, ``harness/chaos.py``) —
  per-run and per-sweep rollups.

Design constraints, in order:

1. **Pay for what you use.**  Every hook site guards on
   ``recorder is not None``; with no recorder installed the machine's
   effect traces are byte-identical to an uninstrumented run (the same
   guarantee :class:`~repro.runtime.faults.NullFaultPlan` gives for
   fault injection — and locked down by the same kind of test).
2. **Two clock domains, one log.**  Machine events carry simulated-tick
   timestamps; pipeline and harness events carry wall-clock
   microseconds.  The ``pid`` field separates the domains (one Chrome
   "process" per producer), so per-track timestamps stay monotonic.
3. **Structural determinism.**  Under a fixed seed everything except
   wall-clock timestamps and wall-clock histograms is deterministic,
   which is what makes golden-trace testing possible (see
   :mod:`repro.obs.golden`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

#: Chrome-trace "process" ids — one per producer / clock domain.
PID_PIPELINE = 0  # Curare passes (wall clock)
PID_MACHINE = 1  # simulated machine (tick clock)
PID_HARNESS = 2  # harness rollups (wall clock)
PID_SCALE = 3  # sweep driver (wall clock; one track per worker slot)
PID_SERVE = 4  # analysis service (wall clock; one track per pool thread)
PID_FLEET = 5  # shard router (wall clock; one track per connection thread)

PID_NAMES = {
    PID_PIPELINE: "curare pipeline (wall µs)",
    PID_MACHINE: "machine (simulated ticks)",
    PID_HARNESS: "harness (wall µs)",
    PID_SCALE: "sweep driver (wall µs)",
    PID_SERVE: "analysis service (wall µs)",
    PID_FLEET: "shard router (wall µs)",
}

#: Event phases (a subset of the Chrome trace_event phases).
PH_BEGIN = "B"
PH_END = "E"
PH_INSTANT = "i"

VALID_PHASES = (PH_BEGIN, PH_END, PH_INSTANT)


@dataclass(frozen=True)
class ObsEvent:
    """One recorded observation.

    ``seq``  — global append order (the tie-breaker within a timestamp);
    ``ts``   — timestamp in the producer's clock domain (simulated ticks
               for ``pid == PID_MACHINE``, wall µs otherwise);
    ``ph``   — 'B' (span begin), 'E' (span end), or 'i' (instant);
    ``name`` — event name, dot-namespaced (``lock.wait``, ``proc``, ...);
    ``cat``  — producer category: 'machine' | 'pipeline' | 'harness';
    ``pid``  — producer id (see ``PID_*``);
    ``tid``  — track within the producer (machine: the simulated
               process id; others: 0);
    ``args`` — structured payload (JSON-serializable leaves).
    """

    seq: int
    ts: float
    ph: str
    name: str
    cat: str
    pid: int
    tid: int
    args: dict = field(default_factory=dict)


class Counter:
    """A monotonically accumulating integer metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n


class Histogram:
    """A power-of-two bucketed histogram with running aggregates."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = 0
        mag = 1
        while value > mag:
            bucket += 1
            mag *= 2
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Named counters and histograms, created on first touch."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter()
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        return histogram

    def counter_values(self) -> dict[str, int]:
        return {name: c.value for name, c in sorted(self.counters.items())}

    def snapshot(self) -> dict:
        return {
            "counters": self.counter_values(),
            "histograms": {
                name: h.snapshot() for name, h in sorted(self.histograms.items())
            },
        }


class Recorder:
    """An append-only flight recorder: events + metrics.

    One recorder may span several machines, transforms, and harness
    cells (a whole chaos sweep records into a single log); counters
    accumulate across them.
    """

    def __init__(self) -> None:
        self.events: list[ObsEvent] = []
        self.metrics = MetricsRegistry()
        self._seq = 0
        self._t0 = time.perf_counter()

    # -- clocks ------------------------------------------------------------

    def wall(self) -> float:
        """Wall-clock microseconds since the recorder was created."""
        return (time.perf_counter() - self._t0) * 1e6

    # -- events ------------------------------------------------------------

    def event(
        self,
        name: str,
        cat: str,
        ph: str = PH_INSTANT,
        ts: Optional[float] = None,
        pid: int = PID_PIPELINE,
        tid: int = 0,
        args: Optional[dict] = None,
    ) -> ObsEvent:
        if ph not in VALID_PHASES:
            raise ValueError(f"unknown event phase {ph!r}")
        event = ObsEvent(
            seq=self._seq,
            ts=self.wall() if ts is None else float(ts),
            ph=ph,
            name=name,
            cat=cat,
            pid=pid,
            tid=tid,
            args=args if args is not None else {},
        )
        self._seq += 1
        self.events.append(event)
        return event

    def begin(self, name: str, cat: str, ts: Optional[float] = None,
              pid: int = PID_PIPELINE, tid: int = 0,
              args: Optional[dict] = None) -> ObsEvent:
        return self.event(name, cat, PH_BEGIN, ts, pid, tid, args)

    def end(self, name: str, cat: str, ts: Optional[float] = None,
            pid: int = PID_PIPELINE, tid: int = 0,
            args: Optional[dict] = None) -> ObsEvent:
        return self.event(name, cat, PH_END, ts, pid, tid, args)

    @contextmanager
    def span(self, name: str, cat: str, pid: int = PID_PIPELINE,
             tid: int = 0, args: Optional[dict] = None) -> Iterator[None]:
        """A wall-clock span; its duration feeds the ``<name>.us``
        histogram (phase timing)."""
        start = self.wall()
        self.event(name, cat, PH_BEGIN, start, pid, tid, args)
        try:
            yield
        finally:
            stop = self.wall()
            self.event(name, cat, PH_END, stop, pid, tid)
            self.observe(f"{name}.us", stop - start)

    # -- metrics -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.metrics.counter(name).add(n)

    def observe(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def by_track(self) -> dict[tuple[int, int], list[ObsEvent]]:
        out: dict[tuple[int, int], list[ObsEvent]] = {}
        for e in self.events:
            out.setdefault((e.pid, e.tid), []).append(e)
        return out


def check_span_balance(events: list[ObsEvent],
                       allow_open: bool = False) -> list[str]:
    """Verify B/E nesting per (pid, tid) track.

    Returns a list of violation descriptions (empty means well-formed).
    ``allow_open`` tolerates spans still open at the end of the log
    (an aborted machine run leaves its process spans open).
    """
    problems: list[str] = []
    stacks: dict[tuple[int, int], list[str]] = {}
    for e in events:
        track = (e.pid, e.tid)
        stack = stacks.setdefault(track, [])
        if e.ph == PH_BEGIN:
            stack.append(e.name)
        elif e.ph == PH_END:
            if not stack:
                problems.append(f"track {track}: E {e.name!r} without B")
            else:
                top = stack.pop()
                if top != e.name:
                    problems.append(
                        f"track {track}: E {e.name!r} closes B {top!r}"
                    )
    if not allow_open:
        for track, stack in stacks.items():
            if stack:
                problems.append(f"track {track}: unclosed span(s) {stack!r}")
    return problems


def check_monotonic_timestamps(events: list[ObsEvent]) -> list[str]:
    """Per (pid, tid) track, timestamps must never go backwards."""
    problems: list[str] = []
    last: dict[tuple[int, int], float] = {}
    for e in events:
        track = (e.pid, e.tid)
        prev = last.get(track)
        if prev is not None and e.ts < prev:
            problems.append(
                f"track {track}: ts {e.ts} after {prev} (seq {e.seq})"
            )
        last[track] = e.ts
    return problems


def check_lock_wellformedness(events: list[ObsEvent]) -> list[str]:
    """Per (tid, lock key): waits are followed by grants, releases only
    follow grants, and a process never waits twice without an
    intervening grant.

    Accepted per-key sequences are prefixes of ``(wait? grant release)*``
    — a trailing ``wait`` (still blocked) or ``wait? grant`` (still
    holding) is legal, which is exactly the state an aborted run leaves.
    """
    problems: list[str] = []
    # state: 0 = idle, 1 = waiting, 2 = holding
    state: dict[tuple[int, str], int] = {}
    for e in events:
        if e.name not in ("lock.wait", "lock.grant", "lock.release"):
            continue
        if e.name == "lock.wait" and e.ph != PH_BEGIN:
            continue  # the E side of the wait span; the grant covers it
        key = (e.tid, str(e.args.get("key")))
        st = state.get(key, 0)
        if e.name == "lock.wait":
            if st != 0:
                problems.append(f"{key}: wait while in state {st}")
            state[key] = 1
        elif e.name == "lock.grant":
            if st == 2:
                problems.append(f"{key}: grant while already holding")
            state[key] = 2
        else:  # lock.release
            if st != 2:
                problems.append(f"{key}: release while in state {st}")
            state[key] = 0
    return problems
