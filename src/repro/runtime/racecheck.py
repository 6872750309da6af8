"""Online happens-before race detection over machine effects.

The paper's declarations (§6) are *trusted*: a wrong ``(declaim
(unordered-writes ...))`` or aliasing claim dismisses a real conflict,
Curare inserts no lock, and the transformed program silently computes a
different answer.  Nothing in the static pipeline can catch that — the
declaration is exactly the information the analysis lacks.  This module
is the dynamic check: a vector-clock happens-before detector fed by the
machine *as effects commit*, flagging the first pair of conflicting
accesses (same location, at least one write) that no synchronization
orders.

Happens-before edges tracked (all the machine's ordering mechanisms):

* **program order** — each process's own accesses;
* **spawn** — a child inherits its parent's clock at spawn;
* **locks** — release-to-subsequent-acquire of the same key.  Releases
  *join into* the lock's clock rather than overwriting it, which makes
  read-write locks sound: a writer acquiring after N readers inherits
  all N releases;
* **futures** — resolve-to-wait (and resolve-to-read-through);
* **queues** — put-to-get, via a per-queue clock (a sound
  over-approximation: it may add edges a per-item clock would not,
  which can only *hide* races, never invent them);
* **joins** — a ``WaitChildren`` completer inherits every finished
  descendant's final clock.

The detector is epoch-based (FastTrack-style): per location it keeps
the last write epoch and the current read epochs, so each access is
checked in O(readers) worst case and O(1) typically.

Relation to the post-hoc checker: :func:`cross_validate` runs
:func:`~repro.runtime.serializability.check_conflict_order` on the same
trace and reports agreement.  The two are complementary — the post-hoc
checker verifies *sequential* conflict order for head-ordered programs,
while the online detector answers the weaker but universally applicable
question "was this pair ordered by anything at all?".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.lisp.errors import LispError
from repro.runtime.serializability import check_conflict_order


class RaceDetected(LispError):
    """Raised (in ``raise_on_race`` mode) at the first unordered
    conflicting access pair."""

    def __init__(self, race: "Race"):
        super().__init__(str(race))
        self.race = race


@dataclass(frozen=True)
class Race:
    """One flagged pair: the prior access and the current one."""

    loc: tuple
    first_kind: str
    first_proc: int
    second_kind: str
    second_proc: int
    time: int

    def __str__(self) -> str:
        return (
            f"race at loc {self.loc}: {self.first_kind} by proc "
            f"{self.first_proc} unordered with {self.second_kind} by proc "
            f"{self.second_proc} (t={self.time})"
        )


def _join(into: dict[int, int], other: dict[int, int]) -> None:
    for pid, clk in other.items():
        if into.get(pid, 0) < clk:
            into[pid] = clk


@dataclass
class _LocState:
    """Last write epoch + live read epochs for one memory location."""

    write_proc: Optional[int] = None
    write_clk: int = 0
    reads: dict[int, int] = field(default_factory=dict)  # proc -> clk


class RaceDetector:
    """Feed me machine events; I flag unordered conflicting accesses.

    ``raise_on_race=True`` raises :class:`RaceDetected` at the first
    race (the machine run aborts → sequential fallback); otherwise all
    races are collected in :attr:`races`.
    """

    def __init__(self, raise_on_race: bool = False):
        self.raise_on_race = raise_on_race
        self.races: list[Race] = []
        self._vc: dict[int, dict[int, int]] = {}
        self._locks: dict[object, dict[int, int]] = {}
        self._futures: dict[int, dict[int, int]] = {}
        self._queues: dict[int, dict[int, int]] = {}
        self._final: dict[int, dict[int, int]] = {}  # finished proc clocks
        self._locs: dict[tuple, _LocState] = {}
        self.checked_accesses = 0

    # -- clocks ------------------------------------------------------------

    def _clock(self, proc: int) -> dict[int, int]:
        vc = self._vc.get(proc)
        if vc is None:
            vc = {proc: 1}
            self._vc[proc] = vc
        return vc

    def _bump(self, proc: int) -> None:
        vc = self._clock(proc)
        vc[proc] = vc.get(proc, 0) + 1

    # -- happens-before edges ---------------------------------------------

    def on_spawn(self, parent: Optional[int], child: int) -> None:
        child_vc = self._clock(child)
        if parent is not None:
            _join(child_vc, self._clock(parent))
            self._bump(parent)

    def on_acquire(self, proc: int, key: object) -> None:
        held = self._locks.get(key)
        if held:
            _join(self._clock(proc), held)

    def on_release(self, proc: int, key: object) -> None:
        clock = self._locks.setdefault(key, {})
        _join(clock, self._clock(proc))
        self._bump(proc)

    def on_future_resolve(self, proc: int, future_id: int) -> None:
        clock = self._futures.setdefault(future_id, {})
        _join(clock, self._clock(proc))
        self._bump(proc)

    def on_future_wait(self, proc: int, future_id: int) -> None:
        resolved = self._futures.get(future_id)
        if resolved:
            _join(self._clock(proc), resolved)

    def on_queue_put(self, proc: int, queue_id: int) -> None:
        clock = self._queues.setdefault(queue_id, {})
        _join(clock, self._clock(proc))
        self._bump(proc)

    def on_queue_get(self, proc: int, queue_id: int) -> None:
        clock = self._queues.get(queue_id)
        if clock:
            _join(self._clock(proc), clock)

    def on_finish(self, proc: int) -> None:
        self._final[proc] = dict(self._clock(proc))

    def on_join_children(self, proc: int, descendants: list[int]) -> None:
        """A WaitChildren completed: the joiner saw every descendant end."""
        vc = self._clock(proc)
        for pid in descendants:
            done = self._final.get(pid)
            if done:
                _join(vc, done)

    # -- the check ---------------------------------------------------------

    def _happened_before(self, proc_a: int, clk_a: int, proc_b: int) -> bool:
        """Did (proc_a, clk_a) happen before proc_b's current point?"""
        return self._clock(proc_b).get(proc_a, 0) >= clk_a

    def _flag(self, race: Race) -> None:
        self.races.append(race)
        if self.raise_on_race:
            raise RaceDetected(race)

    def on_read(self, proc: int, loc: tuple, time: int) -> None:
        self.checked_accesses += 1
        state = self._locs.setdefault(loc, _LocState())
        if state.write_proc is not None and state.write_proc != proc:
            if not self._happened_before(state.write_proc, state.write_clk, proc):
                self._flag(Race(loc, "write", state.write_proc,
                                "read", proc, time))
        state.reads[proc] = self._clock(proc).get(proc, 1)

    def on_write(self, proc: int, loc: tuple, time: int) -> None:
        self.checked_accesses += 1
        state = self._locs.setdefault(loc, _LocState())
        if state.write_proc is not None and state.write_proc != proc:
            if not self._happened_before(state.write_proc, state.write_clk, proc):
                self._flag(Race(loc, "write", state.write_proc,
                                "write", proc, time))
        for rproc, rclk in state.reads.items():
            if rproc != proc and not self._happened_before(rproc, rclk, proc):
                self._flag(Race(loc, "read", rproc, "write", proc, time))
        state.write_proc = proc
        state.write_clk = self._clock(proc).get(proc, 1)
        state.reads = {}

    # -- reporting ---------------------------------------------------------

    def local_race(self, race: Race) -> Race:
        """``race`` with its location's cell id, a process-global
        counter, replaced by the order in which this detector first saw
        that cell (1, 2, ...): the same text whatever else ran earlier
        in the process."""
        ordinals: dict[Any, int] = {}
        for loc in self._locs:
            ordinals.setdefault(loc[0], len(ordinals) + 1)
        return replace(race, loc=(ordinals[race.loc[0]],) + race.loc[1:])

    @property
    def race_count(self) -> int:
        return len(self.races)

    def summary(self) -> str:
        if not self.races:
            return f"no races in {self.checked_accesses} checked accesses"
        lines = [f"{len(self.races)} race(s) in "
                 f"{self.checked_accesses} checked accesses:"]
        lines.extend(f"  {race}" for race in self.races)
        return "\n".join(lines)


@dataclass
class CrossValidation:
    """Agreement between the online detector and the post-hoc checker."""

    online_races: int
    posthoc_violations: int

    @property
    def agree(self) -> bool:
        """Both silent, or both complaining.

        They answer different questions (unorderedness vs. sequential
        conflict order), so 'agree' means neither missed what the other
        caught — the useful invariant for head-ordered CRI programs.
        """
        return (self.online_races > 0) == (self.posthoc_violations > 0)


def cross_validate(detector: RaceDetector, trace: Any) -> CrossValidation:
    """Compare the online verdict with ``check_conflict_order`` on the
    finished trace (only meaningful for head-ordered executions, where
    sequential conflict order equals invocation order)."""
    posthoc = check_conflict_order(trace)
    return CrossValidation(
        online_races=len(detector.races),
        posthoc_violations=len(posthoc.violations),
    )
