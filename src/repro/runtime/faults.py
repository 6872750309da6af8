"""Deterministic fault injection for the simulated multiprocessor.

The paper's correctness guarantee rests on user declarations it treats
as *trusted but unverified*; this module is the "attack" half of the
trust-but-verify runtime.  A :class:`FaultPlan` perturbs the machine's
*timing* — never its synchronization semantics — so a correctly
transformed program must still produce the sequential result under any
plan, while a wrongly declared one is driven toward the schedules that
expose it.

Five fault kinds, all semantics-preserving:

* **stall** — a processor freezes for a few ticks (charged as overhead,
  like a long context switch);
* **grant-delay** — a lock grant reaches its (FIFO-chosen) grantee late:
  FIFO order is untouched, only the wake is slower;
* **spurious-wake** — a lock waiter is moved to the ready queue, gets
  scheduled, observes nothing (its wait-list position is untouched), and
  re-blocks — the classic condition-variable hazard;
* **preempt** — a running process is forcibly requeued mid-work (a
  context-switch storm when the rate is high);
* **shuffle** — the ready queue is adversarially permuted, composing
  with (and overriding) the machine's ``fifo``/``random`` pick.

Determinism: every plan owns a private ``random.Random(seed)``; the
machine's scheduling RNG is never consumed by fault decisions, so a
``(policy seed, fault seed)`` pair replays bit-for-bit.  Each kind has a
finite *budget* so a plan's perturbation is bounded and a chaos run
always terminates (spurious wakes on a deadlocked machine would
otherwise keep it spinning past deadlock detection forever).

:class:`NullFaultPlan` is the explicit no-op; a machine built with it
(or with ``faults=None``) must produce exactly the trace and timing of
an unfaulted machine — a property the test suite locks in.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.runtime.machine import Machine, Process


#: Sentinel pending-reply marking a spurious wakeup: the machine resumes
#: the process, sees this, and re-blocks it without touching its
#: generator (its lock wait-list position was never given up).
SPURIOUS_WAKE = object()


class FaultPlan:
    """Base plan: every hook is a no-op.  Subclass and override.

    The machine calls the hooks only when a plan is installed, and the
    null implementations inject nothing, so "plan installed but idle"
    and "no plan" are observationally identical.
    """

    name = "null"

    def __init__(self) -> None:
        self.injected: dict[str, int] = {}

    # -- hooks the machine calls ------------------------------------------

    def on_tick(self, machine: "Machine") -> None:
        """Called on a clock tick, after the clock moves and before
        processors advance: on every tick that :meth:`quiet_ticks` did
        not report quiet."""

    def quiet_ticks(self, machine: "Machine", limit: int) -> int:
        """The look-ahead: how many of the next ``limit`` ticks
        ``on_tick`` would inject nothing on.

        It makes now exactly the draws ``on_tick`` would make on those
        ticks, reading machine state that holds still until the next
        scheduler event (the ready queue, the busy processors, the lock
        waiters).  A result ``n < limit`` means a draw of tick ``n + 1``
        fired: the machine calls ``on_tick`` on that tick before
        anything else touches the plan, and ``on_tick`` finishes the
        tick without drawing again; until then this reports 0.  The
        base plan reports 0, so a plan overriding only ``on_tick`` is
        still called on every tick.
        """
        return 0

    def grant_delay(self, machine: "Machine", proc_id: int, key: object) -> int:
        """Extra ticks between a FIFO lock grant and the grantee waking."""
        return 0

    # -- bookkeeping -------------------------------------------------------

    def count(self, kind: str, n: int = 1) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + n

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def describe(self) -> str:
        if not self.injected:
            return f"{self.name}: no faults injected"
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.injected.items()))
        return f"{self.name}: {parts}"


class NullFaultPlan(FaultPlan):
    """Injects nothing — the no-overhead-when-off baseline."""

    def quiet_ticks(self, machine: "Machine", limit: int) -> int:
        return limit


@dataclass
class FaultRates:
    """Per-tick probabilities and magnitudes for each fault kind.

    A rate of 0 disables the kind; ``budget`` caps the total number of
    injections across all kinds so perturbation is finite.
    """

    stall_rate: float = 0.0
    stall_ticks: int = 5
    grant_delay_rate: float = 0.0
    grant_delay_ticks: int = 4
    spurious_rate: float = 0.0
    preempt_rate: float = 0.0
    shuffle_rate: float = 0.0
    budget: int = 200


#: The draws ``SeededFaultPlan.on_tick`` makes on a tick, in order.
_STALL, _PREEMPT, _SPURIOUS, _SHUFFLE = range(4)


class SeededFaultPlan(FaultPlan):
    """A deterministic adversary: seeded decisions at every hook."""

    def __init__(self, seed: int, rates: FaultRates, name: str = "seeded"):
        super().__init__()
        self.name = name
        self.seed = seed
        self.rates = rates
        self.rng = _random.Random(seed)
        #: Set by the look-ahead: the draw of the next tick that it
        #: already made and saw fire.
        self._fired: Optional[int] = None
        #: The look-ahead's draws with a nonzero rate, in ``on_tick``
        #: order; shuffle joins them while two processes are ready.
        self._draws = [(draw, rate) for draw, rate in enumerate(
            (rates.stall_rate, rates.preempt_rate, rates.spurious_rate))
            if rate]

    def _spent(self) -> bool:
        return self.total_injected >= self.rates.budget

    def _fires(self, draw: int, fired: Optional[int], rate: float) -> bool:
        """Whether this tick's ``draw`` fires.  The look-ahead already
        made the draws up to ``fired``, and only ``fired`` fired."""
        if fired is not None and draw <= fired:
            return draw == fired
        return bool(rate) and self.rng.random() < rate

    def on_tick(self, machine: "Machine") -> None:
        fired, self._fired = self._fired, None
        if self._spent():
            return
        rates = self.rates
        rng = self.rng
        if self._fires(_STALL, fired, rates.stall_rate):
            cpu = rng.choice(machine.cpus)
            cpu.overhead += rates.stall_ticks
            self.count("stall")
        if self._fires(_PREEMPT, fired, rates.preempt_rate):
            busy = [c for c in machine.cpus
                    if c.proc is not None and c.proc.busy_remaining > 0]
            if busy:
                cpu = rng.choice(busy)
                proc = cpu.proc
                proc.state = "ready"
                machine.ready.append(proc)
                cpu.proc = None
                self.count("preempt")
        if self._fires(_SPURIOUS, fired, rates.spurious_rate):
            waiters = [
                p for p in machine.processes.values()
                if p.state == "blocked"
                and isinstance(p.block_reason, tuple)
                and p.block_reason[0] == "lock"
            ]
            if waiters:
                proc = rng.choice(waiters)
                # The lock table still lists it; only the machine-side
                # state flips.  It will be scheduled, observe the
                # sentinel, and re-block without resuming its generator.
                proc.state = "ready"
                proc.pending_reply = SPURIOUS_WAKE
                machine.ready.append(proc)
                self.count("spurious-wake")
        if len(machine.ready) > 1 \
                and self._fires(_SHUFFLE, fired, rates.shuffle_rate):
            rng.shuffle(machine.ready)
            self.count("shuffle")

    def quiet_ticks(self, machine: "Machine", limit: int) -> int:
        if self._fired is not None:
            return 0
        draws = self._draws
        if self.rates.shuffle_rate and len(machine.ready) > 1:
            draws = draws + [(_SHUFFLE, self.rates.shuffle_rate)]
        if not draws or self._spent():
            return limit
        random = self.rng.random
        for quiet in range(limit):
            for draw, rate in draws:
                if random() < rate:
                    self._fired = draw
                    return quiet
        return limit

    def grant_delay(self, machine: "Machine", proc_id: int, key: object) -> int:
        rates = self.rates
        if rates.grant_delay_rate and not self._spent() \
                and self.rng.random() < rates.grant_delay_rate:
            self.count("grant-delay")
            return self.rates.grant_delay_ticks
        return 0


def fault_matrix(seed: int = 0, budget: int = 200) -> list[FaultPlan]:
    """The standard chaos sweep: five adversaries plus the null baseline.

    Every plan derives its private RNG from ``seed`` and its position,
    so ``fault_matrix(s)`` is reproducible from ``s`` alone.
    """
    specs = [
        ("stall-storm", FaultRates(stall_rate=0.10, stall_ticks=7, budget=budget)),
        ("grant-delay", FaultRates(grant_delay_rate=0.5, grant_delay_ticks=6,
                                   budget=budget)),
        ("spurious-wake", FaultRates(spurious_rate=0.15, budget=budget)),
        ("preempt-storm", FaultRates(preempt_rate=0.12, budget=budget)),
        ("shuffle", FaultRates(shuffle_rate=0.6, budget=budget)),
        ("mixed", FaultRates(stall_rate=0.04, stall_ticks=5,
                             grant_delay_rate=0.2, grant_delay_ticks=4,
                             spurious_rate=0.05, preempt_rate=0.05,
                             shuffle_rate=0.10, budget=budget)),
    ]
    return [
        SeededFaultPlan(seed * 1000 + i, rates, name=name)
        for i, (name, rates) in enumerate(specs)
    ]
