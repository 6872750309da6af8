"""Chaos-mode request faults for the hosting layers.

The PR-1 fault layer perturbs the *simulated machine's* timing to
attack the sequential-equivalence guarantee; this module applies the
same trust-but-verify discipline to the *hosting* layer.  One seeded
:class:`HostFaultPlan` reads an ordered table of fault kinds, each with
a rate and an optional magnitude range, and is built two ways:

* :func:`RequestFaultPlan` pressures one server's admission path:

  * **reject** — the request is refused with the same structured
    ``overloaded`` error organic backpressure produces (tagged
    ``"fault": "inject-reject"`` so tests can tell them apart);
  * **delay** — the worker sleeps before computing, driving slow-path
    machinery: deadline expiry, coalesced waiters timing out at
    different moments, drain with stragglers in flight.

* :func:`FleetFaultPlan` pressures the router → backend transport, the
  machinery the fleet exists to survive:

  * **blackhole** — the router treats the chosen backend as
    unreachable for this send (a synthetic connect failure, consumed
    without touching the network), driving the retry/failover path
    and, repeated, the circuit breaker;
  * **slow** — the send is delayed (slow-loris-shaped latency),
    driving per-request timeouts and p99 inflation.

Faults never corrupt a response body: a chaos-mode server or router
still returns either a correct result (byte-identical modulo ``wall``
to the one-shot CLI) or a structured error — the serving analogue of
"no silent wrong answers".

Determinism: the plan owns a private ``random.Random(seed)`` consumed
once per decision in arrival order (plus one magnitude draw when a
ranged kind fires), under a lock so concurrent connections draw from
one stream, and one budget caps all kinds together, so a chaos smoke
run is bounded and (for a fixed arrival order) replayable.
"""

from __future__ import annotations

import random
import threading
from typing import Optional, Sequence, Tuple

FAULT_REJECT = "inject-reject"
FAULT_DELAY = "inject-delay"

#: Fleet-level (router → backend) fault kinds.
FAULT_BLACKHOLE = "inject-blackhole"
FAULT_SLOW = "inject-slow"

#: One table row: kind, rate, and the (lo, hi) milliseconds a firing
#: draws uniformly from — or None for a kind without a magnitude.
FaultRow = Tuple[str, float, Optional[Tuple[float, float]]]


class HostFaultPlan:
    """Seeded, budgeted fault injection from an ordered table.

    Each decision rolls once; the rows' rates partition [0, 1) in
    table order, and the row the roll lands in fires."""

    def __init__(self, name: str, seed: int, table: Sequence[FaultRow],
                 budget: int = 64):
        self.name = name
        self.seed = seed
        self.table = tuple(table)
        self.budget = budget
        self.injected: dict[str, int] = {kind: 0 for kind, _, _ in table}
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def on_request(self) -> Optional[Tuple[str, float]]:
        """Decide the fault for one arriving request (or one router
        send): ``None``, or ``(kind, milliseconds)`` — 0 for a kind
        without a magnitude."""
        with self._lock:
            if self.total_injected >= self.budget:
                return None
            roll = self._rng.random()
            bound = 0.0
            for kind, rate, span in self.table:
                bound += rate
                if roll < bound:
                    value = self._rng.uniform(*span) if span else 0.0
                    self.injected[kind] += 1
                    return kind, value
            return None

    def describe(self) -> str:
        rows = " ".join(
            f"{kind[len('inject-'):]}@{rate:.0%}"
            + (f" {span[0]:.0f}-{span[1]:.0f}ms" if span else "")
            for kind, rate, span in self.table)
        counts = ", ".join(f"{n} {kind[len('inject-'):]}"
                           for kind, n in self.injected.items())
        return (f"{self.name}(seed={self.seed}): {rows}, "
                f"budget {self.budget}, injected {self.total_injected} "
                f"({counts})")


def RequestFaultPlan(
    seed: int,
    reject_rate: float = 0.15,
    delay_rate: float = 0.25,
    delay_ms: Tuple[float, float] = (5.0, 120.0),
    budget: int = 64,
) -> HostFaultPlan:
    """The server's admission faults: reject, then delay.  (Named like
    a class: callers build a plan with it.)"""
    return HostFaultPlan("serve-mixed", seed, (
        (FAULT_REJECT, reject_rate, None),
        (FAULT_DELAY, delay_rate, delay_ms),
    ), budget)


def FleetFaultPlan(
    seed: int,
    blackhole_rate: float = 0.10,
    slow_rate: float = 0.10,
    slow_ms: Tuple[float, float] = (20.0, 250.0),
    budget: int = 64,
) -> HostFaultPlan:
    """The router's transport faults: blackhole, then slow."""
    return HostFaultPlan("fleet-mixed", seed, (
        (FAULT_BLACKHOLE, blackhole_rate, None),
        (FAULT_SLOW, slow_rate, slow_ms),
    ), budget)
