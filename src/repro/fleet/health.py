"""Active health probing with exponential backoff.

The router does not wait for live traffic to discover that a backend
died or recovered: a prober thread sends out-of-band ``health``
round-trips on its own schedule.  Probe results feed the same
per-backend :class:`~repro.fleet.breaker.CircuitBreaker` live traffic
feeds, which yields two properties worth spelling out:

* **Recovery needs no client traffic.**  A breaker in *half-open*
  admits a bounded probe budget; the prober's probe consumes one of
  those slots (it calls ``allow()`` like any other caller).  A
  recovered backend is detected, its breaker closed, and the ring
  entry warmed before the next client request arrives.
* **Silent death is detected early.**  Probe failures against a
  *closed* breaker count toward the failure threshold exactly like
  request failures, so a backend that black-holes traffic trips its
  breaker within ``failure_threshold`` probes even if no client
  touches it.

While a backend stays down, the probe interval doubles per consecutive
failure (``interval_s`` up to ``max_interval_s``) — a dead backend
costs one connect timeout per backoff period, not per second,
mirroring the breaker's own exponential cooldown.  The first success
snaps the interval back to the base.

The scheduling core (:meth:`HealthProber.step`) is a pure function of
an injected clock, so tests drive it tick-by-tick with fake probes —
the thread wrapper just loops ``step`` against real time.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.fleet.breaker import CircuitBreaker
from repro.fleet.client import BackendClient


class _ProbeState:
    __slots__ = ("healthy", "interval", "next_due")

    def __init__(self, interval: float):
        self.healthy: Optional[bool] = None  # unknown until first probe
        self.interval = interval
        self.next_due = 0.0  # probe immediately on start


class HealthProber:
    """Background health probes for a set of backends."""

    def __init__(self,
                 clients: Dict[str, BackendClient],
                 breakers: Dict[str, CircuitBreaker],
                 interval_s: float = 0.5,
                 max_interval_s: float = 10.0,
                 probe_timeout_s: float = 1.0,
                 on_change: Optional[Callable[[str, bool], Any]] = None,
                 clock: Callable[[], float] = time.monotonic,
                 probe: Optional[Callable[[str], bool]] = None):
        if interval_s <= 0 or max_interval_s < interval_s:
            raise ValueError("need 0 < interval_s <= max_interval_s")
        self.interval_s = interval_s
        self.max_interval_s = max_interval_s
        self.probe_timeout_s = probe_timeout_s
        self._clients = clients
        self._breakers = breakers
        self._on_change = on_change
        self._clock = clock
        self._probe = probe if probe is not None else self._probe_tcp
        self._lock = threading.Lock()
        self._states: Dict[str, _ProbeState] = {
            name: _ProbeState(interval_s) for name in clients
        }
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _probe_tcp(self, name: str) -> bool:
        return self._clients[name].probe(timeout_s=self.probe_timeout_s)

    # -- membership --------------------------------------------------------

    def forget(self, name: str) -> None:
        """Stop probing a backend (it was drained out of the ring)."""
        with self._lock:
            self._states.pop(name, None)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            return {
                name: {"healthy": state.healthy,
                       "probe_interval_s": round(state.interval, 3)}
                for name, state in sorted(self._states.items())
            }

    # -- the scheduling core (thread-free, fake-clock testable) ------------

    def step(self, now: Optional[float] = None) -> List[str]:
        """Probe every backend whose probe is due; returns the names
        probed.  Thread-safe; never raises on probe failure."""
        if now is None:
            now = self._clock()
        with self._lock:
            due = [name for name, state in self._states.items()
                   if now >= state.next_due]
        probed = []
        for name in due:
            breaker = self._breakers.get(name)
            if breaker is not None and not breaker.allow():
                # Open breaker (or exhausted half-open budget): probing
                # would be refused admission anyway.  Check back after
                # the current backoff interval; the breaker's own
                # cooldown decides when half-open re-admits us.
                with self._lock:
                    state = self._states.get(name)
                    if state is not None:
                        state.next_due = now + state.interval
                continue
            ok = False
            try:
                ok = bool(self._probe(name))
            except Exception:  # noqa: BLE001 - a probe must never
                ok = False  # take the prober down
            probed.append(name)
            if breaker is not None:
                if ok:
                    breaker.record_success()
                else:
                    breaker.record_failure()
            changed = False
            with self._lock:
                state = self._states.get(name)
                if state is None:  # forgotten mid-probe
                    continue
                changed = state.healthy is not ok and state.healthy is not None
                first = state.healthy is None
                state.healthy = ok
                if ok:
                    state.interval = self.interval_s
                else:
                    state.interval = min(state.interval * 2,
                                         self.max_interval_s)
                state.next_due = now + state.interval
            if (changed or first) and self._on_change is not None:
                self._on_change(name, ok)
        return probed

    # -- the thread wrapper ------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-fleet-prober")
        self._thread.start()

    def _run(self) -> None:
        tick = min(0.1, self.interval_s / 2)
        while not self._stop.is_set():
            self.step()
            self._stop.wait(tick)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
