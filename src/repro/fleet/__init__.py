"""Fault-tolerant serve fleet: the shard router tier.

A thin hosting shell over :mod:`repro.api` — no engine imports
(enforced by the import-boundary test).  :mod:`repro.fleet.router` is
``repro route``: a shard router that consistent-hashes requests across
N ``repro serve`` backends (:mod:`repro.fleet.ring`), probes their
health (:mod:`repro.fleet.health`), retries transport failures with
jittered backoff (:mod:`repro.fleet.retry`), trips per-backend circuit
breakers (:mod:`repro.fleet.breaker`), drains backends out of the ring
gracefully, and — when every backend is down — degrades to sequential
in-process fallback rather than failing the client.  A backend's own
worker processes (``--executor process``) are the farm in
:mod:`repro.serve.pool`.

The contract throughout: a fleet answer is byte-identical (modulo
``wall``) to the one-shot CLI for the same inputs, whatever the
topology and whatever faults were injected along the way.
"""

from repro.fleet.breaker import CircuitBreaker
from repro.fleet.retry import RetryPolicy
from repro.fleet.ring import HashRing
from repro.fleet.router import RouterConfig, ShardRouter

__all__ = [
    "CircuitBreaker",
    "HashRing",
    "RetryPolicy",
    "RouterConfig",
    "ShardRouter",
]
