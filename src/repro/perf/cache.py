"""Counting LRU caches and intern tables for the hot analysis paths.

Curare's conflict analysis (§2 of the paper) spends nearly all of its
time manipulating path regular expressions and the automata derived
from them.  The same sub-expressions recur constantly — every accessor
pair in a function shares the same transfer function, every distance
``d`` in a survey re-composes ``tau^d`` — so the standard remedy from
the abstract-interpretation literature applies: hash-cons the immutable
structures and memoize the expensive derivations behind bounded caches.

This module is the substrate for that layer:

* :class:`LRUCache` — a bounded memo table with hit/miss/eviction
  counters, registered by name so the observability layer can export
  cache effectiveness as counters (``perf.cache.<name>.hits`` …).
* :class:`InternTable` — an unbounded identity table used to hash-cons
  regexes and accessors (structurally-equal values become
  pointer-equal).  Interned objects are immortal by design; the tables
  only hold the small alphabet of shapes a program's declarations can
  generate.

Every cache and intern table is always on.  The NFA simulation that
the DFA tier replaced stays reachable for the tests that compare
against it, by passing ``nfa=build_nfa(r)``.

Everything here is deliberately dependency-free: plain dicts with LRU
ordering via ``dict`` move-to-end semantics, no threads, no clocks.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, Optional

__all__ = [
    "LRUCache",
    "InternTable",
    "EventCounter",
    "named_caches",
    "cache_stats",
    "clear_caches",
    "mark_cache_baseline",
    "publish_cache_stats",
]

# Registry of every cache/intern table ever created, by name.  Names are
# hierarchical ("paths.nfa", "paths.conflict", …) and must be unique.
_REGISTRY: "Dict[str, LRUCache | InternTable | EventCounter]" = {}

_MISSING = object()


def _register(entry: "LRUCache | InternTable | EventCounter") -> None:
    existing = _REGISTRY.get(entry.name)
    if existing is not None and existing is not entry:
        raise ValueError(f"duplicate perf cache name: {entry.name!r}")
    _REGISTRY[entry.name] = entry


class LRUCache:
    """A bounded memo table with hit/miss/eviction counters.

    Keys must be hashable; values are arbitrary.  Eviction is
    least-recently-used, implemented with ordered-``dict`` move-to-end.
    """

    __slots__ = ("name", "maxsize", "hits", "misses", "evictions", "_data")

    def __init__(self, name: str, maxsize: int = 65536):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: Dict[Any, Any] = {}
        _register(self)

    def __len__(self) -> int:
        return len(self._data)

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        data = self._data
        value = data.get(key, _MISSING)
        if value is not _MISSING:
            self.hits += 1
            if len(data) >= self.maxsize:
                # Refresh recency only under eviction pressure: below
                # capacity the insertion order is never consulted, so the
                # move-to-end would be pure per-hit overhead.
                del data[key]
                data[key] = value
            return value
        self.misses += 1
        value = compute()
        data[key] = value
        if len(data) > self.maxsize:
            # dicts iterate in insertion order: the first key is LRU.
            data.pop(next(iter(data)))
            self.evictions += 1
        return value

    def clear(self) -> None:
        self._data.clear()

    def stats(self) -> Dict[str, Any]:
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }


class InternTable:
    """An unbounded hash-cons table: one canonical object per key.

    Used by :mod:`repro.paths.regex` and :mod:`repro.paths.accessor` to
    make structurally-equal immutable values pointer-equal, which turns
    the deep structural hashing/equality in every downstream memo key
    into near-pointer operations.  Entries are never evicted — the key
    population is bounded by the program's declaration alphabet, not by
    the analysis workload.
    """

    __slots__ = ("name", "hits", "misses", "_data")

    def __init__(self, name: str):
        self.name = name
        self.hits = 0
        self.misses = 0
        self._data: Dict[Any, Any] = {}
        _register(self)

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Any) -> Optional[Any]:
        value = self._data.get(key)
        if value is not None:
            self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> Any:
        self.misses += 1
        self._data[key] = value
        return value

    def clear(self) -> None:
        self._data.clear()

    def stats(self) -> Dict[str, Any]:
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }


class EventCounter:
    """Named hit/miss counters with no storage behind them.

    Used where the memoized artifact lives on another object (compiled
    closure entries are cached on the :class:`~repro.lisp.values.Closure`
    itself) but the activity should still flow through the
    ``perf.cache.<name>.*`` counter pipeline.  ``hits`` counts reuse of
    an existing artifact, ``misses`` counts fresh builds.
    """

    __slots__ = ("name", "hits", "misses")

    def __init__(self, name: str):
        self.name = name
        self.hits = 0
        self.misses = 0
        _register(self)

    def clear(self) -> None:
        """Nothing stored here; counters are preserved like the others."""

    def stats(self) -> Dict[str, Any]:
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }


def named_caches() -> "Dict[str, LRUCache | InternTable | EventCounter]":
    """The live registry of caches and intern tables, by name."""
    return dict(_REGISTRY)


def cache_stats() -> Dict[str, Dict[str, Any]]:
    """Snapshot of every registered cache's counters."""
    return {name: entry.stats() for name, entry in sorted(_REGISTRY.items())}


def clear_caches() -> None:
    """Empty every registered cache (counters are preserved).

    Intern tables are *not* cleared: live interned objects elsewhere in
    the process must keep resolving to themselves, and clearing the
    table while instances survive would silently break pointer
    equality for new structurally-equal values.
    """
    for entry in _REGISTRY.values():
        if isinstance(entry, LRUCache):
            entry.clear()


# Per-recorder snapshot of the last published (hits, misses, evictions)
# so repeated publishes emit deltas, keeping recorder counters additive.
_published: "weakref.WeakKeyDictionary[Any, Dict[str, tuple]]" = (
    weakref.WeakKeyDictionary()
)


def mark_cache_baseline(recorder: Any) -> None:
    """Snapshot the current counter totals for ``recorder`` without
    emitting anything.

    Called when a recorder is *attached* (e.g. by ``Curare``): later
    publishes then export only the activity accrued while attached,
    not whatever the process did beforehand.
    """
    if recorder is None:
        return
    last = _published.setdefault(recorder, {})
    for name, entry in _REGISTRY.items():
        stats = entry.stats()
        last[name] = tuple(stats.get(f, 0) for f in ("hits", "misses",
                                                     "evictions"))


def publish_cache_stats(recorder: Any) -> None:
    """Export cache hit/miss counters through an obs ``Recorder``.

    Emits ``perf.cache.<name>.hits`` / ``.misses`` (and ``.evictions``
    for LRU caches) as counter increments.  Safe to call repeatedly —
    only the delta since the previous publish to *this* recorder is
    emitted, so the recorder's counters track the true totals accrued
    while it was attached.
    """
    if recorder is None:
        return
    last = _published.setdefault(recorder, {})
    for name, entry in sorted(_REGISTRY.items()):
        stats = entry.stats()
        fields = ("hits", "misses", "evictions")
        current = tuple(stats.get(f, 0) for f in fields)
        previous = last.get(name, (0, 0, 0))
        for field, now, before in zip(fields, current, previous):
            delta = now - before
            if delta:
                recorder.count(f"perf.cache.{name}.{field}", delta)
        last[name] = current
