"""The content-addressed result store: memory, then disk, then a server.

Reusing an analysis/transform/simulation result is only sound when the
cached output is *exactly* what a fresh computation would produce — the
output-equivalence discipline of Blanchard & Loulergue (2017), pinned
here with byte identity.  Two mechanisms enforce it:

1. **The key covers every input.**  ``cache_key`` hashes (SHA-256) the
   canonical JSON of the job's full key material: the generated Lisp
   program source (declaim forms included), the pipeline configuration
   (``assume_sapp``, transform mode, …), the cost-model charges, the
   family + parameters, and a *per-stage code fingerprint*
   (:mod:`repro.scale.fingerprint`) — a digest of the import closure of
   exactly the code that computes the job's stage, so editing a
   transform invalidates transform-stage entries while parse /
   analysis / distance entries stay warm.  The invalidation is never
   finer than a stage closure: a stale hit is a wrong experiment.
   (:func:`code_version`, the original whole-package digest, remains as
   provenance recorded in every entry and as the coarse fallback.)
2. **Entries carry their own integrity hash.**  An entry stores the
   payload together with ``payload_sha256`` (hash of the payload's
   canonical JSON).  Every entry read from disk or from the server is
   checked (:func:`check_entry`) before it is trusted: a bad disk entry
   is deleted and reads *invalid*, a bad server entry reads as a miss,
   and the caller recomputes.  Corruption can degrade performance,
   never correctness.

:class:`ResultCache` is the one store.  Its tiers are optional — a
bounded in-memory LRU of payloads (``memory_size``), a directory of
entry files (``root``), and a shared ``repro cache-serve`` reached over
kept connections (``server``, :mod:`repro.scale.cacheclient`).  A
lookup walks the tiers it has, fastest first, and reports which one
answered; a hit from a slower tier is written through to the faster
ones, and a store writes every tier.  A failing tier is a miss, never
an exception: a server that fails to answer is marked down for
``retry_after_s`` and the store carries on with the tiers it has left.

Disk writes are atomic (``os.replace`` of a per-writer temp file), so
workers sharing one cache directory race benignly: last writer wins
with identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable, Optional, Tuple

#: Cache on-disk format version; bump to orphan all existing entries.
CACHE_FORMAT = 1

#: Lookup outcomes (the ``scale.cache.*`` counter vocabulary).
HIT = "hit"
MISS = "miss"
INVALID = "invalid"
OFF = "off"

#: The tiers, in the order a lookup walks them.
MEMORY = "memory"
DISK = "disk"
SERVER = "server"
TIERS = (MEMORY, DISK, SERVER)

_TALLY = {HIT: "hits", MISS: "misses", INVALID: "invalid"}


def canonical_json(obj: Any) -> str:
    """The one serialization both hashing and byte-identity use."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """SHA-256 over every ``repro`` source file, computed once.

    Any edit anywhere in the package — analyses, transforms, the
    machine, the cost model defaults — changes this digest and thereby
    every cache key.  Coarse, but the only invalidation rule that can
    never be wrong.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


def cache_key(material: dict) -> str:
    """SHA-256 of the canonical JSON of a job's full key material."""
    return sha256_text(canonical_json(material))


def make_entry(key: str, payload: dict) -> dict:
    """The on-disk/on-wire entry envelope for one cached payload."""
    return {
        "format": CACHE_FORMAT,
        "key": key,
        "code_version": code_version(),
        "payload": payload,
        "payload_sha256": sha256_text(canonical_json(payload)),
    }


def check_entry(entry: Any, key: str) -> bool:
    """True iff ``entry`` is a well-formed, integrity-clean entry for
    ``key``.  Shared by the disk tier, the cache server (both
    directions of the wire) and the server tier — an entry that fails
    here is treated as corrupt everywhere, never served."""
    try:
        payload = entry["payload"]
        return bool(
            entry.get("format") == CACHE_FORMAT
            and entry.get("key") == key
            and entry.get("payload_sha256")
            == sha256_text(canonical_json(payload))
        )
    except (ValueError, TypeError, KeyError):
        return False


class ResultCache:
    """One tiered, content-addressed, integrity-checked result store.

    Tiers (each optional): ``memory_size`` > 0 keeps that many payloads
    in an LRU, ``root`` is a directory laid out as
    ``<root>/<key[:2]>/<key>.json`` (fan-out keeps listings short on
    big sweeps), and ``server`` is the ``host:port`` of a
    ``repro cache-serve``.  Safe to share between threads.

    ``hits`` / ``misses`` / ``invalid`` count lookups that reached a
    persistent tier (a memory answer is its caller's to count),
    ``stores`` counts stores, and the ``remote_*`` counters the
    server tier's own traffic.
    """

    def __init__(self, root: "str | Path | None" = None, *,
                 server: Optional[str] = None, memory_size: int = 0,
                 connect_timeout_s: float = 1.0, call_timeout_s: float = 5.0,
                 retry_after_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic):
        self.root = Path(root) if root is not None else None
        self.memory_size = memory_size
        self._memory: "OrderedDict[str, dict]" = OrderedDict()
        self._link = None
        if server:
            from repro.scale.cacheclient import _ServerLink

            self._link = _ServerLink(server, connect_timeout_s,
                                     call_timeout_s)
        self._retry_after_s = retry_after_s
        self._clock = clock
        self._down_until = 0.0
        self._lock = threading.Lock()  # the memory tier and the counters
        self.hits = self.misses = self.invalid = self.stores = 0
        self.remote_hits = self.remote_stores = 0
        self.remote_invalid = self.remote_errors = 0

    def server_up(self) -> bool:
        """False for ``retry_after_s`` after a failed server call."""
        return self._clock() >= self._down_until

    def __len__(self) -> int:
        """Payloads held in the memory tier."""
        with self._lock:
            return len(self._memory)

    def path_for(self, key: str) -> Path:
        assert self.root is not None, "no disk tier"
        return self.root / key[:2] / f"{key}.json"

    # -- lookup and store ---------------------------------------------------

    def lookup(self, key: str, tiers: Tuple[str, ...] = TIERS
               ) -> Tuple[str, Optional[dict], Optional[str]]:
        """Walk the tiers of ``tiers`` that this store has, fastest
        first.  Returns ``(status, payload, tier)``: ``(HIT, payload,
        the tier that answered)``, or ``(MISS or INVALID, None, None)``
        — INVALID when a bad disk entry was found (and deleted) and no
        slower tier answered.  A hit from a slower tier is written
        through to the faster ones."""
        if MEMORY in tiers and self.memory_size > 0:
            with self._lock:
                payload = self._memory.get(key)
                if payload is not None:
                    self._memory.move_to_end(key)
                    return HIT, payload, MEMORY
        # ``tier`` is the last persistent tier asked: the one that
        # answered when ``entry`` is set, None when none was asked.
        status, entry, tier = MISS, None, None
        if DISK in tiers and self.root is not None:
            status, entry = self._read(key)
            tier = DISK
        if entry is None and SERVER in tiers and self._link is not None:
            entry = self._remote_get(key)
            tier = SERVER
        if tier is None:
            return MISS, None, None
        self._count(_TALLY[HIT if entry is not None else status])
        if entry is None:
            return status, None, None
        self._remember(key, entry["payload"])
        if tier == SERVER and self.root is not None:
            with suppress(OSError):  # a failing disk tier is skipped
                self._write(key, entry)
        return HIT, entry["payload"], tier

    def get(self, key: str) -> Tuple[str, Optional[dict]]:
        """``(status, payload)`` of a lookup through every tier."""
        status, payload, _ = self.lookup(key)
        return status, payload

    def put(self, key: str, payload: dict) -> None:
        """Store ``payload`` under ``key`` in every tier."""
        self._remember(key, payload)
        if self.root is not None or self._link is not None:
            entry = make_entry(key, payload)
            if self.root is not None:
                with suppress(OSError):  # a failing disk tier is skipped
                    self._write(key, entry)
            if self._link is not None:
                self._remote_put(key, entry)
        self._count("stores")

    def get_or_compute(self, key: str, compute: Callable[[], dict]
                       ) -> Tuple[dict, str, Optional[str]]:
        """The stored payload for ``key``, or ``compute()``'s, stored.

        Returns ``(payload, status, tier)`` with the lookup's status
        and answering tier (None when computed).  A compute that
        raises stores nothing: only successes are ever stored."""
        status, payload, tier = self.lookup(key)
        if tier is None:
            payload = compute()
            self.put(key, payload)
        return payload, status, tier

    # -- the cache server's whole-entry access to the disk tier -------------

    def get_entry(self, key: str) -> Optional[dict]:
        """Whole-entry read for the cache server: the wire carries the
        full envelope so clients can re-verify ``payload_sha256``
        end-to-end.  Invalid entries are deleted and read as misses."""
        status, entry = self._read(key)
        self._count(_TALLY[status])
        return entry

    def put_entry(self, key: str, entry: Any) -> bool:
        """Whole-entry write for the cache server.  The entry is
        verified *before* it touches disk — a corrupt or mis-keyed put
        is refused (False), so one bad client cannot poison the shared
        store."""
        if not check_entry(entry, key):
            self._count("invalid")
            return False
        self._write(key, entry)
        self._count("stores")
        return True

    # -- tiers ---------------------------------------------------------------

    def _remember(self, key: str, payload: dict) -> None:
        if self.memory_size <= 0:
            return
        with self._lock:
            self._memory[key] = payload
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_size:
                self._memory.popitem(last=False)

    def _read(self, key: str) -> Tuple[str, Optional[dict]]:
        """Read → verify → discard: ``(HIT, entry)``, ``(MISS, None)``,
        or ``(INVALID, None)`` for every way an entry can be wrong —
        unreadable file, malformed JSON, wrong envelope, format-version
        or key mismatch, payload-hash mismatch — after deleting it so
        the slot is clean for the recompute's store."""
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return MISS, None
        except (OSError, ValueError):
            entry = None
        if check_entry(entry, key):
            return HIT, entry
        _discard(path)
        return INVALID, None

    def _write(self, key: str, entry: dict) -> None:
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_text(canonical_json(entry) + "\n", encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            _discard(tmp)
            raise

    def _remote_get(self, key: str) -> Optional[dict]:
        response = self._remote_call("cache-get", {"key": key})
        # A typed refusal (draining, bad request) is a server that
        # answered; it is not marked down, the lookup just misses.
        if response is None or not response.get("ok"):
            return None
        result = response.get("result") or {}
        if not result.get("found"):
            return None
        entry = result.get("entry")
        if not check_entry(entry, key):
            # Poisoned or corrupted in transit: never trust it.
            self._count("remote_invalid")
            return None
        self._count("remote_hits")
        return entry

    def _remote_put(self, key: str, entry: dict) -> None:
        response = self._remote_call("cache-put",
                                     {"key": key, "entry": entry})
        if response is not None and response.get("ok") and (
                response.get("result") or {}).get("stored"):
            self._count("remote_stores")

    def _remote_call(self, op: str, params: dict) -> Optional[dict]:
        """One server call; None while the server is marked down, and
        a transport failure marks it down."""
        from repro.scale.cacheclient import CacheTransportError

        if not self.server_up():
            return None
        try:
            return self._link.call(op, params)
        except CacheTransportError:
            self._mark_down()
            return None

    def _mark_down(self) -> None:
        self._count("remote_errors")
        self._down_until = self._clock() + self._retry_after_s

    def _count(self, name: str) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)

    def stats(self) -> dict:
        with self._lock:
            body = {"hits": self.hits, "misses": self.misses,
                    "invalid": self.invalid, "stores": self.stores}
            if self._link is not None:
                body.update(remote_hits=self.remote_hits,
                            remote_stores=self.remote_stores,
                            remote_invalid=self.remote_invalid,
                            remote_errors=self.remote_errors)
        return body

    def close(self) -> None:
        """Close the server tier's kept connections."""
        if self._link is not None:
            self._link.close()


def _discard(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass  # already gone, or unremovable — recompute regardless
