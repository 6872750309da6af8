"""``repro cache-serve`` — the fleet-shared result-cache service.

A small NDJSON/TCP server (same :class:`NdjsonServer` front, wire
format and lifecycle as ``repro serve``) over the disk tier of one
result store.  Sweep workers, serve shards and the router reach it as
the server tier of their own stores (:mod:`repro.scale.cache`), so one
machine's computation warms the whole fleet.

The server is deliberately dumb about *semantics*: keys are opaque
64-hex digests minted by the clients (stage fingerprint + key
material), and entries travel whole so their ``payload_sha256``
integrity hash is verified **on both directions of the wire** — a
``cache-put`` whose entry is corrupt or mis-keyed is refused with
``bad_request`` (one sick client cannot poison the shared store), and
clients re-verify every ``cache-get`` before trusting it (a poisoned
*server* degrades to a miss, never a wrong answer).

Ops: ``cache-get {key}`` → ``{found, entry}``; ``cache-put {key,
entry}`` → ``{stored}``; plus the ``health`` / ``stats`` / ``drain``
controls the shell answers.  Once a drain is requested, gets and puts
alike answer ``shutting_down``, which the store's client reads as a
miss.  Engine ops get a typed ``bad_request`` — this is a cache, point
``analyze`` at ``repro serve``.

Per the serve/fleet import-boundary rule, the store is opened through
the :func:`repro.api.open_result_store` facade; this module never
imports the engine.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro import api
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    Request,
    error_response,
    ok_response,
)
from repro.serve.server import NdjsonServer

_KEY_LEN = 64
_HEX = set("0123456789abcdef")


@dataclass(frozen=True)
class CacheServeConfig:
    """Knobs for one ``repro cache-serve`` process."""

    host: str = "127.0.0.1"
    port: int = 0
    root: str = ".repro-cache"
    drain_timeout: float = 30.0
    recorder: Optional[Any] = None


def _valid_key(key: Any) -> bool:
    return (isinstance(key, str) and len(key) == _KEY_LEN
            and set(key) <= _HEX)


class CacheServer(NdjsonServer):
    """The NDJSON front over one shared entry store."""

    def __init__(self, config: CacheServeConfig = CacheServeConfig()):
        super().__init__(config, "cache.server")
        self._store = api.open_result_store(config.root)
        # One disk operation at a time: a get that discards a bad entry
        # must not race a put of a good one into the same slot.
        self._store_lock = threading.Lock()

    # -- request handling ---------------------------------------------------

    def handle_op(self, request: Request, start: float) -> Dict[str, Any]:
        if request.op == "cache-get":
            return self._get(request, start)
        if request.op == "cache-put":
            return self._put(request, start)
        self._count("cache.server.bad_request")
        return error_response(
            request.id, ERR_BAD_REQUEST,
            f"op {request.op!r} is not served here: this is a cache "
            "server (cache-get / cache-put / health / stats / drain)")

    def _get(self, request: Request, start: float) -> Dict[str, Any]:
        key = request.params.get("key")
        if not _valid_key(key):
            self._count("cache.server.bad_request")
            return error_response(request.id, ERR_BAD_REQUEST,
                                  "params.key (64-hex string) is required")
        with self._store_lock:
            entry = self._store.get_entry(key)
        self._count("cache.server.hits" if entry is not None
                    else "cache.server.misses")
        return ok_response(request.id, "cache-get",
                           {"found": entry is not None, "entry": entry},
                           (time.perf_counter() - start) * 1000.0)

    def _put(self, request: Request, start: float) -> Dict[str, Any]:
        key = request.params.get("key")
        if not _valid_key(key):
            self._count("cache.server.bad_request")
            return error_response(request.id, ERR_BAD_REQUEST,
                                  "params.key (64-hex string) is required")
        entry = request.params.get("entry")
        with self._store_lock:
            stored = self._store.put_entry(key, entry)
        if not stored:
            # The envelope failed verification: refuse loudly so the
            # broken client is visible, and never touch the store.
            self._count("cache.server.rejected_puts")
            return error_response(
                request.id, ERR_BAD_REQUEST,
                "entry failed integrity verification "
                "(format/key/payload_sha256 mismatch); refused")
        self._count("cache.server.stores")
        return ok_response(request.id, "cache-put", {"stored": True},
                           (time.perf_counter() - start) * 1000.0)

    def control_fields(self, op: str) -> Dict[str, Any]:
        if op == "drain":
            return {}
        fields: Dict[str, Any] = {"role": "cache"}
        if op == "stats":
            with self._store_lock:
                fields["store"] = self._store.stats()
            fields["root"] = str(self._store.root)
            # The serving host's own stage fingerprints: comparing these
            # across shards diagnoses mixed-code-version fleets (keys
            # simply stop matching; see docs/operations.md).
            fields["fingerprints"] = api.engine_fingerprints()
        return fields
