"""The fleet-shared result cache, seen from a worker.

Two layers, both speaking the entry envelope of
:mod:`repro.scale.cache`:

* :class:`NetworkCache` — a drop-in for :class:`ResultCache` (same
  ``get``/``put``/``stats`` surface) that fronts an optional local
  write-through directory with a shared ``repro cache-serve`` server.
  Reads check local first, then the server; a network hit is
  re-verified (``check_entry``: format, key, ``payload_sha256``)
  before it is trusted, then written through to the local store.
  Writes land locally and are pushed to the server best-effort.

  **The server is an accelerator, never a dependency.**  Any transport
  failure marks it down for ``retry_after_s`` and the cache degrades
  to exactly the per-machine behavior it had before the server
  existed; a *poisoned* server (entries whose integrity hash does not
  match) degrades the same way per-entry — the bad entry reads as a
  miss and the caller recomputes.  Correctness never depends on the
  cache tier.

* :class:`OpCache` — the same two-tier store keyed at the facade-op
  level (``analyze`` / ``transform`` / ``run`` / ``sweep`` params →
  result document), used by serve shards and the router so one shard's
  computation warms every peer.  Op keys carry the op's stage
  fingerprint (:data:`OP_STAGES`), so ``analyze`` results survive
  transform edits just like analyze-family sweep jobs.

The wire format is the ``repro serve`` NDJSON protocol
(:mod:`repro.serve.protocol`) over kept connections: a call borrows an
idle connection (or opens one) and returns it after a whole response.
A kept connection that fails before any response byte (the server
restarted or dropped it) is retried once on a fresh connection; any
other failure is a transport error, as with one connection per call.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import weakref
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.scale.cache import (
    HIT,
    INVALID,
    MISS,
    ResultCache,
    cache_key,
    check_entry,
    make_entry,
)

#: Facade op → pipeline stage for fingerprint selection.  ``analyze``
#: stops at conflict distances; ``transform`` emits transformed code;
#: ``run``/``sweep`` depend on the simulated machine and the job
#: runners respectively.
OP_STAGES: Dict[str, str] = {
    "analyze": "distance",
    "transform": "transform",
    "run": "machine",
    "sweep": "sweep",
}


def parse_server(spec: str) -> Tuple[str, int]:
    """``host:port`` → ``(host, port)``; raises ValueError."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"cache server must be host:port, got {spec!r}")
    return host, int(port)


class CacheTransportError(Exception):
    """A transport-level failure talking to the cache server."""


class _ServerLink:
    """NDJSON transport to the cache server over kept connections.

    Idle connections wait in a lock-guarded pool; a caller takes one or
    opens its own, so the pool never holds more than the peak number of
    concurrent callers.
    """

    def __init__(self, spec: str, connect_timeout_s: float = 1.0,
                 call_timeout_s: float = 5.0):
        self.spec = spec
        self.host, self.port = parse_server(spec)
        self.connect_timeout_s = connect_timeout_s
        self.call_timeout_s = call_timeout_s
        self._lock = threading.Lock()
        self._idle: List[socket.socket] = []
        self._closed = False
        _LINKS.add(self)
        # Idle connections die with their link if no owner closed it.
        weakref.finalize(self, _close_all, self._idle)

    def call(self, op: str, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.serve.protocol import decode_response, request_line

        line = request_line(op, params, request_id="c1")
        with self._lock:
            sock = self._idle.pop() if self._idle else None
        reply = None
        if sock is not None:
            # None: the server dropped it (a restart?); one fresh try.
            reply = self._exchange(sock, line, kept=True)
        if reply is None:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout_s)
            except OSError as err:
                raise CacheTransportError(str(err)) from None
            reply = self._exchange(sock, line, kept=False)
        try:
            return decode_response(reply)
        except ValueError as err:
            raise CacheTransportError(f"malformed response: {err}") from None

    def _exchange(self, sock: socket.socket, line: bytes,
                  kept: bool) -> Optional[bytes]:
        """Send ``line`` and read one response line; the socket goes
        back to the pool after a clean exchange and is closed otherwise.
        Returns None for a ``kept`` socket that failed before any
        response byte; raises :class:`CacheTransportError` otherwise."""
        buf = b""
        try:
            sock.settimeout(max(0.01, self.call_timeout_s))
            sock.sendall(line)
            while b"\n" not in buf:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError(
                        "connection closed before a full response")
                buf += chunk
        except socket.timeout:
            _close(sock)
            raise CacheTransportError(
                f"no response within {self.call_timeout_s:.3f}s") from None
        except OSError as err:
            _close(sock)
            if kept and not buf:
                return None
            raise CacheTransportError(str(err)) from None
        reply, _, rest = buf.partition(b"\n")
        with self._lock:
            if not rest and not self._closed:
                self._idle.append(sock)
                sock = None
        if sock is not None:
            _close(sock)
        return reply

    def close(self) -> None:
        """Close the idle connections; calls after this close theirs."""
        with self._lock:
            self._closed = True
            idle = self._idle[:]
            self._idle.clear()
        _close_all(idle)


def _close(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass


def _close_all(socks: List[socket.socket]) -> None:
    for sock in socks:
        _close(sock)


#: Every live link, so a forked child (a process-executor worker) can
#: drop the idle connections it inherited.
_LINKS: "weakref.WeakSet[_ServerLink]" = weakref.WeakSet()


def _forget_links() -> None:
    # In the child: close its copies of the parent's idle connections
    # (the parent's stay open), under a fresh lock, since a parent
    # thread may have held the old one across the fork.
    for link in list(_LINKS):
        link._lock = threading.Lock()
        link.close()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_links)


class NetworkCache:
    """Two-tier result cache: optional local directory + shared server.

    ``get``/``put``/``stats``/``close`` match ``ResultCache``, so the sweep
    driver (and anything else holding a cache) cannot tell the tiers
    apart — except that a warm server turns a cold machine's misses
    into hits.
    """

    def __init__(self, server: str, local_root: "str | Path | None" = None,
                 connect_timeout_s: float = 1.0, call_timeout_s: float = 5.0,
                 retry_after_s: float = 30.0,
                 clock=time.monotonic):
        self.local = ResultCache(local_root) if local_root is not None \
            else None
        self._link = _ServerLink(server, connect_timeout_s, call_timeout_s)
        self._retry_after_s = retry_after_s
        self._clock = clock
        self._down_until = 0.0
        self.hits = 0
        self.misses = 0
        self.invalid = 0
        self.stores = 0
        self.remote_hits = 0
        self.remote_stores = 0
        self.remote_invalid = 0
        self.remote_errors = 0

    # -- server health ------------------------------------------------------

    def server_up(self) -> bool:
        return self._clock() >= self._down_until

    def _mark_down(self) -> None:
        self.remote_errors += 1
        self._down_until = self._clock() + self._retry_after_s

    # -- the ResultCache surface --------------------------------------------

    def get(self, key: str) -> Tuple[str, Optional[dict]]:
        local_status = None
        if self.local is not None:
            local_status, payload = self.local.get(key)
            if local_status == HIT:
                self.hits += 1
                return HIT, payload
        entry = self._remote_get(key)
        if entry is not None:
            self.hits += 1
            self.remote_hits += 1
            payload = entry["payload"]
            if self.local is not None:
                self.local.put(key, payload)
            return HIT, payload
        if local_status == INVALID:
            self.invalid += 1
            return INVALID, None
        self.misses += 1
        return MISS, None

    def put(self, key: str, payload: dict) -> None:
        entry = make_entry(key, payload)
        if self.local is not None:
            self.local._write(key, entry)
        self.stores += 1
        self._remote_put(key, entry)

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalid": self.invalid,
            "stores": self.stores,
            "remote_hits": self.remote_hits,
            "remote_stores": self.remote_stores,
            "remote_invalid": self.remote_invalid,
            "remote_errors": self.remote_errors,
        }

    def close(self) -> None:
        """Close the kept connections to the server."""
        self._link.close()

    # -- the wire -----------------------------------------------------------

    def _remote_get(self, key: str) -> Optional[dict]:
        if not self.server_up():
            return None
        try:
            response = self._link.call("cache-get", {"key": key})
        except CacheTransportError:
            self._mark_down()
            return None
        if not response.get("ok"):
            # A typed refusal (draining, bad request) is a server that
            # answered; do not mark it down, just miss.
            return None
        result = response.get("result") or {}
        if not result.get("found"):
            return None
        entry = result.get("entry")
        if not check_entry(entry, key):
            # Poisoned or corrupted in transit: never trust it.
            self.remote_invalid += 1
            return None
        return entry

    def _remote_put(self, key: str, entry: dict) -> None:
        if not self.server_up():
            return
        try:
            response = self._link.call("cache-put",
                                       {"key": key, "entry": entry})
        except CacheTransportError:
            self._mark_down()
            return
        if response.get("ok") and (response.get("result") or {}).get(
                "stored"):
            self.remote_stores += 1


class OpCache:
    """Facade-op results through the shared cache, for serve shards and
    the router.  ``get``/``put`` never raise — a sick cache tier must
    not take the request path down with it.  A caller that looks up
    and then stores one request passes the :meth:`key` it computed
    once to both."""

    def __init__(self, server: str, local_root: "str | Path | None" = None,
                 **kwargs: Any):
        self.cache = NetworkCache(server, local_root, **kwargs)

    def key(self, op: str, params: Dict[str, Any]) -> Optional[str]:
        """The op's cache key; None when it cannot be computed."""
        from repro.scale.fingerprint import stage_fingerprints

        stage = OP_STAGES.get(op, "machine")
        try:
            return cache_key({
                "kind": "op",
                "stage": stage,
                "fingerprint": stage_fingerprints()[stage],
                "op": op,
                "params": params,
            })
        except (TypeError, ValueError, OSError):
            return None

    def get(self, op: str, params: Dict[str, Any],
            key: Optional[str] = None) -> Optional[dict]:
        key = key or self.key(op, params)
        if key is None:
            return None
        try:
            status, payload = self.cache.get(key)
        except Exception:
            return None
        return payload if status == HIT else None

    def put(self, op: str, params: Dict[str, Any],
            result: Dict[str, Any], key: Optional[str] = None) -> None:
        key = key or self.key(op, params)
        if key is None:
            return
        try:
            self.cache.put(key, result)
        except Exception:
            pass

    def stats(self) -> dict:
        return self.cache.stats()

    def close(self) -> None:
        self.cache.close()
