"""The result store's server tier: NDJSON to ``repro cache-serve``.

:class:`repro.scale.cache.ResultCache` reaches a shared cache server
through one :class:`_ServerLink`.  The wire format is the ``repro
serve`` NDJSON protocol (:mod:`repro.serve.protocol`) over kept
connections: a call borrows an idle connection (or opens one) and
returns it after a whole response.  A kept connection that fails before
any response byte (the server restarted or dropped it) is retried once
on a fresh connection; any other failure is a
:class:`CacheTransportError`, which the store reads as a miss and
answers by marking the server down for a while.
"""

from __future__ import annotations

import os
import socket
import threading
import weakref
from typing import Any, Dict, List, Optional, Tuple


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
