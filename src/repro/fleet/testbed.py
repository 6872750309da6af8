"""Spawn real fleet topologies as subprocesses (for smoke/bench/chaos).

The unit and integration tests exercise the router against in-process
backends (threads — cheap, deterministic); the *fleet* contract,
though, is about surviving ``kill -9`` of a whole backend process, and
that can only be rehearsed with real processes.  This module is the
shared harness for the places that do it — the fleet smoke test
(``scripts/fleet_smoke.py``) and ``repro chaos --fleet``:

* :func:`spawn_backend` — a ``repro serve`` subprocess (either
  executor), its bound address parsed from the startup banner;
* :func:`spawn_router` — a ``repro route`` subprocess over a set of
  backend addresses;
* :func:`wait_healthy` — poll a server's ``health`` op until it
  answers ok (or a deadline passes);
* :class:`ServerProc` — handle with ``sigkill`` (the unannounced
  death), ``terminate`` (the polite one), and stdout capture for
  post-mortems.

Every helper takes explicit timeouts and never leaves a child behind:
``ServerProc`` registers itself and :func:`reap_all` (also installed
via ``atexit``) force-kills stragglers.
"""

from __future__ import annotations

import atexit
import os
import pathlib
import queue
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.fleet.client import BackendClient, BackendError

#: The src/ directory this package was imported from; children import
#: the same tree whatever the caller's cwd.
_SRC = pathlib.Path(__file__).resolve().parents[2]

_LIVE: List["ServerProc"] = []
_LIVE_LOCK = threading.Lock()


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (str(_SRC) if not existing
                         else str(_SRC) + os.pathsep + existing)
    return env


class ServerProc:
    """One server subprocess and its parsed listen address."""

    def __init__(self, proc: subprocess.Popen, role: str,
                 host: str, port: int):
        self.proc = proc
        self.role = role
        self.host = host
        self.port = port
        self.lines: List[str] = []  # stdout after the banner
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        with _LIVE_LOCK:
            _LIVE.append(self)

    @property
    def spec(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _pump(self) -> None:
        stream = self.proc.stdout
        if stream is None:
            return
        for line in stream:
            self.lines.append(line.rstrip("\n"))

    def alive(self) -> bool:
        return self.proc.poll() is None

    def sigkill(self) -> None:
        """The unannounced death the fleet must survive."""
        if self.alive():
            os.kill(self.proc.pid, signal.SIGKILL)
        self.proc.wait(timeout=10)

    def terminate(self, timeout: float = 15.0) -> int:
        """Polite shutdown (SIGTERM → the server drains); returns the
        exit code, force-killing if the drain overruns."""
        if self.alive():
            self.proc.terminate()
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self._reader.join(timeout=2.0)
        with _LIVE_LOCK:
            if self in _LIVE:
                _LIVE.remove(self)
        return self.proc.returncode


def reap_all() -> None:
    """Force-kill every still-live spawned server (atexit safety net)."""
    with _LIVE_LOCK:
        stragglers = list(_LIVE)
        _LIVE.clear()
    for server in stragglers:
        try:
            if server.alive():
                server.proc.kill()
                server.proc.wait(timeout=5)
        except OSError:
            pass


atexit.register(reap_all)


def _spawn(argv: Sequence[str], role: str, banner: str,
           startup_timeout_s: float) -> ServerProc:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_child_env(),
        cwd=str(_SRC.parent),
    )
    # The banner line arrives on stdout once the socket is bound; read
    # via a side thread so a hung child cannot hang the spawner.
    lines_q: "queue.Queue[Optional[str]]" = queue.Queue()

    def read_banner() -> None:
        stream = proc.stdout
        if stream is None:
            lines_q.put(None)
            return
        for line in stream:
            lines_q.put(line.rstrip("\n"))
            if banner in line:
                return
        lines_q.put(None)

    reader = threading.Thread(target=read_banner, daemon=True)
    reader.start()
    deadline = time.monotonic() + startup_timeout_s
    seen: List[str] = []
    address: Optional[Tuple[str, int]] = None
    while time.monotonic() < deadline:
        try:
            line = lines_q.get(timeout=0.2)
        except queue.Empty:
            if proc.poll() is not None:
                break
            continue
        if line is None:
            break
        seen.append(line)
        if banner in line:
            # "...: listening on host:port ..."
            after = line.split("listening on", 1)[1].strip()
            hostport = after.split()[0]
            host, _, port = hostport.rpartition(":")
            address = (host, int(port))
            break
    reader.join(timeout=1.0)
    if address is None:
        try:
            proc.kill()
        except OSError:
            pass
        raise RuntimeError(
            f"{role} did not report a listen address within "
            f"{startup_timeout_s:.0f}s; output so far: {seen!r}")
    return ServerProc(proc, role, address[0], address[1])


def spawn_backend(executor: str = "thread", workers: int = 2,
                  backlog: int = 32, port: int = 0,
                  extra_args: Sequence[str] = (),
                  startup_timeout_s: float = 30.0) -> ServerProc:
    """Start one ``repro serve`` backend; returns its handle."""
    argv = ["serve", "--port", str(port), "--workers", str(workers),
            "--backlog", str(backlog), "--executor", executor,
            *extra_args]
    return _spawn(argv, role=f"backend[{executor}]",
                  banner=";; serve: listening on",
                  startup_timeout_s=startup_timeout_s)


def spawn_router(backends: Sequence[str], port: int = 0,
                 extra_args: Sequence[str] = (),
                 startup_timeout_s: float = 30.0) -> ServerProc:
    """Start one ``repro route`` shard router over the backends."""
    argv = ["route", "--port", str(port)]
    for spec in backends:
        argv += ["--backend", spec]
    argv += list(extra_args)
    return _spawn(argv, role="router", banner=";; route: listening on",
                  startup_timeout_s=startup_timeout_s)


def wait_healthy(spec: str, timeout_s: float = 15.0,
                 expect_backends: Optional[int] = None) -> Dict[str, Any]:
    """Poll ``health`` until the server answers ok; returns the body.

    With ``expect_backends`` the wait also requires that many fleet
    members to be probed healthy (router warm-up).
    """
    host, _, port = spec.rpartition(":")
    client = BackendClient(spec, host, int(port), connect_timeout_s=1.0)
    deadline = time.monotonic() + timeout_s
    last = "no response yet"
    while time.monotonic() < deadline:
        try:
            response = client.call("health", timeout_s=2.0)
        except (BackendError, ValueError) as err:
            last = str(err)
            time.sleep(0.1)
            continue
        if response.get("ok"):
            body = response.get("result", {})
            if expect_backends is not None:
                healthy = [
                    name
                    for name, state in body.get("backends", {}).items()
                    if state.get("healthy")
                ]
                if len(healthy) < expect_backends:
                    last = (f"{len(healthy)}/{expect_backends} "
                            "backends healthy")
                    time.sleep(0.1)
                    continue
            return body
        last = f"unhealthy response: {response!r}"
        time.sleep(0.1)
    raise RuntimeError(f"{spec} not healthy within {timeout_s:.0f}s: {last}")
