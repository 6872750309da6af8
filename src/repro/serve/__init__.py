"""``repro serve`` — a long-lived concurrent analysis service.

The service hosts the stable :mod:`repro.api` facade behind a
newline-delimited-JSON socket protocol with a worker thread pool,
bounded admission (explicit backpressure), per-request deadlines and
cancellation, single-flight coalescing of identical in-flight
requests, warm shared :mod:`repro.perf` caches, chaos-mode request
faults, and graceful drain.  See :mod:`repro.serve.protocol` for the
wire format and :mod:`repro.serve.server` for the architecture.
"""

from repro.serve.cacheserver import CacheServeConfig, CacheServer
from repro.serve.chaos import (
    FAULT_BLACKHOLE,
    FAULT_DELAY,
    FAULT_REJECT,
    FAULT_SLOW,
    FleetFaultPlan,
    HostFaultPlan,
    RequestFaultPlan,
)
from repro.serve.protocol import (
    CACHE_OPS,
    CONTROL_OPS,
    ENGINE_OPS,
    ERROR_CODES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    decode_response,
    encode,
    error_response,
    ok_response,
    parse_request,
    request_line,
)
from repro.serve.server import (
    EXECUTOR_PROCESS,
    EXECUTOR_THREAD,
    EXECUTORS,
    AnalysisService,
    NdjsonServer,
    ReproServer,
    ServeConfig,
    SingleFlight,
    Telemetry,
)

__all__ = [
    "AnalysisService",
    "CACHE_OPS",
    "CONTROL_OPS",
    "CacheServeConfig",
    "CacheServer",
    "ENGINE_OPS",
    "ERROR_CODES",
    "EXECUTOR_PROCESS",
    "EXECUTOR_THREAD",
    "EXECUTORS",
    "FAULT_BLACKHOLE",
    "FAULT_DELAY",
    "FAULT_REJECT",
    "FAULT_SLOW",
    "FleetFaultPlan",
    "HostFaultPlan",
    "NdjsonServer",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ReproServer",
    "Request",
    "RequestFaultPlan",
    "ServeConfig",
    "SingleFlight",
    "Telemetry",
    "decode_response",
    "encode",
    "error_response",
    "ok_response",
    "parse_request",
    "request_line",
]
