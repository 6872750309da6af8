"""One versioned envelope for every JSON report artifact.

Before this module each reporting layer invented its own top-level
shape: the perf suite wrote ``{"schema_version": 1, "cases": ...}``
(``perf/bench.py``), the sweep driver wrote ``{"schema_version": 1,
"grid": ..., "points": ...}`` (``scale/report.py``), and the chaos
harness had no JSON form at all (``harness/report.py`` rendered text
only).  Every consumer — ``bench --compare``, ``sweep --min-hit-rate``,
CI artifact tooling — had to know which shape it was holding before it
could even check the version.

The envelope unifies them::

    {
      "schema_version": 1,        # version of the envelope contract
      "kind": "perf-bench",       # what the body is
      "body": { ... }             # the kind-specific payload
    }

Rules:

* ``schema_version`` versions the *envelope*; kind-specific payload
  evolution is the body's business (bodies may carry their own finer
  versioning if they need it).
* ``body`` is always a JSON object.  Wall-clock and other
  run-to-run-variable measurements live under ``body["wall"]`` by
  convention; :func:`strip_wall` removes exactly that key, which is how
  byte-identity contracts are stated uniformly across kinds.
* Readers go through :func:`unwrap`, which raises
  :class:`EnvelopeError` on anything that is not a valid envelope of
  the expected kind.  (The pre-envelope perf/sweep report shapes were
  accepted for exactly one release, with a ``DeprecationWarning``;
  that migration window is over and the shims are gone — regenerate
  any remaining pre-envelope baseline.)
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

#: Version of the envelope contract itself.
SCHEMA_VERSION = 1

#: The report kinds this repository produces.
KIND_PERF = "perf-bench"
KIND_SWEEP = "sweep"
KIND_ROBUSTNESS = "robustness"
KIND_OBS = "obs-bench"
KIND_CACHE = "cache-bench"

KNOWN_KINDS = (KIND_PERF, KIND_SWEEP, KIND_ROBUSTNESS, KIND_OBS, KIND_CACHE)


class EnvelopeError(ValueError):
    """A report document that is not a usable envelope.  CLIs map this
    to a one-line exit-2 diagnostic instead of a traceback."""


def wrap(kind: str, body: Dict[str, Any]) -> Dict[str, Any]:
    """Build an envelope around a kind-specific body."""
    if kind not in KNOWN_KINDS:
        raise ValueError(
            f"unknown report kind {kind!r}; known: {', '.join(KNOWN_KINDS)}"
        )
    if not isinstance(body, dict):
        raise TypeError(f"body must be a dict, got {type(body).__name__}")
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "body": body}


def validate_envelope(obj: Any, kind: Optional[str] = None) -> List[str]:
    """Schema-check an envelope; returns problems (empty = valid).

    The shared validator every reader uses: ``bench --compare`` and
    ``sweep --min-hit-rate`` both call this before touching the body.
    """
    if not isinstance(obj, dict):
        return [f"report must be a JSON object, got {type(obj).__name__}"]
    problems: List[str] = []
    version = obj.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        problems.append("'schema_version' missing or not an integer")
    elif version > SCHEMA_VERSION:
        problems.append(
            f"envelope schema_version {version} is newer than this "
            f"reader understands ({SCHEMA_VERSION})"
        )
    found_kind = obj.get("kind")
    if not isinstance(found_kind, str):
        problems.append("'kind' missing or not a string")
    elif found_kind not in KNOWN_KINDS:
        problems.append(
            f"unknown report kind {found_kind!r}; "
            f"known: {', '.join(KNOWN_KINDS)}"
        )
    elif kind is not None and found_kind != kind:
        problems.append(f"expected kind {kind!r}, found {found_kind!r}")
    if not isinstance(obj.get("body"), dict):
        problems.append("'body' missing or not an object")
    return problems


def unwrap(obj: Any, kind: str) -> Dict[str, Any]:
    """Return the body of an envelope of the given kind.

    Anything that fails :func:`validate_envelope` raises
    :class:`EnvelopeError` — including the long-retired pre-envelope
    perf/sweep shapes (their one-release migration shim was removed;
    regenerate the report).
    """
    problems = validate_envelope(obj, kind)
    if problems:
        raise EnvelopeError(problems[0])
    return obj["body"]


def strip_wall(body: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic body: everything except the ``"wall"`` key."""
    return {k: v for k, v in body.items() if k != "wall"}


def dumps(obj: Dict[str, Any]) -> str:
    """The canonical on-disk serialization (stable key order)."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
