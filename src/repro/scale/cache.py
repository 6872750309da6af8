"""Content-addressed persistent result cache for sweep jobs.

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
2. **Entries carry their own integrity hash.**  A cache file stores the
   payload together with ``payload_sha256`` (hash of the payload's
   canonical JSON).  On read, a missing file is a *miss*; an unreadable
   / syntactically broken / hash-mismatching file is *invalid*: the
   entry is deleted and the caller recomputes.  Corruption can degrade
   performance, never correctness.

Writes are atomic (``os.replace`` of a per-process temp file), so
concurrent sweep workers sharing one cache directory race benignly:
last writer wins with identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Optional, Tuple

#: Cache on-disk format version; bump to orphan all existing entries.
CACHE_FORMAT = 1

#: Lookup outcomes (the ``scale.cache.*`` counter vocabulary).
HIT = "hit"
MISS = "miss"
INVALID = "invalid"
OFF = "off"


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
    ``key``.  Shared by the local store, the cache server (both
    directions of the wire) and the network client — an entry that
    fails here is treated as corrupt everywhere, never served."""
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
    """A directory of content-addressed, integrity-checked JSON entries.

    Layout: ``<root>/<key[:2]>/<key>.json`` (fan-out keeps directory
    listings short on big sweeps).  Counters accumulate per instance;
    the sweep driver aggregates worker-side counts into the report and
    the flight recorder.
    """

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.invalid = 0
        self.stores = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Tuple[str, Optional[dict]]:
        """Return ``(status, payload)``; status is HIT, MISS, or INVALID.

        INVALID covers every way an entry can be wrong — unreadable
        file, malformed JSON, wrong envelope, format-version or key
        mismatch, payload-hash mismatch — and always deletes the entry
        so the slot is clean for the recompute's store.
        """
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.misses += 1
            return MISS, None
        except OSError:
            self.invalid += 1
            self._discard(path)
            return INVALID, None
        try:
            entry = json.loads(raw)
        except ValueError:
            entry = None
        if not check_entry(entry, key):
            self.invalid += 1
            self._discard(path)
            return INVALID, None
        self.hits += 1
        return HIT, entry["payload"]

    def put(self, key: str, payload: dict) -> None:
        """Store a payload atomically under its key."""
        self._write(key, make_entry(key, payload))

    def close(self) -> None:
        """Nothing held open (the surface :class:`NetworkCache` shares)."""

    def get_entry(self, key: str) -> Optional[dict]:
        """Whole-entry read for the cache server: the wire carries the
        full envelope so clients can re-verify ``payload_sha256``
        end-to-end.  Invalid entries are deleted and read as misses."""
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self.invalid += 1
            self._discard(path)
            return None
        try:
            entry = json.loads(raw)
        except ValueError:
            entry = None
        if not check_entry(entry, key):
            self.invalid += 1
            self._discard(path)
            return None
        self.hits += 1
        return entry

    def put_entry(self, key: str, entry: Any) -> bool:
        """Whole-entry write for the cache server.  The entry is
        verified *before* it touches disk — a corrupt or mis-keyed put
        is refused (False), so one bad client cannot poison the shared
        store."""
        if not check_entry(entry, key):
            self.invalid += 1
            return False
        self._write(key, entry)
        return True

    def _write(self, key: str, entry: dict) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(canonical_json(entry) + "\n", encoding="utf-8")
        os.replace(tmp, path)
        self.stores += 1

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass  # already gone, or unremovable — recompute regardless

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalid": self.invalid,
            "stores": self.stores,
        }
