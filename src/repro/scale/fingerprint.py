"""Per-stage code fingerprints for the staged result cache.

The pipeline is a chain of pure stages — parse → variable analysis →
conflict distances → transform → simulated machine — and each stage's
output depends only on the code that stage (transitively) imports.
Keying cache entries on one whole-package digest (the original
``code_version()``) therefore over-invalidates: editing one transform
rewrote every key, including the parse/analysis/distance entries whose
inputs did not change.

This module computes one fingerprint *per stage* from a static
module-dependency walk:

* :func:`module_closure` parses each module with :mod:`ast` and follows
  every ``import repro...`` / ``from repro... import ...`` edge —
  including the engine's pervasive *function-level* lazy imports, which
  a top-of-file scan would miss — to a transitive closure of source
  files.
* :func:`stage_fingerprints` hashes each stage's closure (SHA-256 over
  sorted relative path + file bytes) from the :data:`STAGE_ROOTS` root
  modules.  Stages are cumulative (``parse ⊆ analysis ⊆ distance ⊆
  transform``), so an edit invalidates its own stage and everything
  downstream, never upstream.

Soundness rests on two facts, both pinned by tests:

1. **The front of the pipeline never imports the back.**  The
   ``sexpr`` / ``lisp`` / ``declare`` / ``analysis`` / ``paths`` /
   ``ir`` packages have no import path to ``repro.transform`` (or the
   runtime/model/harness layers), so the parse/analysis/distance
   closures genuinely exclude transform code
   (``tests/test_stage_cache.py`` edits a transform on disk and asserts
   the early fingerprints hold still).
2. **Thin orchestration is excluded by contract.**  The facade plumbing
   in ``api.py``, the pass-driver wrappers in ``transform/pipeline.py``
   and the job dispatch in ``scale/jobs.py`` move values between stages
   without computing stage semantics; early-stage closures deliberately
   do not include them.  A behavior-changing edit to orchestration
   must bump :data:`repro.scale.cache.CACHE_FORMAT` (the existing
   orphan-everything escape hatch).

``root_path`` lets callers fingerprint a *copy* of the package — the
differential tests and ``benchmarks/bench_cache.py`` copy the tree,
edit one transform module in the copy, and compare fingerprints without
touching the live source.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: The stages, pipeline order.  ``parse``/``analysis``/``distance``/
#: ``transform`` are the paper's chain; ``machine`` covers full
#: simulated-machine results (closure of the whole facade); ``sweep``
#: covers sweep-job payloads (closure of the job runners).
STAGES = ("parse", "analysis", "distance", "transform", "machine", "sweep")

_PARSE_ROOTS = (
    "repro.sexpr.reader",
    "repro.sexpr.printer",
    "repro.lisp.interpreter",
    "repro.lisp.runner",
    "repro.declare.parser",
    "repro.declare.registry",
)
_ANALYSIS_ROOTS = _PARSE_ROOTS + (
    "repro.analysis.variables",
    "repro.analysis.recursion",
    "repro.analysis.headtail",
)
_DISTANCE_ROOTS = _ANALYSIS_ROOTS + (
    "repro.analysis.conflicts",
    "repro.analysis.report",
    "repro.scale.analysis_job",
)
_TRANSFORM_ROOTS = _DISTANCE_ROOTS + (
    "repro.transform.pipeline",
    "repro.transform.program",
)

#: Stage → root modules whose import closure defines the stage's code.
STAGE_ROOTS: Dict[str, Tuple[str, ...]] = {
    "parse": _PARSE_ROOTS,
    "analysis": _ANALYSIS_ROOTS,
    "distance": _DISTANCE_ROOTS,
    "transform": _TRANSFORM_ROOTS,
    "machine": ("repro.api",),
    "sweep": ("repro.scale.jobs",),
}


def _package_root(root_path: "str | Path | None") -> Path:
    if root_path is not None:
        return Path(root_path)
    import repro

    return Path(repro.__file__).parent


def _resolve(name: str, root: Path) -> Optional[Path]:
    """Dotted ``repro...`` name → source file under ``root`` (the
    ``repro`` package directory), or None if it is not a module here."""
    if name != "repro" and not name.startswith("repro."):
        return None
    parts = name.split(".")[1:]
    if not parts:
        path = root / "__init__.py"
        return path if path.is_file() else None
    module = root.joinpath(*parts[:-1], parts[-1] + ".py")
    if module.is_file():
        return module
    package = root.joinpath(*parts, "__init__.py")
    return package if package.is_file() else None


def _imported_names(name: str, path: Path, root: Path) -> List[str]:
    """Every ``repro...`` module this file imports, wherever the import
    statement sits (module level or inside a function body)."""
    try:
        tree = ast.parse(path.read_bytes(), filename=str(path))
    except SyntaxError:
        # An unparseable file still participates in the fingerprint by
        # its bytes; it just contributes no edges.
        return []
    is_package = path.name == "__init__.py"
    package_parts = name.split(".") if is_package else name.split(".")[:-1]
    found: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    found.append(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts[: len(package_parts) - (node.level - 1)]
                if not base:
                    continue
                module = ".".join(base + ([node.module] if node.module
                                          else []))
            else:
                module = node.module or ""
            if module != "repro" and not module.startswith("repro."):
                continue
            found.append(module)
            for alias in node.names:
                # ``from repro.pkg import name`` may bind a submodule.
                if _resolve(f"{module}.{alias.name}", root) is not None:
                    found.append(f"{module}.{alias.name}")
    return found


def module_closure(roots: Iterable[str],
                   root_path: "str | Path | None" = None) -> Dict[str, Path]:
    """Transitive import closure: dotted name → source file.

    Names that do not resolve under ``root_path`` (e.g. a module that
    exists only in an edited copy) are silently skipped — the closure
    is over what is actually on disk.
    """
    return _closure(roots, _package_root(root_path), {})


def _closure(roots: Iterable[str], root: Path,
             edges: Dict[str, List[str]]) -> Dict[str, Path]:
    """:func:`module_closure` under ``root``, reading each module's
    imports from ``edges`` when an earlier walk already parsed it."""
    closure: Dict[str, Path] = {}
    pending: List[str] = list(roots)
    seen: Set[str] = set()
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        path = _resolve(name, root)
        if path is None:
            continue
        closure[name] = path
        if name not in edges:
            edges[name] = _imported_names(name, path, root)
        pending.extend(edges[name])
    return closure


def fingerprint(roots: Iterable[str],
                root_path: "str | Path | None" = None) -> str:
    """SHA-256 over the sorted (name, bytes) of a module closure."""
    return _digest(module_closure(roots, root_path))


def _digest(closure: Dict[str, Path]) -> str:
    digest = hashlib.sha256()
    for name in sorted(closure):
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(closure[name].read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


_FINGERPRINTS: Optional[Dict[str, str]] = None


def stage_fingerprints(
    root_path: "str | Path | None" = None,
) -> Dict[str, str]:
    """One fingerprint per stage; memoized for the live package.

    Pass ``root_path`` (a directory laid out like the ``repro``
    package) to fingerprint an edited copy instead — never memoized.
    """
    global _FINGERPRINTS
    if root_path is None and _FINGERPRINTS is not None:
        return dict(_FINGERPRINTS)
    # The stages' closures overlap: parse each module once per call
    # (never across calls, so an edited copy is always read fresh).
    root = _package_root(root_path)
    edges: Dict[str, List[str]] = {}
    prints = {stage: _digest(_closure(STAGE_ROOTS[stage], root, edges))
              for stage in STAGES}
    if root_path is None:
        _FINGERPRINTS = dict(prints)
    return prints
