"""Architectural guard: the CLI and the server are *thin* callers of
the stable facade.  They may import ``repro.api`` (plus the support
packages: obs, harness, perf, envelope, serve) but must never reach
into the engine packages directly — that is exactly the coupling the
facade exists to prevent."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Engine internals: off limits to the facade's thin callers.
FORBIDDEN = {
    "analysis",
    "declare",
    "ir",
    "lisp",
    "model",
    "paths",
    "runtime",
    "scale",
    "sexpr",
    "transform",
}

# Facade and cross-cutting support packages.  ``fleet`` is a hosting
# layer like ``serve``: its shard router runs engine work exclusively
# through the facade, never the engine directly.  The worker-process
# farm lives in ``serve`` (``serve.pool``); serve's process-executor
# workers execute ``serve.server.engine_call``, as its threads do.
ALLOWED = {"api", "envelope", "fleet", "harness", "obs", "perf", "serve"}

THIN_CALLERS = (
    [SRC / "repro" / "cli.py"]
    + sorted((SRC / "repro" / "serve").glob("*.py"))
    + sorted((SRC / "repro" / "fleet").glob("*.py"))
)


def _repro_imports(path: Path):
    """Yield (lineno, dotted_name) for every repro.* import in *path*,
    including imports nested inside functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import inside the package
                yield node.lineno, "repro." + ".".join(
                    filter(None, [node.module])
                )
            elif node.module and (
                node.module == "repro" or node.module.startswith("repro.")
            ):
                if node.module == "repro":
                    # ``from repro import X`` — the names are what matter.
                    for alias in node.names:
                        yield node.lineno, f"repro.{alias.name}"
                else:
                    yield node.lineno, node.module


def _subpackage(dotted: str) -> str:
    parts = dotted.split(".")
    return parts[1] if len(parts) > 1 else ""


@pytest.mark.parametrize(
    "path", THIN_CALLERS, ids=lambda p: str(p.relative_to(SRC))
)
def test_thin_callers_avoid_engine_packages(path):
    violations = [
        f"{path.name}:{lineno}: imports {dotted}"
        for lineno, dotted in _repro_imports(path)
        if _subpackage(dotted) in FORBIDDEN
    ]
    assert violations == []


@pytest.mark.parametrize(
    "path", THIN_CALLERS, ids=lambda p: str(p.relative_to(SRC))
)
def test_thin_caller_imports_are_in_the_allowed_set(path):
    """Every repro import must be explicitly allowed — a new engine
    package added later cannot sneak in by omission."""
    unknown = [
        f"{path.name}:{lineno}: imports {dotted}"
        for lineno, dotted in _repro_imports(path)
        if _subpackage(dotted) not in ALLOWED
    ]
    assert unknown == []


def test_forbidden_and_allowed_cover_the_package():
    """The two sets stay in sync with the real package layout."""
    actual = {
        p.name
        for p in (SRC / "repro").iterdir()
        if p.is_dir() and (p / "__init__.py").exists()
    }
    assert FORBIDDEN <= actual
    assert ALLOWED - {"api", "envelope"} <= actual
