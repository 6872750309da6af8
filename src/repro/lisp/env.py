"""Lexical environments.

A chain of frames, each a dict from a variable's *name* to its value.
``setq`` mutates the innermost frame that binds the name (defining
globally if none does, as in traditional Lisps).

Frames are keyed by ``sym.name``, a ``str``, not by the :class:`Symbol`.
``Symbol.__eq__`` is name equality and ``Symbol.__hash__`` is
``hash(name)``, so a name finds exactly the binding the symbol would:
equal-named symbols of two tables and gensyms behave as before.  The
difference is cost.  ``Symbol.__hash__`` is a Python-level method, run
on every dict operation, while a ``str`` caches its hash inside
CPython.  Callers pass names; the compiler computes them once, at
compile time.

Compiled code reads and writes a binding in the innermost frame, or
the one outside it, through ``bindings`` directly when the compiler
knows those frames (see :data:`repro.lisp.compile.Scope`), and comes
here for every other name.  That is sound because a frame gains no name
after it is built, except the global frame and a ``let*`` frame while
its inits run.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.lisp.errors import UnboundVariable
from repro.sexpr.datum import Symbol

_MISSING = object()


def binding_key(entry: Any) -> Any:
    """The frame key a lambda-list or binding entry binds under.

    A symbol binds its name.  Any other entry (a number or a string in a
    malformed lambda list) binds under a one-tuple of itself: hashable
    exactly when the entry is, and equal to no name, so no variable
    reference reaches it.  A string entry ``"s"`` must stay invisible to
    the symbol ``s``.
    """
    return entry.name if isinstance(entry, Symbol) else (entry,)


class Environment:
    __slots__ = ("bindings", "parent")

    def __init__(self, parent: Optional["Environment"] = None):
        self.bindings: dict[Any, Any] = {}
        self.parent = parent

    def child(self) -> "Environment":
        """A new innermost frame."""
        return Environment(self)

    def lookup(self, name: str) -> Any:
        env: Optional[Environment] = self
        while env is not None:
            value = env.bindings.get(name, _MISSING)
            if value is not _MISSING:
                return value
            env = env.parent
        if isinstance(name, Symbol):
            raise TypeError(f"frames are keyed by name: look up {name.name!r}")
        raise UnboundVariable(name)

    def define(self, name: Any, value: Any) -> None:
        """Bind ``name`` in this frame (shadowing outer bindings)."""
        self.bindings[name] = value

    def assign(self, name: str, value: Any) -> None:
        """``setq`` semantics: mutate the binding frame, else define globally."""
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                env.bindings[name] = value
                return
            env = env.parent
        # Unbound: create at the global (outermost) frame.
        top: Environment = self
        while top.parent is not None:
            top = top.parent
        top.bindings[name] = value
