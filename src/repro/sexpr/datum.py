"""Lisp datum types: interned symbols and mutable cons cells.

The object model deliberately mirrors a real Lisp heap:

* symbols are interned, so identity comparison (`is`) implements ``eq``;
* cons cells are mutable two-field records whose *identity* matters —
  conflict detection (paper §2) is entirely about two code paths reaching
  the same cell;
* every cons cell carries a monotonically increasing ``cell_id`` so that
  execution traces can name the memory locations they touch.

Numbers, strings, booleans, and ``None`` (as ``nil``) are represented by
the corresponding Python objects.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Iterable, Iterator, Optional


class Symbol:
    """An interned Lisp symbol.

    Symbols should be created through :func:`intern` (or a
    :class:`SymbolTable`), never directly, so that two symbols with the
    same name are the same object and ``eq`` is Python ``is``.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(name)

    def __repr__(self) -> str:
        return self.name

    def __str__(self) -> str:
        return self.name

    # Symbols are interned and immortal; the name hash is precomputed
    # once at creation (symbols key every environment dict operation).
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        # Uninterned symbols (gensyms) are only equal by identity; two
        # interned symbols with the same name are the same object, so
        # falling back to name comparison is safe only for symbols from
        # *different* tables (used by tests).
        return isinstance(other, Symbol) and other.name == self.name


class SymbolTable:
    """A symbol intern table.

    A separate table per Lisp world keeps test isolation clean; the module
    level :func:`intern` uses a default shared table, which is what the
    interpreter and transformer use.
    """

    def __init__(self) -> None:
        self._table: dict[str, Symbol] = {}
        # Reentrant: ``derived`` runs ``build``, which interns, under it.
        self._lock = threading.RLock()
        self._gensym_counter = itertools.count()
        self._derived: dict[Callable[["SymbolTable"], Any], Any] = {}

    def derived(self, build: Callable[["SymbolTable"], Any]) -> Any:
        """``build(self)``, built once per table under its lock.

        For constant data keyed by this table's symbols that the layers
        above need in every world (the builtin function table): every
        caller, on any thread, gets the one result.
        """
        value = self._derived.get(build)
        if value is None:
            with self._lock:
                value = self._derived.get(build)
                if value is None:
                    value = self._derived[build] = build(self)
        return value

    def intern(self, name: str) -> Symbol:
        """Return the unique symbol named ``name`` (creating it if new)."""
        sym = self._table.get(name)
        if sym is None:
            with self._lock:
                sym = self._table.get(name)
                if sym is None:
                    sym = Symbol(name)
                    self._table[name] = sym
        return sym

    def gensym(self, prefix: str = "g") -> Symbol:
        """Return a fresh symbol guaranteed not to collide with interned ones."""
        while True:
            name = f"#:{prefix}{next(self._gensym_counter)}"
            if name not in self._table:
                with self._lock:
                    if name not in self._table:
                        sym = Symbol(name)
                        self._table[name] = sym
                        return sym

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def __len__(self) -> int:
        return len(self._table)


DEFAULT_SYMBOLS = SymbolTable()


def intern(name: str) -> Symbol:
    """Intern ``name`` in the default symbol table."""
    return DEFAULT_SYMBOLS.intern(name)


def gensym(prefix: str = "g") -> Symbol:
    """Make a fresh uninterned-style symbol in the default table."""
    return DEFAULT_SYMBOLS.gensym(prefix)


_cell_ids = itertools.count(1)


class Cons:
    """A mutable cons cell.

    ``car`` and ``cdr`` are plain attributes, so ``setf``-style mutation
    is an attribute store.  ``cell_id`` names the cell in traces and in
    the lock table of the simulated machine.
    """

    __slots__ = ("car", "cdr", "cell_id")

    def __init__(self, car: Any = None, cdr: Any = None):
        self.car = car
        self.cdr = cdr
        self.cell_id = next(_cell_ids)

    def __repr__(self) -> str:  # avoid infinite loops on cyclic structure
        from repro.sexpr.printer import write_str

        return write_str(self, max_depth=8, max_length=16)

    # Identity semantics: cons cells hash/compare by identity (Lisp eq).
    __hash__ = object.__hash__

    def __eq__(self, other: object) -> bool:
        return self is other

    def fields(self) -> tuple[str, ...]:
        return ("car", "cdr")

    def get_field(self, field: str) -> Any:
        if field == "car":
            return self.car
        if field == "cdr":
            return self.cdr
        raise AttributeError(f"cons cell has no field {field!r}")

    def set_field(self, field: str, value: Any) -> None:
        if field == "car":
            self.car = value
        elif field == "cdr":
            self.cdr = value
        else:
            raise AttributeError(f"cons cell has no field {field!r}")


def cons(car: Any, cdr: Any) -> Cons:
    """Allocate a fresh cons cell."""
    return Cons(car, cdr)


def lisp_list(*items: Any) -> Optional[Cons]:
    """Build a proper list from ``items`` (``nil`` is ``None``)."""
    head: Optional[Cons] = None
    for item in reversed(items):
        head = Cons(item, head)
    return head


def from_pylist(items: Iterable[Any]) -> Optional[Cons]:
    """Build a proper Lisp list from any Python iterable."""
    return lisp_list(*items)


def list_to_pylist(lst: Any) -> list[Any]:
    """Convert a proper Lisp list to a Python list.

    Raises ``ValueError`` on dotted or cyclic structure.  The common
    case is a short acyclic list, so the first pass runs without cycle
    bookkeeping up to a generous length bound; only suspiciously long
    lists pay for a visited set.
    """
    out: list[Any] = []
    append = out.append
    node = lst
    limit = 4096
    while node is not None:
        if not isinstance(node, Cons):
            raise ValueError(f"improper list: dotted tail {node!r}")
        append(node.car)
        node = node.cdr
        limit -= 1
        if limit == 0:
            return _list_to_pylist_checked(lst)
    return out


def _list_to_pylist_checked(lst: Any) -> list[Any]:
    """Slow path with full cycle detection, for very long inputs."""
    out: list[Any] = []
    seen: set[int] = set()
    node = lst
    while node is not None:
        if not isinstance(node, Cons):
            raise ValueError(f"improper list: dotted tail {node!r}")
        if id(node) in seen:
            raise ValueError("cyclic list")
        seen.add(id(node))
        out.append(node.car)
        node = node.cdr
    return out


def iter_list(lst: Any) -> Iterator[Any]:
    """Iterate over the elements of a proper list (no cycle check)."""
    node = lst
    while isinstance(node, Cons):
        yield node.car
        node = node.cdr


def is_proper_list(obj: Any) -> bool:
    """True iff ``obj`` is nil or an acyclic nil-terminated cons chain."""
    seen: set[int] = set()
    node = obj
    while node is not None:
        if not isinstance(node, Cons) or id(node) in seen:
            return False
        seen.add(id(node))
        node = node.cdr
    return True


def proper_list_length(lst: Any) -> int:
    """Length of a proper list; raises ``ValueError`` otherwise."""
    return len(list_to_pylist(lst))
