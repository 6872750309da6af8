"""Lisp arrays (vectors).

Paper §2: "The techniques developed for FORTRAN can be applied to Lisp
arrays also.  The major difference ... is that Lisp arrays can contain
pointers."  This module supplies the value type and builtins; the
FORTRAN-style constant-offset dependence analysis lives in
:mod:`repro.analysis.arrays`.

Trace locations for element accesses are ``(cell_id, str(index))`` —
each element is an independent lockable location, matching §3.2.1's
fine-grained location locks.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.lisp.effects import LockAcquire, LockRelease, MemRead, MemWrite, Tick
from repro.lisp.errors import WrongType
from repro.lisp.values import Builtin, Future

_vector_ids = itertools.count(1)


class LispVector:
    """A one-dimensional adjustable-free simple vector."""

    __slots__ = ("items", "cell_id")

    def __init__(self, size: int, initial: Any = None):
        if size < 0:
            raise WrongType("a non-negative size", size, "make-array")
        self.items: list[Any] = [initial] * size
        # Positive id space shared with cons/structs is fine: ids only
        # need to be unique per object, and the counters never collide
        # because cell_id tuples also carry the field name.
        self.cell_id = 1_000_000_000 + next(_vector_ids)

    def __len__(self) -> int:
        return len(self.items)

    def check_index(self, index: Any, op: str) -> int:
        if not isinstance(index, int) or isinstance(index, bool):
            raise WrongType("an integer index", index, op)
        if not 0 <= index < len(self.items):
            raise WrongType(
                f"an index below {len(self.items)}", index, op
            )
        return index

    def __repr__(self) -> str:
        from repro.sexpr.printer import write_str

        inner = " ".join(write_str(x, max_depth=3) for x in self.items[:16])
        suffix = " ..." if len(self.items) > 16 else ""
        return f"#({inner}{suffix})"

    __hash__ = object.__hash__

    def __eq__(self, other: object) -> bool:
        return self is other


def _gb_make_array(interp: Any, size: Any, *initial: Any):
    if not isinstance(size, int) or isinstance(size, bool):
        raise WrongType("an integer size", size, "make-array")
    yield Tick(1, "make-array")
    return LispVector(size, initial[0] if initial else None)


def _gb_aref(interp: Any, vec: Any, index: Any):
    if not isinstance(vec, LispVector):
        raise WrongType("an array", vec, "aref")
    i = vec.check_index(index, "aref")
    yield MemRead(vec, str(i))
    value = vec.items[i]
    if isinstance(value, Future) and value.resolved:
        return value.value
    return value


def _gb_aset(interp: Any, vec: Any, index: Any, value: Any):
    """(aset v i x) — the expansion of (setf (aref v i) x)."""
    if not isinstance(vec, LispVector):
        raise WrongType("an array", vec, "aset")
    i = vec.check_index(index, "aset")
    yield MemWrite(vec, str(i), value)
    vec.items[i] = value
    return value


def _gb_array_length(interp: Any, vec: Any):
    if not isinstance(vec, LispVector):
        raise WrongType("an array", vec, "array-length")
    yield Tick(1, "array-length")
    return len(vec)


def _gb_arrayp(interp: Any, obj: Any):
    yield Tick(1, "arrayp")
    return True if isinstance(obj, LispVector) else None


def _gb_lock_aref(interp: Any, vec: Any, index: Any):
    """(lock-aref! v i) — exclusive lock on one element location."""
    if not isinstance(vec, LispVector):
        raise WrongType("an array", vec, "lock-aref!")
    i = vec.check_index(index, "lock-aref!")
    yield LockAcquire(("loc", vec.cell_id, str(i)))
    return None


def _gb_unlock_aref(interp: Any, vec: Any, index: Any):
    if not isinstance(vec, LispVector):
        raise WrongType("an array", vec, "unlock-aref!")
    i = vec.check_index(index, "unlock-aref!")
    yield LockRelease(("loc", vec.cell_id, str(i)))
    return None


def _gb_read_lock_aref(interp: Any, vec: Any, index: Any):
    if not isinstance(vec, LispVector):
        raise WrongType("an array", vec, "read-lock-aref!")
    i = vec.check_index(index, "read-lock-aref!")
    yield LockAcquire(("loc", vec.cell_id, str(i)), shared=True)
    return None


def _gb_read_unlock_aref(interp: Any, vec: Any, index: Any):
    if not isinstance(vec, LispVector):
        raise WrongType("an array", vec, "read-unlock-aref!")
    i = vec.check_index(index, "read-unlock-aref!")
    yield LockRelease(("loc", vec.cell_id, str(i)), shared=True)
    return None


#: The array builtins (joined into ``builtins.builtin_table``).
VECTOR_BUILTINS = (
    Builtin("make-array", _gb_make_array, is_generator=True),
    Builtin("aref", _gb_aref, is_generator=True, reads_memory=True),
    Builtin("aset", _gb_aset, is_generator=True, writes_memory=True),
    Builtin("array-length", _gb_array_length, is_generator=True),
    Builtin("arrayp", _gb_arrayp, is_generator=True),
    Builtin("lock-aref!", _gb_lock_aref, is_generator=True, cost=2),
    Builtin("unlock-aref!", _gb_unlock_aref, is_generator=True, cost=1),
    Builtin("read-lock-aref!", _gb_read_lock_aref, is_generator=True, cost=2),
    Builtin("read-unlock-aref!", _gb_read_unlock_aref, is_generator=True, cost=1),
)
