"""Primitive functions of the mini-Lisp.

Two kinds (see :class:`~repro.lisp.values.Builtin`):

* *pure* builtins — Python callables with no memory effects
  (arithmetic, predicates, constructors);
* *generator* builtins — functions that traverse or mutate the heap and
  therefore yield :class:`MemRead`/:class:`MemWrite` effects per cell, or
  that synchronize (locks, touch) and yield blocking effects.

The synchronization builtins are exactly the vocabulary Curare's
transformations emit (paper §3.2.1): ``lock-loc!``/``unlock-loc!`` lock a
single *location* (cell, field); ``read-lock-loc!`` is the shared side of
the read-write variant; ``touch`` forces a future.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any

from repro.lisp.effects import (
    LockAcquire,
    LockRelease,
    MemRead,
    MemWrite,
    Output,
    QueueClose,
    QueueGet,
    QueuePut,
    Tick,
    VarWrite,
    WaitFuture,
)
from repro.lisp.errors import WrongType
from repro.lisp.structs import StructInstance
from repro.lisp.values import Builtin, Closure, Future, LockHandle, TaskQueue
from repro.lisp.vectors import VECTOR_BUILTINS
from repro.sexpr.datum import Cons, Symbol, SymbolTable, lisp_list


class HashTable:
    """An unordered hash table value (paper §3.2.3's canonical unordered
    structure).  Keys compare with ``eql`` semantics: identity for heap
    objects, value equality for numbers/symbols/strings."""

    __slots__ = ("table", "cell_id")

    _ids = itertools.count(1)

    def __init__(self) -> None:
        self.table: dict[Any, Any] = {}
        self.cell_id = -next(self._ids)  # negative ids: distinct namespace

    @staticmethod
    def _key(key: Any) -> Any:
        if isinstance(key, (Cons, StructInstance)):
            return ("id", id(key))
        return ("val", key)

    def __repr__(self) -> str:
        return f"#<hash-table :count {len(self.table)}>"


def _require_number(value: Any, op: str) -> Any:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise WrongType("a number", value, op)
    return value


def _lisp_bool(value: bool) -> Any:
    return True if value else None


def _truthy(value: Any) -> bool:
    return value is not None and value is not False


# ---------------------------------------------------------------------------
# Pure builtins
# ---------------------------------------------------------------------------


def _bi_add(*args: Any) -> Any:
    if len(args) == 2:
        # Loop increments are two-argument adds on real numbers; type()
        # (not isinstance) also excludes bool.
        a, b = args
        ta = type(a)
        tb = type(b)
        if (ta is int or ta is float) and (tb is int or tb is float):
            return a + b
    total: Any = 0
    for a in args:
        total += _require_number(a, "+")
    return total


def _bi_sub(first: Any, *rest: Any) -> Any:
    if len(rest) == 1:
        a = rest[0]
        ta = type(first)
        tb = type(a)
        if (ta is int or ta is float) and (tb is int or tb is float):
            return first - a
    _require_number(first, "-")
    if not rest:
        return -first
    out = first
    for a in rest:
        out -= _require_number(a, "-")
    return out


def _bi_mul(*args: Any) -> Any:
    total: Any = 1
    for a in args:
        total *= _require_number(a, "*")
    return total


def _bi_div(first: Any, *rest: Any) -> Any:
    _require_number(first, "/")
    if not rest:
        return 1 / first
    out = first
    for a in rest:
        _require_number(a, "/")
        if isinstance(out, int) and isinstance(a, int) and out % a == 0:
            out //= a
        else:
            out /= a
    return out


_COMPARE_FNS = {
    "=": operator.eq,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


def _make_compare(op: str) -> Any:
    """A comparison builtin specialized to one operator.

    Loop tests execute these constantly; binding the operator function
    in a closure avoids a dispatch-dict lookup and an extra call frame
    per comparison.
    """
    fn = _COMPARE_FNS[op]

    def compare(*args: Any) -> Any:
        if len(args) == 2:
            # Two-argument compares on real numbers are the loop-test hot
            # path; type() (not isinstance) also excludes bool.
            a, b = args
            ta = type(a)
            tb = type(b)
            if (ta is int or ta is float) and (tb is int or tb is float):
                return True if fn(a, b) else None
        for a in args:
            _require_number(a, op)
        return _lisp_bool(all(fn(a, b) for a, b in zip(args, args[1:])))

    return compare


def _bi_inc(a: Any) -> Any:
    if type(a) is int:
        return a + 1
    return _require_number(a, "1+") + 1


def _bi_dec(a: Any) -> Any:
    if type(a) is int:
        return a - 1
    return _require_number(a, "1-") - 1


def _bi_eq(a: Any, b: Any) -> Any:
    if isinstance(a, (Cons, StructInstance, Future, TaskQueue, LockHandle, HashTable, Closure)):
        return _lisp_bool(a is b)
    if isinstance(b, (Cons, StructInstance, Future, TaskQueue, LockHandle, HashTable, Closure)):
        return None
    return _lisp_bool(a == b and type(a) is type(b))


def _bi_equal(a: Any, b: Any) -> Any:
    return _lisp_bool(_equal_rec(a, b, 0))


def _equal_rec(a: Any, b: Any, depth: int) -> bool:
    if depth > 10_000:
        raise RecursionError("equal: structure too deep (cyclic?)")
    while isinstance(a, Future) and a.resolved:
        a = a.value
    while isinstance(b, Future) and b.resolved:
        b = b.value
    if isinstance(a, Cons) and isinstance(b, Cons):
        return _equal_rec(a.car, b.car, depth + 1) and _equal_rec(a.cdr, b.cdr, depth + 1)
    if isinstance(a, Cons) or isinstance(b, Cons):
        return False
    return _truthy(_bi_eq(a, b))


# ---------------------------------------------------------------------------
# Generator builtins: list structure (traced heap access)
# ---------------------------------------------------------------------------


def _gb_car(interp: Any, obj: Any):
    return (yield from interp.read_field_gen(obj, "car", "car"))


def _gb_cdr(interp: Any, obj: Any):
    return (yield from interp.read_field_gen(obj, "cdr", "cdr"))


def _make_cxr(ops: list[str], name: str):
    def gb(interp: Any, obj: Any, _ops=tuple(ops), _name=name):
        for field in _ops:
            obj = yield from interp.read_field_gen(obj, field, _name)
        return obj

    return gb


def _gb_rplaca(interp: Any, cell: Any, value: Any):
    yield from interp.write_field_gen(cell, "car", value, "rplaca")
    return cell


def _gb_rplacd(interp: Any, cell: Any, value: Any):
    yield from interp.write_field_gen(cell, "cdr", value, "rplacd")
    return cell


def _gb_length(interp: Any, lst: Any):
    n = 0
    node = lst
    while isinstance(node, Cons):
        yield Tick(1, "length")
        node = yield from interp.read_field_gen(node, "cdr", "length")
        n += 1
    if node is not None:
        raise WrongType("a proper list", lst, "length")
    return n


def _gb_nth(interp: Any, n: Any, lst: Any):
    _require_number(n, "nth")
    node = lst
    for _ in range(int(n)):
        if not isinstance(node, Cons):
            return None
        node = yield from interp.read_field_gen(node, "cdr", "nth")
    return (yield from interp.read_field_gen(node, "car", "nth")) if isinstance(node, Cons) else None


def _gb_nthcdr(interp: Any, n: Any, lst: Any):
    _require_number(n, "nthcdr")
    node = lst
    for _ in range(int(n)):
        if not isinstance(node, Cons):
            return None
        node = yield from interp.read_field_gen(node, "cdr", "nthcdr")
    return node


def _gb_last(interp: Any, lst: Any):
    node = lst
    if not isinstance(node, Cons):
        return None
    while True:
        nxt = yield from interp.read_field_gen(node, "cdr", "last")
        if not isinstance(nxt, Cons):
            return node
        node = nxt


def _gb_append(interp: Any, *lists: Any):
    items: list[Any] = []
    for lst in lists[:-1] if lists else []:
        node = lst
        while isinstance(node, Cons):
            items.append((yield from interp.read_field_gen(node, "car", "append")))
            node = yield from interp.read_field_gen(node, "cdr", "append")
    tail = lists[-1] if lists else None
    result: Any = tail
    for item in reversed(items):
        yield Tick(1, "cons")
        result = Cons(item, result)
    return result


def _gb_reverse(interp: Any, lst: Any):
    out: Any = None
    node = lst
    while isinstance(node, Cons):
        item = yield from interp.read_field_gen(node, "car", "reverse")
        yield Tick(1, "cons")
        out = Cons(item, out)
        node = yield from interp.read_field_gen(node, "cdr", "reverse")
    return out


def _gb_copy_list(interp: Any, lst: Any):
    items: list[Any] = []
    node = lst
    while isinstance(node, Cons):
        items.append((yield from interp.read_field_gen(node, "car", "copy-list")))
        node = yield from interp.read_field_gen(node, "cdr", "copy-list")
    out: Any = node
    for item in reversed(items):
        yield Tick(1, "cons")
        out = Cons(item, out)
    return out


def _gb_member(interp: Any, item: Any, lst: Any):
    node = lst
    while isinstance(node, Cons):
        value = yield from interp.read_field_gen(node, "car", "member")
        if _truthy(_bi_eq(item, value)):
            return node
        node = yield from interp.read_field_gen(node, "cdr", "member")
    return None


def _gb_assoc(interp: Any, key: Any, alist: Any):
    node = alist
    while isinstance(node, Cons):
        pair = yield from interp.read_field_gen(node, "car", "assoc")
        if isinstance(pair, Cons):
            pair_key = yield from interp.read_field_gen(pair, "car", "assoc")
            if _truthy(_bi_eq(key, pair_key)):
                return pair
        node = yield from interp.read_field_gen(node, "cdr", "assoc")
    return None


def _gb_mapcar(interp: Any, fn: Any, lst: Any):
    results: list[Any] = []
    node = lst
    while isinstance(node, Cons):
        item = yield from interp.read_field_gen(node, "car", "mapcar")
        results.append((yield from interp.apply_gen(fn, [item])))
        node = yield from interp.read_field_gen(node, "cdr", "mapcar")
    out: Any = None
    for item in reversed(results):
        yield Tick(1, "cons")
        out = Cons(item, out)
    return out


def _gb_funcall(interp: Any, fn: Any, *args: Any):
    return (yield from interp.apply_gen(fn, list(args)))


def _gb_apply(interp: Any, fn: Any, *args: Any):
    if not args:
        raise WrongType("a final argument list", None, "apply")
    fixed = list(args[:-1])
    node = args[-1]
    while isinstance(node, Cons):
        fixed.append((yield from interp.read_field_gen(node, "car", "apply")))
        node = yield from interp.read_field_gen(node, "cdr", "apply")
    return (yield from interp.apply_gen(fn, fixed))


def _gb_print(interp: Any, value: Any):
    yield Output(value)
    return value


# §2's escape hatches: "only the most general features of Lisp, such as
# the set and eval functions, frustrate this analysis ... a program
# analyzer can reasonably assume the worst about their side-effects."
# They work at runtime; the analyzer treats a caller as fully opaque.


def _gb_set(interp: Any, name: Any, value: Any):
    """(set 'sym value) — assign through a computed symbol (the target
    is data, not syntax)."""
    if not isinstance(name, Symbol):
        raise WrongType("a symbol", name, "set")
    yield VarWrite(name, value)
    yield Tick(1, "set")
    interp.globals.define(name.name, value)
    return value


def _gb_symbol_value(interp: Any, name: Any):
    if not isinstance(name, Symbol):
        raise WrongType("a symbol", name, "symbol-value")
    yield Tick(1, "symbol-value")
    return interp.globals.lookup(name.name)


def _gb_eval(interp: Any, form: Any):
    """(eval datum) — full evaluation of data as code."""
    yield Tick(2, "eval")
    return (yield from interp.eval_gen(form, interp.globals))


# ---------------------------------------------------------------------------
# Hash tables
# ---------------------------------------------------------------------------


def _gb_make_hash_table(interp: Any):
    yield Tick(1, "make-hash-table")
    return HashTable()


def _gb_gethash(interp: Any, key: Any, table: Any):
    if not isinstance(table, HashTable):
        raise WrongType("a hash-table", table, "gethash")
    k = HashTable._key(key)
    yield MemRead(table, f"key:{k!r}")
    return table.table.get(k)


def hash_put_gen(interp: Any, table: Any, key: Any, value: Any):
    if not isinstance(table, HashTable):
        raise WrongType("a hash-table", table, "puthash")
    k = HashTable._key(key)
    yield MemWrite(table, f"key:{k!r}", value)
    table.table[k] = value
    return value


def _gb_puthash(interp: Any, key: Any, table: Any, value: Any):
    return (yield from hash_put_gen(interp, table, key, value))


def _gb_hash_count(interp: Any, table: Any):
    if not isinstance(table, HashTable):
        raise WrongType("a hash-table", table, "hash-table-count")
    yield Tick(1, "hash-table-count")
    return len(table.table)


# ---------------------------------------------------------------------------
# Synchronization builtins (the vocabulary of transformed code)
# ---------------------------------------------------------------------------


def location_key(obj: Any, field: str) -> tuple:
    """The lock-table key naming location ``obj.field``."""
    if isinstance(obj, (Cons, StructInstance, HashTable)):
        return ("loc", obj.cell_id, field)
    raise WrongType("a heap object", obj, "lock location")


def _field_name(field: Any) -> str:
    if isinstance(field, Symbol):
        return field.name
    if isinstance(field, str):
        return field
    raise WrongType("a field symbol", field, "lock-loc!")


def _gb_lock_loc(interp: Any, obj: Any, field: Any):
    """(lock-loc! obj 'field) — exclusive lock on one location."""
    yield LockAcquire(location_key(obj, _field_name(field)))
    return None


def _gb_unlock_loc(interp: Any, obj: Any, field: Any):
    yield LockRelease(location_key(obj, _field_name(field)))
    return None


def _gb_read_lock_loc(interp: Any, obj: Any, field: Any):
    """Shared (reader) side of the read-write location lock (§3.2.1)."""
    yield LockAcquire(location_key(obj, _field_name(field)), shared=True)
    return None


def _gb_read_unlock_loc(interp: Any, obj: Any, field: Any):
    yield LockRelease(location_key(obj, _field_name(field)), shared=True)
    return None


def _cell_lockable(obj: Any) -> bool:
    from repro.lisp.vectors import LispVector

    return isinstance(obj, (Cons, StructInstance, HashTable, LispVector))


def _gb_lock_cell(interp: Any, obj: Any):
    """(lock-cell! obj) — coalesced lock covering a whole object (§3.2.1's
    'replace the m locks by a single lock'); for arrays this is the
    whole-array lock used when element indices are unanalyzable."""
    if not _cell_lockable(obj):
        raise WrongType("a heap object", obj, "lock-cell!")
    yield LockAcquire(("cell", obj.cell_id))
    return None


def _gb_unlock_cell(interp: Any, obj: Any):
    if not _cell_lockable(obj):
        raise WrongType("a heap object", obj, "unlock-cell!")
    yield LockRelease(("cell", obj.cell_id))
    return None


def _gb_lock_var(interp: Any, name: Any):
    """(lock-var! 'a) — atomicity lock for a reorderable variable update
    (§3.2.3: non-atomic commutative/associative ops made atomic with
    locks)."""
    if not isinstance(name, Symbol):
        raise WrongType("a symbol", name, "lock-var!")
    yield LockAcquire(("var", name.name))
    return None


def _gb_unlock_var(interp: Any, name: Any):
    if not isinstance(name, Symbol):
        raise WrongType("a symbol", name, "unlock-var!")
    yield LockRelease(("var", name.name))
    return None


def _gb_make_lock(interp: Any):
    yield Tick(1, "make-lock")
    return LockHandle()


def _gb_acquire(interp: Any, lock: Any):
    if not isinstance(lock, LockHandle):
        raise WrongType("a lock", lock, "acquire!")
    yield LockAcquire(lock.key)
    return None


def _gb_release(interp: Any, lock: Any):
    if not isinstance(lock, LockHandle):
        raise WrongType("a lock", lock, "release!")
    yield LockRelease(lock.key)
    return None


def _gb_sync(interp: Any):
    """(sync) — wait for every process this one spawned, transitively."""
    from repro.lisp.effects import WaitChildren

    yield WaitChildren()
    return None


def _gb_touch(interp: Any, value: Any):
    """(touch x) — force x if it is a future, else return it unchanged."""
    if isinstance(value, Future):
        result = yield WaitFuture(value)
        return result
    return value
    yield  # pragma: no cover


def _gb_future_p(interp: Any, value: Any):
    yield Tick(1, "future-p")
    return _lisp_bool(isinstance(value, Future))


# ---------------------------------------------------------------------------
# Task queues (the explicit Figure 9 server-pool vocabulary)
# ---------------------------------------------------------------------------


def _gb_make_queue(interp: Any, *label: Any):
    yield Tick(1, "make-queue")
    name = label[0].name if label and isinstance(label[0], Symbol) else ""
    return TaskQueue(label=name)


def _gb_enqueue(interp: Any, queue: Any, item: Any):
    if not isinstance(queue, TaskQueue):
        raise WrongType("a queue", queue, "enqueue!")
    yield QueuePut(queue, item)
    return item


def _gb_dequeue(interp: Any, queue: Any):
    """(dequeue! q) — blocks; returns the keyword :queue-closed when the
    queue is closed and drained."""
    if not isinstance(queue, TaskQueue):
        raise WrongType("a queue", queue, "dequeue!")
    from repro.lisp.effects import QUEUE_CLOSED

    item = yield QueueGet(queue)
    if item is QUEUE_CLOSED:
        return interp.intern(":queue-closed")
    return item


def _gb_close_queue(interp: Any, queue: Any):
    if not isinstance(queue, TaskQueue):
        raise WrongType("a queue", queue, "close-queue!")
    yield QueueClose(queue)
    return None


def _gb_queue_length(interp: Any, queue: Any):
    if not isinstance(queue, TaskQueue):
        raise WrongType("a queue", queue, "queue-length")
    yield Tick(1, "queue-length")
    return len(queue)


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def builtin_table(symbols: SymbolTable) -> dict[Symbol, Builtin]:
    """Symbol -> primitive, for every builtin, keyed in ``symbols``.

    Input-independent constant data: ``Interpreter`` builds it once per
    symbol table (``symbols.derived(builtin_table)``) and copies the
    dict, so ``defun``/``define_builtin`` in one world never reach
    another.  A :class:`Builtin` is immutable and takes the interpreter
    as an argument, so one object serves every world.
    """
    from repro.lisp.interpreter import cxr_ops

    B = Builtin

    pure = [
        B("+", _bi_add),
        B("-", _bi_sub),
        B("*", _bi_mul),
        B("/", _bi_div),
        B("mod", lambda a, b: _require_number(a, "mod") % _require_number(b, "mod")),
        B("1+", _bi_inc),
        B("1-", _bi_dec),
        B("=", _make_compare("=")),
        B("<", _make_compare("<")),
        B(">", _make_compare(">")),
        B("<=", _make_compare("<=")),
        B(">=", _make_compare(">=")),
        B("min", lambda *a: min(_require_number(x, "min") for x in a)),
        B("max", lambda *a: max(_require_number(x, "max") for x in a)),
        B("abs", lambda a: abs(_require_number(a, "abs"))),
        B("eq", _bi_eq),
        B("eql", _bi_eq),
        B("equal", _bi_equal),
        B("not", lambda a: _lisp_bool(not _truthy(a))),
        B("null", lambda a: _lisp_bool(a is None)),
        B("atom", lambda a: _lisp_bool(not isinstance(a, Cons))),
        B("consp", lambda a: _lisp_bool(isinstance(a, Cons))),
        B("listp", lambda a: _lisp_bool(a is None or isinstance(a, Cons))),
        B("numberp", lambda a: _lisp_bool(isinstance(a, (int, float)) and not isinstance(a, bool))),
        B("symbolp", lambda a: _lisp_bool(isinstance(a, Symbol))),
        B("stringp", lambda a: _lisp_bool(isinstance(a, str))),
        B("zerop", lambda a: _lisp_bool(_require_number(a, "zerop") == 0)),
        B("evenp", lambda a: _lisp_bool(_require_number(a, "evenp") % 2 == 0)),
        B("oddp", lambda a: _lisp_bool(_require_number(a, "oddp") % 2 == 1)),
        B("cons", lambda a, b: Cons(a, b)),
        B("list", lambda *a: lisp_list(*a)),
        B("identity", lambda a: a),
        B(
            "heap-object-p",
            lambda a: _lisp_bool(isinstance(a, (Cons, StructInstance, HashTable))),
        ),
    ]
    gen = [
        B("car", _gb_car, is_generator=True, reads_memory=True),
        B("cdr", _gb_cdr, is_generator=True, reads_memory=True),
        B("rplaca", _gb_rplaca, is_generator=True, writes_memory=True),
        B("rplacd", _gb_rplacd, is_generator=True, writes_memory=True),
        B("length", _gb_length, is_generator=True, reads_memory=True),
        B("nth", _gb_nth, is_generator=True, reads_memory=True),
        B("nthcdr", _gb_nthcdr, is_generator=True, reads_memory=True),
        B("last", _gb_last, is_generator=True, reads_memory=True),
        B("append", _gb_append, is_generator=True, reads_memory=True),
        B("reverse", _gb_reverse, is_generator=True, reads_memory=True),
        B("copy-list", _gb_copy_list, is_generator=True, reads_memory=True),
        B("member", _gb_member, is_generator=True, reads_memory=True),
        B("assoc", _gb_assoc, is_generator=True, reads_memory=True),
        B("mapcar", _gb_mapcar, is_generator=True, reads_memory=True),
        B("funcall", _gb_funcall, is_generator=True),
        B("apply", _gb_apply, is_generator=True),
        B("print", _gb_print, is_generator=True),
        B("make-hash-table", _gb_make_hash_table, is_generator=True),
        B("gethash", _gb_gethash, is_generator=True, reads_memory=True),
        B("puthash", _gb_puthash, is_generator=True, writes_memory=True),
        B("hash-table-count", _gb_hash_count, is_generator=True),
        # Synchronization vocabulary.
        B("lock-loc!", _gb_lock_loc, is_generator=True, cost=2),
        B("unlock-loc!", _gb_unlock_loc, is_generator=True, cost=1),
        B("read-lock-loc!", _gb_read_lock_loc, is_generator=True, cost=2),
        B("read-unlock-loc!", _gb_read_unlock_loc, is_generator=True, cost=1),
        B("lock-cell!", _gb_lock_cell, is_generator=True, cost=2),
        B("unlock-cell!", _gb_unlock_cell, is_generator=True, cost=1),
        B("lock-var!", _gb_lock_var, is_generator=True, cost=2),
        B("unlock-var!", _gb_unlock_var, is_generator=True, cost=1),
        B("make-lock", _gb_make_lock, is_generator=True),
        B("acquire!", _gb_acquire, is_generator=True, cost=2),
        B("release!", _gb_release, is_generator=True, cost=1),
        B("touch", _gb_touch, is_generator=True),
        B("sync", _gb_sync, is_generator=True),
        B("future-p", _gb_future_p, is_generator=True),
        # Task queues.
        B("make-queue", _gb_make_queue, is_generator=True),
        B("enqueue!", _gb_enqueue, is_generator=True),
        B("dequeue!", _gb_dequeue, is_generator=True),
        B("close-queue!", _gb_close_queue, is_generator=True),
        B("queue-length", _gb_queue_length, is_generator=True),
    ]
    # Composed c[ad]{2,4}r accessors.
    cxrs = []
    for depth in (2, 3, 4):
        for combo in itertools.product("ad", repeat=depth):
            name = "c" + "".join(combo) + "r"
            cxrs.append(
                B(name, _make_cxr(cxr_ops(name), name), is_generator=True, reads_memory=True)
            )
    escapes = [
        B("set", _gb_set, is_generator=True, writes_memory=True),
        B("symbol-value", _gb_symbol_value, is_generator=True, reads_memory=True),
        B("eval", _gb_eval, is_generator=True, reads_memory=True, writes_memory=True),
    ]
    return {
        symbols.intern(b.name): b
        for b in itertools.chain(pure, gen, VECTOR_BUILTINS, cxrs, escapes)
    }


__all__ = ["builtin_table", "HashTable", "location_key", "hash_put_gen"]
