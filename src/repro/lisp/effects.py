"""Effects yielded by the generator-style evaluator.

Every observable step of evaluation is an :class:`Effect`.  The driver
(sequential runner or simulated machine) receives effects one at a time
and may answer value-producing effects through ``generator.send``.

Effect costs follow the paper's cost assumptions (§1.2): ordinary
operations cost one time step; process creation and context switches are
"noticeably more expensive than function invocation" — the machine
charges :class:`SpawnProcess` and rescheduling from its
:class:`~repro.runtime.clock.CostModel`, not from here.

Effects are slotted dataclasses; the value effects (:class:`Tick`, the
memory, variable and lock effects) compare and hash by value.  They are
not frozen, because a frozen dataclass's ``__init__`` sets each field
through ``object.__setattr__`` (about 480 ns against 200 ns for a
``Tick``), but nothing may mutate an effect once built: the compiled
evaluator yields one shared ``Tick`` per opcode from every process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional


class Effect:
    """Base class; drivers dispatch on the concrete type."""

    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class Tick(Effect):
    """Consume ``cost`` simulated time units doing ``op``.

    A driver may receive several operations' cost in one ``Tick``: the
    compiled evaluator's trampoline merges each run of adjacent ticks
    (``op`` is then ``"merged"``).  ``op`` is descriptive only; no
    driver reads it.
    """

    cost: int = 1
    op: str = "step"


@dataclass(slots=True, unsafe_hash=True)
class MemRead(Effect):
    """Read ``field`` of ``cell`` (a Cons or StructInstance)."""

    cell: Any
    field: str


@dataclass(slots=True, unsafe_hash=True)
class MemWrite(Effect):
    """Write ``field`` of ``cell``.  The store itself is performed by the
    evaluator *after* the driver lets this effect through; the driver can
    therefore order conflicting writes by delaying its reply."""

    cell: Any
    field: str
    value: Any


@dataclass(slots=True, unsafe_hash=True)
class VarRead(Effect):
    """Read of a free (non-local) variable — used by escape analysis."""

    name: Any


@dataclass(slots=True, unsafe_hash=True)
class VarWrite(Effect):
    name: Any
    value: Any


@dataclass(slots=True, unsafe_hash=True)
class LockAcquire(Effect):
    """Block until the lock named ``key`` is held.

    ``key`` is a hashable location name, conventionally
    ``(cell_id, field)`` for fine-grained location locks (paper §3.2.1).
    ``shared`` requests the read side of a read-write lock.
    """

    key: Any
    shared: bool = False


@dataclass(slots=True, unsafe_hash=True)
class LockRelease(Effect):
    key: Any
    shared: bool = False


@dataclass(slots=True)
class SpawnProcess(Effect):
    """Create a process evaluating ``thunk`` (a 0-arg generator factory).

    If ``future`` is not None the process's result resolves it.  The
    driver replies with the future (or the result, sequentially).
    """

    thunk: Callable[[], Any]
    future: Optional[Any] = None
    label: str = "child"


@dataclass(slots=True)
class WaitFuture(Effect):
    """Block until ``future`` is resolved; reply is its value."""

    future: Any


@dataclass(slots=True)
class WaitChildren(Effect):
    """Block until every process spawned (transitively) by this process
    has finished — a Cilk-style join.  The DPS wrapper uses it so a
    caller sees the completed structure; sequentially it is a no-op
    because spawns run depth-first to completion."""


@dataclass(slots=True)
class QueuePut(Effect):
    """Append ``item`` to the task queue named ``queue``."""

    queue: Any
    item: Any


@dataclass(slots=True)
class QueueGet(Effect):
    """Block for the next item of ``queue``; reply is the item.

    ``poison_ok``: if True, a closed queue replies with
    :data:`QUEUE_CLOSED` instead of erroring — servers use this to
    terminate (paper §4.1's kill tokens).
    """

    queue: Any
    poison_ok: bool = True


@dataclass(slots=True)
class QueueGetAny(Effect):
    """Block for an item from the lowest-indexed nonempty queue.

    The §4.1 multiple-queue discipline: one queue per call site, earlier
    call sites preferred — rendered as a priority dequeue rather than the
    paper's drain-then-advance (which deadlocks when a later queue's work
    creates items for an earlier queue, as tree recursion does).  Replies
    :data:`QUEUE_CLOSED` when every queue is closed and drained.
    """

    queues: list


@dataclass(slots=True)
class QueueClose(Effect):
    queue: Any


QUEUE_CLOSED = object()


@dataclass(slots=True)
class Output(Effect):
    """A ``print`` — collected by the driver in sequential order of emission."""

    value: Any


@dataclass(slots=True)
class Annotate(Effect):
    """Out-of-band marker for traces (head/tail boundaries, invocation ids)."""

    kind: str
    data: dict = field(default_factory=dict)
