"""Runtime value types that flow through Lisp programs.

These are *values* (things a variable can hold), as opposed to the
machinery that schedules them.  Futures and task queues live here so the
interpreter, the sequential runner, and the simulated machine can all
traffic in the same objects without circular imports.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:
    from repro.lisp.env import Environment
    from repro.sexpr.datum import Symbol


class Closure:
    """A user-defined function: parameter list, body forms, captured env.

    ``compiled`` caches the closure's compiled entry point — a callable
    ``(env, args) -> effect generator`` built by :mod:`repro.lisp.compile`
    the first time the closure is applied in compiled mode.  ``None``
    until then; the interpreter never touches it.  ``compiled_site`` is
    the definition site's shared cell ``[proto, scope]`` (``proto`` None
    until the first application compiles the body in the site's static
    scope), so every closure minted by the same ``defun``/``lambda`` form
    shares one compiled body.
    """

    __slots__ = ("name", "params", "body", "env", "compiled", "compiled_site")

    def __init__(self, name: str, params: list["Symbol"], body: list[Any], env: "Environment"):
        self.name = name
        self.params = params
        self.body = body
        self.env = env
        self.compiled: Optional[Callable[..., Any]] = None
        self.compiled_site: Optional[list[Any]] = None

    def __repr__(self) -> str:
        return f"#<function {self.name or 'lambda'}/{len(self.params)}>"


class Builtin:
    """A primitive function.

    ``fn`` is either a plain callable (applied directly, cost ``cost``)
    or, when ``is_generator`` is true, a generator function that may
    yield :class:`~repro.lisp.effects.Effect` objects — this is how
    synchronization primitives block.
    """

    __slots__ = ("name", "fn", "is_generator", "cost", "reads_memory", "writes_memory")

    def __init__(
        self,
        name: str,
        fn: Callable[..., Any],
        is_generator: bool = False,
        cost: int = 1,
        reads_memory: bool = False,
        writes_memory: bool = False,
    ):
        self.name = name
        self.fn = fn
        self.is_generator = is_generator
        self.cost = cost
        self.reads_memory = reads_memory
        self.writes_memory = writes_memory

    def __repr__(self) -> str:
        return f"#<builtin {self.name}>"


class Macro:
    """A user-defined macro: expander closure applied to unevaluated args."""

    __slots__ = ("name", "closure")

    def __init__(self, name: str, closure: Closure):
        self.name = name
        self.closure = closure

    def __repr__(self) -> str:
        return f"#<macro {self.name}>"


_future_ids = itertools.count(1)


class Future:
    """A Multilisp-style future (paper §3.1, citing Halstead).

    The future is a first-class value that may be stored in structures
    without blocking; ``touch`` forces it.  Resolution is single-assignment.
    """

    __slots__ = ("future_id", "resolved", "value", "label")

    def __init__(self, label: str = ""):
        self.future_id = next(_future_ids)
        self.resolved = False
        self.value: Any = None
        self.label = label

    def resolve(self, value: Any) -> None:
        if self.resolved:
            raise RuntimeError(f"future {self.future_id} resolved twice")
        self.value = value
        self.resolved = True

    def __repr__(self) -> str:
        state = repr(self.value) if self.resolved else "pending"
        return f"#<future {self.future_id} {state}>"


_queue_ids = itertools.count(1)


class TaskQueue:
    """A FIFO task queue value (paper §4: the central queue of invocations).

    The queue object itself is passive storage; blocking semantics are
    provided by the driver handling :class:`QueueGet`.
    """

    __slots__ = ("queue_id", "items", "closed", "label", "total_enqueued")

    def __init__(self, label: str = ""):
        self.queue_id = next(_queue_ids)
        self.items: list[Any] = []
        self.closed = False
        self.label = label
        self.total_enqueued = 0

    def put(self, item: Any) -> None:
        if self.closed:
            raise RuntimeError(f"put on closed queue {self.label or self.queue_id}")
        self.items.append(item)
        self.total_enqueued += 1

    def try_get(self) -> tuple[bool, Any]:
        if self.items:
            return True, self.items.pop(0)
        return False, None

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{len(self.items)} item(s)"
        return f"#<queue {self.label or self.queue_id}: {state}>"


class LockHandle:
    """A first-class lock value for explicitly created locks.

    Location locks (the common case in transformed code) are named by
    ``(cell_id, field)`` keys and never materialize as values; this class
    backs ``(make-lock)`` for user-level code.
    """

    __slots__ = ("key",)

    _ids = itertools.count(1)

    def __init__(self, label: str = ""):
        self.key = ("lock", next(self._ids), label)

    def __repr__(self) -> str:
        return f"#<lock {self.key[1]}>"
