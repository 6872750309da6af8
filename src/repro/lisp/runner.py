"""Sequential driver: ordinary uniprocessor Lisp execution.

The sequential runner drains an effect stream in order.  It is the
reference semantics: the simulated machine's result must match this
runner's result on the same program (final-state sequentializability,
paper §3.1.1).

Notes on the degenerate handling of concurrency effects:

* ``SpawnProcess`` runs the child *immediately and to completion*
  (depth-first).  For Curare-transformed code this reproduces exactly
  the original execution order: head_i, head_{i+1}, ..., tail_{i+1},
  tail_i — the same order as an untransformed recursive call.
* Lock effects are recorded but never block — a serial depth-first
  execution is already in sequential order, which is precisely what the
  locks exist to enforce concurrently.
* ``QueueGet`` on an empty open queue raises :class:`DeadlockError`;
  a single thread of control can never be legally blocked.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.lisp.effects import (
    Annotate,
    WaitChildren,
    LockAcquire,
    LockRelease,
    MemRead,
    MemWrite,
    Output,
    QUEUE_CLOSED,
    QueueClose,
    QueueGet,
    QueueGetAny,
    QueuePut,
    SpawnProcess,
    Tick,
    VarWrite,
    WaitFuture,
)
from repro.lisp.errors import DeadlockError, LispError
from repro.lisp.interpreter import Interpreter
from repro.lisp.trace import Trace, location_of
from repro.lisp.values import Future


class SequentialRunner:
    """Drives effect streams serially, accumulating time and a trace.

    ``eval_mode`` selects how forms become effect generators: the
    reference ``"interpreter"`` or the closure ``"compiled"`` evaluator
    (:mod:`repro.lisp.compile`).  Both produce the same effect streams,
    except that the compiled one charges each run of adjacent ticks as
    one ``Tick``; ``None`` defers to :func:`repro.perf.default_eval_mode`.
    """

    def __init__(
        self,
        interp: Interpreter,
        trace: Optional[Trace] = None,
        eval_mode: Optional[str] = None,
    ):
        from repro.perf import EVAL_MODES, default_eval_mode

        if eval_mode is None:
            eval_mode = default_eval_mode()
        if eval_mode not in EVAL_MODES:
            raise ValueError(f"unknown eval mode {eval_mode!r}")
        self.interp = interp
        self.eval_mode = eval_mode
        self.trace = trace if trace is not None else Trace()
        self.time = 0
        self.outputs: list[Any] = []

    # -- public API --------------------------------------------------------

    def eval_form(self, form: Any) -> Any:
        """Evaluate one form in the global environment."""
        if self.eval_mode == "compiled":
            from repro.lisp.compile import compiled_eval_gen

            gen = compiled_eval_gen(self.interp, form, self.interp.globals)
        else:
            gen = self.interp.eval_gen(form, self.interp.globals)
        return self.run_gen(gen)

    def eval_text(self, text: str) -> Any:
        """Read and evaluate every form in ``text``; return the last value."""
        result: Any = None
        for form in self.interp.load(text):
            result = self.eval_form(form)
        return result

    def call(self, name: str, *args: Any) -> Any:
        """Call a defined Lisp function with Python-level arguments."""
        fn = self.interp.lookup_function(self.interp.intern(name))
        if self.eval_mode == "compiled":
            from repro.lisp.compile import compiled_apply_gen

            return self.run_gen(compiled_apply_gen(self.interp, fn, list(args)))
        return self.run_gen(self.interp.apply_gen(fn, list(args)))

    # -- effect loop -------------------------------------------------------

    def run_gen(self, gen: Any) -> Any:
        """Drain one effect generator; return its value."""
        reply: Any = None
        while True:
            try:
                effect = gen.send(reply)
            except StopIteration as stop:
                return stop.value
            reply = self._handle(effect)

    def _handle(self, effect: Any) -> Any:
        if isinstance(effect, Tick):
            self.time += effect.cost
            return None
        if isinstance(effect, MemRead):
            self.time += 1
            self.trace.record(
                self.time, 0, "read", location_of(effect.cell, effect.field)
            )
            return None
        if isinstance(effect, MemWrite):
            self.time += 1
            self.trace.record(
                self.time, 0, "write", location_of(effect.cell, effect.field)
            )
            return None
        if isinstance(effect, VarWrite):
            return None
        if isinstance(effect, LockAcquire):
            self.trace.record(self.time, 0, "lock", effect.key, effect.shared)
            return None
        if isinstance(effect, LockRelease):
            self.trace.record(self.time, 0, "unlock", effect.key, effect.shared)
            return None
        if isinstance(effect, SpawnProcess):
            # Depth-first immediate execution == original sequential order.
            self.trace.record(self.time, 0, "spawn", None, effect.label)
            result = self.run_gen(effect.thunk())
            if effect.future is not None:
                effect.future.resolve(result)
                return effect.future
            return None
        if isinstance(effect, WaitChildren):
            return None  # spawns ran depth-first to completion already
        if isinstance(effect, WaitFuture):
            fut: Future = effect.future
            if not fut.resolved:
                raise DeadlockError(
                    f"touch of unresolved future {fut.future_id} in sequential execution"
                )
            return fut.value
        if isinstance(effect, QueuePut):
            effect.queue.put(effect.item)
            self.trace.record(self.time, 0, "annotate", None, ("enqueue", effect.queue.label))
            return None
        if isinstance(effect, QueueGet):
            ok, item = effect.queue.try_get()
            if ok:
                return item
            if effect.queue.closed:
                return QUEUE_CLOSED
            raise DeadlockError(
                f"dequeue on empty open queue {effect.queue.label or effect.queue.queue_id}"
            )
        if isinstance(effect, QueueGetAny):
            for queue in effect.queues:
                ok, item = queue.try_get()
                if ok:
                    return item
            if all(q.closed for q in effect.queues):
                return QUEUE_CLOSED
            raise DeadlockError("dequeue-any on empty open queues")
        if isinstance(effect, QueueClose):
            effect.queue.closed = True
            return None
        if isinstance(effect, Output):
            self.outputs.append(effect.value)
            self.trace.record(self.time, 0, "output", None, effect.value)
            return None
        if isinstance(effect, Annotate):
            self.trace.record(self.time, 0, "annotate", None, (effect.kind, effect.data))
            return None
        raise LispError(f"sequential runner: unknown effect {effect!r}")


def run_program(text: str, call: Optional[tuple] = None) -> tuple[Any, SequentialRunner]:
    """Convenience: fresh interpreter, load ``text``, optionally call an
    entry point ``(name, *args)``.  Returns (value, runner)."""
    interp = Interpreter()
    runner = SequentialRunner(interp)
    value = runner.eval_text(text)
    if call is not None:
        name, *args = call
        value = runner.call(name, *args)
    return value, runner
