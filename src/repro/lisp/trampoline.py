"""The continuation-passing trampoline behind compiled evaluation.

Compiled code (:mod:`repro.lisp.compile`) is stackless at function-call
granularity: instead of delegating into a callee's generator with
``yield from`` — which nests a Python frame per active Lisp call and
overflows on deep recursion — a compiled call site yields a private
:class:`Invoke` control object carrying the callee's effect generator.
The trampoline maintains the call chain as an explicit list, so ten
thousand pending Lisp frames cost ten thousand list slots, not ten
thousand Python stack frames (the ``eval_k`` chain-loop idea).

``trampoline(gen)`` wraps an inner generator into an ordinary effect
generator: every real :class:`~repro.lisp.effects.Effect` other than a
:class:`~repro.lisp.effects.Tick` is re-yielded transparently (driver
replies travel back via ``send``, driver exceptions via ``throw``),
while :class:`Invoke` frames are consumed internally.

Adjacent ticks are merged: between two visible effects a run of ticks
is only a cost no other process can observe (§1.2), so the driver gets
one ``Tick`` of the summed cost.  The run is flushed before the next
other effect, before the outermost frame returns or raises (an error
keeps its clock), and once its cost reaches :data:`TICK_RUN_CAP` (an
endless pure loop still returns to the driver, so ``max_time`` fires);
a lone tick passes through as it is.  Machine runs are the
interpreter's to the tick, but effect streams match only after the
interpreter's ticks are merged the same way.

A compiled ``while`` goes further and folds its own unit ticks: it
counts them in a local and yields one :class:`TickRun` per run, which
the trampoline adds to its run (splitting it at the cap) exactly as if
the ticks had come one by one.

Nesting is safe: a trampoline inside a trampoline consumes its own
``Invoke`` frames and re-yields only real effects, so spawn thunks that
build their own trampolined generators compose without coordination.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.lisp.effects import Effect, Tick

#: The effect-generator type compiled code and the interpreter share.
EvalGen = Generator[Any, Any, Any]

#: A run of ticks is flushed to the driver once its cost reaches this.
TICK_RUN_CAP = 1024

__all__ = ["Invoke", "TickRun", "trampoline", "EvalGen", "TICK_RUN_CAP"]


class Invoke(Effect):
    """Internal control frame: run ``gen`` to completion, reply its value.

    Only the trampoline may consume this; it must never reach a driver.
    Compiled call sites yield it instead of ``yield from``-ing the
    callee so recursion depth is bounded by list growth, not the Python
    stack.
    """

    __slots__ = ("gen",)

    def __init__(self, gen: EvalGen) -> None:
        self.gen = gen

    def __repr__(self) -> str:
        return "<invoke>"


class TickRun(Effect):
    """Internal control item: ``count`` unit ticks, the last of them
    ``last``, folded by a compiled loop that counted them in a local
    (:meth:`repro.lisp.compile.Compiler._compile_while`; ``count`` is
    at most :data:`TICK_RUN_CAP`).  The trampoline adds them to its run
    as if they had come one by one; it never reaches a driver."""

    __slots__ = ("count", "last")

    def __init__(self, count: int, last: Tick) -> None:
        self.count = count
        self.last = last

    def __repr__(self) -> str:
        return f"<{self.count} ticks>"


def _run_tick(first: Tick, ticks: int, cost: int) -> Tick:
    """The one ``Tick`` a run of ``ticks`` ticks costing ``cost`` reaches
    the driver as: its only tick, or a new one for the sum."""
    return first if ticks == 1 else Tick(cost, "merged")


def trampoline(gen: EvalGen) -> EvalGen:
    """Drive ``gen`` (and every frame it invokes) as one flat generator.

    * ``StopIteration`` values route to the parent frame as the reply to
      its pending ``Invoke`` — mirroring what ``yield from`` returns.
    * Exceptions unwind frame by frame via ``generator.throw`` so Lisp
      code observes them at the same evaluation point as under the
      interpreter; with no frame left they propagate to the driver.
    * Driver-side ``throw``/``close`` at a yield point are forwarded to
      the innermost live frame, matching nested-``yield from`` behavior.
    * Adjacent ``Tick`` effects reach the driver merged (see above).
    """
    stack: List[EvalGen] = [gen]
    to_send: Any = None
    pending: Optional[BaseException] = None
    first: Any = None  # the unflushed run's first Tick
    ticks = cost = 0  # the run's length and summed cost
    held: Any = None  # a visible effect waiting behind the run's flush
    while stack:
        if held is not None:
            item, held = held, None
        else:
            top = stack[-1]
            try:
                if pending is not None:
                    exc, pending = pending, None
                    item = top.throw(exc)
                else:
                    item = top.send(to_send)
            except StopIteration as stop:
                stack.pop()
                to_send = stop.value
                continue
            except BaseException as exc:
                stack.pop()
                if not stack:
                    if first is not None:
                        yield _run_tick(first, ticks, cost)
                    raise
                pending = exc
                to_send = None
                continue
            if type(item) is Tick:
                to_send = None
                if first is None:
                    first, ticks, cost = item, 1, item.cost
                else:
                    ticks += 1
                    cost += item.cost
                if cost < TICK_RUN_CAP:
                    continue
                item = _run_tick(first, ticks, cost)
                first = None
            elif type(item) is TickRun:
                to_send = None
                last = item.last
                if first is None:
                    first, ticks, cost = last, item.count, item.count
                else:
                    ticks += item.count
                    cost += item.count
                if cost < TICK_RUN_CAP:
                    continue
                # The cap falls inside the folded run: the capped part
                # goes out, the rest (fewer than the cap) starts the
                # next run, as if the ticks had come one by one.
                rest = cost - TICK_RUN_CAP
                item = _run_tick(first, ticks - rest, TICK_RUN_CAP)
                first = last if rest else None
                ticks = cost = rest
            elif type(item) is Invoke:
                stack.append(item.gen)
                to_send = None
                continue
            elif first is not None:
                held = item
                item = _run_tick(first, ticks, cost)
                first = None
        try:
            to_send = yield item
        except GeneratorExit:
            # Driver closed us: close the live frames innermost-first.
            while stack:
                stack.pop().close()
            raise
        except BaseException as exc:
            # Driver threw (fault injection): deliver to the innermost
            # frame on the next loop turn, exactly like nested yield from.
            pending = exc
            to_send = None
            held = None
    if first is not None:
        yield _run_tick(first, ticks, cost)
    return to_send
