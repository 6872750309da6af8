"""The Figure 9 server pool: S servers draining a central task queue.

"Because every transaction executes an identical function body, we can
have a collection of servers that repeatedly execute this piece of code.
Each server only needs to obtain the arguments to an invocation to begin
executing a new task." (§4)

A server is the paper's abstract loop::

    while ¬ *recursion-done* do
        dequeue parameters;
        {body of f}
    end

realized as a driver-level generator over the shared evaluator.  The
transformed function enqueues argument lists instead of spawning
(enqueue mode of the CRI transform), and the terminating invocation
closes the queue — the paper's kill tokens.

Multiple self-call sites get one queue per site, drained in order
(§4.1: "a server uses the next queue only after it finishes executing
all calls in the current queue"), preserving the temporal ordering that
a single scrambled queue would destroy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.lisp.effects import QUEUE_CLOSED, QueueGet, QueueGetAny, Tick
from repro.lisp.interpreter import Interpreter
from repro.lisp.trace import Trace
from repro.lisp.values import TaskQueue
from repro.runtime.clock import CostModel
from repro.runtime.machine import Machine, MachineStats
from repro.sexpr.datum import list_to_pylist


def server_gen(interp: Interpreter, queues: list[TaskQueue], fname: str, stats: dict):
    """One server: repeatedly take from the lowest-indexed nonempty queue
    (earlier call sites first) and apply f, until all queues close."""
    fn = interp.lookup_function(interp.intern(fname))
    handled = 0
    while True:
        if len(queues) == 1:
            item = yield QueueGet(queues[0])
        else:
            item = yield QueueGetAny(queues)
        if item is QUEUE_CLOSED:
            break
        args = list_to_pylist(item) if item is not None else []
        yield from interp.apply_gen(fn, args)
        handled += 1
    stats[id(queues)] = stats.get(id(queues), 0)
    return handled


@dataclass
class ServerPoolResult:
    stats: MachineStats
    per_server: list[int] = field(default_factory=list)
    total_invocations: int = 0
    trace: Optional[Trace] = None

    @property
    def makespan(self) -> int:
        return self.stats.total_time


def run_server_pool(
    interp: Interpreter,
    fname: str,
    initial_args: list[Any],
    servers: int = 4,
    processors: Optional[int] = None,
    queues: int = 1,
    cost_model: Optional[CostModel] = None,
    queue_var: str = "*task-queue*",
    policy: str = "fifo",
    seed: Optional[int] = None,
) -> ServerPoolResult:
    """Run ``fname`` (an enqueue-mode transformed function) on a pool.

    ``fname`` must consult the global ``queue_var`` for its task queue
    (single call site) or ``queue_var-<k>`` per call site; the pool seeds
    queue 0 with ``initial_args`` and spawns ``servers`` server processes
    on ``processors`` CPUs (default: one CPU per server, the paper's
    dedicated-server picture).
    """
    if processors is None:
        processors = servers
    # Guard against the most common misuse: an enqueue transform with
    # multiple call sites expects *task-queue*-0..n-1; creating fewer
    # queues would leave those variables unbound mid-run.
    fsym = interp.intern(fname)
    source = interp.source_forms.get(fsym)
    if source is not None and queues == 1:
        from repro.sexpr.printer import write_str

        text = write_str(source)
        if f"{queue_var}-1" in text:
            raise ValueError(
                f"{fname} was transformed with per-call-site queues; pass "
                "queues=<site count> (see CRIResult.queue_count)"
            )
    machine = Machine(
        interp,
        processors=processors,
        cost_model=cost_model,
        policy=policy,
        seed=seed,
    )
    qs = [TaskQueue(label=f"{fname}-q{k}") for k in range(queues)]
    for q in qs:
        machine.register_quiesce_queue(q)
    if queues == 1:
        interp.globals.define(queue_var, qs[0])
    else:
        for k, q in enumerate(qs):
            interp.globals.define(f"{queue_var}-{k}", q)
        interp.globals.define(queue_var, qs[0])

    from repro.sexpr.datum import lisp_list

    qs[0].put(lisp_list(*initial_args))

    stats_box: dict = {}
    procs = [
        machine.spawn(server_gen(interp, qs, fname, stats_box), label=f"server-{i}")
        for i in range(servers)
    ]
    stats = machine.run()
    per_server = [p.result or 0 for p in procs]
    return ServerPoolResult(
        stats=stats,
        per_server=per_server,
        total_invocations=sum(per_server),
        trace=machine.trace,
    )
