"""The per-tick reference stepper, as a ``Machine`` subclass.

``Machine`` steps with an event scheduler: it advances the clock in
batches between scheduler events, runs a lone process ahead, and asks
a fault plan how many ticks are quiet.  :class:`TickerMachine` is the
original polling loop it replaced: advance the clock one tick, call
the fault plan's ``on_tick``, charge every engaged processor one tick,
resume whoever hit zero.  Everything else is ``Machine``'s own code,
so a test runs one workload on both classes and compares what they
leave: result, outputs, effect trace, ``MachineStats`` and the fault
plan's injections and RNG state.
"""

from __future__ import annotations

from repro.runtime.machine import Machine


class TickerMachine(Machine):
    """A ``Machine`` that steps one tick at a time."""

    def _step(self) -> None:
        self.time += 1
        if self.faults is not None:
            self.faults.on_tick(self)
        # Sample before the first kick: a kick that raises ends the run
        # on this tick, and the tick still counts.
        self.stats.sample(sum(
            1 for cpu in self.cpus if cpu.overhead > 0 or cpu.proc is not None))
        for cpu in self.cpus:
            if cpu.overhead > 0:
                cpu.overhead -= 1
                cpu.busy_time += 1
                if cpu.overhead == 0 and cpu.proc is not None:
                    self._kick(cpu)
                continue
            proc = cpu.proc
            if proc is None:
                continue
            cpu.busy_time += 1
            proc.busy_total += 1
            if proc.busy_remaining > 0:
                proc.busy_remaining -= 1
            if proc.busy_remaining == 0:
                self._kick(cpu)
        live = sum(1 for p in self.processes.values() if p.state != "done")
        self.stats.peak_live_processes = max(self.stats.peak_live_processes, live)


#: The class that runs each stepper a test names.
STEPPERS = {"heap": Machine, "ticker": TickerMachine}
