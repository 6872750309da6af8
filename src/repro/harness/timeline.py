"""ASCII timelines: the visual half of Figures 6 and 7.

The machine records how many processors are busy at every tick
(``stats.concurrency_runs``) and the trace records per-process
spawn/finish times; this module renders both as text — an occupancy
sparkline and a per-process Gantt chart — so examples and bench results
can *show* the overlap the CRI model creates, the way the paper's
figures do.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from repro.runtime.machine import Machine, MachineStats

_BLOCKS = " ▁▂▃▄▅▆▇█"


def occupancy_sparkline(
    stats: MachineStats, width: int = 72, processors: Optional[int] = None
) -> str:
    """Busy-processor count over time, downsampled to ``width`` columns:
    each column is the mean over its window of ticks."""
    runs = stats.concurrency_runs
    if not runs:
        return "(no samples)"
    peak = (processors if processors is not None
            else max(busy for busy, _ in runs) or 1)
    starts = []  # the first tick of each run
    before = []  # the busy-tick sum of the runs before it
    ticks = busy_ticks = 0
    for busy, length in runs:
        starts.append(ticks)
        before.append(busy_ticks)
        ticks += length
        busy_ticks += busy * length

    def busy_before(tick: int) -> int:
        i = bisect_right(starts, tick) - 1
        return before[i] + runs[i][0] * (tick - starts[i])

    if ticks <= width:
        buckets = [float(busy) for busy, length in runs
                   for _ in range(length)]
    else:
        buckets = []
        step = ticks / width
        for col in range(width):
            lo = int(col * step)
            hi = min(max(lo + 1, int((col + 1) * step)), ticks)
            buckets.append((busy_before(hi) - busy_before(lo)) / (hi - lo))
    line = "".join(
        _BLOCKS[min(len(_BLOCKS) - 1, round(v / peak * (len(_BLOCKS) - 1)))]
        for v in buckets
    )
    return (
        f"busy processors (peak {peak}, mean "
        f"{stats.mean_concurrency:.2f}) over {stats.total_time} steps:\n{line}"
    )


def process_gantt(machine: Machine, width: int = 72, max_rows: int = 24) -> str:
    """One row per process: ░ created-but-waiting, █ lifetime span.

    Rows are in spawn order — for CRI executions this is invocation
    order, so the picture is exactly Figure 7's staircase of overlapping
    invocations.
    """
    total = max(machine.time, 1)
    rows = []
    processes = sorted(machine.processes.values(), key=lambda p: p.proc_id)
    clipped = len(processes) > max_rows
    for proc in processes[:max_rows]:
        start = proc.spawn_time
        end = proc.finish_time if proc.state == "done" else machine.time
        col0 = int(start / total * (width - 1))
        col1 = max(col0 + 1, int(end / total * (width - 1)) + 1)
        bar = " " * col0 + "█" * (col1 - col0)
        label = (proc.label or f"p{proc.proc_id}")[:12].ljust(12)
        rows.append(f"{proc.proc_id:>3} {label} |{bar.ljust(width)}|")
    header = f"    {'process'.ljust(12)} |{'time →'.ljust(width)}|"
    out = [header] + rows
    if clipped:
        out.append(f"    … {len(processes) - max_rows} more process(es)")
    return "\n".join(out)
