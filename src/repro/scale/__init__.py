"""Scale-out experiment engine: sharded sweeps + a persistent cache.

The paper's experimental claims (Figures 6/7/10, the §4.1 allocation
model) are *curves over parameter sweeps* — server counts, processor
counts, workload sizes.  Before this package every point was computed
serially in one process, and every ``repro`` invocation re-derived the
same automata and transforms from scratch.  Three pieces fix that:

* :mod:`repro.scale.driver` — a sharded fan-out driver that runs sweep
  jobs on the worker-process farm :mod:`repro.serve.pool` (the one
  ``repro serve --executor process`` uses), with per-job timeouts and
  crash isolation: a worker that dies marks its job ``crashed`` and is
  respawned (the robustness vocabulary of the simulated machine,
  applied to OS processes).
* :mod:`repro.scale.cache` — the one content-addressed result store
  (key = SHA-256 of program source + declarations + pipeline/cost-model
  config + the job's *stage fingerprint*): memory, then disk, then a
  shared ``repro cache-serve`` (reached through
  :mod:`repro.scale.cacheclient`), shared across worker processes,
  runs and machines, with payload-hash integrity checks so a corrupted
  entry is discarded and recomputed, never trusted, and a dead or
  poisoned server degrades to the tiers left.
* :mod:`repro.scale.fingerprint` — per-stage code fingerprints from a
  module-dependency walk, so editing one transform leaves parse /
  analysis / distance entries warm instead of orphaning the cache.
* :mod:`repro.scale.grids` / :mod:`repro.scale.jobs` — the sweep
  families (fig06 / fig07 / fig10 / analytic-model validation /
  analyze-only distance jobs) as self-contained, picklable job specs,
  each fully deterministic on the simulated machine.

``repro sweep`` (the CLI) stitches them together and emits one JSON
report (:mod:`repro.scale.report`) whose deterministic body is
byte-identical across worker counts; wall-clock measurements live in a
single separable ``"wall"`` section.  See ``docs/scaling.md``.
"""

from repro.scale.cache import (
    ResultCache,
    cache_key,
    canonical_json,
    check_entry,
    code_version,
    make_entry,
)
from repro.scale.driver import JobOutcome, run_jobs
from repro.scale.fingerprint import (
    STAGE_ROOTS,
    STAGES,
    module_closure,
    stage_fingerprints,
)
from repro.scale.grids import grid_jobs, grid_names
from repro.scale.jobs import (
    SweepJob,
    job_cache_key,
    job_key_material,
    job_stage,
    run_job,
)
from repro.scale.report import (
    build_report,
    dumps_report,
    format_sweep,
    strip_wall,
)

__all__ = [
    "JobOutcome",
    "ResultCache",
    "STAGES",
    "STAGE_ROOTS",
    "SweepJob",
    "build_report",
    "cache_key",
    "canonical_json",
    "check_entry",
    "code_version",
    "dumps_report",
    "format_sweep",
    "grid_jobs",
    "grid_names",
    "job_cache_key",
    "job_key_material",
    "job_stage",
    "make_entry",
    "module_closure",
    "run_job",
    "run_jobs",
    "stage_fingerprints",
    "strip_wall",
]
