"""Performance infrastructure: benchmarks, parallel sweeps, result cache.

This package is the one place in the library allowed to read wall-clock
time and spawn worker processes — everything under ``repro/perf/`` is
measurement harness, not simulation.  The simulator itself stays a pure
function of its seed; the lint rules (:mod:`repro.lint.rules`) enforce
that split by exempting only this directory from the determinism and
parallel-seeding rules.

- :mod:`repro.perf.cache` — persistent on-disk result cache shared by
  sweep workers and the benchmark harness.
- :mod:`repro.perf.sweep` — deterministic parallel sweep runner
  (per-point seeds from :mod:`repro.sim.rng`, dispatched through the
  resilient execution layer).
- :mod:`repro.perf.resilient` — crash-resilient dispatch: per-point
  timeouts, deterministic retry/backoff, ``BrokenProcessPool``
  recovery with poison-point quarantine, sweep health counters.
- :mod:`repro.perf.journal` — append-only JSONL sweep journal backing
  ``--resume`` for interrupted campaigns.
- :mod:`repro.perf.outcomes` — structured skip/failure records that
  stand in for stats dicts in partial sweep results.
- :mod:`repro.perf.bench` — the ``repro-noc bench`` smoke suite and the
  ``BENCH_fabric.json`` trajectory format.
"""

from repro.perf.cache import MISS, ResultCache
from repro.perf.resilient import RetryPolicy, SweepHealth, format_health
from repro.perf.sweep import (
    SweepPoint,
    failed_points,
    is_failed,
    is_skipped,
    point_seed,
    run_sweep,
    skipped_points,
)

__all__ = [
    "MISS", "ResultCache", "SweepPoint", "point_seed", "run_sweep",
    "RetryPolicy", "SweepHealth", "format_health",
    "is_skipped", "is_failed", "skipped_points", "failed_points",
]
