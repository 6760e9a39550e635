"""Performance infrastructure: parallel sweeps, result cache, dense tier.

This package is the one place in the library allowed to read wall-clock
time and spawn worker processes — everything under ``repro/perf/`` is
measurement harness, not simulation.  The simulator itself stays a pure
function of its seed; the lint rules (:mod:`repro.lint.rules`) enforce
that split by exempting only this directory from the determinism and
parallel-seeding rules.

- :mod:`repro.perf.cache` — persistent on-disk result cache shared by
  sweep workers and the benchmark harness.
- :mod:`repro.perf.sweep` — deterministic sweep runner: per-point
  seeds from :mod:`repro.sim.rng`, an in-process loop or a process
  pool, results in point order.
- :mod:`repro.perf.outcomes` — structured skip/failure records that
  stand in for stats dicts in partial sweep results.
- :mod:`repro.perf.workers` — picklable sweep workers.
- :mod:`repro.perf.dense` — the dense (numpy) ring stepping tier.
"""

# The names below resolve lazily (PEP 562): the ring's tier selector
# imports repro.perf.dense inside the simulation loop and must not pay
# for the sweep runner (concurrent.futures) it never uses.
_LAZY = {
    "MISS": "repro.perf.cache",
    "ResultCache": "repro.perf.cache",
    "SweepPoint": "repro.perf.sweep",
    "failed_points": "repro.perf.sweep",
    "is_failed": "repro.perf.sweep",
    "is_skipped": "repro.perf.sweep",
    "point_seed": "repro.perf.sweep",
    "run_sweep": "repro.perf.sweep",
    "skipped_points": "repro.perf.sweep",
}

__all__ = sorted(_LAZY)


def __getattr__(name):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: resolve each name once
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
