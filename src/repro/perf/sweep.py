"""Deterministic parallel sweep runner.

Runs one worker function over a list of sweep points, optionally across
a process pool.  Three properties make the parallelism invisible to the
results:

- **Per-point seeds are a function of (base seed, point index) only** —
  derived via :func:`repro.sim.rng` *before* any work is dispatched, so
  a point's random stream does not depend on which worker runs it, how
  many workers exist, or what ran before it.  Never derive a seed from
  ``os.getpid()`` or worker identity (the ``parallel-seeding`` lint rule
  flags that pattern outside this package).
- **Results come back in point order** — the pool's results are
  collected in submission order, whatever order the workers finish in.
- **``workers <= 1`` is a plain in-process loop** with the same seeds,
  which is both the no-multiprocessing fallback and the oracle the
  determinism tests compare the parallel path against.

Failure semantics: workers are pure functions of ``(point, seed)``, so
re-running a failed point would only raise the same exception again.
A worker exception therefore becomes that point's structured
:func:`~repro.perf.outcomes.failure_record` (``attempts=1``) in the
results, and every other point still runs.  A dead worker process
(``BrokenProcessPool``) is not a point failure: it propagates.  Each
result is written to the cache as it is collected, so points finished
before such a crash are not lost.

A sweep can take a ``prefilter`` — a predicate run in the parent
process *before* dispatch (typically built on
:mod:`repro.analyze.prefilter`) that returns a skip reason for
statically-infeasible points.  Skipped points get a structured skip
record (:func:`~repro.perf.outcomes.skip_record`) in the results
instead of a worker run; because every point's seed is derived from its
original index before filtering, pruning some points cannot perturb the
RNG stream of any point that still runs.  Skip counts are logged and
queryable via :func:`skipped_points` — pruning is always visible, never
a silent cap.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.perf.cache import MISS, ResultCache
from repro.perf.outcomes import (
    KIND_UNSERIALIZABLE,
    failed_points,
    failure_record,
    is_failed,
    is_skipped,
    skip_record,
    skipped_points,
)
from repro.sim.rng import make_rng, split_rng

__all__ = [
    "Prefilter", "SweepPoint", "point_seed", "run_sweep",
    "skip_record", "is_skipped", "skipped_points",
    "failure_record", "is_failed", "failed_points",
]

logger = logging.getLogger(__name__)

#: Signature of a sweep prefilter: None = run the point, a string =
#: skip it with that reason.
Prefilter = Callable[["SweepPoint", int], Optional[str]]

#: Lines of worker traceback kept in a failure record.
_TRACEBACK_TAIL_LINES = 12


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep.

    ``params`` is stored as a sorted item tuple so points are hashable
    and two dicts with different insertion orders are the same point.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, name: str, **params: Any) -> "SweepPoint":
        return cls(name=name, params=tuple(sorted(params.items())))

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.params)


def point_seed(base_seed: int, index: int) -> int:
    """The seed for sweep point ``index`` under ``base_seed``.

    Pure function of its arguments, routed through
    :func:`repro.sim.rng.split_rng` so every point gets an independent
    stream and inserting a worker pool cannot perturb any point's RNG.
    """
    return split_rng(make_rng(base_seed), index).randrange(2**63)


def _run_point(fn: Callable[[SweepPoint, int], Any], point: SweepPoint,
               seed: int) -> Tuple[bool, Any]:
    """``(True, fn(point, seed))``, or ``(False, failure record)``.

    Module-level so a pool can pickle it; the record is built here, in
    the worker, so both dispatch paths report a failure identically.
    """
    started = time.perf_counter()
    try:
        return True, fn(point, seed)
    except Exception as exc:
        lines = traceback.format_exception(type(exc), exc, exc.__traceback__)
        tail = "".join(lines).rstrip().splitlines()[-_TRACEBACK_TAIL_LINES:]
        return False, failure_record(
            point, type(exc).__name__, attempts=1,
            elapsed_s=time.perf_counter() - started, message=str(exc),
            traceback_tail="\n".join(tail))


def _outcomes(fn: Callable[[SweepPoint, int], Any],
              points: List[SweepPoint], seeds: List[int],
              workers: Optional[int]) -> Iterator[Tuple[bool, Any]]:
    """:func:`_run_point` for each point, yielded in point order."""
    if workers is None or workers <= 1 or not points:
        for point, seed in zip(points, seeds):
            yield _run_point(fn, point, seed)
        return
    # spawn, not fork: a child starts from a fresh import instead of a
    # copy of a parent that may be running threads.
    pool = ProcessPoolExecutor(
        max_workers=min(workers, len(points)),
        mp_context=multiprocessing.get_context("spawn"))
    try:
        yield from pool.map(_run_point, repeat(fn), points, seeds)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_sweep(
    fn: Callable[[SweepPoint, int], Any],
    points: Sequence[SweepPoint],
    base_seed: int = 0,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    cache_name: Optional[str] = None,
    cache_context: Optional[Dict[str, Any]] = None,
    prefilter: Optional[Prefilter] = None,
) -> List[Any]:
    """Evaluate ``fn(point, seed)`` for every point; results in order.

    ``fn`` must be a module-level function (workers receive it by
    pickle) and, when ``cache`` is given, must return something
    JSON-serializable; a value the cache rejects becomes a
    ``KIND_UNSERIALIZABLE`` failure record.  ``cache_context`` folds
    extra identity (config fingerprints, cycle counts) into every cache
    key so entries from a differently-configured sweep never alias.

    ``prefilter`` runs in the parent process before dispatch; a point it
    rejects gets a :func:`~repro.perf.outcomes.skip_record` result and
    never reaches a worker or the cache.  Every point's seed is still
    derived from its original index, so filtered and unfiltered sweeps
    produce identical results for every non-skipped point.
    """
    seeds = [point_seed(base_seed, i) for i in range(len(points))]
    results: List[Any] = [None] * len(points)
    keys: List[Optional[str]] = [None] * len(points)
    name = cache_name or getattr(fn, "__qualname__", "sweep")

    todo: List[int] = []
    for i, point in enumerate(points):
        if prefilter is not None:
            reason = prefilter(point, seeds[i])
            if reason is not None:
                results[i] = skip_record(point, reason)
                logger.info("sweep: skipping point %s: %s",
                            point.name, reason)
                continue
        if cache is not None:
            keys[i] = cache.make_key(
                name,
                point=point.name,
                params=point.as_dict(),
                seed=seeds[i],
                context=cache_context or {},
            )
            # MISS (not None) is the miss signal: a worker that
            # legitimately returns None must still hit the cache on the
            # next run instead of re-dispatching forever.
            hit = cache.get(keys[i], MISS)
            if hit is not MISS:
                results[i] = hit
                continue
        todo.append(i)

    outcomes = _outcomes(fn, [points[i] for i in todo],
                         [seeds[i] for i in todo], workers)
    for i, (ok, value) in zip(todo, outcomes):
        if ok and cache is not None:
            try:
                cache.put(keys[i], value)
            except (TypeError, ValueError) as exc:
                ok, value = False, failure_record(
                    points[i], KIND_UNSERIALIZABLE, attempts=1,
                    elapsed_s=0.0, message=str(exc))
        if not ok:
            logger.warning("sweep: point %s FAILED (%s): %s",
                           value["point"], value["error_kind"],
                           value["error_message"])
        results[i] = value

    skipped = len(skipped_points(results))
    if skipped:
        logger.info("sweep: statically skipped %d/%d point(s)",
                    skipped, len(points))
    failed = len(failed_points(results))
    if failed:
        logger.warning("sweep: %d/%d point(s) failed", failed, len(points))
    return results
