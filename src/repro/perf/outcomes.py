"""Structured per-point sweep outcomes: skips and failures.

A sweep result list is no longer guaranteed to hold only stats dicts.
Two structured outcome records can appear in place of a worker result:

- a **skip record** — the point was statically pruned before dispatch
  (see the ``prefilter`` machinery in :mod:`repro.perf.sweep`);
- a **failure record** — the point was dispatched and its worker
  raised, or its value could not be persisted.

Both are plain JSON-able dicts so they flow through ``--json`` dumps
unchanged.  Consumers that aggregate sweep results (``format_campaign``,
CLI gates) must route records through :func:`is_skipped` /
:func:`is_failed` instead of assuming every result is a stats dict.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

#: ``error_kind`` used when a point computed a value that could not be
#: persisted (non-JSON-serializable result rejected by the cache).
KIND_UNSERIALIZABLE = "unserializable-result"


def _point_name(point: Any) -> str:
    """Accept a ``SweepPoint``, any object with ``.name``, or a str."""
    return getattr(point, "name", point)


def skip_record(point: Any, reason: str) -> Dict[str, Any]:
    """The structured result a prefiltered point gets instead of a run."""
    return {"point": _point_name(point), "skipped": True,
            "skip_reason": reason}


def failure_record(
    point: Any,
    error_kind: str,
    attempts: int,
    elapsed_s: float,
    message: str = "",
    traceback_tail: str = "",
) -> Dict[str, Any]:
    """The structured result a failed point gets.

    ``error_kind`` is the exception class name for worker exceptions, or
    :data:`KIND_UNSERIALIZABLE`.  ``attempts`` counts the dispatches of
    the point; ``elapsed_s`` is the worker's wall-clock time;
    ``traceback_tail`` keeps the last lines of the worker traceback for
    diagnosis without unbounded logs.
    """
    return {
        "point": _point_name(point),
        "failed": True,
        "error_kind": error_kind,
        "error_message": message,
        "attempts": attempts,
        "elapsed_s": round(elapsed_s, 3),
        "traceback_tail": traceback_tail,
    }


def is_skipped(result: Any) -> bool:
    """True for a :func:`skip_record` result.

    Requires the ``skip_reason`` co-key, not just a truthy ``skipped``
    entry: a worker's stats dict may legitimately carry a ``skipped``
    *counter* (e.g. skipped flits/cycles) and must not be silently
    dropped from campaign aggregation as if the point never ran.
    """
    return (isinstance(result, dict) and bool(result.get("skipped"))
            and "skip_reason" in result)


def is_failed(result: Any) -> bool:
    """True for a :func:`failure_record` result.

    Requires the ``error_kind`` co-key for the same reason
    :func:`is_skipped` requires ``skip_reason``: a bare truthy
    ``failed`` key in a stats dict (e.g. a failed-injection counter)
    is not a structured failure record.
    """
    return (isinstance(result, dict) and bool(result.get("failed"))
            and "error_kind" in result)


def skipped_points(results: Sequence[Any]) -> List[Dict[str, Any]]:
    """The skip records in a sweep's results, in point order."""
    return [r for r in results if is_skipped(r)]


def failed_points(results: Sequence[Any]) -> List[Dict[str, Any]]:
    """The failure records in a sweep's results, in point order."""
    return [r for r in results if is_failed(r)]


def outcome_counts(results: Sequence[Any]) -> Dict[str, int]:
    """``{"total", "ok", "skipped", "failed"}`` tallies for a result list."""
    skipped = sum(1 for r in results if is_skipped(r))
    failed = sum(1 for r in results if is_failed(r))
    return {
        "total": len(results),
        "ok": len(results) - skipped - failed,
        "skipped": skipped,
        "failed": failed,
    }
