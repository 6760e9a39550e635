"""Fault-injection campaign runner: fault rate × recovery-config sweeps.

A campaign point drives the minimal chiplet pair (two rings joined by an
RBRG-L2) with cross-chiplet traffic while a :class:`FaultInjector`
corrupts the die-to-die link at a configured flit error rate, then runs
to drain under a progress watchdog.  Points fan out through
:func:`repro.perf.sweep.run_sweep`, so campaigns parallelize across
worker processes and cache per-point results with the same determinism
guarantees as the performance sweeps: per-point seeds depend only on
``(base_seed, point index)``.

This module is imported lazily (not via ``repro.faults``) because it
pulls in the core simulator, which the leaf fault modules must not.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.perf.cache import ResultCache
from repro.perf.sweep import (
    Prefilter,
    SweepPoint,
    is_failed,
    is_skipped,
    run_sweep,
)

#: Campaign defaults, kept small enough for a CI smoke job.
DEFAULT_RATES = (0.0, 1e-4, 1e-3)
DEFAULT_RETRY_LIMITS = (8,)


def fault_campaign_point(point: SweepPoint, seed: int) -> Dict[str, Any]:
    """One campaign point: chiplet pair + BER on the L2 link, to drain.

    Module-level and JSON-returning so it can cross a process pool and
    the result cache.  Simulation imports are lazy (pool children pay
    them once; a fully cached campaign never pays them).
    """
    from repro.core.config import MultiRingConfig
    from repro.core.network import MultiRingFabric
    from repro.core.topology import chiplet_pair
    from repro.faults.injector import FaultInjector
    from repro.faults.link import LinkReliabilityConfig
    from repro.faults.models import BitErrorModel
    from repro.faults.watchdog import NoProgressError
    from repro.testing import inject_all, run_to_drain, uniform_messages

    params = point.as_dict()
    rate = params["rate"]
    retry_limit = params["retry_limit"]
    messages = params["messages"]
    replay_depth = params.get("replay_depth", 0)

    topology, ring0, ring1 = chiplet_pair(nodes_per_ring=4)
    reliability = LinkReliabilityConfig(retry_limit=retry_limit,
                                        replay_depth=replay_depth)
    fabric = MultiRingFabric(
        topology, MultiRingConfig(reliability=reliability))
    injector = FaultInjector(seed=seed)
    if rate > 0.0:
        injector.add(BitErrorModel(rate))
    faults = fabric.attach_fault_injector(injector)

    # Cross-chiplet traffic only: every message exercises the faulted link.
    half = messages // 2
    traffic = uniform_messages(ring0, ring1, half, seed=seed ^ 1)
    traffic += uniform_messages(ring1, ring0, messages - half, seed=seed ^ 2)

    record: Dict[str, Any] = {
        "point": point.name,
        "rate": rate,
        "retry_limit": retry_limit,
        "messages": messages,
        "wedged": False,
    }
    try:
        cycle = inject_all(fabric, traffic)
        cycle = run_to_drain(fabric, start_cycle=cycle)
    except NoProgressError as exc:
        record["wedged"] = True
        record["wedged_at"] = exc.cycle
        cycle = exc.cycle

    stats = fabric.stats
    record.update(
        drain_cycle=cycle,
        accepted=stats.accepted,
        delivered=stats.delivered,
        dropped=stats.dropped,
        link_stall_cycles=stats.link_stall_cycles,
        mean_latency=stats.mean_network_latency(),
        faults_injected=faults.injected,
        faults_detected=faults.detected,
        faults_undetected=faults.undetected,
        retried=faults.retried,
        recovered=faults.recovered,
        mean_retry_latency=faults.mean_retry_latency(),
    )
    return record


def campaign_points(
    rates: Sequence[float] = DEFAULT_RATES,
    retry_limits: Sequence[int] = DEFAULT_RETRY_LIMITS,
    messages: int = 200,
    replay_depths: Sequence[int] = (0,),
) -> List[SweepPoint]:
    """The rate × retry-limit (× replay-depth) cross product as points.

    ``replay_depths`` defaults to ``(0,)`` — auto-sized buffers — in
    which case point names keep their historical ``berX-retryY`` form so
    existing caches and baselines stay valid.
    """
    points = []
    for replay_depth in replay_depths:
        suffix = f"-replay{replay_depth}" if replay_depth else ""
        for retry_limit in retry_limits:
            for rate in rates:
                points.append(SweepPoint.make(
                    f"ber{rate:g}-retry{retry_limit}{suffix}",
                    rate=rate, retry_limit=retry_limit, messages=messages,
                    replay_depth=replay_depth,
                ))
    return points


def run_campaign(
    rates: Sequence[float] = DEFAULT_RATES,
    retry_limits: Sequence[int] = DEFAULT_RETRY_LIMITS,
    messages: int = 200,
    base_seed: int = 0,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    replay_depths: Sequence[int] = (0,),
    prefilter: Optional[Prefilter] = None,
) -> List[Dict[str, Any]]:
    """Run the campaign; one result record per (retry_limit, rate) point.

    With a ``prefilter`` (see
    :func:`repro.analyze.prefilter.campaign_prefilter`),
    statically-infeasible points — e.g. a replay buffer smaller than the
    link round trip, which throttles the link into the watchdog — are
    skipped before dispatch and recorded as skip records.  A point
    whose worker raises becomes a failure record (see
    :func:`repro.perf.sweep.run_sweep`), shown as a ``FAILED`` row by
    :func:`format_campaign`.
    """
    points = campaign_points(rates, retry_limits, messages, replay_depths)
    return run_sweep(
        fault_campaign_point,
        points,
        base_seed=base_seed,
        workers=workers,
        cache=cache,
        cache_name="faults-campaign",
        cache_context={"messages": messages},
        prefilter=prefilter,
    )


def format_campaign(results: Sequence[Dict[str, Any]]) -> str:
    """Results as an aligned text table for the CLI."""
    header = (f"{'point':>18} {'deliv':>6} {'drop':>5} {'inj':>5} "
              f"{'retry':>6} {'recov':>6} {'stall':>6} {'drain':>7} "
              f"{'lat':>7}  state")
    lines = [header, "-" * len(header)]
    for r in results:
        if is_skipped(r):
            lines.append(f"{r['point']:>18}  SKIPPED: {r['skip_reason']}")
            continue
        if is_failed(r):
            lines.append(
                f"{r['point']:>18}  FAILED: {r['error_kind']} after "
                f"{r['attempts']} attempt(s) ({r['elapsed_s']:g}s)")
            continue
        lat = r.get("mean_latency")
        lat_text = "-" if lat is None else f"{lat:.1f}"
        lines.append(
            f"{r['point']:>18} {r['delivered']:>6} {r['dropped']:>5} "
            f"{r['faults_injected']:>5} {r['retried']:>6} "
            f"{r['recovered']:>6} {r['link_stall_cycles']:>6} "
            f"{r['drain_cycle']:>7} {lat_text:>7}  "
            f"{'WEDGED' if r['wedged'] else 'ok'}")
    return "\n".join(lines)
