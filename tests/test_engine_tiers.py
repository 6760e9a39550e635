"""Cross-tier stepping equivalence: ref / skip / dense / auto.

The dense SoA tier (:mod:`repro.perf.dense`) and the ``"auto"``
selector only earn their speedups if they are *invisible* to every
observable: cycle-identical :class:`~repro.fabric.stats.FabricStats`
(including ordered latency samples), byte-identical obs JSONL streams
where tracing is allowed, and exact materialize/dematerialize
round-trips when tiers switch mid-run.  These tests drive the same
pre-generated plans through every tier and compare.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.core.config import MultiRingConfig
from repro.core.network import MultiRingFabric
from repro.core.topology import (
    chiplet_chain,
    grid_of_rings,
    single_ring_topology,
)
from repro.fabric.message import Message, MessageKind
from repro.obs.export import events_to_jsonl
from repro.perf.dense import dense_ineligible_reason, numpy_available
from repro.sim.rng import make_rng

ENGINES = ["ref", "skip", "dense", "auto"]

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="dense tier requires numpy")


def uniform_plan(nodes, cycles, per_cycle, seed):
    rng = make_rng(seed)
    plan = []
    for cycle in range(cycles):
        for _ in range(per_cycle):
            src = rng.choice(nodes)
            dst = rng.choice(nodes)
            if src != dst:
                plan.append((cycle, src, dst))
    return plan


def crossover_plan(nodes, seed):
    """Bursty load that drags ``auto`` back and forth across the
    occupancy thresholds: light -> saturated -> idle -> saturated."""
    plan = []
    plan += uniform_plan(nodes, 200, 1, seed)
    plan += [(c + 200, s, d) for c, s, d in
             uniform_plan(nodes, 300, 8, seed + 1)]
    plan += [(c + 650, s, d) for c, s, d in
             uniform_plan(nodes, 250, 8, seed + 2)]
    return plan


def run_plan(fabric, plan, cycles, kind=MessageKind.REQUEST):
    i, n = 0, len(plan)
    for cycle in range(cycles):
        while i < n and plan[i][0] == cycle:
            _, src, dst = plan[i]
            fabric.try_inject(Message(src=src, dst=dst, kind=kind,
                                      created_cycle=cycle, msg_id=i))
            i += 1
        fabric.step(cycle)
    return fabric.stats


def make_ring(engine, nstops=16, bidirectional=True, **config_kwargs):
    topo, _ = single_ring_topology(nstops, bidirectional=bidirectional)
    return MultiRingFabric(
        topo, MultiRingConfig(engine=engine, **config_kwargs))


def all_tier_stats(plan, cycles, nstops=16, bidirectional=True,
                   **config_kwargs):
    return {
        engine: run_plan(
            make_ring(engine, nstops, bidirectional, **config_kwargs),
            plan, cycles)
        for engine in ENGINES
    }


def assert_tiers_identical(stats_by_engine):
    ref = stats_by_engine["ref"]
    for engine, stats in stats_by_engine.items():
        assert stats == ref, (
            f"engine={engine} stats diverge from reference:\n"
            f"{engine}={stats}\nref={ref}")


# -- cycle-identical FabricStats across all four tiers --------------------


@needs_numpy
@pytest.mark.parametrize("bidirectional", [True, False],
                         ids=["full-ring", "half-ring"])
@pytest.mark.parametrize("load", ["light", "saturated", "crossover"])
def test_all_tiers_identical(bidirectional, load):
    nodes = list(range(16))
    if load == "light":
        plan, cycles = uniform_plan(nodes, 600, 1, seed=21), 600
    elif load == "saturated":
        plan, cycles = uniform_plan(nodes, 600, 8, seed=22), 600
    else:
        plan, cycles = crossover_plan(nodes, seed=23), 1000
    stats = all_tier_stats(plan, cycles, bidirectional=bidirectional)
    assert_tiers_identical(stats)
    assert stats["ref"].delivered > 0


def _tight_itag_queues():
    from repro.params import QueueParams
    return QueueParams(itag_threshold=1)


@needs_numpy
@pytest.mark.parametrize("config_kwargs", [
    dict(enable_etags=False),
    dict(enable_itags=False),
    dict(queues=_tight_itag_queues()),
], ids=["no-etags", "no-itags", "itag-thr-1"])
def test_feature_ablations_across_tiers(config_kwargs):
    plan = uniform_plan(list(range(12)), 700, 6, seed=31)
    assert_tiers_identical(
        all_tier_stats(plan, 700, nstops=12, **config_kwargs))


@needs_numpy
def test_selector_thrash_is_exact():
    """A pathological check cadence (every cycle, zero hysteresis gap)
    forces the auto selector to materialize/dematerialize constantly;
    the round-trips must stay invisible."""
    plan = crossover_plan(list(range(12)), seed=41)
    ref = run_plan(make_ring("ref", 12), plan, 1000)
    thrash = run_plan(make_ring("auto", 12, engine_check_every=1),
                      plan, 1000)
    assert thrash == ref


@needs_numpy
def test_mid_run_engine_switch_round_trips():
    """Explicit set_engine() flips mid-run dematerialize exactly."""
    plan = uniform_plan(list(range(16)), 900, 8, seed=51)
    ref = run_plan(make_ring("ref"), plan, 900)

    fabric = make_ring("dense")
    i, n = 0, len(plan)
    for cycle in range(900):
        if cycle == 300:
            fabric.set_engine("ref")
        elif cycle == 600:
            fabric.set_engine("dense")
        while i < n and plan[i][0] == cycle:
            _, src, dst = plan[i]
            fabric.try_inject(Message(src=src, dst=dst,
                                      created_cycle=cycle, msg_id=i))
            i += 1
        fabric.step(cycle)
    assert fabric.stats == ref


@needs_numpy
def test_snapshot_read_during_dense_is_exact():
    """flits_in_flight() while the dense engine is live dematerializes
    on read without disturbing the simulation."""
    plan = uniform_plan(list(range(16)), 600, 8, seed=61)
    ref = run_plan(make_ring("ref"), plan, 600)

    fabric = make_ring("dense")
    i, n = 0, len(plan)
    probed = 0
    for cycle in range(600):
        while i < n and plan[i][0] == cycle:
            _, src, dst = plan[i]
            fabric.try_inject(Message(src=src, dst=dst,
                                      created_cycle=cycle, msg_id=i))
            i += 1
        fabric.step(cycle)
        if cycle % 97 == 0:
            probed += len(fabric.flits_in_flight())
    assert fabric.stats == ref
    assert probed > 0


# -- multi-ring systems: one serial fabric step across bridges -----------


def local_plus_cross_plan(rings, cycles, per_ring, cross_every, seed):
    """Ring-local uniform traffic plus periodic cross-ring flows."""
    rng = make_rng(seed)
    plan = []
    for cycle in range(cycles):
        for ring_nodes in rings:
            for _ in range(per_ring):
                src = rng.choice(ring_nodes)
                dst = rng.choice(ring_nodes)
                if src != dst:
                    plan.append((cycle, src, dst))
        if cycle % cross_every == 0:
            for i in range(len(rings) - 1):
                plan.append((cycle, rng.choice(rings[i]),
                             rng.choice(rings[i + 1])))
                plan.append((cycle, rng.choice(rings[i + 1]),
                             rng.choice(rings[i])))
    return plan


def multi_ring_system(name):
    """(topology, per-ring node lists) for an RBRG-L2 chain or an
    RBRG-L1 grid."""
    if name == "chain":
        return chiplet_chain(n_rings=4, nodes_per_ring=6)
    topo = grid_of_rings(2, 2, devices_per_vring=3,
                         memory_per_hring=3).topology
    node_rings = {}
    for placement in topo.nodes:
        node_rings.setdefault(placement.ring, []).append(placement.node)
    return topo, [node_rings[r.ring_id] for r in topo.rings
                  if r.ring_id in node_rings]


@needs_numpy
@pytest.mark.parametrize("system", ["chain", "grid"])
def test_multi_ring_tiers_identical(system):
    """Bridges couple rings inside one fabric step; every tier policy
    must give the reference stats, ordered latency samples included."""
    topo, rings = multi_ring_system(system)
    plan = local_plus_cross_plan(rings, 300, per_ring=3, cross_every=8,
                                 seed=82)
    stats = {engine: run_plan(
                 MultiRingFabric(topo, MultiRingConfig(engine=engine)),
                 plan, 300)
             for engine in ENGINES}
    assert_tiers_identical(stats)
    assert stats["ref"].delivered > 0


# -- hypothesis property: auto == ref for arbitrary seeds -----------------


@needs_numpy
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       per_cycle=st.integers(min_value=1, max_value=10))
def test_auto_matches_reference_property(seed, per_cycle):
    plan = uniform_plan(list(range(12)), 400, per_cycle, seed)
    ref = run_plan(make_ring("ref", 12), plan, 400)
    auto = run_plan(make_ring("auto", 12), plan, 400)
    assert auto == ref


# -- tracing pins scalar, byte-identical streams --------------------------


@needs_numpy
@pytest.mark.parametrize("engine", ENGINES)
def test_traced_stream_is_byte_identical(engine):
    """Tracing pins the rings scalar on every tier, so the JSONL stream
    any engine mode produces equals the reference stream byte for byte."""
    plan = uniform_plan(list(range(12)), 400, 6, seed=71)

    def traced_run(mode):
        fabric = make_ring(mode, 12)
        recorder = fabric.attach_trace_recorder()
        run_plan(fabric, plan, 400)
        for ring in fabric.rings.values():
            assert ring.active_tier() != "dense", (
                f"engine={mode}: traced ring must stay scalar")
        return events_to_jsonl(recorder.sorted_events())

    assert traced_run(engine) == traced_run("ref")


@needs_numpy
def test_dense_eligibility_reporting():
    topo, _ = single_ring_topology(16, bidirectional=True)
    ring = MultiRingFabric(topo, MultiRingConfig()).rings[0]
    assert dense_ineligible_reason(ring) is None

    escape = MultiRingFabric(
        topo, MultiRingConfig(escape_slot_period=4)).rings[0]
    assert dense_ineligible_reason(escape) is not None


# -- run_until hook-list plumbing (selector + sampler share a cadence) ----


def test_run_until_accepts_hook_list():
    from repro.sim.engine import FunctionComponent, Simulator

    seen = []
    sim = Simulator()
    sim.register(FunctionComponent(lambda cycle: None))
    fired = sim.run_until(
        predicate=lambda: False, max_cycles=10, check_every=4,
        on_check=[lambda c: seen.append(("a", c)),
                  lambda c: seen.append(("b", c))])
    assert not fired
    # Checks after steps 4 and 8, plus the final partial window at 10.
    assert seen == [("a", 4), ("b", 4), ("a", 8), ("b", 8),
                    ("a", 10), ("b", 10)]
