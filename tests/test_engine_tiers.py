"""Cross-tier stepping equivalence: ref / skip / dense / auto.

The dense SoA tier (:mod:`repro.perf.dense`) and the ``"auto"``
selector only earn their speedups if they are *invisible* to every
observable: cycle-identical :class:`~repro.fabric.stats.FabricStats`
(including ordered latency samples), byte-identical obs JSONL streams
where tracing is allowed, and exact materialize/dematerialize
round-trips when tiers switch mid-run.  These tests drive the same
pre-generated plans through every tier and compare.
"""

import gc
import os
import subprocess
import sys
import time

import pytest

from hypothesis import given, settings, strategies as st

from repro.core import ring as ring_module
from repro.core.config import MultiRingConfig
from repro.core.network import MultiRingFabric
from repro.core.topology import (
    TopologyBuilder,
    chiplet_chain,
    grid_of_rings,
    single_ring_topology,
)
from repro.fabric.message import Message, MessageKind
from repro.obs.export import events_to_jsonl
from repro.params import QueueParams
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


def plan_messages(plan, kind=MessageKind.REQUEST):
    return [Message(src=src, dst=dst, kind=kind, created_cycle=cycle,
                    msg_id=i)
            for i, (cycle, src, dst) in enumerate(plan)]


def run_messages(fabric, msgs, cycles):
    i, n = 0, len(msgs)
    for cycle in range(cycles):
        while i < n and msgs[i].created_cycle == cycle:
            fabric.try_inject(msgs[i])
            i += 1
        fabric.step(cycle)
    return fabric.stats


def run_plan(fabric, plan, cycles, kind=MessageKind.REQUEST):
    return run_messages(fabric, plan_messages(plan, kind), cycles)


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
def test_selector_thrash_is_exact(monkeypatch):
    """A pathological check cadence (every cycle) forces the auto
    selector to materialize/dematerialize constantly; the round-trips
    must stay invisible."""
    monkeypatch.setattr(ring_module, "ENGINE_CHECK_EVERY", 1)
    plan = crossover_plan(list(range(12)), seed=41)
    ref = run_plan(make_ring("ref", 12), plan, 1000)
    thrash = run_plan(make_ring("auto", 12), plan, 1000)
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


def chiplet_swap_shape(engine):
    """The bench's ``chiplet_swap`` fabric: an RBRG-L2 chain of four
    8-node chiplets with 2-deep queues and SWAP detection at 32."""
    topo, _ = chiplet_chain(4, 8, stop_spacing=1)
    queues = QueueParams(inject_queue_depth=2, eject_queue_depth=2,
                         bridge_rx_depth=2, bridge_tx_depth=2,
                         bridge_reserved_tx=2, swap_detect_threshold=32)
    return MultiRingFabric(topo, MultiRingConfig(
        engine=engine, queues=queues, eject_drain_per_cycle=1))


def two_interface_ring(engine, nstops=12):
    """A full ring whose every station hosts two node interfaces."""
    builder = TopologyBuilder()
    builder.add_ring(0, nstops, True)
    for stop in range(nstops):
        builder.add_node(0, stop)
        builder.add_node(0, stop)
    return MultiRingFabric(builder.build(), MultiRingConfig(engine=engine))


def cross_chiplet_plan(cycles, per_cycle, seed, rings=4, per_ring=8):
    rng = make_rng(seed)
    plan = []
    for cycle in range(cycles):
        for _ in range(per_cycle):
            src_ring = rng.randrange(rings)
            dst_ring = rng.randrange(rings - 1)
            dst_ring += dst_ring >= src_ring
            plan.append((cycle, src_ring * per_ring + rng.randrange(per_ring),
                         dst_ring * per_ring + rng.randrange(per_ring)))
    return plan


#: (fabric factory, plan, message kind) per shape the skip step's head
#: index must survive tier switches on.  Bursts alternate with quiet
#: spells, and one ``ref`` stint of every period spans a burst's end, so
#: it pops queue heads that no enqueue re-indexes before ``skip`` returns.
INDEX_SWITCH_SHAPES = {
    "chiplet_swap": lambda: (
        chiplet_swap_shape,
        [e for e in cross_chiplet_plan(700, 4, seed=91)
         if e[0] % 140 < 90],
        MessageKind.DATA),
    "two_lane_ring": lambda: (
        lambda engine: make_ring(engine, 16, lanes_per_direction=2),
        [e for e in uniform_plan(list(range(16)), 700, 16, seed=92)
         if e[0] % 140 < 90],
        MessageKind.REQUEST),
    "two_interface_ring": lambda: (
        two_interface_ring,
        [e for e in uniform_plan(list(range(24)), 700, 12, seed=93)
         if e[0] % 140 < 90],
        MessageKind.REQUEST),
}


@pytest.mark.parametrize("shape", sorted(INDEX_SWITCH_SHAPES))
def test_ref_skip_switches_keep_head_index_exact(shape):
    """``ref`` pops queue heads without indexing them, so every switch
    back to ``skip`` must rebuild the head index.  Flip tiers several
    times mid-run with the invariant checker watching the index; the
    stats must equal a pure reference run."""
    make, plan, kind = INDEX_SWITCH_SHAPES[shape]()
    cycles = 900
    ref = run_plan(make("ref"), plan, cycles, kind)

    fabric = make("skip")
    fabric.attach_invariant_checker()
    msgs = plan_messages(plan, kind)
    i, n = 0, len(msgs)
    switches = 0
    for cycle in range(cycles):
        if cycle % 140 in (30, 90):
            fabric.set_engine("ref")
            switches += 1
        elif cycle % 140 in (60, 96):
            fabric.set_engine("skip")
            switches += 1
        while i < n and msgs[i].created_cycle == cycle:
            fabric.try_inject(msgs[i])
            i += 1
        fabric.step(cycle)
    assert switches >= 20
    assert fabric.stats == ref
    assert ref.delivered > 0


#: Runs in a fresh interpreter: this module and tier-1 import numpy.
NUMPY_FREE_SCRIPT = """
import sys
from repro.ai import AiProcessor, AiProcessorConfig
from repro.core.config import MultiRingConfig
from repro.core.network import MultiRingFabric
from repro.core.topology import chiplet_chain, single_ring_topology
from repro.fabric.message import Message, MessageKind
from repro.params import QueueParams
from repro.perf.dense import numpy_available
from repro.sim.rng import make_rng

def run(fabric, cycles, pick, per_cycle, kind=MessageKind.REQUEST):
    for cycle in range(cycles):
        for _ in range(per_cycle):
            src, dst = pick()
            fabric.try_inject(Message(src=src, dst=dst, kind=kind,
                                      created_cycle=cycle))
        fabric.step(cycle)

rng = make_rng(5)
topo, _ = chiplet_chain(4, 8, stop_spacing=1)
chain = MultiRingFabric(topo, MultiRingConfig(queues=QueueParams(
    inject_queue_depth=2, eject_queue_depth=2, bridge_rx_depth=2,
    bridge_tx_depth=2, bridge_reserved_tx=2, swap_detect_threshold=32),
    eject_drain_per_cycle=1))
run(chain, 300, lambda: (rng.randrange(8), 24 + rng.randrange(8)), 2,
    MessageKind.DATA)
proc = AiProcessor(AiProcessorConfig(
    read_fraction=0.5, n_hrings=6, n_llc=12, n_l2=36, n_hbm=6, n_dma=6,
    core_mlp=48, dma_issues_per_cycle=0.4), seed=1)
for cycle in range(200):
    proc.step(cycle)
assert chain.stats.delivered > 0 and proc.fabric.stats.delivered > 0
assert "numpy" not in sys.modules, "a refused ring imported numpy"
for fabric in (chain, proc.fabric):
    for ring in fabric.rings.values():
        assert ring.active_tier() == "skip", ring.spec.ring_id
        assert ring.dense_refusal, ring.spec.ring_id
        print(ring.spec.ring_id, ring.dense_refusal)

# A saturated single ring is still promoted (numpy permitting).
topo, _ = single_ring_topology(32)
ring_fabric = MultiRingFabric(topo, MultiRingConfig())
run(ring_fabric, 200, lambda: rng.sample(range(32), 2), 8)
ring = ring_fabric.rings[0]
if numpy_available():
    assert ring.dense_refusal is None and ring.active_tier() == "dense"
else:
    assert ring.dense_refusal == "numpy is not installed"
print("ok")
"""


def test_paper_rings_refuse_dense_without_importing_numpy():
    """Bridged, two-lane and two-interface rings refuse the dense tier on
    structure alone: running them under ``auto`` never imports numpy,
    every ring records why, and the refusal stands."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_SCRIPT], cwd=root, env=env,
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.rstrip().endswith("ok")
    reasons = result.stdout.splitlines()[:-1]
    assert any("ring bridge" in line for line in reasons)
    assert any("multiple lanes per direction" in line for line in reasons)


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


# -- the auto selector must not lose to the reference walk ----------------


def streaming_plan(nstops, producers, cycles, per_producer, seed):
    """Few fixed producers, uniform-random consumers."""
    pset = set(producers)
    consumers = [n for n in range(nstops) if n not in pset]
    rng = make_rng(seed)
    return [(cycle, src, rng.choice(consumers))
            for cycle in range(cycles)
            for src in producers
            for _ in range(per_producer)]


SATURATED_CYCLES = 1500

#: Oversubscribed single rings: (stops, bidirectional, plan).  The
#: 128-stop streaming ring holds capacity from 8 producers while most
#: stations idle; the uniform rings give every station work every cycle,
#: at 320 stops deep in the dense regime and at 32 near the skip/dense
#: crossover.
SATURATED_RINGS = {
    "ring_full_saturated": (128, True, lambda: streaming_plan(
        128, list(range(0, 128, 16)), SATURATED_CYCLES, 2, seed=42)),
    "ring_uniform_saturated": (320, True, lambda: uniform_plan(
        list(range(320)), SATURATED_CYCLES, 8, seed=43)),
    "ring_half_saturated": (320, False, lambda: uniform_plan(
        list(range(320)), SATURATED_CYCLES, 8, seed=44)),
    "ring_dense32_full": (32, True, lambda: uniform_plan(
        list(range(32)), SATURATED_CYCLES, 8, seed=47)),
    "ring_dense32_half": (32, False, lambda: uniform_plan(
        list(range(32)), SATURATED_CYCLES, 8, seed=48)),
}


def timed_run(engine, nstops, bidirectional, plan):
    """(seconds, stats) of one run.  Only injection and stepping are
    timed: messages are built and routes warmed before the timer
    starts, and GC is parked while it runs."""
    fabric = make_ring(engine, nstops, bidirectional)
    msgs = plan_messages(plan)
    for src, dst in {(src, dst) for _, src, dst in plan}:
        fabric.router.route(src, dst)
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        stats = run_messages(fabric, msgs, SATURATED_CYCLES)
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed, stats


@needs_numpy
@pytest.mark.parametrize("case", sorted(SATURATED_RINGS))
def test_auto_beats_reference_on_saturated_rings(case):
    """On every saturated ring the shipping ``auto`` selector runs at
    least as fast as the reference walk, with identical stats.  Best of
    three runs per tier, alternating, so a slow spell on the host hits
    both tiers alike."""
    nstops, bidirectional, make_plan = SATURATED_RINGS[case]
    plan = make_plan()
    best = {}
    for _ in range(3):
        for engine in ("ref", "auto"):
            elapsed, stats = timed_run(engine, nstops, bidirectional, plan)
            best[engine] = min(best.get(engine, elapsed), elapsed)
            if engine == "ref":
                ref_stats = stats
            else:
                assert stats == ref_stats, (
                    f"{case}: auto stats diverge from reference")
    speedup = best["ref"] / best["auto"]
    assert speedup >= 1.0, (
        f"{case}: auto ran at {speedup:.2f}x the reference walk "
        f"({best['auto']:.3f} s vs {best['ref']:.3f} s)")


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
