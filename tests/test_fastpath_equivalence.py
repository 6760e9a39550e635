"""Fast stepping must be cycle-for-cycle identical to the reference walk.

``Ring.step_fast`` only skips station visits it can prove are no-ops, so
for the same seed the ``engine="skip"`` and ``engine="ref"`` tiers must
produce byte-identical :class:`~repro.fabric.stats.FabricStats` —
including per-message latency samples — on every topology and feature
combination.  These tests drive randomized traffic through both and
compare.  ``step_fast`` keeps an inlined copy of
``CrossStation.process_lane`` (see docs/PERFORMANCE.md), so every
structure the copy handles — multi-lane directions, two-interface
stations, bridges, escape slots — gets a case here.
"""

import pytest

from repro.core.config import MultiRingConfig
from repro.core.network import MultiRingFabric
from repro.core.ring import ExitBucketedSlots, SlotList
from repro.core.topology import (
    TopologyBuilder,
    chiplet_pair,
    single_ring_topology,
)
from repro.fabric.message import Message, MessageKind
from repro.params import QueueParams
from repro.sim.rng import make_rng


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


def run_plan(fabric, plan, cycles, kind=MessageKind.REQUEST):
    """Inject a pre-generated plan with explicit msg ids and run."""
    i, n = 0, len(plan)
    for cycle in range(cycles):
        while i < n and plan[i][0] == cycle:
            _, src, dst = plan[i]
            fabric.try_inject(Message(src=src, dst=dst, kind=kind,
                                      created_cycle=cycle, msg_id=i))
            i += 1
        fabric.step(cycle)
    return fabric.stats


def assert_equivalent(make_fabric, plan, cycles, kind=MessageKind.REQUEST):
    fast = run_plan(make_fabric("skip"), plan, cycles, kind)
    ref = run_plan(make_fabric("ref"), plan, cycles, kind)
    assert fast == ref, (
        f"fast/reference stats diverge:\nfast={fast}\nref ={ref}")
    assert fast.delivered > 0 or not plan
    return fast


def ring_factory(nstops, bidirectional, interfaces=1, **config_kwargs):
    """A ring whose every stop hosts ``interfaces`` node interfaces; with
    two, each station round-robins injection between its ports
    (Section 4.1)."""
    def make(engine):
        builder = TopologyBuilder()
        builder.add_ring(0, nstops, bidirectional)
        for stop in range(nstops):
            for _ in range(interfaces):
                builder.add_node(0, stop)
        return MultiRingFabric(
            builder.build(), MultiRingConfig(engine=engine, **config_kwargs))
    return make


def _ring_cases():
    """(per_cycle, bidirectional, lanes, interfaces) with ids.  The AI
    mesh runs two-lane rings, so every load/direction shape also runs
    two-lane, with one and with two interfaces per stop."""
    cases = []
    for lanes, interfaces, suffix in ((1, 1, ""),
                                      (2, 1, "-two-lanes"),
                                      (1, 2, "-two-interfaces"),
                                      (2, 2, "-two-lanes-two-interfaces")):
        for bidirectional, ring in ((True, "full-ring"),
                                    (False, "half-ring")):
            for per_cycle, load in ((1, "light"), (8, "saturated")):
                cases.append(pytest.param(
                    per_cycle, bidirectional, lanes, interfaces,
                    id=f"{load}-{ring}{suffix}"))
    return cases


@pytest.mark.parametrize("per_cycle, bidirectional, lanes, interfaces",
                         _ring_cases())
def test_ring_equivalence(per_cycle, bidirectional, lanes, interfaces):
    plan = uniform_plan(list(range(12 * interfaces)), 600, per_cycle,
                        seed=per_cycle * 10 + bidirectional)
    assert_equivalent(
        ring_factory(12, bidirectional, interfaces,
                     lanes_per_direction=lanes),
        plan, 600)


@pytest.mark.parametrize("config_kwargs", [
    dict(enable_etags=False),
    dict(enable_itags=False),
    dict(enable_etags=False, enable_itags=False),
    dict(escape_slot_period=4),
    dict(escape_slot_period=4, lanes_per_direction=2),
], ids=["no-etags", "no-itags", "no-tags", "escape-slots",
        "escape-slots-two-lanes"])
def test_feature_ablation_equivalence(config_kwargs):
    plan = uniform_plan(list(range(12)), 600, 6, seed=99)
    assert_equivalent(ring_factory(12, True, **config_kwargs), plan, 600)


def test_streaming_saturation_equivalence():
    """The bench's headline pattern: few producers, many consumers."""
    producers = list(range(0, 32, 8))
    consumers = [n for n in range(32) if n not in producers]
    rng = make_rng(7)
    plan = []
    for cycle in range(500):
        for src in producers:
            for _ in range(2):
                plan.append((cycle, src, rng.choice(consumers)))
    assert_equivalent(ring_factory(32, True), plan, 500)


def test_chiplet_pair_swap_equivalence():
    """Bridged rings under deadlock pressure: SWAP/DRM, bridge injects."""
    queues = QueueParams(inject_queue_depth=2, eject_queue_depth=2,
                         bridge_rx_depth=2, bridge_tx_depth=2,
                         bridge_reserved_tx=2, swap_detect_threshold=32)
    topo, ring0, ring1 = chiplet_pair(nodes_per_ring=4, stop_spacing=1)
    rng = make_rng(11)
    plan = []
    for cycle in range(800):
        for src in ring0:
            plan.append((cycle, src, rng.choice(ring1)))
        for src in ring1:
            plan.append((cycle, src, rng.choice(ring0)))

    def make(engine):
        t, _, _ = chiplet_pair(nodes_per_ring=4, stop_spacing=1)
        return MultiRingFabric(t, MultiRingConfig(
            queues=queues, eject_drain_per_cycle=1, engine=engine))

    stats = assert_equivalent(make, plan, 800, kind=MessageKind.DATA)
    assert stats.swap_events > 0, "scenario failed to exercise SWAP/DRM"


def test_swap_exposes_heads_of_either_direction():
    """A SWAP pop can expose a head wanting the other direction, which
    the skip step must index at once.  Node 0 runs in DRM (every eject
    there swaps its head in) and queues bursts whose heads alternate
    direction, while the other nodes keep sending to it."""
    rng = make_rng(31)
    plan = []
    for cycle in range(600):
        if cycle % 20 == 0:
            plan.extend((cycle, 0, dst) for dst in (1, 7, 2, 6))
        for _ in range(2):
            plan.append((cycle, rng.randrange(1, 8), 0))
    factory = ring_factory(8, True)

    def make(engine):
        fabric = factory(engine)
        fabric.node_port(0).drm_active = True
        return fabric

    ref = run_plan(make("ref"), plan, 700)
    checked = make("skip")
    checked.attach_invariant_checker()
    assert run_plan(checked, plan, 700) == ref
    assert ref.delivered > 0


def test_fault_injection_equivalence():
    """Fault schedules and link-layer recovery are stepping-mode blind.

    ``FabricStats.faults`` participates in dataclass equality, so this
    asserts identical injection cycles, retry counts, retry latencies,
    and event logs under fast and reference stepping.
    """
    from repro.faults import (BitErrorModel, BurstErrorModel, FaultInjector,
                              LaneFailureModel, LinkReliabilityConfig)

    topo, ring0, ring1 = chiplet_pair(nodes_per_ring=4)
    rng = make_rng(17)
    plan = []
    for cycle in range(0, 600, 2):
        plan.append((cycle, rng.choice(ring0), rng.choice(ring1)))
        plan.append((cycle, rng.choice(ring1), rng.choice(ring0)))

    def make(engine):
        t, _, _ = chiplet_pair(nodes_per_ring=4)
        fabric = MultiRingFabric(t, MultiRingConfig(
            reliability=LinkReliabilityConfig(), engine=engine))
        fabric.attach_fault_injector(
            FaultInjector(seed=5)
            .add(BitErrorModel(5e-2))
            .add(BurstErrorModel(5e-3, burst_len=3))
            .add(LaneFailureModel(fail_cycle=200, recover_cycle=350)))
        return fabric

    stats = assert_equivalent(make, plan, 900, kind=MessageKind.DATA)
    assert stats.faults is not None
    assert stats.faults.injected > 0, "scenario failed to inject any fault"
    assert stats.faults.recovered > 0, "no flit exercised the replay path"


def test_fast_path_clean_under_invariant_checker():
    """--check-invariants probes hold on the fast path, and observing
    them does not perturb the run."""
    plan = uniform_plan(list(range(12)), 400, 6, seed=21)
    factory = ring_factory(12, True)
    plain = run_plan(factory("skip"), plan, 400)
    checked_fabric = factory("skip")
    checker = checked_fabric.attach_invariant_checker()
    checked = run_plan(checked_fabric, plan, 400)
    assert checker.checks_run > 0
    assert checked == plain


# -- data-structure units backing the fast path ---------------------------


def test_slotlist_tracks_occupied():
    slots = SlotList(4)
    assert slots.occupied == set()
    slots[1] = "flit"
    slots[3] = "other"
    assert slots.occupied == {1, 3}
    slots[1] = None
    assert slots.occupied == {3}
    with pytest.raises(TypeError):
        slots.append("no")
    with pytest.raises(TypeError):
        slots.clear()


class _FakeFlit:
    def __init__(self, exit_stop):
        self.exit_stop = exit_stop


def test_exit_buckets_follow_residue():
    """A slot lands in the bucket of the cycle-residue at which its flit
    passes its exit stop: (direction * (exit - idx)) mod nstops."""
    slots = ExitBucketedSlots(8, direction=1)
    flit = _FakeFlit(exit_stop=5)
    slots[2] = flit
    assert slots.occupied == {2}
    assert slots.buckets[(5 - 2) % 8] == {2}
    # Overwrite with a different exit: old bucket entry is retired.
    other = _FakeFlit(exit_stop=2)
    slots[2] = other
    assert slots.buckets[(5 - 2) % 8] == set()
    assert slots.buckets[0] == {2}
    slots[2] = None
    assert all(not bucket for bucket in slots.buckets)
    assert slots.occupied == set()


def test_exit_buckets_reverse_direction():
    slots = ExitBucketedSlots(8, direction=-1)
    flit = _FakeFlit(exit_stop=1)
    slots[3] = flit
    assert slots.buckets[(-1 * (1 - 3)) % 8] == {3}


def test_enqueue_inject_registers_station():
    """An enqueue lands its station in the ring's inbox; the next skip
    step drains the inbox into the head index ``want[d]``, where the
    station sits until its queue drains (one visit later it is dropped
    as stale)."""
    topo, nodes = single_ring_topology(6, bidirectional=True)
    fabric = MultiRingFabric(topo, MultiRingConfig(engine="skip"))
    ring = fabric.rings[0]
    assert not ring.pending_stations
    for msg_id in range(3):
        fabric.try_inject(Message(src=nodes[0], dst=nodes[3],
                                  msg_id=msg_id))
    port = fabric.node_port(nodes[0])
    station = port.station
    assert station in ring.pending_stations
    direction = 1  # three stops either way: ties break clockwise
    cycle = 0
    while port.inject_queue:
        fabric.step(cycle)
        cycle += 1
        assert not ring.pending_stations
        if port.inject_queue:
            assert station in ring.want[direction]
        assert station not in ring.want[-direction]
    fabric.step(cycle)
    assert station not in ring.want[direction]
    for cycle in range(cycle + 1, cycle + 20):
        fabric.step(cycle)
    assert fabric.stats.delivered == 3
