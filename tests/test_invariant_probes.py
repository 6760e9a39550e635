"""Runtime invariant probes: clean runs stay silent, planted corruption
is caught with structured context, and attaching a checker never
perturbs simulation results (read-only guarantee)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MultiRingFabric, chiplet_pair, single_ring_topology
from repro.core.config import MultiRingConfig
from repro.fabric import Message, MessageKind
from repro.fabric.probes import InvariantProbe
from repro.lint import FabricInvariantChecker, InvariantViolation
from repro.params import QueueParams
from repro.sim.engine import FunctionComponent, Simulator
from repro.sim.rng import make_rng

pytestmark = pytest.mark.lint


def lane_occupancy(fabric):
    return sum(lane.occupancy() for ring in fabric.rings.values()
               for lane in ring.lanes)


def loaded_fabric(cycles=40, seed=3):
    """A single-ring fabric with traffic in flight on its lanes."""
    topo, nodes = single_ring_topology(6)
    fabric = MultiRingFabric(topo)
    rng = make_rng(seed)
    cycle = 0
    while cycle < cycles or lane_occupancy(fabric) == 0:
        src = rng.choice(nodes)
        dst = rng.choice([n for n in nodes if n != src])
        fabric.try_inject(Message(src=src, dst=dst, kind=MessageKind.DATA,
                                  created_cycle=cycle))
        fabric.step(cycle)
        cycle += 1
        assert cycle < cycles + 500, "never built up in-flight traffic"
    return fabric, cycle


def first_occupied(fabric):
    for ring in fabric.rings.values():
        for lane in ring.lanes:
            for idx, flit in enumerate(lane.flits):
                if flit is not None:
                    return lane, idx, flit
    raise AssertionError("expected traffic in flight")


# -- clean runs -----------------------------------------------------------


def test_clean_run_sweeps_without_violations():
    fabric, cycle = loaded_fabric()
    checker = fabric.attach_invariant_checker()
    for c in range(cycle, cycle + 200):
        fabric.step(c)
    assert checker.checks_run == 200
    assert "0 violations" in checker.summary()


def test_check_every_thins_sweeps():
    fabric, cycle = loaded_fabric()
    checker = fabric.attach_invariant_checker(check_every=10)
    for c in range(cycle, cycle + 100):
        fabric.step(c)
    assert checker.checks_run == 10


def test_checker_is_read_only():
    """Same seed with and without the checker → identical statistics."""
    def run(with_checker):
        fabric, cycle = loaded_fabric(cycles=120, seed=11)
        if with_checker:
            fabric.attach_invariant_checker()
        for c in range(cycle, cycle + 400):
            fabric.step(c)
        s = fabric.stats
        return (s.accepted, s.delivered, s.deflections,
                s.mean_network_latency())

    assert run(True) == run(False)


def test_double_run_determinism_under_checker():
    """Acceptance: the same seeded run twice under --check-invariants
    produces identical stats and zero violations."""
    def run():
        topo, ring0, ring1 = chiplet_pair(nodes_per_ring=4, stop_spacing=1)
        queues = QueueParams(inject_queue_depth=2, eject_queue_depth=2,
                             bridge_rx_depth=2, bridge_tx_depth=2,
                             bridge_reserved_tx=2, swap_detect_threshold=32)
        fabric = MultiRingFabric(topo, MultiRingConfig(
            queues=queues, eject_drain_per_cycle=1))
        checker = fabric.attach_invariant_checker()
        rng = make_rng(7)
        for cycle in range(600):
            for src in ring0:
                fabric.try_inject(Message(src=src, dst=rng.choice(ring1),
                                          kind=MessageKind.DATA,
                                          created_cycle=cycle))
            for src in ring1:
                fabric.try_inject(Message(src=src, dst=rng.choice(ring0),
                                          kind=MessageKind.DATA,
                                          created_cycle=cycle))
            fabric.step(cycle)
        s = fabric.stats
        return (s.accepted, s.delivered, s.swap_events, checker.checks_run,
                checker.max_laps_seen)

    first = run()
    assert first == run()
    assert first[3] == 600


# -- planted corruption ---------------------------------------------------


def test_vanished_flit_breaks_conservation():
    fabric, cycle = loaded_fabric()
    checker = FabricInvariantChecker(fabric)
    lane, idx, flit = first_occupied(fabric)
    lane.flits[idx] = None
    with pytest.raises(InvariantViolation) as exc:
        checker.check(cycle)
    assert exc.value.rule == "flit-conservation"
    assert exc.value.cycle == cycle
    assert "vanished" in str(exc.value)
    assert exc.value.context["accepted"] == fabric.stats.accepted


def test_duplicated_flit_breaks_conservation():
    fabric, cycle = loaded_fabric()
    checker = FabricInvariantChecker(fabric)
    lane, idx, flit = first_occupied(fabric)
    free = lane.flits.index(None)
    lane.flits[free] = flit
    with pytest.raises(InvariantViolation) as exc:
        checker.check(cycle)
    assert exc.value.rule == "flit-conservation"
    assert "duplicated" in str(exc.value)


def test_runaway_laps_break_deflection_bound():
    fabric, cycle = loaded_fabric()
    checker = FabricInvariantChecker(fabric)
    _, _, flit = first_occupied(fabric)
    flit.laps_deflected = 999
    with pytest.raises(InvariantViolation) as exc:
        checker.check(cycle)
    assert exc.value.rule == "deflection-bound"
    assert exc.value.context["laps"] == 999
    assert exc.value.context["msg"] == flit.msg.msg_id


def test_tightened_bound_is_respected():
    fabric, cycle = loaded_fabric()
    checker = FabricInvariantChecker(fabric, max_extra_laps=0)
    _, _, flit = first_occupied(fabric)
    flit.laps_deflected = 1
    with pytest.raises(InvariantViolation):
        checker.check(cycle)


def test_stale_etag_reservation_detected():
    fabric, cycle = loaded_fabric()
    checker = FabricInvariantChecker(fabric)
    ring = next(iter(fabric.rings.values()))
    port = ring.stations[0].ports[0]
    port.etag_reservations.add(999_999)
    with pytest.raises(InvariantViolation) as exc:
        checker.check(cycle)
    assert exc.value.rule == "etag-consistency"
    assert 999_999 in exc.value.context["stale_msgs"]


def test_orphan_itag_in_lane_detected():
    fabric, cycle = loaded_fabric()
    checker = FabricInvariantChecker(fabric)
    ring = next(iter(fabric.rings.values()))
    lane = ring.lanes[0]
    port = ring.stations[0].ports[0]
    assert not port.itag_pending[lane.direction]
    lane.itags[0] = port
    with pytest.raises(InvariantViolation) as exc:
        checker.check(cycle)
    assert exc.value.rule == "itag-consistency"
    assert "no pending reservation" in str(exc.value)


def test_phantom_itag_pending_detected():
    fabric, cycle = loaded_fabric()
    checker = FabricInvariantChecker(fabric)
    ring = next(iter(fabric.rings.values()))
    port = ring.stations[0].ports[0]
    port.itag_pending[1] = True
    with pytest.raises(InvariantViolation) as exc:
        checker.check(cycle)
    assert exc.value.rule == "itag-consistency"
    assert "no lane carries" in str(exc.value)


def test_head_index_miss_detected():
    """A queued head whose station left the skip step's head index is a
    station the step would stop visiting."""
    topo, nodes = single_ring_topology(6)
    fabric = MultiRingFabric(topo, MultiRingConfig(engine="skip"))
    checker = fabric.attach_invariant_checker()
    for msg_id in range(3):
        fabric.try_inject(Message(src=nodes[0], dst=nodes[2],
                                  msg_id=msg_id, created_cycle=0))
    fabric.step(0)
    port = fabric.node_port(nodes[0])
    assert port.inject_queue, "expected a head still waiting"
    ring = fabric.rings[0]
    direction = port.inject_queue[0].dir_pref
    del ring.want[direction][port.station]
    with pytest.raises(InvariantViolation) as exc:
        checker.check(1)
    assert exc.value.rule == "head-index"
    assert exc.value.context["stop"] == port.station.stop


# -- engine/probe wiring --------------------------------------------------


def _traffic_component(fabric, nodes, seed=3):
    rng = make_rng(seed)

    def traffic(cycle):
        src = rng.choice(nodes)
        dst = rng.choice([n for n in nodes if n != src])
        fabric.try_inject(Message(src=src, dst=dst, kind=MessageKind.DATA,
                                  created_cycle=cycle))

    return FunctionComponent(traffic, "traffic")


def test_invariant_probe_runs_under_simulator():
    topo, nodes = single_ring_topology(6)
    fabric = MultiRingFabric(topo)
    probe = InvariantProbe.for_fabric(fabric)
    sim = Simulator()
    sim.register(_traffic_component(fabric, nodes))
    sim.register(fabric)
    sim.register(probe)
    sim.run(80)
    assert probe.checks_run == 80
    assert "0 violations" in probe.summary()


def test_simulator_register_invariant_hook():
    topo, nodes = single_ring_topology(6)
    fabric = MultiRingFabric(topo)
    checker = FabricInvariantChecker(fabric)
    sim = Simulator()
    sim.register(_traffic_component(fabric, nodes))
    sim.register(fabric)
    sim.register_invariant(checker.check)
    sim.run(40)
    lane, idx, _ = first_occupied(fabric)
    lane.flits[idx] = None
    with pytest.raises(InvariantViolation):
        sim.run(1)


# -- property: deflection bound holds under full eject queues -------------


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=15, deadline=None)
def test_deflection_bound_holds_under_hotspot(seed):
    """Every station hammers one destination with depth-2 eject queues;
    the per-ring slot-capacity bound must never trip and the checker's
    lap high-water mark must stay within it."""
    queues = QueueParams(eject_queue_depth=2)
    topo, nodes = single_ring_topology(5, stop_spacing=2)
    fabric = MultiRingFabric(topo, MultiRingConfig(
        queues=queues, eject_drain_per_cycle=1))
    checker = fabric.attach_invariant_checker()
    rng = make_rng(seed)
    cycle = 0
    for cycle in range(120):
        src = rng.choice(nodes[1:])
        fabric.try_inject(Message(src=src, dst=nodes[0],
                                  kind=MessageKind.DATA,
                                  created_cycle=cycle))
        fabric.step(cycle)
    for c in range(cycle + 1, cycle + 5000):
        if fabric.stats.in_flight == 0:
            break
        fabric.step(c)
    assert fabric.stats.in_flight == 0
    ring = next(iter(fabric.rings.values()))
    capacity = ring.spec.nstops * len(ring.lanes)
    assert checker.max_laps_seen <= 4 * capacity
