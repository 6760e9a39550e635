"""Additional hypothesis property tests: cache, lanes, star fabric,
probes, and the routing layer on random connected topologies."""

import random

from hypothesis import assume, given, settings, strategies as st

from repro.baselines.switched_star import SwitchedStarConfig, SwitchedStarFabric
from repro.coherence.cache import SetAssociativeCache
from repro.coherence.states import CacheState
from repro.core.config import TopologySpec
from repro.core.ring import Lane
from repro.core.routing import Router
from repro.core.topology import TopologyBuilder
from repro.fabric import Message, MessageKind
from repro.fabric.probes import BandwidthProbe
from repro.testing import inject_all, run_to_drain
from tests.routing_reference import reference_route


# -- lane rotation ---------------------------------------------------------


@given(
    nstops=st.integers(min_value=2, max_value=64),
    direction=st.sampled_from([1, -1]),
    stop=st.integers(min_value=0, max_value=63),
    cycle=st.integers(min_value=0, max_value=10_000),
)
def test_lane_rotation_advances_one_stop_per_cycle(nstops, direction, stop, cycle):
    lane = Lane(nstops, direction)
    stop %= nstops
    idx_now = lane.index_at(stop, cycle)
    idx_next_stop = lane.index_at((stop + direction) % nstops, cycle + 1)
    # The slot that is at `stop` now is at `stop + direction` next cycle.
    assert idx_now == idx_next_stop


@given(
    nstops=st.integers(min_value=2, max_value=32),
    cycle=st.integers(min_value=0, max_value=1000),
)
def test_lane_stop_to_slot_is_bijective(nstops, cycle):
    lane = Lane(nstops, 1)
    indices = {lane.index_at(stop, cycle) for stop in range(nstops)}
    assert indices == set(range(nstops))


# -- cache LRU properties --------------------------------------------------------


@given(
    ways=st.integers(min_value=1, max_value=8),
    ops=st.lists(st.integers(min_value=0, max_value=31), min_size=1,
                 max_size=100),
)
def test_cache_occupancy_bounded_without_filter(ways, ops):
    cache = SetAssociativeCache(1, ways)
    for addr in ops:
        cache.fill(addr, CacheState.SHARED, addr)
    assert cache.occupancy <= ways


@given(ops=st.lists(st.integers(min_value=0, max_value=15), min_size=2,
                    max_size=60))
def test_cache_most_recent_fill_always_resident(ops):
    cache = SetAssociativeCache(1, 2)
    for addr in ops:
        cache.fill(addr, CacheState.SHARED, addr)
    assert cache.peek(ops[-1]) is not None


@given(ops=st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                    max_size=60))
def test_cache_lookup_value_matches_last_fill(ops):
    cache = SetAssociativeCache(4, 4)
    latest = {}
    for i, addr in enumerate(ops):
        cache.fill(addr, CacheState.SHARED, i)
        latest[addr] = i
    for addr, version in latest.items():
        line = cache.peek(addr)
        if line is not None:
            assert line.value == version


# -- switched star conservation ---------------------------------------------------


@given(
    n_chiplets=st.integers(min_value=1, max_value=4),
    per_chiplet=st.integers(min_value=1, max_value=3),
    count=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_star_conservation(n_chiplets, per_chiplet, count, seed):
    node = 0
    chiplets = []
    for _ in range(n_chiplets):
        chiplets.append(list(range(node, node + per_chiplet)))
        node += per_chiplet
    hub = [node, node + 1]
    fabric = SwitchedStarFabric(SwitchedStarConfig(
        chiplets=chiplets, hub_nodes=hub, link_latency=5))
    rng = random.Random(seed)
    nodes = fabric.nodes()
    msgs = []
    for _ in range(count):
        src = rng.choice(nodes)
        dst = rng.choice([n for n in nodes if n != src] or nodes)
        msgs.append(Message(src=src, dst=dst, kind=MessageKind.DATA))
    cycle = inject_all(fabric, msgs)
    run_to_drain(fabric, cycle)
    assert fabric.stats.delivered == len(msgs)
    assert fabric.occupancy() == 0


# -- probes -------------------------------------------------------------------------


@given(
    window=st.integers(min_value=1, max_value=100),
    events=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5000),
                  st.floats(min_value=0, max_value=1e6,
                            allow_nan=False, allow_infinity=False)),
        max_size=60,
    ),
)
def test_probe_totals_conserved(window, events):
    probe = BandwidthProbe("p", window_cycles=window)
    ordered = sorted(events)
    for cycle, nbytes in ordered:
        probe.observe(nbytes, cycle)
    probe.finalize()
    expected = sum(b for _, b in ordered)
    assert abs(sum(probe.windows) - expected) <= 1e-6 * max(expected, 1.0)


# -- routing on random connected ring graphs ------------------------------------------


@st.composite
def connected_multiring(draw, max_extra_bridges: int = 0):
    """Random connected ring graph: a spanning tree of bridges plus up to
    ``max_extra_bridges`` extra ones, which close cycles and create
    equal-cost alternative routes."""
    n_rings = draw(st.integers(min_value=1, max_value=5))
    builder = TopologyBuilder()
    nstops = draw(st.integers(min_value=6, max_value=16))
    for ring in range(n_rings):
        builder.add_ring(ring, nstops,
                         bidirectional=draw(st.booleans()))
    nodes = []
    for ring in range(n_rings):
        # Two nodes per ring at distinct stops >= 2 (0 and 1 reserved
        # for bridge endpoints).
        nodes.append(builder.add_node(ring, 2))
        nodes.append(builder.add_node(ring, 4))
    # Spanning-tree bridges keep the graph connected.
    load = {(ring, stop): 1 for ring in range(n_rings) for stop in (2, 4)}
    for ring in range(1, n_rings):
        parent = draw(st.integers(min_value=0, max_value=ring - 1))
        ends = ((parent, 0 if ring % 2 else 1), (ring, 0))
        for end in ends:
            load[end] = load.get(end, 0) + 1
        builder.add_bridge(*ends[0], *ends[1],
                           level=draw(st.sampled_from([1, 2])),
                           link_latency=None)
    if n_rings > 1:
        stop = st.integers(min_value=0, max_value=nstops - 1)
        ring = st.integers(min_value=0, max_value=n_rings - 1)
        for _ in range(draw(st.integers(0, max_extra_bridges))):
            ends = ((draw(ring), draw(stop)), (draw(ring), draw(stop)))
            # A stop hosts at most two interfaces.
            if ends[0][0] == ends[1][0] or any(load.get(e, 0) >= 2
                                               for e in ends):
                continue
            for end in ends:
                load[end] = load.get(end, 0) + 1
            builder.add_bridge(*ends[0], *ends[1],
                               level=draw(st.sampled_from([1, 2])),
                               link_latency=None)
    return builder.build(), nodes


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_router_finds_route_on_connected_graphs(data):
    topology, nodes = data.draw(connected_multiring())
    router = Router(topology)
    src = data.draw(st.sampled_from(nodes))
    dst = data.draw(st.sampled_from(nodes))
    assume(src != dst)
    route = router.route(src, dst)
    # Route ends at the destination and every hop is on a real ring.
    assert route[-1].port_key == ("node", dst)
    ring_ids = {r.ring_id for r in topology.rings}
    assert all(h.ring in ring_ids for h in route)
    # No ring is visited twice (simple path over the ring graph).
    visited = [h.ring for h in route]
    assert len(visited) == len(set(visited))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_router_matches_per_pair_reference_on_cyclic_graphs(data):
    topology, nodes = data.draw(connected_multiring(max_extra_bridges=6))
    penalty = data.draw(st.sampled_from([0, 1, 8, 100]))
    router = Router(topology, bridge_penalty=penalty)
    for src in nodes:
        for dst in nodes:
            assert router.route(src, dst) == reference_route(
                topology, src, dst, penalty)


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_random_topology_traffic_drains(data):
    topology, nodes = data.draw(connected_multiring())
    fabric = MultiRingFabricFactory(topology)
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=999)))
    msgs = []
    for _ in range(20):
        src = rng.choice(nodes)
        dst = rng.choice([n for n in nodes if n != src] or nodes)
        msgs.append(Message(src=src, dst=dst, kind=MessageKind.DATA))
    cycle = inject_all(fabric, msgs)
    run_to_drain(fabric, cycle)
    assert fabric.stats.delivered == len(msgs)


def MultiRingFabricFactory(topology: TopologySpec):
    from repro.core.network import MultiRingFabric
    return MultiRingFabric(topology)
