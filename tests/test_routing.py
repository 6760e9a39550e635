"""Unit tests for direction selection and multi-ring segment routing."""

from functools import lru_cache

import pytest

from repro.ai import AiProcessor, AiProcessorConfig
from repro.core.config import TopologySpec, RingSpec, NodePlacement, BridgeSpec
from repro.core.routing import Router, ring_direction, ring_distance
from repro.core.topology import (
    chiplet_chain, chiplet_pair, grid_of_rings, single_ring_topology,
)
from repro.cpu import ServerPackage, ServerPackageConfig
from tests.routing_reference import reference_route

# The sizings bench/harness.py runs (ai_mesh, server_coherent).
BENCH_AI = dict(n_hrings=6, n_llc=12, n_l2=36, n_hbm=6, n_dma=6)
BENCH_SERVER = dict(clusters_per_ccd=6, hn_per_ccd=2, ddr_per_ccd=2)

ORACLE_TOPOLOGIES = {
    "ai_bench": lambda: AiProcessor(AiProcessorConfig(**BENCH_AI))
    .layout.topology,
    "ai_default": lambda: AiProcessor().layout.topology,
    "server_bench": lambda: ServerPackage(ServerPackageConfig(**BENCH_SERVER))
    .fabric.topology,
    "server_default": lambda: ServerPackage().fabric.topology,
    "chain4_spacing1": lambda: chiplet_chain(4, 8, stop_spacing=1)[0],
    "chain6": lambda: chiplet_chain(6, 8)[0],
    "grid": lambda: grid_of_rings(3, 2, devices_per_vring=3,
                                  memory_per_hring=2).topology,
}


@lru_cache(maxsize=None)
def oracle_topology(name: str) -> TopologySpec:
    return ORACLE_TOPOLOGIES[name]()


def test_ring_distance_full_ring_is_shortest():
    assert ring_distance(10, 0, 3, True) == 3
    assert ring_distance(10, 0, 7, True) == 3  # counterclockwise shorter
    assert ring_distance(10, 2, 2, True) == 0


def test_ring_distance_half_ring_is_clockwise_only():
    assert ring_distance(10, 0, 7, False) == 7
    assert ring_distance(10, 7, 0, False) == 3


def test_ring_direction_shortest_and_tie_breaks_cw():
    assert ring_direction(10, 0, 3, True) == 1
    assert ring_direction(10, 0, 7, True) == -1
    assert ring_direction(10, 0, 5, True) == 1  # tie -> clockwise
    assert ring_direction(10, 0, 9, False) == 1  # half ring always cw


def test_same_ring_route_is_single_hop():
    topo, nodes = single_ring_topology(6)
    router = Router(topo)
    route = router.route(nodes[0], nodes[4])
    assert len(route) == 1
    assert route[0].port_key == ("node", nodes[4])


def test_cross_chiplet_route_uses_bridge():
    topo, ring0, ring1 = chiplet_pair(nodes_per_ring=4)
    router = Router(topo)
    route = router.route(ring0[1], ring1[3])
    assert len(route) == 2
    assert route[0].port_key[0] == "bridge"
    assert route[0].ring == 0
    assert route[1].ring == 1
    assert route[1].port_key == ("node", ring1[3])


def test_route_cached_identity():
    topo, nodes = single_ring_topology(4)
    router = Router(topo)
    assert router.route(nodes[0], nodes[1]) is router.route(nodes[0], nodes[1])


def test_grid_routes_change_ring_at_most_once():
    """Section 4.3: X-Y/Y-X routing -> at most one ring change."""
    layout = grid_of_rings(3, 2, devices_per_vring=4, memory_per_hring=3)
    router = Router(layout.topology)
    for src in layout.all_device_nodes:
        for dst in layout.all_memory_nodes:
            route = router.route(src, dst)
            assert len(route) <= 2, (src, dst, route)


def test_grid_picks_the_intersection_bridge():
    layout = grid_of_rings(2, 2, devices_per_vring=2, memory_per_hring=2)
    router = Router(layout.topology)
    src = layout.vring_nodes[0][0]
    dst = layout.hring_nodes[1][0]
    route = router.route(src, dst)
    assert route[0].ring == 0          # rides its own vertical ring
    assert route[-1].ring == 100 + 1   # ends on the destination hring


def test_unroutable_pair_raises():
    spec = TopologySpec(
        rings=[RingSpec(0, 4), RingSpec(1, 4)],
        nodes=[NodePlacement(0, 0, 0), NodePlacement(1, 1, 0)],
        bridges=[],
    )
    router = Router(spec)
    with pytest.raises(ValueError):
        router.route(0, 1)


def test_three_ring_chain_route():
    spec = TopologySpec(
        rings=[RingSpec(0, 8), RingSpec(1, 8), RingSpec(2, 8)],
        nodes=[NodePlacement(0, 0, 2), NodePlacement(1, 2, 6)],
        bridges=[
            BridgeSpec(0, 2, 0, 0, 1, 0, link_latency=8),
            BridgeSpec(1, 2, 1, 4, 2, 4, link_latency=8),
        ],
    )
    router = Router(spec)
    route = router.route(0, 1)
    assert [h.ring for h in route] == [0, 1, 2]
    assert route[0].port_key == ("bridge", 0, 0)
    assert route[1].port_key == ("bridge", 1, 0)
    assert route[2].port_key == ("node", 1)


def test_router_respects_bridge_penalty():
    """Two paths: direct bridge vs shorter-wire two-bridge chain; the
    penalty decides."""
    def build(penalty):
        spec = TopologySpec(
            rings=[RingSpec(0, 32), RingSpec(1, 32), RingSpec(2, 4)],
            nodes=[NodePlacement(0, 0, 16), NodePlacement(1, 1, 16)],
            bridges=[
                # Direct bridge far from both nodes: 16 + 16 in-ring hops.
                BridgeSpec(0, 1, 0, 0, 1, 0),
                # Chain through tiny ring 2, adjacent to both nodes.
                BridgeSpec(1, 1, 0, 17, 2, 0),
                BridgeSpec(2, 1, 2, 1, 1, 17),
            ],
        )
        return Router(spec, bridge_penalty=penalty)

    cheap_bridges = build(1).route(0, 1)
    assert len(cheap_bridges) == 3  # chain wins when bridges are cheap
    dear_bridges = build(100).route(0, 1)
    assert len(dear_bridges) == 2  # direct wins when bridges are dear


@pytest.mark.parametrize("penalty", [0, 1, 8, 100])
@pytest.mark.parametrize("name", sorted(ORACLE_TOPOLOGIES))
def test_router_matches_per_pair_reference(name, penalty):
    """The per-source tree cache picks exactly the hops the original
    per-(src, dst) search picked, ties included, on every ordered pair."""
    topology = oracle_topology(name)
    router = Router(topology, bridge_penalty=penalty)
    nodes = topology.node_ids
    for src in nodes:
        for dst in nodes:
            assert router.route(src, dst) == reference_route(
                topology, src, dst, penalty), (name, penalty, src, dst)


def test_router_searches_once_per_source_position():
    topology = oracle_topology("ai_bench")
    router = Router(topology)
    searched = []
    search = router._search

    def counting_search(start):
        searched.append(start)
        return search(start)

    router._search = counting_search
    nodes = topology.node_ids
    for src in nodes:
        for dst in nodes:
            router.route(src, dst)
    cross_ring_sources = {
        router.placement(src) for src in nodes
        if any(router.placement(dst)[0] != router.placement(src)[0]
               for dst in nodes)
    }
    assert len(cross_ring_sources) == 92
    assert sorted(searched) == sorted(cross_ring_sources)
    assert router.route(nodes[0], nodes[-1]) is router.route(nodes[0], nodes[-1])
