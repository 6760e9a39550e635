"""Frozen per-pair routing oracle for the router identity tests.

:func:`reference_route` is the router's original per-(src, dst) Dijkstra
search, kept verbatim (modulo being a free function) so the tree-cached
:class:`repro.core.routing.Router` can be held to it hop for hop.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.core.config import TopologySpec
from repro.core.routing import Hop, ring_distance


def reference_route(topology: TopologySpec, src: int, dst: int,
                    bridge_penalty: int = 8) -> List[Hop]:
    """Route ``src`` -> ``dst`` with one full Dijkstra search."""
    rings = {r.ring_id: r for r in topology.rings}
    placement = {p.node: (p.ring, p.stop) for p in topology.nodes}
    ring_bridges: Dict[int, List[Tuple]] = {r: [] for r in rings}
    for b in topology.bridges:
        ring_bridges[b.ring_a].append((b, 0))
        ring_bridges[b.ring_b].append((b, 1))

    def in_ring(ring: int, a: int, b: int) -> int:
        spec = rings[ring]
        return ring_distance(spec.nstops, a, b, spec.bidirectional)

    src_ring, src_stop = placement[src]
    dst_ring, dst_stop = placement[dst]
    if src_ring == dst_ring:
        return [Hop(dst_ring, dst_stop, ("node", dst))]

    start = (src_ring, src_stop)
    dist: Dict[Tuple[int, int], int] = {start: 0}
    prev: Dict[Tuple[int, int], Tuple[Tuple[int, int], object, int]] = {}
    heap: List[Tuple[int, Tuple[int, int]]] = [(0, start)]
    visited = set()
    while heap:
        d, pos = heapq.heappop(heap)
        if pos in visited:
            continue
        visited.add(pos)
        ring, stop = pos
        for bridge, side in ring_bridges[ring]:
            here = (bridge.stop_a, bridge.stop_b)[side]
            there_ring = (bridge.ring_b, bridge.ring_a)[side]
            there_stop = (bridge.stop_b, bridge.stop_a)[side]
            cost = (
                d
                + in_ring(ring, stop, here)
                + bridge_penalty
                + bridge.link_latency
            )
            nxt = (there_ring, there_stop)
            if cost < dist.get(nxt, 1 << 60):
                dist[nxt] = cost
                prev[nxt] = (pos, bridge, side)
                heapq.heappush(heap, (cost, nxt))

    best: Optional[Tuple[int, Tuple[int, int]]] = None
    for pos, d in dist.items():
        if pos[0] != dst_ring:
            continue
        total = d + in_ring(dst_ring, pos[1], dst_stop)
        if best is None or total < best[0]:
            best = (total, pos)
    if best is None:
        raise ValueError(f"no route from node {src} to node {dst}")

    chain = []
    pos = best[1]
    while pos != start:
        parent, bridge, side = prev[pos]
        chain.append((bridge, side))
        pos = parent
    chain.reverse()

    hops: List[Hop] = []
    ring = src_ring
    for bridge, side in chain:
        exit_stop = (bridge.stop_a, bridge.stop_b)[side]
        hops.append(Hop(ring, exit_stop, ("bridge", bridge.bridge_id, side)))
        ring = (bridge.ring_b, bridge.ring_a)[side]
    hops.append(Hop(dst_ring, dst_stop, ("node", dst)))
    return hops
