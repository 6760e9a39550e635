"""Routing for the multi-ring fabric.

Two layers, matching Section 4.1:

- *direction selection* on a full ring — "a straightforward approach to
  achieve the shortest routing path according to the source and
  destination address" — implemented by :func:`ring_direction` and
  :func:`ring_distance`;
- *segment routing* across rings — the flit's route is a list of
  :class:`Hop` segments, one per ring traversed, separated by ring
  bridges.  :class:`Router` runs one Dijkstra search per source
  position (ring, stop) over bridge endpoints, weighted by in-ring hop
  distance plus a per-bridge penalty, and caches the resulting
  shortest-path tree; a (src, dst) route is then read off that tree and
  cached too.  On the AI processor's grid of rings this reduces to
  X-Y/Y-X routing with at most one ring change (a property test asserts
  this).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import TopologySpec

Position = Tuple[int, int]
# Per-source shortest-path tree: (arrivals by ring, prev links).
_Tree = Tuple[
    Dict[int, List[Tuple[Position, int]]],
    Dict[Position, Tuple[Position, object, int]],
]


@dataclass(frozen=True)
class Hop:
    """One route segment: travel on ``ring`` until ``exit_stop``.

    ``port_key`` identifies the interface the flit leaves through:
    ``("node", node_id)`` for final delivery or ``("bridge", bridge_id,
    side)`` for a transfer onto the next ring (side 0 = the bridge's
    ring_a endpoint, 1 = ring_b).
    """

    ring: int
    exit_stop: int
    port_key: Tuple


def ring_distance(nstops: int, src: int, dst: int, bidirectional: bool) -> int:
    """Hops from ``src`` to ``dst`` using the shortest allowed direction."""
    cw = (dst - src) % nstops
    if not bidirectional:
        return cw
    return min(cw, (src - dst) % nstops)


def ring_direction(nstops: int, src: int, dst: int, bidirectional: bool) -> int:
    """Shortest direction: +1 clockwise, -1 counterclockwise.

    Ties break clockwise, which keeps the choice deterministic; the
    round-robin injection arbitration (not direction choice) provides
    fairness.
    """
    if not bidirectional:
        return 1
    cw = (dst - src) % nstops
    ccw = (src - dst) % nstops
    return 1 if cw <= ccw else -1


class Router:
    """Computes and caches multi-ring routes for a topology."""

    def __init__(self, topology: TopologySpec, bridge_penalty: int = 8):
        topology.validate()
        self._rings = {r.ring_id: r for r in topology.rings}
        self._placement = {p.node: (p.ring, p.stop) for p in topology.nodes}
        self._cache: Dict[Tuple[int, int], List[Hop]] = {}
        self._trees: Dict[Position, _Tree] = {}
        # Relaxation edges: ring -> (bridge, side, stop on this ring,
        # position across the bridge, crossing cost), in bridge order.
        self._edges: Dict[int, List[Tuple]] = {r: [] for r in self._rings}
        for b in topology.bridges:
            crossing = bridge_penalty + b.link_latency
            self._edges[b.ring_a].append(
                (b, 0, b.stop_a, (b.ring_b, b.stop_b), crossing))
            self._edges[b.ring_b].append(
                (b, 1, b.stop_b, (b.ring_a, b.stop_a), crossing))

    def __deepcopy__(self, memo):
        # Routes and per-source trees are pure functions of the immutable
        # topology and both caches are append-only, so fabric clones
        # (repro.verify's model checker deep-copies whole fabrics per
        # explored transition) can share one router instead of
        # re-deriving every route.
        memo[id(self)] = self
        return self

    def placement(self, node: int) -> Tuple[int, int]:
        """(ring, stop) of a node's interface."""
        return self._placement[node]

    def _dist(self, ring: int, a: int, b: int) -> int:
        spec = self._rings[ring]
        return ring_distance(spec.nstops, a, b, spec.bidirectional)

    def route(self, src: int, dst: int) -> List[Hop]:
        """Route from node ``src`` to node ``dst`` (cached)."""
        key = (src, dst)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        computed = self._compute(src, dst)
        self._cache[key] = computed
        return computed

    def _compute(self, src: int, dst: int) -> List[Hop]:
        start = self._placement[src]
        dst_ring, dst_stop = self._placement[dst]
        if start[0] == dst_ring:
            return [Hop(dst_ring, dst_stop, ("node", dst))]
        tree = self._trees.get(start)
        if tree is None:
            tree = self._trees[start] = self._search(start)
        arrivals, prev = tree

        # Pick the best arrival position on the destination ring; ties
        # go to the position the search reached first.
        best: Optional[Tuple[int, Position]] = None
        for pos, d in arrivals.get(dst_ring, ()):
            total = d + self._dist(dst_ring, pos[1], dst_stop)
            if best is None or total < best[0]:
                best = (total, pos)
        if best is None:
            raise ValueError(f"no route from node {src} to node {dst}")

        # Rebuild the bridge chain back to the source.
        chain = []  # list of (bridge, side) crossed, in travel order
        pos = best[1]
        while pos != start:
            parent, bridge, side = prev[pos]
            chain.append((bridge, side))
            pos = parent
        chain.reverse()

        hops: List[Hop] = []
        ring = start[0]
        for bridge, side in chain:
            exit_stop = (bridge.stop_a, bridge.stop_b)[side]
            hops.append(Hop(ring, exit_stop, ("bridge", bridge.bridge_id, side)))
            ring = (bridge.ring_b, bridge.ring_a)[side]
        hops.append(Hop(dst_ring, dst_stop, ("node", dst)))
        return hops

    def _search(self, start: Position) -> _Tree:
        """Shortest-path tree of every position reachable from ``start``.

        Dijkstra over positions (ring, stop).  Moves: ride the current
        ring to any bridge endpoint on it (cost = in-ring distance), then
        cross the bridge (cost = penalty + link latency).  The search is
        exhaustive, so the tree serves every destination.  Returns the
        reached positions grouped by ring, each group in first-reached
        order with its final cost, and ``prev``, which maps a
        post-crossing position to (pre-crossing position, bridge,
        side-we-entered-from).
        """
        dist: Dict[Position, int] = {start: 0}
        prev: Dict[Position, Tuple[Position, object, int]] = {}
        heap: List[Tuple[int, Position]] = [(0, start)]
        visited = set()
        while heap:
            d, pos = heapq.heappop(heap)
            if pos in visited:
                continue
            visited.add(pos)
            ring, stop = pos
            for bridge, side, here, nxt, crossing in self._edges[ring]:
                cost = d + self._dist(ring, stop, here) + crossing
                if cost < dist.get(nxt, 1 << 60):
                    dist[nxt] = cost
                    prev[nxt] = (pos, bridge, side)
                    heapq.heappush(heap, (cost, nxt))
        arrivals: Dict[int, List[Tuple[Position, int]]] = {}
        for pos, d in dist.items():
            arrivals.setdefault(pos[0], []).append((pos, d))
        return arrivals, prev
