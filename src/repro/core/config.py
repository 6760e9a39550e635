"""Topology and tuning configuration for the multi-ring fabric.

A topology is declarative: rings, node placements, and bridges.  The
builders in :mod:`repro.core.topology` generate these specs; systems can
also hand-build them for custom floorplans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.params import QUEUES, QueueParams

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids a cycle
    from repro.faults.link import LinkReliabilityConfig


@dataclass(frozen=True)
class RingSpec:
    """One ring.

    Attributes:
        ring_id: unique id within the topology.
        nstops: circumference in slots; a flit advances one stop per
            cycle, so ``nstops`` is also the lap time in cycles and — via
            the jump distance of the chosen wire fabric — the physical
            circumference (Section 3.3's distance-per-cycle metric).
        bidirectional: True for a full ring (Figure 7C), False for a
            half ring (Figure 7B).
    """

    ring_id: int
    nstops: int
    bidirectional: bool = True
    #: Per-ring override of MultiRingConfig.lanes_per_direction (None =
    #: use the fabric-wide value).  The AI processor gives its memory
    #: rings more lanes than its device rings: the horizontal rings
    #: aggregate every traffic class (Figure 8B paths 1-4).
    lanes: "int | None" = None

    def __post_init__(self) -> None:
        if self.nstops < 2:
            raise ValueError("a ring needs at least 2 stops")
        if self.lanes is not None and self.lanes < 1:
            raise ValueError("lanes override must be >= 1")


@dataclass(frozen=True)
class NodePlacement:
    """Where a logical node's interface sits: (ring, stop).

    At most two nodes may share a stop — the cross station's two node
    interfaces (Figure 7A).
    """

    node: int
    ring: int
    stop: int


@dataclass(frozen=True)
class BridgeSpec:
    """A ring bridge joining two rings.

    ``level`` 1 is an intra-chiplet RBRG-L1; level 2 is an inter-chiplet
    RBRG-L2 with a parallel-IO link of ``link_latency`` cycles and SWAP
    deadlock resolution.
    """

    bridge_id: int
    level: int
    ring_a: int
    stop_a: int
    ring_b: int
    stop_b: int
    link_latency: int = 0

    def __post_init__(self) -> None:
        if self.level not in (1, 2):
            raise ValueError("bridge level must be 1 (RBRG-L1) or 2 (RBRG-L2)")
        if self.level == 1 and self.link_latency != 0:
            raise ValueError("RBRG-L1 has no die-to-die link")


@dataclass
class TopologySpec:
    """Complete declarative description of a multi-ring network."""

    rings: List[RingSpec] = field(default_factory=list)
    nodes: List[NodePlacement] = field(default_factory=list)
    bridges: List[BridgeSpec] = field(default_factory=list)

    def validate(self) -> None:
        """Raise ValueError on an inconsistent topology."""
        ring_ids = {r.ring_id for r in self.rings}
        if len(ring_ids) != len(self.rings):
            raise ValueError("duplicate ring ids")
        nstops = {r.ring_id: r.nstops for r in self.rings}
        node_ids = set()
        stop_load: Dict[Tuple[int, int], int] = {}
        for p in self.nodes:
            if p.node in node_ids:
                raise ValueError(f"duplicate node id {p.node}")
            node_ids.add(p.node)
            if p.ring not in ring_ids:
                raise ValueError(f"node {p.node} placed on unknown ring {p.ring}")
            if not 0 <= p.stop < nstops[p.ring]:
                raise ValueError(f"node {p.node} stop {p.stop} out of range")
            key = (p.ring, p.stop)
            stop_load[key] = stop_load.get(key, 0) + 1
        for b in self.bridges:
            for ring, stop in ((b.ring_a, b.stop_a), (b.ring_b, b.stop_b)):
                if ring not in ring_ids:
                    raise ValueError(f"bridge {b.bridge_id} touches unknown ring {ring}")
                if not 0 <= stop < nstops[ring]:
                    raise ValueError(f"bridge {b.bridge_id} stop {stop} out of range")
                key = (ring, stop)
                stop_load[key] = stop_load.get(key, 0) + 1
        for (ring, stop), load in stop_load.items():
            if load > 2:
                raise ValueError(
                    f"stop ({ring},{stop}) hosts {load} interfaces; a cross "
                    "station has at most two node interfaces"
                )
        if len({b.bridge_id for b in self.bridges}) != len(self.bridges):
            raise ValueError("duplicate bridge ids")

    @property
    def node_ids(self) -> List[int]:
        return [p.node for p in self.nodes]


@dataclass
class MultiRingConfig:
    """Tuning knobs for a :class:`repro.core.network.MultiRingFabric`."""

    queues: QueueParams = field(default_factory=lambda: QUEUES)
    #: Eject-queue entries drained to the destination node per cycle.
    eject_drain_per_cycle: int = 4
    #: Disable I-tags (ablation only; breaks the starvation guarantee).
    enable_itags: bool = True
    #: Disable E-tag reservations (ablation only; unbounded deflection).
    enable_etags: bool = True
    #: Disable SWAP deadlock resolution (ablation only).
    enable_swap: bool = True
    #: Escape-slot alternative to SWAP (Section 4.4 discusses escape
    #: virtual channels as the conventional recovery technique): every
    #: Nth ring slot is reserved for ring-bridge injections only, which
    #: guarantees cross-ring progress but permanently removes 1/N of the
    #: ring's capacity from normal traffic — the latency cost that made
    #: the paper choose SWAP.  0 disables the scheme.
    escape_slot_period: int = 0
    #: Extra cost (cycles) charged per bridge when routing chooses a path.
    bridge_route_penalty: int = 8
    #: Parallel lanes per ring direction.  1 models the baseline bus; the
    #: high-speed wire fabric of Table 4 has x2.5 the bus width of the
    #: dense fabric, which the AI processor exploits as parallel lanes.
    lanes_per_direction: int = 1
    #: Stepping-engine tier (see docs/PERFORMANCE.md):
    #:
    #: - ``"ref"``   — reference walk, the semantic spec;
    #: - ``"skip"``  — exact-skip ``step_fast`` (the paper's bridged,
    #:   two-lane and two-interface rings, and sparse traffic anywhere);
    #: - ``"dense"`` — struct-of-arrays vectorized tier
    #:   (:mod:`repro.perf.dense`; wins on saturated traffic, falls back
    #:   to ``skip`` when a ring is ineligible — bridges, escape slots,
    #:   two-port stations, multi-lane directions — or pinned scalar by
    #:   an attached trace recorder / invariant checker);
    #: - ``"auto"``  — start on ``skip`` and switch between ``skip`` and
    #:   ``dense`` per ring from measured slot occupancy, with
    #:   hysteresis.  All four tiers are cycle-for-cycle identical.
    engine: str = "auto"
    #: Enable the reliable die-to-die link layer (CRC/ack-nak/replay) on
    #: every RBRG-L2 (:class:`repro.faults.link.LinkReliabilityConfig`).
    #: None keeps the baseline perfect-pipe link; installing a
    #: :class:`repro.faults.FaultInjector` enables it implicitly.
    reliability: Optional["LinkReliabilityConfig"] = None


#: Knobs that were removed from :class:`MultiRingConfig`.  They never
#: changed simulated results, so saved configs and scenario files that
#: still carry them keep loading:
#: :func:`repro.core.serialize.config_from_dict` drops them and the
#: scenario validator reports each one as a ``retired-config-key``
#: warning.  The three ``parallel_*`` knobs drove the retired parallel
#: per-ring stepper; every fabric now steps serially.  ``fast_path`` was
#: an alias for ``engine="skip"``/``"ref"``, which are cycle-identical.
#: The ``"auto"`` selector's cadence and occupancy band are module
#: constants of :mod:`repro.core.ring`.
RETIRED_CONFIG_KEYS = frozenset({
    "dense_enter_occupancy",
    "dense_exit_occupancy",
    "engine_check_every",
    "fast_path",
    "parallel_step",
    "parallel_workers",
    "parallel_window",
})
