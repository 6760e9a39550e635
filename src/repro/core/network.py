"""The bufferless multi-ring fabric — assembly of rings, stations, bridges.

:class:`MultiRingFabric` is the concrete :class:`repro.fabric.Fabric` for
the paper's NoC.  It owns the rings (with their cross stations), the
RBRG-L1/L2 bridges, the router, and the delivery drain, and exposes the
bandwidth probes used by the equilibrium experiment (Figure 14).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.bridge import RingBridgeL1, RingBridgeL2
from repro.core.config import MultiRingConfig, TopologySpec
from repro.core.flit import Flit
from repro.core.ring import Ring
from repro.core.routing import Router
from repro.core.station import Port
from repro.fabric.interface import Fabric
from repro.fabric.message import Message
from repro.fabric.probes import BandwidthProbe
from repro.obs.trace import port_key_str


def _drain_order(port: Port) -> int:
    return port.drain_seq


class MultiRingFabric(Fabric):
    """Bufferless multi-ring NoC implementing the fabric interface."""

    def __init__(self, topology: TopologySpec, config: Optional[MultiRingConfig] = None):
        super().__init__()
        topology.validate()
        self.topology = topology
        self.config = config or MultiRingConfig()
        self.router = Router(topology, self.config.bridge_route_penalty)

        self.rings: Dict[int, Ring] = {
            spec.ring_id: Ring(spec, self.config, self.stats)
            for spec in topology.rings
        }

        self._node_ports: Dict[int, Port] = {}
        #: Node ports currently holding ejected flits (dict used as an
        #: ordered set); ports enrol themselves on eject so the drain
        #: never walks idle ports.
        self._drain_ports: Dict[Port, None] = {}
        self._drain_nodes: Dict[Port, int] = {}
        for placement in topology.nodes:
            station = self.rings[placement.ring].station_at(placement.stop)
            port = station.add_port(("node", placement.node))
            port.drain_registry = self._drain_ports
            port.drain_seq = len(self._node_ports)
            self._node_ports[placement.node] = port
            self._drain_nodes[port] = placement.node

        self.bridges: List = []
        for spec in topology.bridges:
            port_a = self.rings[spec.ring_a].station_at(spec.stop_a).add_port(
                ("bridge", spec.bridge_id, 0)
            )
            port_b = self.rings[spec.ring_b].station_at(spec.stop_b).add_port(
                ("bridge", spec.bridge_id, 1)
            )
            cls = RingBridgeL1 if spec.level == 1 else RingBridgeL2
            self.bridges.append(cls(spec, port_a, port_b, self.config, self.stats))

        #: Optional per-node delivery probes (Figure 14 instrumentation).
        self.delivery_probes: Dict[int, BandwidthProbe] = {}
        #: Optional runtime invariant checker (``--check-invariants``);
        #: see :meth:`attach_invariant_checker`.
        self.invariant_checker = None
        self._ring_list = list(self.rings.values())

    # -- Fabric interface --------------------------------------------------

    def nodes(self) -> List[int]:
        return list(self._node_ports)

    def node_port(self, node: int) -> Port:
        """The station port serving ``node`` (tests and probes use this)."""
        return self._node_ports[node]

    def try_inject(self, msg: Message) -> bool:
        node_ports = self._node_ports
        port = node_ports.get(msg.src)
        if port is None:
            raise KeyError(f"message source {msg.src} is not a fabric node")
        if msg.dst not in node_ports:
            raise KeyError(f"message destination {msg.dst} is not a fabric node")
        queue = port.inject_queue
        if len(queue) >= port.inject_depth:
            self.stats.rejected += 1
            return False
        route = self.router.route(msg.src, msg.dst)
        # Port.enqueue_inject, inlined: this call sits inside every
        # driver's per-cycle injection loop, alongside the timed fabric
        # step (see repro/perf/bench.py), so the extra call frame is
        # measurable on saturated workloads.
        queue.append(Flit(msg, route))
        station = port.station
        station.pending_registry[station] = None
        self.stats.accepted += 1
        trace = self.stats.trace
        if trace.enabled:
            station = port.station
            cycle = msg.created_cycle
            trace.emit(cycle, "create", msg.msg_id, station._ring_id,
                       station.stop,
                       f"src={msg.src} dst={msg.dst} hops={len(route)}")
            trace.emit(cycle, "accept", msg.msg_id, station._ring_id,
                       station.stop, f"port={port_key_str(port.key)}")
        return True

    def step(self, cycle: int) -> None:
        for ring in self._ring_list:
            ring.step(cycle)
        for bridge in self.bridges:
            bridge.step(cycle)
        self._drain(cycle)
        if self.invariant_checker is not None:
            self.invariant_checker.check(cycle)

    def _drain(self, cycle: int) -> None:
        """Hand ejected flits to their destination nodes.

        Only ports enrolled in ``_drain_ports`` (those that accepted an
        eject since the last drain) are visited.  They are drained in
        node-port creation order — not enrolment order — because the fast
        and reference steps eject in different within-cycle orders and
        delivery order must not depend on which step ran.
        """
        reg = self._drain_ports
        if not reg:
            return
        budget = self.config.eject_drain_per_cycle
        probes = self.delivery_probes
        deliver = self._deliver
        nodes = self._drain_nodes
        if len(reg) > 1:
            ports = sorted(reg, key=_drain_order)
        else:
            ports = list(reg)
        for port in ports:
            queue = port.eject_queue
            probe = probes.get(nodes[port]) if probes else None
            for _ in range(budget):
                if not queue:
                    break
                flit = queue.popleft()
                if probe is not None:
                    probe.observe(flit.msg.size_bytes, cycle)
                deliver(flit.msg, cycle, flit.deflections)
            if not queue:
                del reg[port]

    # -- instrumentation ----------------------------------------------------

    def add_delivery_probe(self, node: int, window_cycles: int = 256) -> BandwidthProbe:
        probe = BandwidthProbe(f"node{node}", window_cycles)
        self.delivery_probes[node] = probe
        return probe

    def attach_invariant_checker(self, checker=None, **kwargs):
        """Enable per-cycle invariant verification (``--check-invariants``).

        With no ``checker``, builds a
        :class:`repro.lint.invariants.FabricInvariantChecker` over this
        fabric (``kwargs`` forwarded).  The checker runs at the end of
        every :meth:`step` and raises
        :class:`repro.lint.invariants.InvariantViolation` on failure; it
        only reads state, so checked runs reproduce unchecked stats.
        """
        if checker is None:
            from repro.lint.invariants import FabricInvariantChecker
            checker = FabricInvariantChecker(self, **kwargs)
        self.invariant_checker = checker
        # Probes read per-slot object state after every cycle; keep the
        # rings on the scalar tiers so that state stays live.
        for ring in self._ring_list:
            ring.pin_scalar("invariant checker attached")
        return checker

    def attach_trace_recorder(self, recorder=None, kinds=None,
                              limit=None):
        """Enable flit-level event tracing (:mod:`repro.obs`).

        With no ``recorder``, builds a
        :class:`repro.obs.trace.TraceRecorder` (``kinds``/``limit``
        forwarded).  Every ring, station, bridge, and link shares this
        fabric's :class:`repro.fabric.stats.FabricStats`, so installing
        the recorder on ``stats.trace`` instruments the whole fabric.
        Recorders only observe — traced runs reproduce untraced stats.
        """
        if recorder is None:
            from repro.obs.trace import TraceRecorder
            recorder = TraceRecorder(kinds=kinds, limit=limit)
        self.stats.trace = recorder
        # Trace events are emitted by the scalar paths; pin the rings so
        # the byte-identical fast/reference stream guarantee holds from
        # the first traced cycle.  (Rings also self-demote on a
        # recorder assigned directly to ``stats.trace``.)
        for ring in self._ring_list:
            ring.pin_scalar("trace recorder attached")
        return recorder

    def attach_fault_injector(self, injector):
        """Install a :class:`repro.faults.FaultInjector` on this fabric.

        Enables the reliable link layer on every RBRG-L2 and binds the
        injector's fault models to the die-to-die links.  Returns the
        fabric's :class:`repro.faults.stats.FaultStats` (also reachable
        as ``fabric.stats.faults``).
        """
        return injector.install(self)

    def flits_in_flight(self) -> List[Flit]:
        """Every flit currently inside the network (for conservation tests)."""
        out: List[Flit] = []
        for ring in self._ring_list:
            out.extend(ring.flits_in_flight())
            for station in ring.stations:
                for port in station.ports:
                    out.extend(port.inject_queue)
                    out.extend(port.eject_queue)
        for bridge in self.bridges:
            out.extend(bridge.flits_in_flight())
        return out

    def occupancy(self) -> int:
        """Flits inside the network — O(rings + stations + bridges).

        Uses the lanes' maintained occupancy counters instead of
        materialising :meth:`flits_in_flight`, so the per-cycle
        conservation probe (``--check-invariants``) does not rescan every
        slot.
        """
        total = 0
        for ring in self._ring_list:
            total += ring.occupancy()
            for station in ring.stations:
                for port in station.ports:
                    total += len(port.inject_queue) + len(port.eject_queue)
        for bridge in self.bridges:
            total += bridge.occupancy()
        return total

    # -- stepping mode -----------------------------------------------------

    def set_fast_path(self, enabled: bool) -> None:
        """Switch every ring between the fast and reference step.

        Back-compat alias: ``True`` selects the exact-skip tier,
        ``False`` the reference walk.  Use :meth:`set_engine` for the
        full tier policy (including ``"auto"``/``"dense"``).
        """
        self.set_engine("skip" if enabled else "ref")

    def set_engine(self, mode: str) -> None:
        """Set the stepping-engine tier policy on every ring.

        ``mode`` is one of ``"auto"``, ``"ref"``, ``"skip"``,
        ``"dense"`` — see ``MultiRingConfig.engine``.  Takes effect at
        the next cycle boundary; an active dense engine dematerializes
        first, so switching mid-run is always exact.
        """
        for ring in self._ring_list:
            ring.set_engine(mode)

    def engine_tiers(self) -> Dict[int, str]:
        """Per-ring active tier (``ring_id -> "ref"|"skip"|"dense"``)."""
        return {ring.spec.ring_id: ring.active_tier()
                for ring in self._ring_list}
