"""Cross stations — the ring stop of Figure 7(A).

A cross station crosses the connection fabric at one stop and hosts up to
two node interfaces (ports).  Each port has an Inject Queue that can
inject to both ring directions and an Eject Queue that can receive from
both directions.  The station implements the paper's priority rule
(on-the-fly flits always beat new injections), round-robin arbitration
between the two node interfaces, shortest-path direction selection, and
the I-tag / E-tag starvation and livelock guards of Section 4.1.2.

:meth:`CrossStation.process_lane` is the hot path of the whole simulator:
it runs once per station per lane per cycle.  It is written as one fused
pass — ejection, I-tag release, injection arbitration, and failure
accounting in a single method with hoisted attribute reads, using the
exit coordinates and direction preference cached on the
:class:`repro.core.flit.Flit` instead of re-deriving them from the route.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.config import MultiRingConfig, RingSpec
from repro.core.flit import Flit
from repro.core.routing import ring_direction
from repro.fabric.stats import FabricStats
from repro.obs.trace import port_key_str


class Port:
    """One node interface on a cross station.

    ``key`` is the routing port key: ``("node", node_id)`` for an attached
    device or ``("bridge", bridge_id, side)`` for a ring-bridge endpoint.
    """

    __slots__ = (
        "key",
        "station",
        "is_bridge_port",
        "inject_queue",
        "eject_queue",
        "inject_depth",
        "eject_depth",
        "etag_reservations",
        "consecutive_failures",
        "itag_pending",
        "drm_active",
        "drain_registry",
        "drain_seq",
    )

    def __init__(
        self,
        key: Tuple,
        station: "CrossStation",
        inject_depth: int,
        eject_depth: int,
    ):
        self.key = key
        self.station = station
        #: Bridge ports may use escape slots (the escape-VC alternative
        #: to SWAP); node ports may not.
        self.is_bridge_port = key[0] == "bridge"
        self.inject_queue: Deque[Flit] = deque()
        self.eject_queue: Deque[Flit] = deque()
        self.inject_depth = inject_depth
        self.eject_depth = eject_depth
        #: E-tag reservations: msg ids of deflected flits owed an eject buffer.
        self.etag_reservations: Set[int] = set()
        #: Consecutive cycles the inject-queue head failed to win a slot.
        self.consecutive_failures = 0
        #: Whether an I-tag from this port is circulating, per direction.
        self.itag_pending: Dict[int, bool] = {1: False, -1: False}
        #: Set by an attached RBRG-L2 while its SWAP controller is in DRM:
        #: an eject at this port is immediately followed by injecting this
        #: port's Inject-Queue head into the freed slot (the swap of
        #: Section 4.4), overriding I-tag reservations and direction
        #: preference — recovery beats fairness while deadlocked.
        self.drm_active = False
        #: Delivery-drain registry (node ports only; None for bridge
        #: ports).  The fabric points this at its shared dict so the
        #: per-cycle drain visits only ports that actually hold ejected
        #: flits instead of walking every node port.  ``drain_seq`` is the
        #: port's position in the fabric's node-port creation order; the
        #: drain sorts on it so delivery order is independent of eject
        #: order (which differs between the fast and reference steps).
        self.drain_registry: Optional[Dict["Port", None]] = None
        self.drain_seq = -1

    # -- injection side ---------------------------------------------------

    @property
    def inject_full(self) -> bool:
        return len(self.inject_queue) >= self.inject_depth

    def enqueue_inject(self, flit: Flit) -> None:
        """Queue ``flit`` for injection and put the station in the inbox.

        All fabric-internal producers (node injection, bridge transfers)
        must enqueue through here: the inbox is how the skip and dense
        steps learn of a new queue head without rescanning stations.
        """
        self.inject_queue.append(flit)
        station = self.station
        station.pending_registry[station] = None

    def head_for_direction(self, direction: int) -> Optional[Flit]:
        """Inject-queue head if it prefers ``direction``, else None.

        The shortest-direction choice depends only on (stop, exit stop),
        both fixed while the flit waits here, so it is computed once and
        cached on the flit (invalidated by ``Flit.advance_hop``).
        """
        queue = self.inject_queue
        if not queue:
            return None
        flit = queue[0]
        want = flit.dir_pref
        if want is None:
            station = self.station
            spec = station.ring_spec
            want = ring_direction(
                spec.nstops, station.stop, flit.exit_stop, spec.bidirectional,
            )
            flit.dir_pref = want
        return flit if want == direction else None

    # -- ejection side ----------------------------------------------------

    def try_accept_eject(self, flit: Flit, stats: FabricStats,
                         enable_etags: bool, cycle: int = -1) -> bool:
        """Offer an arriving flit to the Eject Queue.

        Returns True if accepted.  On refusal the caller deflects the flit
        and — with E-tags enabled — this port reserves the next freed
        buffer for it, which bounds deflection to roughly one lap.

        ``cycle`` only stamps trace events (:mod:`repro.obs`); the
        admission decision never reads it.
        """
        queue = self.eject_queue
        trace = stats.trace
        if enable_etags:
            reservations = self.etag_reservations
            msg_id = flit.msg.msg_id
            if msg_id in reservations:
                if len(queue) < self.eject_depth:
                    reservations.discard(msg_id)
                    queue.append(flit)
                    if self.drain_registry is not None:
                        self.drain_registry[self] = None
                    if trace.enabled:
                        self._trace_eject(trace, cycle, flit)
                    return True
                flit.deflections += 1
                flit.laps_deflected += 1
                stats.deflections += 1
                if trace.enabled:
                    self._trace_deflect(trace, cycle, flit)
                return False
            if len(queue) < self.eject_depth - len(reservations):
                queue.append(flit)
                if self.drain_registry is not None:
                    self.drain_registry[self] = None
                if trace.enabled:
                    self._trace_eject(trace, cycle, flit)
                return True
            reservations.add(msg_id)
            stats.etags_placed += 1
            if trace.enabled:
                station = self.station
                trace.emit(cycle, "etag", msg_id, station._ring_id,
                           station.stop, f"port={port_key_str(self.key)}")
        else:
            if len(queue) < self.eject_depth:
                queue.append(flit)
                if self.drain_registry is not None:
                    self.drain_registry[self] = None
                if trace.enabled:
                    self._trace_eject(trace, cycle, flit)
                return True
        flit.deflections += 1
        stats.deflections += 1
        if trace.enabled:
            self._trace_deflect(trace, cycle, flit)
        return False

    # -- trace helpers (only reached with a recorder attached) -------------

    def _trace_eject(self, trace, cycle: int, flit: Flit) -> None:
        station = self.station
        trace.emit(cycle, "eject", flit.msg.msg_id, station._ring_id,
                   station.stop, f"port={port_key_str(self.key)}")

    def _trace_deflect(self, trace, cycle: int, flit: Flit) -> None:
        station = self.station
        trace.emit(cycle, "deflect", flit.msg.msg_id, station._ring_id,
                   station.stop,
                   f"port={port_key_str(self.key)} defl={flit.deflections}")

    # -- verification hooks ------------------------------------------------

    def snapshot(self) -> tuple:
        """Structural state for the verify subsystem's canonical encoding.

        Returns raw :class:`repro.core.flit.Flit` references and message
        ids; :mod:`repro.verify.state` renames them into canonical ids.
        Monotonic counters stay raw here — the encoder is responsible for
        capping them into a finite abstraction.
        """
        return (
            self.key,
            tuple(self.inject_queue),
            tuple(self.eject_queue),
            frozenset(self.etag_reservations),
            self.consecutive_failures,
            (self.itag_pending[1], self.itag_pending[-1]),
            self.drm_active,
        )


class CrossStation:
    """A stop on one ring, hosting 1–2 ports.

    The station is stepped by its ring once per lane per cycle; slot
    motion itself is implicit in the lane's rotating index (see
    :class:`repro.core.ring.Lane`).
    """

    __slots__ = (
        "ring_spec",
        "stop",
        "config",
        "stats",
        "ports",
        "port_by_key",
        "pending_registry",
        "_ring_id",
        "_enable_etags",
        "_enable_itags",
        "_itag_threshold",
        "_rr",
    )

    def __init__(
        self,
        ring_spec: RingSpec,
        stop: int,
        config: MultiRingConfig,
        stats: FabricStats,
    ):
        self.ring_spec = ring_spec
        self.stop = stop
        self.config = config
        self.stats = stats
        self.ports: List[Port] = []
        self.port_by_key: Dict[Tuple, Port] = {}
        #: The ring's inbox of stations enqueued to since its last step
        #: (set by :meth:`repro.core.ring.Ring.station_at`); a private
        #: dict for stations built outside a ring (unit tests).
        self.pending_registry: Dict["CrossStation", None] = {}
        # Hoisted config reads for the per-cycle hot path.
        self._ring_id = ring_spec.ring_id
        self._enable_etags = config.enable_etags
        self._enable_itags = config.enable_itags
        self._itag_threshold = config.queues.itag_threshold
        self._rr = 0

    def add_port(self, key: Tuple) -> Port:
        if len(self.ports) >= 2:
            raise ValueError(
                f"cross station ({self.ring_spec.ring_id},{self.stop}) already "
                "has two node interfaces"
            )
        queues = self.config.queues
        port = Port(key, self, queues.inject_queue_depth, queues.eject_queue_depth)
        self.ports.append(port)
        self.port_by_key[key] = port
        return port

    def snapshot(self) -> tuple:
        """``(stop, round-robin pointer, port snapshots)`` for repro.verify."""
        return (self.stop, self._rr,
                tuple(port.snapshot() for port in self.ports))

    # -- local (same-stop) transfers ---------------------------------------

    def process_local(self, cycle: int) -> None:
        """Move inject-queue heads whose destination is this very stop.

        A flit whose exit stop equals its inject stop never needs the ring
        (e.g. the station's other node interface); it transfers directly,
        using the normal eject admission so E-tag accounting stays exact.
        """
        stop = self.stop
        ring_id = self._ring_id
        for port in self.ports:
            queue = port.inject_queue
            if not queue:
                continue
            flit = queue[0]
            if flit.exit_stop != stop or flit.exit_ring != ring_id:
                continue
            target = self.port_by_key.get(flit.exit_port_key)
            if target is None:
                hop = flit.current_hop
                raise RuntimeError(
                    f"flit {flit.msg.msg_id} exits at ({hop.ring},{hop.exit_stop}) "
                    f"to {hop.port_key}, but no such port exists there"
                )
            if target.try_accept_eject(flit, self.stats, self._enable_etags,
                                       cycle):
                queue.popleft()
                port.consecutive_failures = 0
                if not flit.injected_any:
                    flit.injected_any = True
                    flit.msg.injected_cycle = cycle
                    self.stats.injected += 1
            else:
                port.consecutive_failures += 1

    # -- per-lane processing -------------------------------------------------

    def process_lane(self, lane, cycle: int) -> None:
        """Eject, then inject, then charge failures — one fused pass.

        This is the simulator's innermost loop (once per station per lane
        per cycle), so the former ``_try_inject``/``_count_failures``
        helpers and the per-port head lookups are inlined: the only calls
        left on the common path are the actual eject/inject events.
        """
        stop = self.stop
        direction = lane.direction
        flits = lane.flits
        idx = (stop - direction * cycle) % lane.nstops
        flit = flits[idx]
        ring_spec = self.ring_spec

        # Ejection: on-the-fly flits have absolute priority, so a flit
        # leaving here frees the slot before any injection is considered —
        # this is also what lets SWAP exchange an eject and an inject in
        # the same cycle (Section 4.4).
        if flit is not None:
            if flit.exit_stop == stop and flit.exit_ring == self._ring_id:
                port = self.port_by_key.get(flit.exit_port_key)
                if port is None:
                    hop = flit.current_hop
                    raise RuntimeError(
                        f"flit {flit.msg.msg_id} wants port {hop.port_key} at "
                        f"({hop.ring},{hop.exit_stop}) but it does not exist"
                    )
                if port.try_accept_eject(flit, self.stats, self._enable_etags,
                                         cycle):
                    flits[idx] = None
                    flit = None
                    if port.drm_active and port.inject_queue:
                        # SWAP (Section 4.4): "the header in the Inject
                        # Queue takes [the ejected flit]'s place to move
                        # forward on the ring" — simultaneous ejection and
                        # injection at the cross station.
                        swapped = self._inject(lane, idx, port, cycle)
                        trace = self.stats.trace
                        if trace.enabled:
                            trace.emit(cycle, "swap", swapped.msg.msg_id,
                                       self._ring_id, stop,
                                       f"port={port_key_str(port.key)}")
                        return

        # Injection: only into an empty slot, honouring I-tag reservations.
        ports = self.ports
        itags = lane.itags
        injected_port: Optional[Port] = None
        blocked_by_foreign_tag = False
        if flit is None:
            tag_port: Optional[Port] = itags[idx]
            if tag_port is not None:
                if tag_port.station is self:
                    # The reserved slot returned to its reserver: inject
                    # the waiting head (or release the tag if the head
                    # changed its mind about direction / is gone).
                    itags[idx] = None
                    tag_port.itag_pending[direction] = False
                    queue = tag_port.inject_queue
                    if queue:
                        head = queue[0]
                        want = head.dir_pref
                        if want is None:
                            want = ring_direction(
                                ring_spec.nstops, stop, head.exit_stop,
                                ring_spec.bidirectional)
                            head.dir_pref = want
                        if want == direction:
                            self._inject(lane, idx, tag_port, cycle)
                            injected_port = tag_port
                    # fall through: if not injected, normal arbitration may
                    # use the now-unreserved slot this same cycle.
                else:
                    # Reserved for another station; nobody here may use it,
                    # but waiting ports are still charged a failure below.
                    blocked_by_foreign_tag = True

            if injected_port is None and not blocked_by_foreign_tag:
                escape_period = lane.escape_period
                escape_slot = escape_period > 0 and idx % escape_period == 0
                nports = len(ports)
                rr = self._rr
                for offset in range(nports):
                    port = ports[(rr + offset) % nports]
                    if escape_slot and not port.is_bridge_port:
                        continue  # escape slots are reserved for bridges
                    queue = port.inject_queue
                    if not queue:
                        continue
                    head = queue[0]
                    want = head.dir_pref
                    if want is None:
                        want = ring_direction(
                            ring_spec.nstops, stop, head.exit_stop,
                            ring_spec.bidirectional)
                        head.dir_pref = want
                    if want == direction:
                        self._inject(lane, idx, port, cycle)
                        injected_port = port
                        self._rr = (ports.index(port) + 1) % nports
                        break

        # Failure accounting: charge every port that wanted this lane and
        # lost.  At the I-tag threshold the loser reserves the slot
        # currently passing (Section 4.1.2): the slot is tagged even if
        # occupied; no other station may fill it once empty, and one lap
        # later the reserver injects into it.
        for port in ports:
            if port is injected_port:
                continue
            queue = port.inject_queue
            if not queue:
                continue
            head = queue[0]
            want = head.dir_pref
            if want is None:
                want = ring_direction(
                    ring_spec.nstops, stop, head.exit_stop,
                    ring_spec.bidirectional)
                head.dir_pref = want
            if want != direction:
                continue
            failures = port.consecutive_failures + 1
            port.consecutive_failures = failures
            if (
                self._enable_itags
                and not port.itag_pending[direction]
                and failures % self._itag_threshold == 0
                and itags[idx] is None
                and not lane.is_escape(idx)  # escape slots stay unreserved
            ):
                itags[idx] = port
                port.itag_pending[direction] = True
                self.stats.itags_placed += 1
                trace = self.stats.trace
                if trace.enabled:
                    trace.emit(cycle, "itag", head.msg.msg_id, self._ring_id,
                               stop,
                               f"d={direction:+d} port={port_key_str(port.key)}")

    def _inject(self, lane, idx: int, port: Port, cycle: int) -> Flit:
        flit = port.inject_queue.popleft()
        lane.flits[idx] = flit
        port.consecutive_failures = 0
        stats = self.stats
        if not flit.injected_any:
            flit.injected_any = True
            flit.msg.injected_cycle = cycle
            stats.injected += 1
        trace = stats.trace
        if trace.enabled:
            trace.emit(cycle, "inject", flit.msg.msg_id, self._ring_id,
                       self.stop,
                       f"d={lane.direction:+d} port={port_key_str(port.key)}")
        return flit
