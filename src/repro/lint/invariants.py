"""Opt-in runtime invariant probes for the multi-ring fabric.

The paper's correctness story rests on three invariants the simulator
otherwise exercises only implicitly:

- **flit conservation** — bufferless rings never create or drop a flit:
  every cycle, ``accepted - delivered`` messages are physically present
  in a queue, a lane slot, or a bridge stage;
- **bounded deflection** (Section 4.1.2) — once a flit holds an E-tag
  reservation it circles at most one more lap per competing reservation,
  and competitors are bounded by the ring's slot capacity.  Transient
  bridge backpressure stretches this in practice (the healthy saturated
  Figure-9 bench peaks at ~1.8× slot capacity across seeds), so the
  default bound is four times the slot capacity: a flit whose
  post-reservation laps exceed ``4 × nstops × nlanes`` of its ring is
  livelocked or starved (a SWAP-disabled inter-chiplet deadlock
  manifests exactly this way at runtime, and so does sustained
  oversubscription of a single eject port, where the one-lap argument's
  progress assumption fails);
- **I-tag/E-tag reservation consistency** — every I-tag in a lane points
  to a port that knows it placed one (and vice versa, at most one per
  port and direction), and every E-tag reservation names a message that
  is still in the network.

It also checks one simulator invariant the paper does not state: the
skip step's **head index** (``Ring.want`` and ``Ring.local``) never
misses an inject-queue head, because a missed head is a station the
step silently stops visiting.

:class:`FabricInvariantChecker` verifies them all against a
:class:`repro.core.network.MultiRingFabric` and raises a structured
:class:`InvariantViolation` carrying the cycle and station context.  It
only reads fabric state, so a checked run and an unchecked run of the
same seed produce identical statistics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.routing import ring_direction


class InvariantViolation(RuntimeError):
    """A runtime invariant failed; carries structured context.

    Attributes:
        rule: short rule name (``flit-conservation``,
            ``deflection-bound``, ``etag-consistency``,
            ``itag-consistency``, ``head-index``).
        cycle: simulation cycle at which the check ran.
        context: rule-specific details (ring/stop/msg ids, counts).
    """

    def __init__(self, rule: str, cycle: int, message: str,
                 context: Optional[dict] = None):
        self.rule = rule
        self.cycle = cycle
        self.context = context or {}
        detail = ", ".join(f"{k}={v}" for k, v in sorted(self.context.items()))
        suffix = f" [{detail}]" if detail else ""
        super().__init__(f"cycle {cycle}: [{rule}] {message}{suffix}")


class FabricInvariantChecker:
    """Per-cycle invariant verification for one multi-ring fabric.

    Attach with :meth:`repro.core.network.MultiRingFabric.
    attach_invariant_checker` (the fabric then calls :meth:`check` at the
    end of every :meth:`step`), or register :meth:`check` on a
    :class:`repro.sim.engine.Simulator` via ``register_invariant``.

    ``check_every`` thins the probe for long runs; ``max_extra_laps``
    overrides the per-ring deflection bound (default: four times the
    ring's slot capacity, ``4 × nstops × nlanes``).
    """

    def __init__(
        self,
        fabric,
        check_every: int = 1,
        max_extra_laps: Optional[int] = None,
    ):
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        self.fabric = fabric
        self.check_every = check_every
        self.max_extra_laps = max_extra_laps
        #: Number of full invariant sweeps performed.
        self.checks_run = 0
        #: High-water mark of post-reservation laps observed (diagnostics).
        self.max_laps_seen = 0
        self._lap_bounds: Dict[int, int] = {
            ring_id: 4 * ring.spec.nstops * len(ring.lanes)
            for ring_id, ring in fabric.rings.items()
        }

    # -- entry points -----------------------------------------------------

    def check(self, cycle: int) -> None:
        """Run every probe; raises :class:`InvariantViolation` on failure."""
        if cycle % self.check_every != 0:
            return
        self.check_conservation(cycle)
        self.check_deflection_bound(cycle)
        self.check_etag_consistency(cycle)
        self.check_itag_consistency(cycle)
        self.check_head_index(cycle)
        self.checks_run += 1

    # -- individual probes ------------------------------------------------

    def check_conservation(self, cycle: int) -> None:
        """Undelivered, undropped messages must all be physically present.

        ``stats.in_flight`` is ``accepted - delivered - dropped``: the
        reliable link layer's loud drops leave the network, everything
        else must still be in a queue, a lane slot, or a bridge stage.
        """
        stats = self.fabric.stats
        expected = stats.in_flight
        present = self.fabric.occupancy()
        if present != expected:
            verb = "vanished from" if present < expected else "duplicated in"
            raise InvariantViolation(
                "flit-conservation", cycle,
                f"{abs(expected - present)} flit(s) {verb} the network",
                {"accepted": stats.accepted, "delivered": stats.delivered,
                 "dropped": stats.dropped, "in_network": present},
            )

    def check_deflection_bound(self, cycle: int) -> None:
        """No flit may exceed one post-reservation lap per ring slot.

        Walks only the occupied slots via the lane's maintained occupancy
        index (O(flits), not O(nstops)); sorted so the first violation
        reported matches the slot-order walk of earlier revisions.
        """
        for ring_id, ring in self.fabric.rings.items():
            bound = (self.max_extra_laps if self.max_extra_laps is not None
                     else self._lap_bounds[ring_id])
            for lane in ring.lanes:
                flits = lane.flits
                for idx in sorted(flits.occupied):
                    flit = flits[idx]
                    if flit is None:
                        continue
                    laps = flit.laps_deflected
                    if laps > self.max_laps_seen:
                        self.max_laps_seen = laps
                    if laps > bound:
                        raise InvariantViolation(
                            "deflection-bound", cycle,
                            f"flit {flit.msg.msg_id} has circled "
                            f"{laps} laps past its E-tag reservation "
                            f"(bound {bound}); livelock or starvation",
                            {"ring": ring_id,
                             "exit_stop": flit.current_hop.exit_stop,
                             "msg": flit.msg.msg_id,
                             "laps": laps, "bound": bound,
                             "deflections": flit.deflections},
                        )

    def check_etag_consistency(self, cycle: int) -> None:
        """Every E-tag reservation names a message still in the network."""
        in_flight = {f.msg.msg_id for f in self.fabric.flits_in_flight()}
        for ring_id, station, port in self._ports():
            stale = port.etag_reservations - in_flight
            if stale:
                raise InvariantViolation(
                    "etag-consistency", cycle,
                    f"port {port.key} holds E-tag reservation(s) for "
                    "message(s) no longer in the network",
                    {"ring": ring_id, "stop": station.stop,
                     "stale_msgs": sorted(stale)},
                )

    def check_itag_consistency(self, cycle: int) -> None:
        """Lane I-tags and port ``itag_pending`` flags must agree."""
        # (port id, direction) -> number of lane tags pointing at it.
        tag_count: Dict[Tuple[int, int], int] = {}
        for ring_id, ring in self.fabric.rings.items():
            for lane in ring.lanes:
                itags = lane.itags
                for idx in sorted(itags.occupied):
                    port = itags[idx]
                    if port is None:
                        continue
                    station = port.station
                    if station.ring_spec.ring_id != ring_id:
                        raise InvariantViolation(
                            "itag-consistency", cycle,
                            f"lane slot {idx} on ring {ring_id} is "
                            f"reserved by port {port.key} of ring "
                            f"{station.ring_spec.ring_id}",
                            {"ring": ring_id, "slot": idx},
                        )
                    if not port.itag_pending.get(lane.direction, False):
                        raise InvariantViolation(
                            "itag-consistency", cycle,
                            f"lane slot {idx} on ring {ring_id} carries an "
                            f"I-tag for port {port.key}, but the port has "
                            "no pending reservation in that direction",
                            {"ring": ring_id, "slot": idx,
                             "stop": station.stop,
                             "direction": lane.direction},
                        )
                    key = (id(port), lane.direction)
                    tag_count[key] = tag_count.get(key, 0) + 1
                    if tag_count[key] > 1:
                        raise InvariantViolation(
                            "itag-consistency", cycle,
                            f"port {port.key} holds {tag_count[key]} "
                            "I-tags in one direction; at most one slot "
                            "may be reserved at a time",
                            {"ring": ring_id, "stop": station.stop,
                             "direction": lane.direction},
                        )
        for ring_id, station, port in self._ports():
            for direction, pending in port.itag_pending.items():
                if pending and tag_count.get((id(port), direction), 0) == 0:
                    raise InvariantViolation(
                        "itag-consistency", cycle,
                        f"port {port.key} believes it reserved a slot "
                        f"(direction {direction:+d}) but no lane carries "
                        "its I-tag",
                        {"ring": ring_id, "stop": station.stop,
                         "direction": direction},
                    )

    def check_head_index(self, cycle: int) -> None:
        """The skip step's head index covers every inject-queue head.

        On a ring stepping ``skip``, a head preferring direction ``d``
        must have its station in ``ring.want[d]``, and a head exiting at
        its own stop must have it in ``ring.local``; stations still in
        the inbox (enqueued to since the last step) are indexed by the
        next step first.  Stale extra entries are allowed.
        """
        for ring_id, ring in self.fabric.rings.items():
            if ring.active_tier() != "skip":
                continue
            spec = ring.spec
            for station in ring.stations:
                if station in ring.pending_stations:
                    continue
                for port in station.ports:
                    if not port.inject_queue:
                        continue
                    head = port.inject_queue[0]
                    direction = head.dir_pref
                    if direction is None:
                        direction = ring_direction(
                            spec.nstops, station.stop, head.exit_stop,
                            spec.bidirectional)
                    missing = None
                    if station not in ring.want[direction]:
                        missing = f"want[{direction:+d}]"
                    elif (head.exit_stop == station.stop
                          and head.exit_ring == ring_id
                          and station not in ring.local):
                        missing = "the local-transfer registry"
                    if missing is not None:
                        raise InvariantViolation(
                            "head-index", cycle,
                            f"port {port.key} has queue head "
                            f"{head.msg.msg_id} but its station is missing "
                            f"from {missing}; the skip step would not "
                            "visit it",
                            {"ring": ring_id, "stop": station.stop,
                             "msg": head.msg.msg_id,
                             "direction": direction},
                        )

    # -- helpers ----------------------------------------------------------

    def _ports(self):
        for ring_id, ring in self.fabric.rings.items():
            for station in ring.stations:
                for port in station.ports:
                    yield ring_id, station, port

    def summary(self) -> str:
        return (f"invariants: {self.checks_run} sweeps, 0 violations, "
                f"max post-reservation laps {self.max_laps_seen}")
