"""Half and full rings built from rotating slot lanes (Figure 7B/7C).

A lane is a circular array of slots; instead of moving flits every cycle,
the mapping from stop to slot index rotates with the cycle counter, so a
cycle costs O(stations), not O(slots).  A flit therefore advances exactly
one stop per cycle — the slot spacing *is* the paper's distance-per-cycle
metric: with the high-speed wire fabric of Table 4 one stop corresponds to
1800 µm of My-layer wire at 3 GHz.

Stepping has two interchangeable implementations:

- the **reference step** (:meth:`Ring.step_reference`) walks every lane ×
  station each cycle — the simple, obviously-correct semantic spec;
- the **fast step** (:meth:`Ring.step_fast`, the default) uses the lanes'
  maintained occupancy indexes (:class:`SlotList`) to visit only stations
  that can do work this cycle: stations with queued injections, stations
  whose slot carries a flit that exits there, and stations owed an I-tag
  release.  Every skipped visit is a provable no-op, so the two paths are
  cycle-for-cycle identical; ``tests/test_fastpath_equivalence.py`` drives
  random traffic through both and asserts equal :class:`FabricStats` and
  delivery logs.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Tuple

from repro.core.config import MultiRingConfig, RingSpec
from repro.core.flit import Flit
from repro.core.routing import ring_direction
from repro.core.station import CrossStation, Port
from repro.fabric.stats import FabricStats
from repro.obs.trace import port_key_str

#: Cycles between occupancy samples of the ``"auto"`` engine selector
#: (each ring samples itself inside :meth:`Ring.step`).  The tiers are
#: cycle-identical, so the selector's cadence and thresholds change
#: only speed, never simulated results.
ENGINE_CHECK_EVERY = 64
#: ``"auto"`` promotes a ring to the dense tier when its slot occupancy
#: fraction reaches this level ...
DENSE_ENTER_OCCUPANCY = 0.25
#: ... and demotes it back to ``skip`` below this level (hysteresis
#: band so occupancy noise does not thrash materialization).
DENSE_EXIT_OCCUPANCY = 0.10


class SlotList(list):
    """A fixed-size list of optional slot contents with O(1) occupancy.

    Every ``slots[idx] = value`` write (from the stepping hot path, the
    invariant probes, or a test poking at lane state directly) maintains
    :attr:`occupied`, the set of indices currently holding a non-None
    entry.  Reads stay plain C-speed ``list`` indexing.
    """

    __slots__ = ("occupied",)

    def __init__(self, nslots: int):
        list.__init__(self, [None] * nslots)
        self.occupied = set()

    def __setitem__(self, idx, value):
        if not isinstance(idx, int):
            raise TypeError("SlotList supports integer indices only")
        if idx < 0:
            idx += len(self)
        if value is None:
            self.occupied.discard(idx)
        else:
            self.occupied.add(idx)
        list.__setitem__(self, idx, value)

    # The slot array never changes size; block accidental resizing that
    # would silently desynchronise the occupancy index.
    def append(self, value):  # pragma: no cover - guard
        raise TypeError("SlotList has a fixed size")

    def clear(self):  # pragma: no cover - guard
        raise TypeError("SlotList has a fixed size")

    def __deepcopy__(self, memo):
        # list subclasses are normally reconstructed entry-by-entry via
        # append(), which the fixed-size guard above forbids — and the
        # generic path would skip ``occupied`` anyway.  The model checker
        # (repro.verify) clones whole fabrics, so rebuild explicitly.
        clone = self.__class__.__new__(self.__class__)
        memo[id(self)] = clone
        list.__init__(clone, (copy.deepcopy(v, memo)
                              for v in list.__iter__(self)))
        clone.occupied = set(self.occupied)
        return clone


class ExitBucketedSlots(SlotList):
    """Flit slots that additionally index ejections by cycle residue.

    A flit in slot ``idx`` on a lane of direction ``d`` passes its exit
    stop exactly at cycles ``t`` with ``t ≡ d·(exit_stop − idx)
    (mod nstops)`` — a residue fixed at the moment the slot is written,
    because a slotted flit never changes its exit coordinates (routes
    advance only off-ring, at bridges) and a deflected flit keeps both
    its slot and its exit.  :attr:`buckets` maps each residue to the set
    of slot indices ejecting at cycles with that residue, so the fast
    step finds this cycle's ejections in O(ejections) instead of scanning
    every occupied slot.
    """

    __slots__ = ("direction", "buckets")

    def __init__(self, nslots: int, direction: int):
        SlotList.__init__(self, nslots)
        self.direction = direction
        self.buckets = [set() for _ in range(nslots)]

    def __setitem__(self, idx, value):
        if not isinstance(idx, int):
            raise TypeError("SlotList supports integer indices only")
        n = list.__len__(self)
        if idx < 0:
            idx += n
        d = self.direction
        buckets = self.buckets
        old = list.__getitem__(self, idx)
        if old is not None:
            buckets[(d * (old.exit_stop - idx)) % n].discard(idx)
        if value is None:
            self.occupied.discard(idx)
        else:
            self.occupied.add(idx)
            buckets[(d * (value.exit_stop - idx)) % n].add(idx)
        list.__setitem__(self, idx, value)

    def __deepcopy__(self, memo):
        clone = SlotList.__deepcopy__(self, memo)
        clone.direction = self.direction
        clone.buckets = [set(b) for b in self.buckets]
        return clone


class Lane:
    """One direction of a ring: ``nstops`` slots rotating one stop/cycle."""

    __slots__ = ("nstops", "direction", "flits", "itags", "escape_period")

    def __init__(self, nstops: int, direction: int, escape_period: int = 0):
        if direction not in (1, -1):
            raise ValueError("lane direction must be +1 or -1")
        if escape_period < 0:
            raise ValueError("escape period must be non-negative")
        self.nstops = nstops
        self.direction = direction
        #: Every Nth slot is an escape slot usable only by ring bridges
        #: (the conventional deadlock-avoidance alternative to SWAP).
        self.escape_period = escape_period
        self.flits: ExitBucketedSlots = ExitBucketedSlots(nstops, direction)
        self.itags: SlotList = SlotList(nstops)

    def index_at(self, stop: int, cycle: int) -> int:
        """Slot index currently positioned at ``stop``."""
        return (stop - self.direction * cycle) % self.nstops

    def stop_at(self, idx: int, cycle: int) -> int:
        """Stop that slot ``idx`` is currently passing (inverse of
        :meth:`index_at`)."""
        return (idx + self.direction * cycle) % self.nstops

    def is_escape(self, idx: int) -> bool:
        return self.escape_period > 0 and idx % self.escape_period == 0

    def occupancy(self) -> int:
        """Number of occupied slots — O(1) via the maintained index."""
        return len(self.flits.occupied)

    def flits_in_flight(self) -> List[Flit]:
        """Occupied slots' flits in slot order — O(occupancy)."""
        flits = self.flits
        return [flits[i] for i in sorted(flits.occupied)]

    def snapshot(self, cycle: int) -> Tuple:
        """Structural state in the stop frame (for repro.verify).

        Returns ``(direction, flits, itags)`` where ``flits`` is a tuple
        of ``(stop, Flit)`` and ``itags`` a tuple of ``(stop, Port)``,
        both sorted by the *stop* each slot is currently passing.  The
        stop frame makes the encoding shift-invariant: two cycles whose
        slot arrays are rotations of each other with identical per-stop
        contents behave identically (escape slots excepted — they are
        pinned to slot indices, so callers must mix in the rotation phase
        when ``escape_period > 0``).
        """
        flits = self.flits
        itags = self.itags
        flit_view = tuple(sorted(
            (self.stop_at(idx, cycle), flits[idx]) for idx in flits.occupied
        ))
        tag_view = tuple(sorted(
            ((self.stop_at(idx, cycle), itags[idx]) for idx in itags.occupied),
            key=lambda entry: entry[0],
        ))
        return (self.direction, flit_view, tag_view)


class Ring:
    """A half ring (one clockwise lane) or full ring (both lanes)."""

    def __init__(
        self,
        spec: RingSpec,
        config: MultiRingConfig,
        stats: FabricStats,
    ):
        self.spec = spec
        self.config = config
        self.stats = stats
        nlanes = spec.lanes if spec.lanes is not None else max(
            1, config.lanes_per_direction)
        escape = config.escape_slot_period
        self.lanes = [Lane(spec.nstops, 1, escape) for _ in range(nlanes)]
        if spec.bidirectional:
            self.lanes.extend(Lane(spec.nstops, -1, escape)
                              for _ in range(nlanes))
        self._stations: dict = {}
        self._station_list: List[CrossStation] = []
        #: Stations that may have queued injections: every
        #: :meth:`repro.core.station.Port.enqueue_inject` registers its
        #: station here (insertion-ordered dict used as a set), and the
        #: fast step lazily drops stations it observes with empty queues.
        #: This makes per-cycle active-station discovery O(pending), not
        #: O(stations).
        self.pending_stations: dict = {}
        mode = config.engine
        if mode not in ("auto", "ref", "skip", "dense"):
            raise ValueError(
                f"unknown engine {mode!r}; pick auto, ref, skip, or dense")
        #: Stepping tier policy ("auto"|"ref"|"skip"|"dense"); see
        #: ``MultiRingConfig.engine`` and docs/PERFORMANCE.md.
        self.engine_mode = mode
        #: Run the exact-skip step when not running dense (identical
        #: semantics, skips no-op station visits).  Cleared only by
        #: ``engine="ref"``, so equivalence tests can drive the
        #: reference step.
        self._skip = mode != "ref"
        #: Active :class:`repro.perf.dense.DenseRingEngine`, or None
        #: while a scalar step runs.
        self._dense = None
        #: Set while instrumentation that reads per-slot object state
        #: every cycle (trace recorder, invariant checker) is attached;
        #: keeps the dense tier off so scalar-path guarantees (byte-
        #: identical trace streams, probe visibility) stay intact.
        self._scalar_pin: Optional[str] = None
        self._next_engine_check = (
            0 if mode in ("auto", "dense") else float("inf"))

    @property
    def stations(self) -> List[CrossStation]:
        return list(self._stations.values())

    def station_at(self, stop: int) -> CrossStation:
        """Get or create the cross station at ``stop``."""
        station = self._stations.get(stop)
        if station is None:
            if not 0 <= stop < self.spec.nstops:
                raise ValueError(f"stop {stop} out of range on ring {self.spec.ring_id}")
            station = CrossStation(self.spec, stop, self.config, self.stats)
            station.pending_registry = self.pending_stations
            self._stations[stop] = station
            self._station_list.append(station)
        return station

    def step(self, cycle: int) -> None:
        """One clock: every station ejects/injects on every lane.

        Dispatches to the active tier — the dense struct-of-arrays
        engine when one is materialized, else the exact-skip fast step,
        else the reference walk.  All tiers are cycle-for-cycle
        identical (``tests/test_engine_tiers.py``), so tier choice is
        pure policy: ``engine_mode`` plus, in auto mode, the periodic
        occupancy check.
        """
        if cycle >= self._next_engine_check:
            self._engine_check(cycle)
        dense = self._dense
        if dense is not None:
            if self.stats.trace.enabled:
                # A recorder attached mid-run: demote before stepping so
                # every traced cycle runs a scalar (event-emitting) path.
                self._exit_dense()
            else:
                dense.step(cycle)
                return
        if self._skip:
            self.step_fast(cycle)
        else:
            self.step_reference(cycle)

    # -- engine-tier policy ------------------------------------------------

    def set_engine(self, mode: str) -> None:
        """Switch this ring's stepping tier policy at a cycle boundary."""
        if mode not in ("auto", "ref", "skip", "dense"):
            raise ValueError(
                f"unknown engine {mode!r}; pick auto, ref, skip, or dense")
        if self._dense is not None:
            self._exit_dense()
        self.engine_mode = mode
        self._skip = mode != "ref"
        self._next_engine_check = (
            0 if mode in ("auto", "dense") else float("inf"))

    def pin_scalar(self, reason: str) -> None:
        """Keep this ring off the dense tier (instrumentation attached)."""
        self._scalar_pin = reason
        if self._dense is not None:
            self._exit_dense()

    def active_tier(self) -> str:
        """The tier the next cycle will run ("ref", "skip", or "dense")."""
        if self._dense is not None:
            return "dense"
        return "skip" if self._skip else "ref"

    def _engine_check(self, cycle: int) -> None:
        """Periodic tier decision (auto/dense modes only)."""
        mode = self.engine_mode
        if mode not in ("auto", "dense"):
            self._next_engine_check = float("inf")
            return
        self._next_engine_check = cycle + ENGINE_CHECK_EVERY
        if self._scalar_pin is not None or self.stats.trace.enabled:
            if self._dense is not None:
                self._exit_dense()
            return
        if mode == "dense":
            if self._dense is None:
                self._enter_dense(cycle)
            return
        slots = self.spec.nstops * len(self.lanes)
        occupancy = self.occupancy() / slots if slots else 0.0
        if self._dense is None:
            if occupancy >= DENSE_ENTER_OCCUPANCY:
                self._enter_dense(cycle)
        elif occupancy <= DENSE_EXIT_OCCUPANCY:
            self._exit_dense()

    def _enter_dense(self, cycle: int) -> None:
        from repro.perf.dense import DenseRingEngine, dense_ineligible_reason
        reason = dense_ineligible_reason(self)
        if reason is not None:
            if self.engine_mode == "dense":
                # Forced onto an ineligible ring: fall back to the skip
                # tier permanently instead of re-checking forever.
                self._next_engine_check = float("inf")
            return
        self._dense = DenseRingEngine(self, cycle)

    def _exit_dense(self) -> None:
        dense = self._dense
        self._dense = None
        dense.dematerialize()

    def step_reference(self, cycle: int) -> None:
        """Reference semantics: walk every lane × station each cycle.

        Kept deliberately simple — this is the specification the fast
        step is tested against.
        """
        stations = self._stations.values()
        for station in stations:
            station.process_local(cycle)
        for lane in self.lanes:
            for station in stations:
                station.process_lane(lane, cycle)

    def step_fast(self, cycle: int) -> None:
        """Fast step: visit only stations that can do work this cycle.

        A station's lane visit has an effect only if at least one of:

        - a port at the station has a queued injection whose head prefers
          this lane's direction (it may inject into an empty slot, or
          must be charged an injection failure);
        - the slot passing the station holds a flit exiting there
          (ejection — and possibly a SWAP/DRM exchange — found from the
          lane's occupied-slot index);
        - the slot passing the station carries an I-tag owned by this
          station (tag release, found from the I-tag slot index).

        Everything else is a no-op in the reference walk, so skipping it
        cannot change state.  Within one lane pass, stations touch only
        their own slot/ports, so visiting a subset preserves per-cycle
        outcomes exactly.  Head directions are re-read per lane (not
        cached across lanes) because a SWAP exchange on an earlier lane
        can expose a new queue head with a different preference.

        The station visit itself is :meth:`CrossStation.process_lane`
        inlined — same statements, same order — with the per-lane
        constants hoisted out of the loop; the reference step and the
        equivalence suite guard the duplication.
        """
        spec = self.spec
        ring_id = spec.ring_id
        nstops = spec.nstops
        bidi = spec.bidirectional
        stats = self.stats
        config = self.config
        enable_etags = config.enable_etags
        enable_itags = config.enable_itags
        threshold = config.queues.itag_threshold
        trace = stats.trace
        tracing = trace.enabled
        lset = list.__setitem__

        # Stations with any queued injection, discovered from the
        # enqueue-time registry in O(pending); stations observed with
        # empty queues are dropped until their next enqueue.  Local
        # (same-stop) transfers only need process_local when a queue
        # head exits right here.
        any_active: List[CrossStation] = []
        pending = self.pending_stations
        if pending:
            for st in list(pending):
                stop = st.stop
                queued = False
                local = False
                for port in st.ports:
                    q = port.inject_queue
                    if q:
                        queued = True
                        head = q[0]
                        if head.exit_stop == stop and head.exit_ring == ring_id:
                            local = True
                if queued:
                    any_active.append(st)
                    if local:
                        st.process_local(cycle)
                else:
                    del pending[st]

        get_station = self._stations.get
        for lane in self.lanes:
            d = lane.direction
            flits = lane.flits
            occupied = flits.occupied
            itags = lane.itags
            tagged = itags.occupied
            if not occupied and not tagged and not any_active:
                continue
            n = lane.nstops
            dc = (d * cycle) % n
            esc = lane.escape_period
            occ_add = occupied.add
            occ_discard = occupied.discard
            fbuckets = flits.buckets

            # Visit list: direction-matched active stations (in station
            # creation order, like the reference walk) ...
            visit: List[CrossStation] = []
            for st in any_active:
                for port in st.ports:
                    q = port.inject_queue
                    if q:
                        head = q[0]
                        want = head.dir_pref
                        if want is None:
                            want = ring_direction(
                                nstops, st.stop, head.exit_stop, bidi)
                            head.dir_pref = want
                        if want == d:
                            visit.append(st)
                            break
            # ... plus stations owed an ejection (from the exit-residue
            # bucket: O(ejections), no occupied-slot scan) or an I-tag
            # release (tags are rare; scanning the tag index is enough).
            # sorted() pins their order so fast-path runs are
            # bit-identical everywhere (within a lane pass the order is
            # provably irrelevant).
            cur_bucket = flits.buckets[cycle % n]
            if cur_bucket or tagged:
                extra: List[int] = []
                for idx in cur_bucket:
                    stop = idx + dc
                    if stop >= n:
                        stop -= n
                    extra.append(stop)
                for idx in tagged:
                    stop = idx + dc
                    if stop >= n:
                        stop -= n
                    if itags[idx].station.stop == stop:
                        extra.append(stop)
                if extra:
                    seen = {st.stop for st in visit}
                    for stop in sorted(set(extra)):
                        if stop not in seen:
                            st = get_station(stop)
                            if st is not None:
                                visit.append(st)

            for st in visit:
                stop = st.stop
                idx = stop - dc
                if idx < 0:
                    idx += n
                flit = flits[idx]

                # -- ejection: on-the-fly flits beat injections ---------
                if (flit is not None and flit.exit_stop == stop
                        and flit.exit_ring == ring_id):
                    port = st.port_by_key.get(flit.exit_port_key)
                    if port is None:
                        hop = flit.current_hop
                        raise RuntimeError(
                            f"flit {flit.msg.msg_id} wants port "
                            f"{hop.port_key} at ({hop.ring},{hop.exit_stop}) "
                            "but it does not exist"
                        )
                    if port.try_accept_eject(flit, stats, enable_etags, cycle):
                        occ_discard(idx)
                        cur_bucket.discard(idx)
                        lset(flits, idx, None)
                        flit = None
                        if port.drm_active and port.inject_queue:
                            # SWAP (Section 4.4): eject and inject
                            # exchange in the same cycle.
                            swap_in = port.inject_queue.popleft()
                            occ_add(idx)
                            fbuckets[(d * (swap_in.exit_stop - idx)) % n].add(idx)
                            lset(flits, idx, swap_in)
                            port.consecutive_failures = 0
                            if not swap_in.injected_any:
                                swap_in.injected_any = True
                                swap_in.msg.injected_cycle = cycle
                                stats.injected += 1
                            if tracing:
                                pk = port_key_str(port.key)
                                trace.emit(cycle, "inject",
                                           swap_in.msg.msg_id, ring_id, stop,
                                           f"d={d:+d} port={pk}")
                                trace.emit(cycle, "swap", swap_in.msg.msg_id,
                                           ring_id, stop, f"port={pk}")
                            continue

                # -- injection into an empty slot, honouring I-tags -----
                ports = st.ports
                injected_port: Optional[Port] = None
                blocked = False
                if flit is None:
                    tag_port: Optional[Port] = itags[idx]
                    if tag_port is not None:
                        if tag_port.station is st:
                            itags[idx] = None
                            tag_port.itag_pending[d] = False
                            q = tag_port.inject_queue
                            if q:
                                head = q[0]
                                want = head.dir_pref
                                if want is None:
                                    want = ring_direction(
                                        nstops, stop, head.exit_stop, bidi)
                                    head.dir_pref = want
                                if want == d:
                                    q.popleft()
                                    occ_add(idx)
                                    fbuckets[(d * (head.exit_stop - idx))
                                             % n].add(idx)
                                    lset(flits, idx, head)
                                    tag_port.consecutive_failures = 0
                                    if not head.injected_any:
                                        head.injected_any = True
                                        head.msg.injected_cycle = cycle
                                        stats.injected += 1
                                    if tracing:
                                        trace.emit(
                                            cycle, "inject", head.msg.msg_id,
                                            ring_id, stop,
                                            f"d={d:+d} port="
                                            f"{port_key_str(tag_port.key)}")
                                    injected_port = tag_port
                        else:
                            blocked = True

                    if injected_port is None and not blocked:
                        escape_slot = esc > 0 and idx % esc == 0
                        nports = len(ports)
                        rr = st._rr
                        for offset in range(nports):
                            j = (rr + offset) % nports
                            port = ports[j]
                            if escape_slot and not port.is_bridge_port:
                                continue
                            q = port.inject_queue
                            if not q:
                                continue
                            head = q[0]
                            want = head.dir_pref
                            if want is None:
                                want = ring_direction(
                                    nstops, stop, head.exit_stop, bidi)
                                head.dir_pref = want
                            if want == d:
                                q.popleft()
                                occ_add(idx)
                                fbuckets[(d * (head.exit_stop - idx))
                                         % n].add(idx)
                                lset(flits, idx, head)
                                port.consecutive_failures = 0
                                if not head.injected_any:
                                    head.injected_any = True
                                    head.msg.injected_cycle = cycle
                                    stats.injected += 1
                                if tracing:
                                    trace.emit(
                                        cycle, "inject", head.msg.msg_id,
                                        ring_id, stop,
                                        f"d={d:+d} port="
                                        f"{port_key_str(port.key)}")
                                injected_port = port
                                st._rr = (j + 1) % nports
                                break

                # -- failure accounting / I-tag placement ---------------
                for port in ports:
                    if port is injected_port:
                        continue
                    q = port.inject_queue
                    if not q:
                        continue
                    head = q[0]
                    want = head.dir_pref
                    if want is None:
                        want = ring_direction(
                            nstops, stop, head.exit_stop, bidi)
                        head.dir_pref = want
                    if want != d:
                        continue
                    failures = port.consecutive_failures + 1
                    port.consecutive_failures = failures
                    if (
                        enable_itags
                        and not port.itag_pending[d]
                        and failures % threshold == 0
                        and itags[idx] is None
                        and not (esc > 0 and idx % esc == 0)
                    ):
                        itags[idx] = port
                        port.itag_pending[d] = True
                        stats.itags_placed += 1
                        if tracing:
                            trace.emit(cycle, "itag", head.msg.msg_id,
                                       ring_id, stop,
                                       f"d={d:+d} port="
                                       f"{port_key_str(port.key)}")

    def snapshot(self, cycle: int) -> Tuple:
        """Structural ring state for the verify subsystem's state encoding.

        ``(ring_id, phase, lane snapshots, station snapshots)`` with
        stations sorted by stop.  ``phase`` is ``cycle % nstops`` when
        escape slots are configured (their positions are slot-index-
        anchored, so the stop-frame view alone is not shift-invariant)
        and 0 otherwise.
        """
        if self._dense is not None:
            # Snapshots read per-slot object state; fold the array world
            # back first (auto mode re-promotes at its next check).
            self._exit_dense()
        nstops = self.spec.nstops
        phase = cycle % nstops if self.config.escape_slot_period > 0 else 0
        return (
            self.spec.ring_id,
            phase,
            tuple(lane.snapshot(cycle) for lane in self.lanes),
            tuple(st.snapshot() for st in
                  sorted(self._station_list, key=lambda s: s.stop)),
        )

    def occupancy(self) -> int:
        """Flits on this ring's lanes — O(lanes) via maintained counters."""
        dense = self._dense
        if dense is not None:
            return dense.occupancy()
        total = 0
        for lane in self.lanes:
            total += len(lane.flits.occupied)
        return total

    def flits_in_flight(self) -> List[Flit]:
        if self._dense is not None:
            self._exit_dense()
        out: List[Flit] = []
        for lane in self.lanes:
            out.extend(lane.flits_in_flight())
        return out
