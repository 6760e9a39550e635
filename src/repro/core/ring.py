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
- the **fast step** (:meth:`Ring.step_fast`, the default) visits only
  stations that can do work this cycle, found from indexes updated when
  the work appears: the head index :attr:`Ring.want` and the lanes'
  eject and I-tag-release residue buckets.  Every skipped visit is a
  provable no-op, so the two paths are cycle-for-cycle identical;
  ``tests/test_fastpath_equivalence.py`` drives random traffic through
  both and asserts equal :class:`FabricStats` and delivery logs.
"""

from __future__ import annotations

import copy
from collections import defaultdict
from operator import attrgetter
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

    #: The stop at which an entry leaves its slot (a flit's exit stop).
    target = staticmethod(attrgetter("exit_stop"))

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
            buckets[(d * (self.target(old) - idx)) % n].discard(idx)
        if value is None:
            self.occupied.discard(idx)
        else:
            self.occupied.add(idx)
            buckets[(d * (self.target(value) - idx)) % n].add(idx)
        list.__setitem__(self, idx, value)

    def __deepcopy__(self, memo):
        clone = SlotList.__deepcopy__(self, memo)
        clone.direction = self.direction
        clone.buckets = copy.deepcopy(self.buckets, memo)
        return clone


class TagBucketedSlots(ExitBucketedSlots):
    """I-tag slots, bucketed by the residue at which each passes its
    owner's stop.  Tags are rare, so residue sets are made on demand."""

    __slots__ = ()

    target = staticmethod(attrgetter("station.stop"))

    def __init__(self, nslots: int, direction: int):
        super().__init__(nslots, direction)
        self.buckets = defaultdict(set)


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
        self.itags: TagBucketedSlots = TagBucketedSlots(nstops, direction)

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
        #: Inbox of stations enqueued to since the last step: every
        #: :meth:`repro.core.station.Port.enqueue_inject` registers its
        #: station here (insertion-ordered dict used as a set).
        self.pending_stations: dict = {}
        #: Head index: direction -> stations that may hold an inject-queue
        #: head preferring it; may hold stale stations, never misses one.
        self.want = {1: {}, -1: {}}
        #: Stations whose head may exit at its own stop (same contract).
        self.local: dict = {}
        #: Active :class:`repro.perf.dense.DenseRingEngine`, or None
        #: while a scalar step runs.
        self._dense = None
        #: Set while instrumentation that reads per-slot object state
        #: every cycle (trace recorder, invariant checker) is attached;
        #: keeps the dense tier off so scalar-path guarantees (byte-
        #: identical trace streams, probe visibility) stay intact.
        self._scalar_pin: Optional[str] = None
        self.set_engine(config.engine)

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
        #: Stepping tier policy; see ``MultiRingConfig.engine``.
        self.engine_mode = mode
        #: Step ``step_fast`` when not dense; only ``engine="ref"`` clears it.
        self._skip = mode != "ref"
        #: Why the dense tier refused this ring (None until it does).
        #: Refusals are structural, so one stands until the next call.
        self.dense_refusal: Optional[str] = None
        self._next_engine_check = (
            0 if mode in ("auto", "dense") else float("inf"))
        self._rebuild_index()

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
        self._next_engine_check = cycle + ENGINE_CHECK_EVERY
        if self._scalar_pin is not None or self.stats.trace.enabled:
            if self._dense is not None:
                self._exit_dense()
            return
        slots = self.spec.nstops * len(self.lanes)
        occupancy = self.occupancy() / slots if slots else 0.0
        if self._dense is None:
            from repro.perf.dense import dense_ineligible_reason
            # Structure first, without numpy: a refusal stands.
            if (mode == "dense" or occupancy >= DENSE_ENTER_OCCUPANCY
                    or dense_ineligible_reason(self, need_numpy=False)):
                self._enter_dense(cycle)
        elif mode == "auto" and occupancy <= DENSE_EXIT_OCCUPANCY:
            self._exit_dense()

    def _enter_dense(self, cycle: int) -> None:
        from repro.perf.dense import DenseRingEngine, dense_ineligible_reason
        reason = dense_ineligible_reason(self)
        if reason is not None:
            self.dense_refusal = reason
            self._next_engine_check = float("inf")
            return
        self._dense = DenseRingEngine(self, cycle)

    def _exit_dense(self) -> None:
        dense = self._dense
        self._dense = None
        dense.dematerialize()
        self._rebuild_index()

    def _index_heads(self, st: CrossStation) -> None:
        """Index every inject-queue head at ``st`` (see :attr:`want`)."""
        spec = self.spec
        stop = st.stop
        for port in st.ports:
            q = port.inject_queue
            if q:
                head = q[0]
                d = head.dir_pref
                if d is None:
                    d = head.dir_pref = ring_direction(
                        spec.nstops, stop, head.exit_stop, spec.bidirectional)
                self.want[d][st] = None
                if head.exit_stop == stop and head.exit_ring == spec.ring_id:
                    self.local[st] = None

    def _rebuild_index(self) -> None:
        """Re-index every head (``ref`` and dense pop heads unindexed)."""
        for reg in (self.pending_stations, self.local, *self.want.values()):
            reg.clear()
        for st in self._station_list:
            self._index_heads(st)

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
          must be charged an injection failure) — found from the head
          index :attr:`want`;
        - the slot passing the station holds a flit exiting there
          (ejection — and possibly a SWAP/DRM exchange — found from the
          lane's exit-residue bucket);
        - the slot passing the station carries an I-tag owned by this
          station (tag release, found from the I-tag residue bucket).

        Everything else is a no-op in the reference walk, so skipping it
        cannot change state.  Within one lane pass, stations touch only
        their own slot/ports, so visiting a subset in any order preserves
        per-cycle outcomes exactly.  Nothing is rescanned: a head is
        indexed when it becomes the head (the inbox is drained first,
        then ``process_local`` runs for the local-transfer registry, and
        every pop re-indexes its station), and a visit that finds no head
        wanting its lane drops the stale entry.

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
        index = self._index_heads

        inbox = self.pending_stations
        if inbox:
            for st in inbox:
                index(st)
            inbox.clear()
        local = self.local
        if local:
            for st in list(local):
                del local[st]
                st.process_local(cycle)
                index(st)

        get_station = self._stations.get
        for lane in self.lanes:
            d = lane.direction
            want_d = self.want[d]
            flits = lane.flits
            itags = lane.itags
            n = lane.nstops
            cur_bucket = flits.buckets[cycle % n]
            released = itags.buckets.get(cycle % n)
            if not want_d and not cur_bucket and not released:
                continue
            dc = (d * cycle) % n
            esc = lane.escape_period
            occ_add = flits.occupied.add
            occ_discard = flits.occupied.discard
            fbuckets = flits.buckets

            # Visit list: stations whose head may want this lane, plus
            # stations owed an ejection or an I-tag release (the slot now
            # passing them is in this cycle's residue bucket).
            visit = list(want_d)
            for idx in cur_bucket:
                stop = idx + dc
                if stop >= n:
                    stop -= n
                st = get_station(stop)
                if st is not None and st not in want_d:
                    visit.append(st)
            for idx in released or ():
                st = itags[idx].station
                if idx not in cur_bucket and st not in want_d:
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
                            index(st)
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
                keep = injected_port is not None
                if keep:
                    index(st)
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
                    keep = True
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
                if not keep:
                    want_d.pop(st, None)

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
