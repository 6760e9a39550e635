"""Dense-traffic struct-of-arrays ring stepping (the third engine tier).

``Ring.step_fast`` (docs/PERFORMANCE.md) wins by *skipping* station
visits, which presumes there is something to skip.  On a uniformly
saturated ring every station has work every cycle, so the exact-skip
bookkeeping costs more than it saves — the regime the paper's fabrics
are sized for (§4, Fig. 9–11) was the slowest to simulate.  This module
is the engine for that regime: per-ring state lives in flat numpy
arrays plus O(events) python indexes instead of per-station object
walks, so a cycle costs O(events) + a handful of vector operations over
all ports, independent of ``nstops``.

Representation (one :class:`DenseRingEngine` per ring):

- lane advance is index rotation, exactly like the object world: slot
  ``idx`` passes stop ``(idx + d·cycle) mod n``, so nothing moves;
- ejection is residue-bucket lookup (the same invariant as
  :class:`repro.core.ring.ExitBucketedSlots`): slot ``idx`` holding a
  flit exiting at ``exit_stop`` ejects only at cycles
  ``t ≡ d·(exit_stop − idx) (mod n)``;
- slot validity and the per-lane ``want`` set are packed bit-arrays
  (arbitrary-precision ints, one bit per slot/port), so the injection
  candidates of a cycle are ``want & rotate(empty, d·cycle)`` — four
  integer ops regardless of ring size — and only actual winners are
  visited in python;
- failure accounting is one vectorized ``failures += want`` add per
  lane; I-tag *placement* rides a timing wheel (a port that keeps
  failing is due exactly every ``itag_threshold`` cycles, so it sits in
  one wheel bucket until its head changes) and I-tag *release* rides
  per-slot residue buckets (a reserved slot passes its owner's stop
  once per revolution), so neither needs a per-cycle scan.

The engine is **exact**, not approximate: rare events (ejects, injects,
local transfers, tag placement/release) run through the *real*
``Port.try_accept_eject`` / ``CrossStation.process_local`` / queue
deques, so E-tag reservations, eject-queue depths, the drain registry,
and every ``FabricStats`` counter behave identically to the reference
walk.  Materialization (object world → arrays) and dematerialization
(arrays → object world) are exact round-trips; the cross-tier
equivalence suite (``tests/test_engine_tiers.py``) pins cycle-identical
``FabricStats`` across ``ref``/``skip``/``dense``/``auto``.

Eligibility is conservative (:func:`dense_ineligible_reason`): rings
with bridge ports (and therefore SWAP/DRM, fault injection, and the
reliable link layer), two-port stations, escape slots, or multiple
lanes per direction stay on the scalar paths, as does any fabric with
an attached trace recorder or invariant checker (they read per-slot
object state every cycle).  ``repro/perf`` is exempt from the
determinism lint, but this file is simulation code: it is held to the
``unordered-iteration`` rule and every set it iterates is sorted.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.routing import ring_direction

#: numpy, imported by the first :func:`numpy_available` call.  Importing
#: this module stays numpy-free, so a ring the structural checks refuse
#: never pays numpy's import time and memory.
_np = None

__all__ = ["DenseRingEngine", "dense_ineligible_reason",
           "numpy_available"]


def numpy_available() -> bool:
    global _np
    if _np is None:
        try:
            import numpy
        except ImportError:  # pragma: no cover - bare installs only
            return False
        _np = numpy
    return True


def dense_ineligible_reason(ring, need_numpy: bool = True) -> Optional[str]:
    """Why ``ring`` cannot run the dense tier (None = eligible).

    Checked by the selector before every promotion; the conditions are
    structural (they can only change while the fabric is being built),
    so a refusal stands until the ring's next ``set_engine``.  The
    structure is checked first and numpy is imported last, and only when
    ``need_numpy``.
    """
    if ring.config.escape_slot_period > 0:
        return "escape slots reserve indices for bridge ports"
    expected_lanes = 2 if ring.spec.bidirectional else 1
    if len(ring.lanes) != expected_lanes:
        return "multiple lanes per direction"
    for station in ring._station_list:
        if len(station.ports) != 1:
            return f"station {station.stop} hosts two node interfaces"
        if station.ports[0].is_bridge_port:
            return f"ring bridge attached at stop {station.stop}"
    if need_numpy and not numpy_available():
        return "numpy is not installed"
    return None


class DenseRingEngine:
    """Struct-of-arrays stepping state for one eligible ring.

    Constructing the engine materializes the ring's current object-world
    state (slots, exit-residue buckets, I-tags, per-port failure
    counters, queue heads) into arrays/indexes; :meth:`dematerialize`
    writes everything back through ``SlotList.__setitem__`` so the
    occupancy and bucket indexes the scalar steps rely on are rebuilt
    exactly.  While active, the engine is authoritative for slot and
    failure state; queues, E-tags, and ``itag_pending`` flags stay live
    on the :class:`repro.core.station.Port` objects.
    """

    def __init__(self, ring, cycle: int = 0):
        reason = dense_ineligible_reason(ring)
        if reason is not None:
            raise ValueError(f"ring {ring.spec.ring_id} cannot run the "
                             f"dense engine: {reason}")
        #: cycle the engine takes over (anchors the I-tag timing wheel)
        self.start_cycle = cycle
        self.ring = ring
        self.stats = ring.stats
        config = ring.config
        spec = ring.spec
        self.n = spec.nstops
        self.ring_id = spec.ring_id
        self.bidi = spec.bidirectional
        self.enable_etags = config.enable_etags
        self.enable_itags = config.enable_itags
        self.thr = config.queues.itag_threshold
        self.lanes = ring.lanes
        self.nlanes = len(self.lanes)
        # lane index by direction (eligibility guarantees one per dir)
        self.lane_of_dir: Dict[int, int] = {
            lane.direction: l for l, lane in enumerate(self.lanes)}

        # -- ports, in station creation order (== drain/visit order) ----
        self.ports = [st.ports[0] for st in ring._station_list]
        self.port_station = [st for st in ring._station_list]
        nports = len(self.ports)
        self.stops = [st.stop for st in ring._station_list]
        #: stop -> port index (-1 where no station exists)
        self.pindex: List[int] = [-1] * self.n
        for p, stop in enumerate(self.stops):
            self.pindex[stop] = p
        self.station_pindex: Dict[object, int] = {
            st: p for p, st in enumerate(self.port_station)}

        # -- port-side arrays -------------------------------------------
        self.failures = _np.zeros(nports, dtype=_np.int64)
        #: per lane: 1 where the port's queue head prefers that direction
        self.want = [_np.zeros(nports, dtype=_np.int64)
                    for _ in range(self.nlanes)]
        #: the same per-lane want set as a packed bit-array (bit = port)
        self.wantmask = [0] * self.nlanes
        self.nwant = [0] * self.nlanes
        self.qlen = [0] * nports
        #: ports whose queue head exits at its own stop (process_local)
        self.local: set = set()
        #: head-change generation per port; a wheel entry whose recorded
        #: generation is stale is dropped on its next visit.
        self.gen = [0] * nports
        #: per lane: ``thr`` buckets of ``(port, gen)`` entries.  A port
        #: charged every cycle revisits ``failures % thr == 0`` on a
        #: fixed cycle residue, so a valid entry stays in one bucket and
        #: the whole due-check costs O(due ports), not O(ports).
        self.wheel = [[[] for _ in range(self.thr)]
                      for _ in range(self.nlanes)]

        #: With a station at every stop (``stops[p] == p``) the slot
        #: under port ``p`` at cycle ``t`` is ``(p - d·t) mod n``, so
        #: rotating the empty bit-array by ``d·t`` re-indexes it from
        #: slot space to port space and the injection candidates fall
        #: out of one AND.  Sparser stop layouts keep the (still
        #: bit-array-driven) per-empty-slot walk.
        self.aligned = (nports == self.n
                        and all(stop == p
                                for p, stop in enumerate(self.stops)))
        self.fullmask = (1 << self.n) - 1

        # -- lane-side indexes ------------------------------------------
        self.objs: List[List[object]] = []
        #: per lane: packed bit-array of empty slot indices
        self.emptymask = [0] * self.nlanes
        #: per lane: packed bit-array of I-tagged slot indices
        self.tagmask = [0] * self.nlanes
        self.buckets: List[List[set]] = []
        self.tags: List[Dict[int, int]] = []
        #: per lane: cycle residue -> tagged slots whose owner's stop is
        #: passed at that residue (release is only possible then; same
        #: invariant family as the exit buckets).
        self.tag_rel: List[Dict[int, set]] = [
            {} for _ in range(self.nlanes)]
        self.occ = [0] * self.nlanes

        self._materialize()

    # -- world transfer ----------------------------------------------------

    def _materialize(self) -> None:
        n = self.n
        for l, lane in enumerate(self.lanes):
            flits = lane.flits
            objs: List[object] = [None] * n
            emptymask = self.fullmask
            for idx in sorted(flits.occupied):
                objs[idx] = flits[idx]
                emptymask &= ~(1 << idx)
            self.objs.append(objs)
            self.emptymask[l] = emptymask
            self.buckets.append([set(b) for b in flits.buckets])
            tags: Dict[int, int] = {}
            tagmask = 0
            d = lane.direction
            tag_rel = self.tag_rel[l]
            itags = lane.itags
            for idx in sorted(itags.occupied):
                p = self.station_pindex[itags[idx].station]
                tags[idx] = p
                tagmask |= 1 << idx
                r = (d * (self.stops[p] - idx)) % n
                tag_rel.setdefault(r, set()).add(idx)
            self.tags.append(tags)
            self.tagmask[l] = tagmask
            self.occ[l] = len(flits.occupied)
        cycle = self.start_cycle
        for p, port in enumerate(self.ports):
            self.failures[p] = port.consecutive_failures
            q = port.inject_queue
            self.qlen[p] = len(q)
            if q:
                self._new_head(p, q[0], cycle)
        # From here the arrays are authoritative; each step drains the
        # ring's inbox of new enqueues itself.
        self.ring.pending_stations.clear()

    def dematerialize(self) -> None:
        """Write the array state back into the object world, exactly.

        Every slot is written through ``SlotList.__setitem__`` so the
        ``occupied`` sets and residue buckets are rebuilt, and the ring
        then rebuilds its head index, so the scalar steps resume mid-run
        as if they had run all along.
        """
        n = self.n
        for l, lane in enumerate(self.lanes):
            flits = lane.flits
            objs = self.objs[l]
            for idx in range(n):
                flits[idx] = objs[idx]
            itags = lane.itags
            for idx in range(n):
                itags[idx] = None
            tags = self.tags[l]
            for idx in sorted(tags):
                itags[idx] = self.ports[tags[idx]]
        for p, port in enumerate(self.ports):
            port.consecutive_failures = int(self.failures[p])

    # -- head bookkeeping --------------------------------------------------

    def _new_head(self, p: int, head, cycle: int,
                  cur_lane: int = -1) -> None:
        """Register a port's new queue head (and schedule its wheel slot).

        ``cur_lane`` is the lane currently stepping when the head was
        exposed (-1 outside the lane phase): like the scalar walk's one
        visit per station per lane, a head exposed mid-lane first
        participates in *later* lanes this cycle, so its first failure
        charge — and therefore its wheel anchor — lands this cycle only
        if its lane has not stepped yet.
        """
        want_dir = head.dir_pref
        if want_dir is None:
            want_dir = ring_direction(self.n, self.stops[p], head.exit_stop,
                                      self.bidi)
            head.dir_pref = want_dir
        l = self.lane_of_dir[want_dir]
        self.want[l][p] = 1
        self.wantmask[l] |= 1 << p
        self.nwant[l] += 1
        self.gen[p] += 1
        if self.enable_itags:
            thr = self.thr
            anchor = cycle if l > cur_lane else cycle + 1
            countdown = thr - int(self.failures[p]) % thr
            due = anchor + countdown - 1
            # ``due`` rides in the entry: a bucket reached *this* cycle
            # by an insert scheduled for ``cycle + thr`` must not fire
            # a revolution early.
            self.wheel[l][due % thr].append((p, self.gen[p], due))
        if head.exit_stop == self.stops[p] and head.exit_ring == self.ring_id:
            self.local.add(p)

    def _clear_head(self, p: int) -> None:
        bit = 1 << p
        for l in range(self.nlanes):
            if self.wantmask[l] & bit:
                self.want[l][p] = 0
                self.wantmask[l] &= ~bit
                self.nwant[l] -= 1
        self.gen[p] += 1
        self.local.discard(p)

    def _resync_port(self, p: int, cycle: int) -> None:
        """Re-read one port after a scalar event touched it."""
        port = self.ports[p]
        self.failures[p] = port.consecutive_failures
        self._clear_head(p)
        q = port.inject_queue
        self.qlen[p] = len(q)
        if q:
            self._new_head(p, q[0], cycle)

    # -- stepping ----------------------------------------------------------

    def step(self, cycle: int) -> None:
        # Drain the ring's inbox of enqueues since the last step (node
        # injections land through Port.enqueue_inject).
        pending = self.ring.pending_stations
        if pending:
            station_pindex = self.station_pindex
            qlen = self.qlen
            for station in pending:  # insertion-ordered dict
                p = station_pindex[station]
                q = self.ports[p].inject_queue
                if not qlen[p] and q:
                    self._new_head(p, q[0], cycle)
                qlen[p] = len(q)
            pending.clear()

        # Same-stop transfers, via the real station logic (rare).
        if self.local:
            for p in sorted(self.local):
                port = self.ports[p]
                port.consecutive_failures = int(self.failures[p])
                self.port_station[p].process_local(cycle)
                self._resync_port(p, cycle)

        for l in range(self.nlanes):
            self._step_lane(l, cycle)

    def _step_lane(self, l: int, cycle: int) -> None:
        lane = self.lanes[l]
        n = self.n
        d = lane.direction
        dc = (d * cycle) % n
        stats = self.stats
        objs = self.objs[l]
        pindex = self.pindex
        ports = self.ports
        tags = self.tags[l]

        # -- ejection: on-the-fly flits beat injections -----------------
        bucket = self.buckets[l][cycle % n]
        if bucket:
            enable_etags = self.enable_etags
            ring_id = self.ring_id
            for idx in sorted(bucket):
                flit = objs[idx]
                stop = idx + dc
                if stop >= n:
                    stop -= n
                if flit.exit_stop != stop or flit.exit_ring != ring_id:
                    continue
                p = pindex[stop]
                if p < 0:
                    continue  # no station here; the flit keeps riding
                port = ports[p]
                if port.key != flit.exit_port_key:
                    hop = flit.current_hop
                    raise RuntimeError(
                        f"flit {flit.msg.msg_id} wants port "
                        f"{hop.port_key} at ({hop.ring},{hop.exit_stop}) "
                        "but it does not exist"
                    )
                if port.try_accept_eject(flit, stats, enable_etags, cycle):
                    bucket.discard(idx)
                    objs[idx] = None
                    self.emptymask[l] |= 1 << idx
                    self.occ[l] -= 1

        # Failure charges are applied from the pre-injection want set:
        # a head popped mid-lane exposes its successor, which (like the
        # scalar walk's single visit per station per lane) participates
        # only from the next lane on.  Charging before the injections is
        # equivalent to charging after from a snapshot — no intermediate
        # value is observed and the winners are reset below.
        charged = self.nwant[l] != 0
        if charged:
            self.failures += self.want[l]

        # -- I-tag release: a reserved slot coming back empty to its
        # owner's stop frees the reservation (and the owner, whose
        # want bit survived, can win it in the scan below).  A slot only
        # passes its owner's stop at one cycle residue, so just that
        # residue's bucket is checked.
        emptymask = self.emptymask[l]
        if tags:
            rel = self.tag_rel[l].get(cycle % n)
            if rel and emptymask:
                for idx in sorted(rel):
                    if (emptymask >> idx) & 1:
                        p = tags.pop(idx)
                        self.tagmask[l] &= ~(1 << idx)
                        ports[p].itag_pending[d] = False
                        rel.discard(idx)

        # -- injection: wanting ports over empty untagged slots ---------
        if charged and emptymask:
            if self.aligned:
                # Re-index empty (and tagged) slots from slot space to
                # port space by rotating the bit-array; surviving bits
                # are exactly this cycle's injection winners.
                if dc:
                    rot = ((emptymask << dc)
                           | (emptymask >> (n - dc))) & self.fullmask
                else:
                    rot = emptymask
                cand = self.wantmask[l] & rot
                tagmask = self.tagmask[l]
                if tagmask and cand:
                    if dc:
                        trot = ((tagmask << dc)
                                | (tagmask >> (n - dc))) & self.fullmask
                    else:
                        trot = tagmask
                    cand &= ~trot  # remaining tags are foreign: blocked
                while cand:
                    low = cand & -cand
                    cand -= low
                    p = low.bit_length() - 1
                    idx = p - dc
                    if idx < 0:
                        idx += n
                    self._inject(l, d, idx, p, cycle)
            else:
                # Sparse stations: walk empty slots in index order (the
                # same order the set-based scan used).
                wantmask = self.wantmask[l]
                tagmask = self.tagmask[l]
                em = emptymask
                while em:
                    low = em & -em
                    em -= low
                    idx = low.bit_length() - 1
                    stop = idx + dc
                    if stop >= n:
                        stop -= n
                    p = pindex[stop]
                    if p < 0:
                        continue
                    if (tagmask >> idx) & 1:
                        continue  # reserved for another station
                    if (wantmask >> p) & 1:
                        self._inject(l, d, idx, p, cycle)

        # -- I-tag placement: only wheel-due ports are visited ----------
        if charged and self.enable_itags:
            due = self.wheel[l][cycle % self.thr]
            if due:
                gen = self.gen
                stops = self.stops
                keep = []
                for entry in due:
                    p = entry[0]
                    if gen[p] != entry[1]:
                        continue  # head changed since scheduling: stale
                    keep.append(entry)
                    if cycle < entry[2]:
                        continue  # scheduled for a later revolution
                    # Still failing every cycle since its anchor, so
                    # failures % thr == 0 held after this cycle's charge.
                    port = ports[p]
                    if port.itag_pending[d]:
                        continue
                    idx = stops[p] - dc
                    if idx < 0:
                        idx += n
                    if idx in tags:
                        continue  # already reserved by another port
                    tags[idx] = p
                    self.tagmask[l] |= 1 << idx
                    self.tag_rel[l].setdefault(cycle % n, set()).add(idx)
                    port.itag_pending[d] = True
                    stats.itags_placed += 1
                if len(keep) != len(due):
                    self.wheel[l][cycle % self.thr] = keep

    def _inject(self, l: int, d: int, idx: int, p: int, cycle: int) -> None:
        port = self.ports[p]
        q = port.inject_queue
        head = q.popleft()
        self.objs[l][idx] = head
        self.emptymask[l] &= ~(1 << idx)
        self.buckets[l][(d * (head.exit_stop - idx)) % self.n].add(idx)
        self.occ[l] += 1
        # A win resets the failure streak.  This cycle's charge was
        # already applied (pre-scan), so the reset here is final.
        self.failures[p] = 0
        if not head.injected_any:
            head.injected_any = True
            head.msg.injected_cycle = cycle
            self.stats.injected += 1
        self._clear_head(p)
        self.qlen[p] = len(q)
        if q:
            self._new_head(p, q[0], cycle, l)

    # -- observability -----------------------------------------------------

    def occupancy(self) -> int:
        return sum(self.occ)
