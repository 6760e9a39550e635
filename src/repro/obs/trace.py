"""The per-flit event recorder and its nil-object stand-in.

Event model
-----------

Every event is a 6-tuple ``(cycle, kind, msg, ring, stop, info)``:

- ``cycle`` — the simulation cycle the event happened on;
- ``kind`` — one of the twelve kinds in
  :data:`repro.obs.export.EVENT_KINDS`;
- ``msg`` — the message id of the flit involved (``-1`` if none);
- ``ring``/``stop`` — where it happened (``-1`` for off-ring events:
  bridge internals and the D2D link);
- ``info`` — a compact ``key=value`` detail string (port key,
  direction, bridge/link identity, retry attempt, ...).

Determinism contract
--------------------

The fast step (:meth:`repro.core.ring.Ring.step_fast`) may visit
stations in a different *within-cycle* order than the reference walk,
while producing identical state transitions.  The recorder therefore
canonicalises: :meth:`TraceRecorder.sorted_events` returns the events in
lexicographic tuple order (cycle first), a total order independent of
emission order.  Two runs whose per-cycle event *sets* match — which the
fast/reference equivalence contract guarantees — serialize to
byte-identical JSONL.  ``tests/test_obs_trace.py`` pins this for the
tiny-pair and Server-CPU systems.

Cost contract
-------------

A fabric's recorder lives at ``FabricStats.trace`` and defaults to
:data:`NULL_TRACE`, a shared :class:`NullTrace` whose ``enabled`` is
False.  Every hook site reads the attribute once and tests ``enabled``,
so the disabled path costs one attribute check per potential event and
never allocates.  The repository benchmark (``bench/``) never attaches
a recorder, so its regression bounds cover the hook cost.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Tuple

#: One recorded event: (cycle, kind, msg, ring, stop, info).
TraceEvent = Tuple[int, str, int, int, int, str]


def port_key_str(key: Tuple) -> str:
    """Compact rendering of a station port key.

    ``("node", 3)`` -> ``"node:3"``; ``("bridge", 0, 1)`` ->
    ``"bridge:0:1"``.
    """
    return ":".join(str(part) for part in key)


class NullTrace:
    """Nil-object recorder: absorbs every emit, reports ``enabled=False``.

    One shared instance (:data:`NULL_TRACE`) is the default value of
    ``FabricStats.trace``; hook sites guard on :attr:`enabled` so the
    only cost of a disabled trace is that attribute check.
    """

    __slots__ = ()

    enabled = False

    def emit(self, cycle: int, kind: str, msg: int, ring: int, stop: int,
             info: str) -> None:
        """Discard the event (the enabled-guard makes this unreachable
        from the hook sites; kept so miswired callers stay safe)."""

    def __deepcopy__(self, memo) -> "NullTrace":
        # The verify subsystem deep-copies whole fabrics; the nil object
        # stays a shared singleton so clones cost nothing here.
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullTrace()"


#: The shared disabled recorder (default ``FabricStats.trace``).
NULL_TRACE = NullTrace()


class TraceRecorder:
    """Collects per-flit events from an instrumented fabric.

    Attach with :meth:`repro.core.network.MultiRingFabric.
    attach_trace_recorder`; the fabric stores the recorder on its shared
    :class:`~repro.fabric.stats.FabricStats`, which every ring, station,
    bridge, and D2D link already holds — one assignment wires the whole
    fabric.

    ``kinds`` restricts recording to a subset of event kinds (None =
    all).  ``limit`` caps stored events; excess emits are counted in
    :attr:`dropped_events` instead of stored, so a runaway trace degrades
    to a counter rather than exhausting memory.
    """

    __slots__ = ("enabled", "kinds", "limit", "events", "dropped_events")

    def __init__(self, kinds: Optional[Iterable[str]] = None,
                 limit: Optional[int] = None):
        if limit is not None and limit < 0:
            raise ValueError("limit must be >= 0 (None = unbounded)")
        self.enabled = True
        self.kinds: Optional[FrozenSet[str]] = (
            frozenset(kinds) if kinds is not None else None)
        self.limit = limit
        self.events: List[TraceEvent] = []
        self.dropped_events = 0

    def emit(self, cycle: int, kind: str, msg: int, ring: int, stop: int,
             info: str) -> None:
        """Record one event (hook sites call this behind the
        ``enabled`` guard)."""
        if self.kinds is not None and kind not in self.kinds:
            return
        if self.limit is not None and len(self.events) >= self.limit:
            self.dropped_events += 1
            return
        self.events.append((cycle, kind, msg, ring, stop, info))

    def __len__(self) -> int:
        return len(self.events)

    def sorted_events(self) -> List[TraceEvent]:
        """Events in canonical order: lexicographic over the tuple.

        Cycle is the leading field, so the order is chronological; the
        remaining fields break within-cycle ties identically regardless
        of which stepping path emitted them.
        """
        return sorted(self.events)

    def clear(self) -> None:
        self.events.clear()
        self.dropped_events = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = "all" if self.kinds is None else ",".join(sorted(self.kinds))
        return (f"TraceRecorder({len(self.events)} events, kinds={kinds}, "
                f"dropped={self.dropped_events})")
