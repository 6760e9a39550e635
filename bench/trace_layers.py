"""Per-layer attribution for a benchmark repeat, from outside the simulator.

:class:`Tracer` replaces bound methods on object *instances* (never on
classes) with timing wrappers, so the simulator's code is untouched and a
traced run simulates exactly what an untraced run simulates.  Each call
becomes a span with a name, start, end, parent span and the current
simulated cycle as its request id.  Spans are aggregated in memory per
(layer, parent); a layer's self time is its span durations minus the time
of its child spans.  The raw spans of one ``RAW_WINDOW``-cycle window in
mid-run are kept and written as Chrome trace-event JSON.

The wrappers cost about a microsecond per span, which would otherwise be
booked to whichever layer happens to call the wrapped method.  The tracer
measures that cost on a no-op method before the run and moves it out of
every layer's self time into ``trace.self_s``.  ``harness.loop.self_s`` is
the rest of the traced loop time, so self times, harness and tracer cost
add up to the loop time by definition; how much of the real tracing cost
the calibration catches is a separate question (bench/README.md).

Layer names follow the repository's modules: ``core.network``,
``core.ring``, ``core.bridge``, ``core.routing``, ``fabric.message``,
``coherence.{rn,hn,sn}``, ``cpu.core`` and ``ai.{core,l2,llc,hbm,dma}``.
The metrics a traced run reports are the ``per_layer`` list of
``BENCHMARK.json``; :meth:`Tracer.report` computes them.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Tuple

#: Cycles of raw spans kept for the Chrome trace.
RAW_WINDOW = 200

TIERS = ("ref", "skip", "dense")

ROOT_SPAN = "harness.loop"


class _Noop:
    def call(self, cycle):
        return cycle


class Tracer:
    """Installs span wrappers on one workload's objects and aggregates them."""

    def __init__(self, raw_window: int = RAW_WINDOW):
        self.clock = time.perf_counter
        #: Open spans, innermost last: [name, child seconds, child spans].
        self.stack: List[list] = [[ROOT_SPAN, 0.0, 0]]
        #: (layer, parent) -> [calls, total s, self s, child spans].
        self.agg: Dict[Tuple[str, str], list] = {}
        self.cycle = 0
        self.raw_window = raw_window
        self.raw_from = 0
        self.raw: List[tuple] = []
        self.recording = False
        self.tier_switches = 0
        self.route_keys = set()
        self.occupancy_samples: List[Tuple[float, float]] = []
        self.span_cost = (0.0, 0.0)
        self._loop_root = None
        self._loop_agg: Dict[Tuple[str, str], list] = {}
        self._rings: list = []
        self._bridges: list = []

    # -- installation ----------------------------------------------------

    def install(self, workload) -> None:
        """Wrap the fabric's layer boundaries and the workload's agents.

        ``workload.layers()`` lists the agent spans as (span name,
        object, method name); ``workload.cycle_entry()`` names the call
        the loop makes once per simulated cycle.
        """
        self.span_cost = calibrate()
        fabric = workload.fabric
        self.raw_from = workload.raw_trace_cycle()
        self._wrap(fabric, "try_inject", "core.network.try_inject")
        self._wrap(fabric, "step", "core.network.step")
        router = getattr(fabric, "router", None)
        if router is not None:
            self._wrap(router, "route", "core.routing.route")
            timed_route = router.route
            keys = self.route_keys

            def route(src, dst):
                keys.add((src, dst))
                return timed_route(src, dst)

            router.route = route
        self._rings = list(getattr(fabric, "rings", {}).values())
        for ring in self._rings:
            self._wrap(ring, "step", "core.ring.step", self._tier_tag(ring))
        self._bridges = list(getattr(fabric, "bridges", []))
        for bridge in self._bridges:
            self._wrap(bridge, "step", "core.bridge.step")
        for name, obj, method in workload.layers():
            self._wrap(obj, method, name)
        obj, method = workload.cycle_entry()
        self._mark_cycles(obj, method)

    def _wrap(self, obj, attr: str, name: str, tag=None) -> None:
        """Replace ``obj.attr`` with a span-recording wrapper.

        ``tag``, when given, names the finished span from state read after
        the call (the ring tier); children still see ``name`` as parent.
        """
        fn = getattr(obj, attr)
        clock = self.clock
        stack = self.stack
        push = stack.append
        pop = stack.pop
        close = self._close

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, 0]
            push(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                pop()
                close(name if tag is None else tag(), parent, frame, t0, t1)

        setattr(obj, attr, wrapper)

    def _tier_tag(self, ring):
        """Name a ring step after the tier that ran it.

        The tier is read *after* the call, because the auto selector
        switches tier at the start of ``step``.  A ring without
        ``active_tier`` is tagged ``unknown``.
        """
        active_tier = getattr(ring, "active_tier", None)
        last = [None]

        def tag():
            tier = active_tier() if active_tier is not None else "unknown"
            if tier != last[0]:
                if last[0] is not None:
                    self.tier_switches += 1
                last[0] = tier
            return f"core.ring.{tier}"

        return tag

    def _close(self, name: str, parent: list, frame: list,
               t0: float, t1: float) -> None:
        dur = t1 - t0
        parent[1] += dur
        parent[2] += 1
        key = (name, parent[0])
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[1]
        rec[3] += frame[2]
        if self.recording:
            self.raw.append((name, parent[0], t0, t1, self.cycle))

    def _mark_cycles(self, obj, attr: str) -> None:
        """Track the simulated cycle from the loop's per-cycle call.

        The cycle advances as soon as that call returns, so work the loop
        does before the next call (injections) carries the next cycle.
        """
        fn = getattr(obj, attr)
        start = self.raw_from
        end = start + self.raw_window

        def wrapper(cycle):
            self.cycle = cycle
            self.recording = start <= cycle < end
            fn(cycle)
            self.cycle = cycle + 1
            self.recording = start <= cycle + 1 < end

        setattr(obj, attr, wrapper)

    # -- sampling and reporting ------------------------------------------

    def on_tick(self, cycle: int) -> None:
        """Pacer hook: sample ring and bridge occupancy once per window."""
        rings = self._rings
        bridges = self._bridges
        ring_occ = (sum(r.occupancy() for r in rings) / len(rings)
                    if rings else 0.0)
        bridge_occ = (sum(b.occupancy() for b in bridges) / len(bridges)
                      if bridges else 0.0)
        self.occupancy_samples.append((ring_occ, bridge_occ))

    def end_loop(self) -> None:
        """Freeze the aggregates at the end of the timed loop.

        Spans closed later (the output checks) are not part of the loop.
        """
        self._loop_root = list(self.stack[0])
        self._loop_agg = {key: list(rec) for key, rec in self.agg.items()}

    def self_times(self, agg) -> Tuple[Dict[str, list], float]:
        """Per layer [calls, self s] with the tracer's cost removed, and
        that cost in seconds."""
        outside, inside = self.span_cost
        out: Dict[str, list] = {}
        cost = 0.0
        for (name, _), (calls, _, self_s, children) in agg.items():
            spent = calls * inside + children * outside
            cost += spent
            rec = out.setdefault(name, [0, 0.0])
            rec[0] += calls
            rec[1] += max(self_s - spent, 0.0)
        return out, cost

    def report(self, workload, run_s: float, gen_s: float) -> Dict[str, float]:
        """Every per-layer metric except ``trace.overhead_ratio``.

        ``trace.overhead_ratio`` needs an untraced run of the same inputs;
        ``bench/run.py`` adds it.
        """
        loop_agg = self._loop_agg if self._loop_root else self.agg
        layers, cost = self.self_times(loop_agg)
        after = {key: rec for key, rec in self.agg.items()
                 if key not in loop_agg}
        stats = workload.fabric.stats

        def self_s(name: str) -> float:
            return layers.get(name, (0, 0.0))[1]

        def calls(name: str) -> int:
            return layers.get(name, (0, 0.0))[0]

        samples = self.occupancy_samples
        n = len(samples) or 1
        offered = stats.accepted + stats.rejected
        route_calls = calls("core.routing.route")
        out: Dict[str, float] = {}
        for tier in TIERS:
            out[f"core.ring.{tier}.self_s"] = self_s(f"core.ring.{tier}")
            out[f"core.ring.{tier}.ring_cycles"] = calls(f"core.ring.{tier}")
        out.update({
            "core.ring.tier_switches": self.tier_switches,
            "core.ring.occupancy_mean": sum(s[0] for s in samples) / n,
            "core.bridge.step.calls": calls("core.bridge.step"),
            "core.bridge.step.self_s": self_s("core.bridge.step"),
            "core.bridge.occupancy_mean": sum(s[1] for s in samples) / n,
            "fabric.swap_events": stats.swap_events,
            "fabric.link_stall_cycles": stats.link_stall_cycles,
            "core.network.try_inject.calls": calls("core.network.try_inject"),
            "core.network.try_inject.self_s":
                self_s("core.network.try_inject"),
            "fabric.inject_accept_ratio":
                stats.accepted / offered if offered else 0.0,
            "core.routing.route.calls": route_calls,
            "core.routing.route.self_s": self_s("core.routing.route"),
            "core.routing.first_touch_ratio":
                len(self.route_keys) / route_calls if route_calls else 0.0,
            "core.network.step.self_s": self_s("core.network.step"),
            "fabric.message.self_s": self_s("fabric.message"),
            "fabric.deflections": stats.deflections,
            "fabric.deflect_per_delivered":
                stats.deflections / stats.delivered if stats.delivered
                else 0.0,
            "coherence.check.self_s":
                self.self_times(after)[0].get("coherence.check", (0, 0.0))[1],
            "cpu.core.step.self_s": self_s("cpu.core.step"),
        })
        for agent in ("rn", "hn", "sn"):
            for method in ("step", "on_message"):
                name = f"coherence.{agent}.{method}"
                out[f"{name}.self_s"] = self_s(name)
        for agent in ("core", "l2", "llc", "hbm", "dma"):
            for method in ("step", "on_message"):
                name = f"ai.{agent}.{method}"
                out[f"{name}.self_s"] = self_s(name)
        out.update(workload.layer_counts())

        # The root span: everything in the loop outside any layer span,
        # less the wrapper cost its direct children left in it.
        root = self._loop_root or self.stack[0]
        root_cost = root[2] * self.span_cost[0]
        out["harness.gen_s"] = gen_s
        out["harness.loop.self_s"] = max(run_s - root[1] - root_cost, 0.0)
        out["trace.self_s"] = cost + root_cost
        return out

    def chrome_trace(self) -> dict:
        """The kept raw spans as Chrome trace-event JSON."""
        base = self.raw[0][2] if self.raw else 0.0
        events = [{
            "name": name,
            "cat": name.rsplit(".", 1)[0],
            "ph": "X",
            "ts": (t0 - base) * 1e6,
            "dur": (t1 - t0) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"cycle": cycle, "parent": parent},
        } for name, parent, t0, t1, cycle in self.raw]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


def calibrate(calls: int = 20000, trials: int = 5) -> Tuple[float, float]:
    """Seconds one span adds (outside its interval, inside it).

    Times a wrapped no-op method against the bare loop and the unwrapped
    call; the minimum over ``trials`` filters out interruptions.
    """
    clock = time.perf_counter
    best_out = best_in = float("inf")
    for _ in range(trials):
        tracer = Tracer()
        probe = _Noop()
        bare = probe.call
        t0 = clock()
        for i in range(calls):
            pass
        empty = clock() - t0
        t0 = clock()
        for i in range(calls):
            bare(i)
        plain = clock() - t0
        tracer._wrap(probe, "call", "noop")
        wrapped = probe.call
        t0 = clock()
        for i in range(calls):
            wrapped(i)
        total = clock() - t0
        spans = tracer.agg[("noop", ROOT_SPAN)][1]
        best_out = min(best_out, (total - spans - empty) / calls)
        best_in = min(best_in, (spans - (plain - empty)) / calls)
    return max(best_out, 0.0), max(best_in, 0.0)
