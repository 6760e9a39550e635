"""One repeat of one benchmark workload, in the current process.

``bench/run.py`` starts this file as a fresh subprocess per repeat::

    python bench/harness.py --workload ring_dense --seed 1 [--quick] [--trace]
        [--setup-only]

and reads the single JSON object it prints on stdout.  The process
imports the simulator from ``src/``, generates the workload's inputs from
the seed with the standard library only (so simulator changes cannot move
the inputs), builds the system, runs the timed loop, checks the outputs
and reports its host timings (set-up, one duration per window of
simulated cycles, peak memory), simulated metrics and a stats
fingerprint.

Only public simulator APIs are driven: ``MultiRingFabric.try_inject/
step/stats/occupancy``, ``ServerPackage.attach_core/step``,
``AiProcessor.step/bandwidth_report`` and agent attributes, so engine or
knob changes inside ``src/`` do not break the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from array import array
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Cycles without a single delivery, while messages are in flight, after
#: which the watchdog declares the fabric wedged.
WEDGE_CYCLES = 5000

#: ``--quick`` divides every workload's length by this factor.
QUICK_SCALE = 10

#: Table 7 of the paper, 1:1 read:write row: total AI-NoC bandwidth, TB/s.
PAPER_AI_TOTAL_TBPS = 16.0

#: Fraction of the run's cycles excluded from the window-time percentiles
#: (the fabric starts empty; the first windows are not steady state).
WARMUP_FRACTION = 0.10

#: Iterations of the reference kernel; one call is the time unit "kref".
REF_ITERS = 1000

#: Reference samples on each side of a window in the speed estimate.
REF_NEIGHBOURS = 8


class Wedge(Exception):
    """The watchdog saw no delivery for WEDGE_CYCLES with traffic in flight."""

    def __init__(self, cycle: int, in_flight: int, last_delivery: int):
        super().__init__(
            f"no delivery since cycle {last_delivery}; wedged at cycle "
            f"{cycle} with {in_flight} messages in flight")
        self.cycle = cycle
        self.in_flight = in_flight
        self.last_delivery = last_delivery


class CheckFailed(Exception):
    """A correctness check on the workload's outputs failed."""


def reference_work() -> int:
    """A fixed pure-Python kernel (dict reads and writes, integer math).

    Timed between windows to measure how fast the host runs Python at
    that moment; the simulator's window times are expressed in units of
    it.  Its cost depends on the interpreter, not on the simulator.
    """
    table: Dict[int, int] = {}
    acc = 0
    for i in range(REF_ITERS):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        acc ^= key
    return acc


class Pacer:
    """Window timer, host-speed probe and progress watchdog.

    The loop calls :meth:`tick` at cycle 0 and every ``window`` simulated
    cycles after it.  Each tick closes the previous window, times one
    call of :func:`reference_work`, and compares the fabric's delivery
    counter with the previous tick.  Window times exclude the tick.  The
    watchdog reads only ``FabricStats`` counters: walking per-slot state
    would force a dense-tier ring back to per-slot objects and change
    what is measured.
    """

    def __init__(self, stats, window: int, on_tick=None):
        self.stats = stats
        self.window = window
        self.ends: List[float] = []
        self.starts: List[float] = []
        self.refs: List[float] = []
        self.on_tick = on_tick
        self._delivered = -1
        self._progress_cycle = 0

    def tick(self, cycle: int) -> int:
        """Record one window boundary; return the cycle of the next one."""
        clock = time.perf_counter
        self.ends.append(clock())
        stats = self.stats
        in_flight = stats.accepted - stats.delivered - stats.dropped
        if stats.delivered != self._delivered or in_flight == 0:
            self._delivered = stats.delivered
            self._progress_cycle = cycle
        elif cycle - self._progress_cycle >= WEDGE_CYCLES:
            raise Wedge(cycle, in_flight, self._progress_cycle)
        if self.on_tick is not None:
            self.on_tick(cycle)
        t0 = clock()
        reference_work()
        t1 = clock()
        self.refs.append(t1 - t0)
        self.starts.append(t1)
        return cycle + self.window

    def windows(self, end: float) -> Tuple[List[float], List[float]]:
        """Host seconds of every window (the last one cut at ``end``) and,
        for each, the host's reference-kernel time around it.

        The reference time is a median over the window's neighbours: a
        single 0.2 ms sample is jittery, while the host's slow spells it
        tracks last seconds.
        """
        ends = self.ends[1:] + [end]
        secs = [e - s for s, e in zip(self.starts, ends)]
        refs = self.refs
        k = REF_NEIGHBOURS
        speed = [statistics.median(refs[max(0, i - k):i + k + 1])
                 for i in range(len(refs))]
        return secs, speed


def host_metrics(pacer: Pacer, end: float, cycles: int,
                 delivered: int) -> Dict[str, float]:
    """Host-time metrics of one repeat.

    ``*_mref``/``*_kref`` metrics count host time in calls of the
    reference kernel timed beside each window (1 kref = one call, 1 Mref
    = 1000 calls), which cancels the host's slow spells; the ``*_s`` and
    ``*_ms`` metrics are plain wall time.  Percentiles skip the warm-up
    windows and the last, partial window.
    """
    secs, speed = pacer.windows(end)
    krefs = [s / r for s, r in zip(secs, speed)]
    skip = math.ceil(WARMUP_FRACTION * cycles / pacer.window)
    steady_kref = krefs[skip:-1]
    steady_ms = [s * 1e3 for s in secs[skip:-1]]
    wall = sum(secs)
    return {
        "cycles_per_mref": cycles * 1000.0 / sum(krefs),
        "window_kref_p50": percentile(steady_kref, 50),
        "window_kref_p90": percentile(steady_kref, 90),
        "cycles_per_s": cycles / wall,
        "msgs_per_s": delivered / wall,
        "window_ms_p50": percentile(steady_ms, 50),
        "window_ms_p90": percentile(steady_ms, 90),
        "window_samples": len(steady_kref),
        "kref_ms": statistics.median(speed) * 1e3,
    }


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default definition)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def fabric_fingerprint(stats, cycles: int) -> Dict[str, int]:
    return {
        "cycles": cycles,
        "accepted": stats.accepted,
        "rejected": stats.rejected,
        "injected": stats.injected,
        "delivered": stats.delivered,
        "dropped": stats.dropped,
        "deflections": stats.deflections,
        "itags_placed": stats.itags_placed,
        "etags_placed": stats.etags_placed,
        "swap_events": stats.swap_events,
        "link_stall_cycles": stats.link_stall_cycles,
        "delivered_bytes": int(stats.delivered_bytes),
    }


# -- workloads ----------------------------------------------------------------
#
# A workload generates its inputs in __init__ (timed as harness.gen_s and
# kept out of set-up time), builds the simulated system in build(), runs
# the timed loop in run() and returns the number of simulated cycles.
# layers(), cycle_entry() and layer_counts() serve the per-layer trace.


class Workload:
    #: Simulated cycles per window-time sample, at every size, so the
    #: pacer's share of the loop does not grow at ``--quick`` size.
    window = 1
    #: Simulated cycles of a full-size run (approximate for closed loops);
    #: the raw Chrome trace covers a window in the middle of it.
    nominal_cycles = 1

    def __init__(self, scale: int):
        self.scale = scale

    def raw_trace_cycle(self) -> int:
        return self.nominal_cycles // self.scale // 2

    def layers(self) -> List[Tuple[str, object, str]]:
        return []

    def cycle_entry(self) -> Tuple[object, str]:
        return self.fabric, "step"

    def layer_counts(self) -> Dict[str, float]:
        return {"coherence.rn.hits": 0, "coherence.rn.misses": 0,
                "coherence.rn.snoops": 0, "coherence.rn.hit_ratio": 0.0,
                "ai.read_bytes": 0.0, "ai.write_bytes": 0.0,
                "ai.dma_bytes": 0.0}

    def check(self, cycles: int) -> None:
        pass


class RingTraffic(Workload):
    """Open-loop message traffic from pre-generated (src, dst) pairs.

    ``per_cycle`` messages are offered every cycle for ``cycles`` cycles,
    then the fabric drains to idle.  A refused message is dropped by the
    sender (open loop), so the offered load does not adapt to the fabric;
    each message's latency runs from the cycle it was due.  ``Message``
    objects are built inside the timed loop, as real agents build them,
    through ``self.message`` so the tracer can time them as a layer.
    """

    per_cycle = 1
    data = False

    def __init__(self, seed: int, scale: int):
        super().__init__(scale)
        self.cycles = self.nominal_cycles // scale
        rng = random.Random(seed)
        n = self.cycles * self.per_cycle
        self.srcs = array("H", bytes(2 * n))
        self.dsts = array("H", bytes(2 * n))
        pick = self.pick
        for k in range(n):
            self.srcs[k], self.dsts[k] = pick(rng)

    def pick(self, rng: random.Random) -> Tuple[int, int]:
        raise NotImplementedError

    def make_fabric(self):
        raise NotImplementedError

    def build(self) -> None:
        from repro.fabric.message import Message

        self.message = Message
        self.fabric = self.make_fabric()

    def run(self, pacer: Pacer) -> int:
        from repro.fabric.message import MessageKind

        kind = MessageKind.DATA if self.data else MessageKind.REQUEST
        fabric = self.fabric
        message = self.message
        try_inject = fabric.try_inject
        step = fabric.step
        srcs, dsts = self.srcs, self.dsts
        per_cycle = self.per_cycle
        k = 0
        tick = 0
        for cycle in range(self.cycles):
            if cycle >= tick:
                tick = pacer.tick(cycle)
            for _ in range(per_cycle):
                try_inject(message(src=srcs[k], dst=dsts[k], kind=kind,
                                   created_cycle=cycle, msg_id=k))
                k += 1
            step(cycle)
        cycle = self.cycles
        stats = fabric.stats
        while stats.accepted != stats.delivered + stats.dropped:
            if cycle >= tick:
                tick = pacer.tick(cycle)
            step(cycle)
            cycle += 1
        return cycle

    def latencies(self) -> List[int]:
        return [s.total_latency for s in self.fabric.stats.samples]

    def op_counts(self) -> Dict[str, int]:
        return {"offered": len(self.srcs)}

    def layers(self):
        return [("fabric.message", self, "message")]


class RingDense(RingTraffic):
    """One 320-stop full ring, uniform all-to-all, ~2.7x oversubscribed."""

    name = "ring_dense"
    nodes = 320
    per_cycle = 8
    nominal_cycles = 40_000
    window = 160

    def pick(self, rng):
        src = rng.randrange(self.nodes)
        dst = rng.randrange(self.nodes - 1)
        return src, dst + (dst >= src)

    def make_fabric(self):
        from repro.core.config import MultiRingConfig
        from repro.core.network import MultiRingFabric
        from repro.core.topology import single_ring_topology

        topo, _ = single_ring_topology(self.nodes, bidirectional=True)
        return MultiRingFabric(topo, MultiRingConfig())


class ChipletSwap(RingTraffic):
    """Four chiplet rings in a chain, cross-chiplet DATA, SWAP recovery."""

    name = "chiplet_swap"
    rings = 4
    nodes_per_ring = 8
    per_cycle = 2
    data = True
    nominal_cycles = 40_000
    window = 160

    def pick(self, rng):
        n = self.nodes_per_ring
        src_ring = rng.randrange(self.rings)
        dst_ring = rng.randrange(self.rings - 1)
        dst_ring += dst_ring >= src_ring
        # chiplet_chain numbers nodes ring by ring.
        return (src_ring * n + rng.randrange(n),
                dst_ring * n + rng.randrange(n))

    def make_fabric(self):
        from repro.core.config import MultiRingConfig
        from repro.core.network import MultiRingFabric
        from repro.core.topology import chiplet_chain
        from repro.params import QueueParams

        topo, _ = chiplet_chain(self.rings, self.nodes_per_ring,
                                stop_spacing=1)
        queues = QueueParams(inject_queue_depth=2, eject_queue_depth=2,
                             bridge_rx_depth=2, bridge_tx_depth=2,
                             bridge_reserved_tx=2, swap_detect_threshold=32)
        return MultiRingFabric(topo, MultiRingConfig(
            queues=queues, eject_drain_per_cycle=1))


class ServerCoherent(Workload):
    """Closed-loop coherent loads and stores on a Server-CPU package.

    Every line is stored exactly once, by one core, whose cluster never
    loads the lines its cores store; every other cluster loads them.  So
    stores invalidate earlier readers (SnpUnique) and later loads snoop
    the writer (SnpShared with direct cache transfer), but no requester
    ever upgrades a shared line.  A uniform load/store mix over shared
    lines trips an open race in the CleanUnique upgrade path (see
    bench/README.md), which would fail a seed-dependent share of runs.

    ``config_kwargs`` defaults to the 48-core package of
    ``benchmarks/common.BENCH_SERVER_CONFIG``, copied here so edits to
    the paper-artifact harness do not move this benchmark.
    """

    name = "server_coherent"
    cores_per_cluster = 2
    ops_per_core = 1000
    store_fraction = 0.3
    mlp = 4
    window = 180
    nominal_cycles = 46_000

    def __init__(self, seed: int, scale: int,
                 config_kwargs: Optional[dict] = None,
                 ops_per_core: Optional[int] = None):
        super().__init__(scale)
        if config_kwargs is None:
            config_kwargs = dict(clusters_per_ccd=6, hn_per_ccd=2,
                                 ddr_per_ccd=2)
        self.config_kwargs = config_kwargs
        self.n_ccds = config_kwargs.get("n_ccds", 2)
        self.clusters = config_kwargs.get("clusters_per_ccd", 12)
        self.ops = ops_per_core or self.ops_per_core // scale
        cpc = self.cores_per_cluster
        n_cores = self.n_ccds * self.clusters * cpc
        stores = round(self.ops * self.store_fraction)
        per_cluster = stores * cpc
        others = n_cores * stores - per_cluster
        rng = random.Random(seed)
        self.streams: List[Tuple[bytes, array]] = []
        for core in range(n_cores):
            own = list(range(core * stores, (core + 1) * stores))
            rng.shuffle(own)
            first = core // cpc * per_cluster
            loads = [a + per_cluster if a >= first else a
                     for a in (rng.randrange(others)
                               for _ in range(self.ops - stores))]
            kinds = [1] * len(loads) + [0] * stores
            rng.shuffle(kinds)
            load_it, store_it = iter(loads), iter(own)
            addrs = array("H", (next(load_it) if k else next(store_it)
                                for k in kinds))
            self.streams.append((bytes(kinds), addrs))

    def build(self) -> None:
        from repro.cpu import ServerPackage, ServerPackageConfig, closed_loop

        self.pkg = ServerPackage(ServerPackageConfig(**self.config_kwargs))
        self.fabric = self.pkg.fabric
        ops = ("store", "load")
        streams = iter(self.streams)
        for ccd in range(self.n_ccds):
            for cluster in range(self.clusters):
                for _ in range(self.cores_per_cluster):
                    kinds, addrs = next(streams)
                    self.pkg.attach_core(
                        ccd, cluster, zip(map(ops.__getitem__, kinds), addrs),
                        discipline=closed_loop(mlp=self.mlp))

    def run(self, pacer: Pacer) -> int:
        step = self.pkg.step
        cores = self.pkg.cores
        system = self.pkg.system
        stats = self.fabric.stats
        cycle = 0
        tick = 0
        while True:
            if cycle >= tick:
                tick = pacer.tick(cycle)
            step(cycle)
            cycle += 1
            if (stats.accepted == stats.delivered + stats.dropped
                    and all(c.done and c.idle for c in cores)
                    and system.idle):
                return cycle

    def latencies(self) -> List[int]:
        return [lat for c in self.pkg.cores for lat in c.stats.latencies]

    def check(self, cycles: int) -> None:
        for core in self.pkg.cores:
            if not core.done or core.stats.completed != self.ops:
                raise CheckFailed(
                    f"{core.name}: completed {core.stats.completed}/"
                    f"{self.ops}")
        try:
            self.pkg.system.check_coherence()
        except AssertionError as exc:
            raise CheckFailed(f"coherence: {exc}") from exc

    def op_counts(self) -> Dict[str, int]:
        rns = self.pkg.system.requesters
        return {
            "ops": sum(c.stats.completed for c in self.pkg.cores),
            "rn_hits": sum(r.hits for r in rns),
            "rn_misses": sum(r.misses for r in rns),
            "rn_snoops": sum(r.snoops_received for r in rns),
        }

    def layers(self):
        system = self.pkg.system
        out = [("cpu.core.step", core, "step") for core in self.pkg.cores]
        for tag, agents in (("rn", system.requesters), ("hn", system.homes),
                            ("sn", system.memories)):
            for agent in agents:
                out.append((f"coherence.{tag}.step", agent, "step"))
                out.append((f"coherence.{tag}.on_message", agent,
                            "on_message"))
        out.append(("coherence.check", system, "check_coherence"))
        return out

    def cycle_entry(self):
        return self.pkg, "step"

    def layer_counts(self):
        out = super().layer_counts()
        counts = self.op_counts()
        hits, misses = counts["rn_hits"], counts["rn_misses"]
        out.update({
            "coherence.rn.hits": hits,
            "coherence.rn.misses": misses,
            "coherence.rn.snoops": counts["rn_snoops"],
            "coherence.rn.hit_ratio":
                hits / (hits + misses) if hits + misses else 0.0,
        })
        return out


class AiMesh(Workload):
    """Table 7 1:1 row: 32 AI cores (closed loop) plus DMA (open loop)."""

    name = "ai_mesh"
    nominal_cycles = 2000
    window = 8
    read_fraction = 0.5

    def __init__(self, seed: int, scale: int):
        super().__init__(scale)
        self.seed = seed
        self.cycles = self.nominal_cycles // scale

    def build(self) -> None:
        from repro.ai import AiProcessor, AiProcessorConfig

        # benchmarks/common.BENCH_AI_KWARGS, copied for the same reason
        # as the server sizing above.
        config = AiProcessorConfig(
            read_fraction=self.read_fraction, n_hrings=6, n_llc=12,
            n_l2=36, n_hbm=6, n_dma=6, core_mlp=48,
            dma_issues_per_cycle=0.4)
        self.proc = AiProcessor(config, seed=self.seed)
        self.fabric = self.proc.fabric
        for core in self.proc.cores:
            core.stats.keep_latencies = True

    def run(self, pacer: Pacer) -> int:
        step = self.proc.step
        tick = 0
        for cycle in range(self.cycles):
            if cycle >= tick:
                tick = pacer.tick(cycle)
            step(cycle)
        return self.cycles

    def latencies(self) -> List[int]:
        return [lat for c in self.proc.cores for lat in c.stats.read_latencies]

    def bandwidth(self, cycles: int) -> Dict[str, float]:
        return self.proc.bandwidth_report(cycles)

    def check(self, cycles: int) -> None:
        bw = self.bandwidth(cycles)
        moved = bw["read"] + bw["write"]
        share = bw["read"] / moved if moved else 0.0
        if abs(share - self.read_fraction) >= 0.12:
            raise CheckFailed(f"read share {share:.3f} is not within 0.12 "
                              f"of {self.read_fraction}")

    def op_counts(self) -> Dict[str, int]:
        cores = self.proc.cores
        return {
            "reads_done": sum(c.stats.reads_done for c in cores),
            "writes_done": sum(c.stats.writes_done for c in cores),
            "dma_done": sum(d.transfers_done for d in self.proc.dmas),
        }

    def layers(self):
        proc = self.proc
        out = []
        for tag, agents in (("core", proc.cores), ("l2", proc.l2_slices),
                            ("llc", proc.llcs), ("hbm", proc.hbms),
                            ("dma", proc.dmas)):
            for agent in agents:
                out.append((f"ai.{tag}.step", agent, "step"))
                out.append((f"ai.{tag}.on_message", agent, "on_message"))
        return out

    def cycle_entry(self):
        return self.proc, "step"

    def layer_counts(self):
        out = super().layer_counts()
        proc = self.proc
        out.update({
            "ai.read_bytes": sum(c.stats.read_bytes for c in proc.cores),
            "ai.write_bytes": sum(c.stats.write_bytes for c in proc.cores),
            "ai.dma_bytes": sum(d.bytes_moved for d in proc.dmas),
        })
        return out


WORKLOADS = {cls.name: cls
             for cls in (RingDense, ChipletSwap, ServerCoherent, AiMesh)}


# -- one repeat -----------------------------------------------------------------


def run_repeat(name: str, seed: int, quick: bool = False,
               spawned_at: Optional[float] = None, tracer=None,
               workload: Optional[Workload] = None,
               setup_only: bool = False) -> dict:
    """Generate, build, run and check one workload; return the record.

    ``spawned_at`` is the parent's ``time.monotonic()`` just before it
    started this process; set-up time runs from there to the first
    simulated cycle, minus input generation.  ``workload`` replaces the
    generated instance (tests use it for other sizes and mixes).
    ``setup_only`` stops before the first cycle and reports set-up time.

    A wedge is returned as a structured failure; a failed output check
    raises :class:`CheckFailed`.
    """
    t_gen = time.monotonic()
    if workload is None:
        workload = WORKLOADS[name](seed, QUICK_SCALE if quick else 1)
    gen_s = time.monotonic() - t_gen
    workload.build()
    fabric = workload.fabric
    stats = fabric.stats
    if tracer is not None:
        tracer.install(workload)
    pacer = Pacer(stats, workload.window,
                  on_tick=tracer.on_tick if tracer is not None else None)
    record: dict = {"workload": name, "seed": seed, "quick": quick,
                    "failure": None}
    t_first = time.monotonic()
    setup_s = t_first - spawned_at - gen_s if spawned_at is not None else None
    if setup_only:
        return dict(record, setup_s=setup_s)
    t0 = time.perf_counter()
    try:
        cycles = workload.run(pacer)
    except Wedge as exc:
        record["failure"] = {"kind": "wedge", "cycle": exc.cycle,
                             "in_flight": exc.in_flight,
                             "last_delivery": exc.last_delivery,
                             "detail": str(exc),
                             "stats": fabric_fingerprint(stats, exc.cycle)}
        return record
    t_end = time.perf_counter()
    if tracer is not None:
        tracer.end_loop()

    in_network = fabric.occupancy()
    if stats.accepted != stats.delivered + stats.dropped + in_network:
        raise CheckFailed(
            f"conservation: accepted {stats.accepted} != delivered "
            f"{stats.delivered} + dropped {stats.dropped} + in network "
            f"{in_network}")
    workload.check(cycles)

    lat = workload.latencies()
    metrics = host_metrics(pacer, t_end, cycles, stats.delivered)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record.update({
        "cycles": cycles,
        "window": workload.window,
        "run_s": t_end - t0,
        "gen_s": gen_s,
        "metrics": metrics,
        "latency_samples": len(lat),
        "sim": {
            "sim_lat_p50_cyc": percentile(lat, 50),
            "sim_lat_mean_cyc": sum(lat) / len(lat),
            "sim_bytes_per_cycle": stats.delivered_bytes / cycles,
            # Reported, not gated: see bench/README.md.
            "sim_lat_p99_cyc": percentile(lat, 99),
        },
        "fingerprint": dict(fabric_fingerprint(stats, cycles),
                            **workload.op_counts()),
    })
    if isinstance(workload, AiMesh):
        total = workload.bandwidth(cycles)["total"]
        record["sim"]["sim_paper_err"] = (
            abs(total - PAPER_AI_TOTAL_TBPS) / PAPER_AI_TOTAL_TBPS)
    if tracer is not None:
        record["layers"] = tracer.report(workload, record["run_s"], gen_s)
        path = os.path.join(OUT_DIR, f"{name}-seed{seed}.trace.json")
        tracer.write_chrome_trace(path)
        record["chrome_trace"] = os.path.relpath(path, ROOT)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Imported up front so a checkout without the simulator fails here,
    # before any result is printed, and so set-up time counts the import.
    import repro  # noqa: F401

    tracer = None
    if args.trace:
        from trace_layers import Tracer
        tracer = Tracer()
    try:
        record = run_repeat(args.workload, args.seed, args.quick,
                            args.spawned_at, tracer,
                            setup_only=args.setup_only)
    except CheckFailed as exc:
        record = {"workload": args.workload, "seed": args.seed,
                  "failure": {"kind": "check", "detail": str(exc)}}
    except Exception as exc:  # any simulator error fails this repeat
        record = {"workload": args.workload, "seed": args.seed,
                  "failure": {"kind": "exception",
                              "detail": f"{type(exc).__name__}: {exc}",
                              "traceback": traceback.format_exc()}}
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
