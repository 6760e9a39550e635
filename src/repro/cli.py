"""Command-line interface: quick experiments without writing a script.

Run ``python -m repro --help`` (or ``repro-noc --help`` once installed)
for the command list.  Each subcommand is a compact version of one of
the library's experiments; the full benchmark harness lives under
``benchmarks/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.analysis.plot import line_chart, sparkline
from repro.sim.rng import make_rng

#: Exit code for a sweep that exceeded ``--max-failures``: distinct
#: from 1 (gate/finding failures) so CI can tell "the experiment says
#: no" from "the experiment infrastructure fell over".
EXIT_MAX_FAILURES = 3


def _fmt_or_na(value, fmt: str = "{:.1f}") -> str:
    """Format a metric, or ``n/a`` when the run produced none.

    Every summary metric in this CLI is None on a zero-delivery run
    (``--messages 0``, a fully wedged fabric, ...); those runs must
    still exit cleanly rather than crash formatting None.
    """
    if value is None:
        return "n/a"
    return fmt.format(value)


def _cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {__version__} — bufferless multi-ring NoC for "
          "heterogeneous chiplets (HPCA 2022 reproduction)")
    print("layers: sim, fabric, core, baselines, coherence, cpu, ai, "
          "phys, workloads, analysis")
    print("docs: README.md, DESIGN.md, EXPERIMENTS.md")
    return 0


def _cmd_ring(args: argparse.Namespace) -> int:
    from repro.core import MultiRingFabric, single_ring_topology
    from repro.testing import inject_all, run_to_drain, uniform_messages

    topo, nodes = single_ring_topology(args.nodes,
                                       bidirectional=not args.half)
    fabric = MultiRingFabric(topo)
    checker = (fabric.attach_invariant_checker()
               if args.check_invariants else None)
    msgs = uniform_messages(nodes, nodes, args.messages, seed=args.seed)
    cycle = inject_all(fabric, msgs)
    run_to_drain(fabric, cycle)
    stats = fabric.stats
    kind = "half" if args.half else "full"
    print(f"{kind} ring, {args.nodes} stations: delivered "
          f"{stats.delivered}/{args.messages}, mean network latency "
          f"{_fmt_or_na(stats.mean_network_latency())} cycles, p99 network "
          f"{_fmt_or_na(stats.network_latency_percentile(99), '{:.0f}')}, "
          f"p99 total "
          f"{_fmt_or_na(stats.latency_percentile(99), '{:.0f}')}")
    if checker is not None:
        print(checker.summary())
    return 0


def _cmd_server(args: argparse.Namespace) -> int:
    from repro.cpu import ServerPackage, ServerPackageConfig, closed_loop
    from repro.cpu.core import sequential_stream

    config = ServerPackageConfig(clusters_per_ccd=6, hn_per_ccd=2,
                                 ddr_per_ccd=2)
    package = ServerPackage(config, fabric_kind=args.fabric)
    writer = package.attach_core(0, 0, sequential_stream("store", 0, 48),
                                 closed_loop(mlp=4))
    package.run_until_cores_done()
    reader_ccd = 1 if args.inter else 0
    reader = package.attach_core(reader_ccd, 1,
                                 sequential_stream("load", 0, 48),
                                 closed_loop(mlp=1))
    package.run_until_cores_done()
    package.system.check_coherence()
    scope = "inter" if args.inter else "intra"
    print(f"{args.fabric}: {scope}-chiplet M-state read latency "
          f"{_fmt_or_na(reader.stats.mean_latency())} cycles")
    return 0


def _cmd_ai(args: argparse.Namespace) -> int:
    from repro.ai import AiProcessor, AiProcessorConfig

    config = AiProcessorConfig(
        read_fraction=args.read_fraction,
        n_hrings=6, n_llc=12, n_l2=36, n_hbm=6, n_dma=6,
        core_mlp=48, dma_issues_per_cycle=0.4,
    )
    processor = AiProcessor(config, probe_window=max(args.cycles // 16, 64))
    checker = (processor.fabric.attach_invariant_checker()
               if args.check_invariants else None)
    processor.run(args.cycles)
    report = processor.bandwidth_report()
    print(f"AI fabric, R:W={args.read_fraction:.2f}, {args.cycles} cycles:")
    for key in ("total", "read", "write", "dma"):
        print(f"  {key:6s} {report[key]:6.2f} TB/s")
    processor.core_probes.finalize()
    ratios = processor.core_probes.min_over_max()
    if ratios:
        print(f"  equilibrium min/max per window: {sparkline(ratios)}")
    if checker is not None:
        print(checker.summary())
    return 0


def _cmd_deadlock(args: argparse.Namespace) -> int:
    from repro.core import MultiRingFabric, chiplet_pair
    from repro.core.config import MultiRingConfig
    from repro.fabric import Message, MessageKind
    from repro.params import QueueParams

    queues = QueueParams(inject_queue_depth=2, eject_queue_depth=2,
                         bridge_rx_depth=2, bridge_tx_depth=2,
                         bridge_reserved_tx=2, swap_detect_threshold=32)
    topo, ring0, ring1 = chiplet_pair(nodes_per_ring=4, stop_spacing=1)
    fabric = MultiRingFabric(topo, MultiRingConfig(
        queues=queues, enable_swap=not args.no_swap,
        eject_drain_per_cycle=1))
    checker = (fabric.attach_invariant_checker()
               if args.check_invariants else None)
    rng = make_rng(args.seed)
    deliveries = []
    for cycle in range(args.cycles):
        for src in ring0:
            fabric.try_inject(Message(src=src, dst=rng.choice(ring1),
                                      kind=MessageKind.DATA,
                                      created_cycle=cycle))
        for src in ring1:
            fabric.try_inject(Message(src=src, dst=rng.choice(ring0),
                                      kind=MessageKind.DATA,
                                      created_cycle=cycle))
        fabric.step(cycle)
        deliveries.append(fabric.stats.delivered)
    mode = "SWAP off" if args.no_swap else "SWAP on"
    print(f"{mode}: delivered {fabric.stats.delivered} under saturation, "
          f"DRM entries {fabric.stats.swap_events}")
    print("progress: " + sparkline(deliveries, width=60))
    if checker is not None:
        print(checker.summary())
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.core.serialize import describe_topology, save_topology

    if args.system == "server":
        from repro.cpu.package import build_server_system
        fabric, _, _ = build_server_system("multiring")
        spec = fabric.topology
    elif args.system == "ai":
        from repro.ai import AiProcessorConfig
        from repro.core.topology import grid_of_rings
        cfg = AiProcessorConfig()
        spec = grid_of_rings(cfg.n_vrings, cfg.n_hrings,
                             cfg.cores_per_vring,
                             cfg.memory_per_hring).topology
    else:
        from repro.core import chiplet_pair
        spec, _, _ = chiplet_pair()
    print(describe_topology(spec))
    if args.save:
        with open(args.save, "w") as fh:
            save_topology(spec, fh)
        print(f"saved to {args.save}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.perf.cache import ResultCache
    from repro.perf.sweep import SweepPoint, is_failed, run_sweep
    from repro.perf.workers import ai_rw_point

    ratios = [1.0, 0.8, 2 / 3, 0.6, 0.5, 0.0]
    points = [SweepPoint.make(f"rw_{rf:.2f}", read_fraction=rf,
                              cycles=args.cycles)
              for rf in ratios]
    cache = ResultCache(args.cache) if args.cache else None
    results = run_sweep(ai_rw_point, points, base_seed=args.seed,
                        workers=args.workers, cache=cache,
                        cache_name="sweep-rw")
    totals, axis = [], []
    failed = 0
    for rf, record in zip(ratios, results):
        if is_failed(record):
            failed += 1
            print(f"  read fraction {rf:.2f}: FAILED "
                  f"({record['error_kind']} after {record['attempts']} "
                  "attempt(s))")
            continue
        totals.append(record["total_tbps"])
        axis.append(rf)
        print(f"  read fraction {rf:.2f}: total "
              f"{record['total_tbps']:5.2f} TB/s")
    if totals:
        print(line_chart({"total TB/s": totals}, xs=axis, height=8,
                         width=40,
                         title="total bandwidth vs read fraction"))
    if cache is not None:
        print(f"cache: {cache.hits} hit(s), {cache.misses} miss(es) "
              f"under {cache.root}")
    if failed:
        print(f"{failed} point(s) FAILED", file=sys.stderr)
        return EXIT_MAX_FAILURES
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf import bench

    cycles = args.cycles if args.cycles else bench.SMOKE_CYCLES
    report = bench.run_smoke_suite(repeats=args.repeats,
                                   reference=args.reference,
                                   cycles=cycles,
                                   engine=args.engine,
                                   journal=args.journal,
                                   resume=args.resume)
    print(bench.format_report(report))
    if args.json:
        bench.write_report(report, args.json)
        print(f"wrote {args.json}")
    if report.get("failed_cases", 0) > args.max_failures:
        print(f"FAILED cases: {report['failed_cases']} exceed "
              f"--max-failures {args.max_failures}", file=sys.stderr)
        return EXIT_MAX_FAILURES
    if args.reference:
        # The saturated-case floor is calibrated against the committed
        # measurement budget; short --cycles overrides amortize the
        # dense tier's materialize cost too poorly to judge it.
        if cycles >= bench.SMOKE_CYCLES:
            gate_failures = bench.saturated_speedup_failures(report)
            if gate_failures:
                for failure in gate_failures:
                    print(f"SATURATED-CASE GATE: {failure}",
                          file=sys.stderr)
                return 1
        else:
            print(f"saturated-case gate skipped: cycles={cycles} below "
                  f"the committed budget ({bench.SMOKE_CYCLES})",
                  file=sys.stderr)
    if args.baseline:
        baseline = bench.load_report(args.baseline)
        failures = bench.compare_to_baseline(report, baseline,
                                             args.max_regression)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"no regression beyond {args.max_regression:.0%} vs "
              f"{args.baseline}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    import json as _json

    from repro.faults.campaign import format_campaign, run_campaign
    from repro.perf.cache import ResultCache
    from repro.perf.resilient import RetryPolicy, SweepHealth, format_health
    from repro.perf.sweep import failed_points

    rates = [float(x) for x in args.rates.split(",") if x.strip()]
    retry_limits = [int(x) for x in args.retry_limits.split(",") if x.strip()]
    replay_depths = [int(x) for x in args.replay_depths.split(",")
                     if x.strip()]
    prefilter = None
    if args.prefilter:
        from repro.analyze.prefilter import campaign_prefilter
        prefilter = campaign_prefilter
    cache = ResultCache(args.cache) if args.cache else None
    retry = RetryPolicy(max_attempts=max(args.retries, 1))
    health = SweepHealth()
    results = run_campaign(rates=rates, retry_limits=retry_limits,
                           messages=args.messages, base_seed=args.seed,
                           workers=args.workers, cache=cache,
                           replay_depths=replay_depths,
                           prefilter=prefilter,
                           timeout=args.timeout, retry=retry,
                           health=health, journal=args.journal,
                           resume=args.resume)
    print(format_campaign(results))
    print(format_health(health))
    if prefilter is not None:
        from repro.perf.sweep import skipped_points
        skipped = skipped_points(results)
        print(f"prefilter: statically skipped {len(skipped)}/"
              f"{len(results)} point(s)")
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(results, fh, indent=2)
        print(f"wrote {args.json}")
    if args.health_json:
        with open(args.health_json, "w") as fh:
            _json.dump(health.as_dict(), fh, indent=2)
        print(f"wrote {args.health_json}")
    if cache is not None:
        print(f"cache: {cache.hits} hit(s), {cache.misses} miss(es) "
              f"under {cache.root}")
    failed = failed_points(results)
    if len(failed) > args.max_failures:
        for r in failed:
            print(f"FAILED {r['point']}: {r['error_kind']} after "
                  f"{r['attempts']} attempt(s): {r['error_message']}",
                  file=sys.stderr)
        print(f"{len(failed)} failed point(s) exceed --max-failures "
              f"{args.max_failures}", file=sys.stderr)
        return EXIT_MAX_FAILURES
    if args.require_zero_drops:
        bad = [r for r in results
               if not r.get("skipped") and not r.get("failed")
               and (r["dropped"] or r["wedged"])]
        if bad:
            for r in bad:
                print(f"FAIL {r['point']}: dropped {r['dropped']}, "
                      f"wedged {r['wedged']}", file=sys.stderr)
            return 1
        print("all points delivered every message (zero drops)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as _json

    from repro.core import MultiRingFabric, chiplet_pair, single_ring_topology
    from repro.core.topology import tiny_pair
    from repro.fabric import Message
    from repro.obs import (
        MetricsRegistry,
        SnapshotSampler,
        format_hotspots,
        validate_event_stream,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.sim.engine import FunctionComponent, Simulator

    if args.system == "ring":
        topo, nodes = single_ring_topology(12, bidirectional=True)
    elif args.system == "tiny":
        topo, ring0, ring1 = tiny_pair()
        nodes = list(ring0) + list(ring1)
    else:
        topo, ring0, ring1 = chiplet_pair()
        nodes = list(ring0) + list(ring1)
    fabric = MultiRingFabric(topo)
    recorder = fabric.attach_trace_recorder()
    registry = MetricsRegistry()
    sampler = SnapshotSampler(fabric, registry)

    rng = make_rng(args.seed)
    remaining = [args.messages]

    def pump(cycle: int) -> None:
        if not remaining[0]:
            return
        src = nodes[rng.randrange(len(nodes))]
        dst = nodes[rng.randrange(len(nodes))]
        if src == dst:
            return
        if fabric.try_inject(Message(src=src, dst=dst, created_cycle=cycle)):
            remaining[0] -= 1

    sim = Simulator()
    sim.register(FunctionComponent(pump, "pump"))
    sim.register(fabric)
    stats = fabric.stats
    drained = sim.run_until(
        lambda: remaining[0] == 0 and stats.in_flight == 0,
        max_cycles=args.max_cycles,
        check_every=args.sample_every,
        on_check=sampler,
    )

    events = recorder.sorted_events()
    registry.ingest(events, stats=stats)
    errors = validate_event_stream(events)

    state = "drained" if drained else "TIMED OUT"
    print(f"{args.system}: {state} after {sim.cycle} cycles, delivered "
          f"{stats.delivered}/{args.messages}, {len(events)} events, "
          f"{len(registry.snapshots)} snapshots")
    print(f"  mean network latency {_fmt_or_na(stats.mean_network_latency())}"
          f" cycles, p99 network "
          f"{_fmt_or_na(stats.network_latency_percentile(99), '{:.0f}')}, "
          f"p99 total "
          f"{_fmt_or_na(stats.latency_percentile(99), '{:.0f}')}")
    if recorder.dropped_events:
        print(f"  WARNING: {recorder.dropped_events} event(s) beyond "
              f"--limit were dropped")
    print(f"hotspots (top {args.top_hotspots}):")
    print(format_hotspots(registry, args.top_hotspots))

    if args.events:
        with open(args.events, "w") as fh:
            count = write_jsonl(events, fh)
        print(f"wrote {count} events to {args.events}")
    if args.chrome:
        with open(args.chrome, "w") as fh:
            count = write_chrome_trace(events, fh)
        print(f"wrote {count} Chrome trace events to {args.chrome}")
    if args.json:
        record = {
            "system": args.system,
            "cycles": sim.cycle,
            "drained": drained,
            "delivered": stats.delivered,
            "events": len(events),
            "latency": registry.latency_summary(),
            "ring_totals": {str(ring): totals for ring, totals
                            in sorted(registry.ring_totals().items())},
            "snapshots": registry.snapshots,
            "schema_errors": errors,
        }
        with open(args.json, "w") as fh:
            _json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"wrote metrics to {args.json}")

    if errors:
        for error in errors[:10]:
            print(f"SCHEMA: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import json as _json

    from repro.lint import run_check

    if args.write_baseline and not args.baseline:
        print("--write-baseline requires --baseline FILE", file=sys.stderr)
        return 2
    report = run_check(
        src_paths=args.src or None,
        scenario_paths=args.scenario,
        lint=not args.no_lint,
        builtin=not args.no_builtin,
        dataflow=not args.no_dataflow,
        baseline_path=args.baseline,
        write_baseline=args.write_baseline,
        fail_on=args.fail_on,
        use_cache=not args.no_cache,
        cache_path=args.cache_file,
    )
    if args.sarif:
        from repro.lint.sarif import write_sarif

        write_sarif(report.findings, args.sarif)
        print(f"wrote SARIF report to {args.sarif}", file=sys.stderr)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format())
    return report.exit_code


def _cmd_verify(args: argparse.Namespace) -> int:
    import json as _json

    from repro.verify import (
        Counterexample,
        replay_counterexample,
        run_verify,
    )

    if args.replay:
        ce = Counterexample.load(args.replay)
        code = 0
        for fast in (True, False):
            result = replay_counterexample(ce, fast_path=fast)
            if args.json:
                print(_json.dumps(result.to_dict(), indent=2))
            else:
                mode = "fast" if fast else "reference"
                verdict = "confirmed" if result.confirmed else "NOT CONFIRMED"
                print(f"replay[{mode}]: {verdict} "
                      f"({result.observed_rule or 'no violation'}) "
                      f"{result.detail}")
            if not result.confirmed:
                code = 1
        return code

    report = run_verify(
        args.system or None,
        no_swap=args.no_swap,
        model_check=not args.no_model_check,
        liveness=not args.no_liveness,
        replay=not args.no_replay,
        max_states=args.max_states,
        max_in_flight=args.max_in_flight,
        profile=args.profile,
    )
    if args.save_counterexample:
        saved = False
        for system in report.systems:
            if system.counterexamples:
                system.counterexamples[0].save(args.save_counterexample)
                saved = True
                break
        if not saved:
            print("no counterexample to save", file=sys.stderr)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format())
    return report.exit_code()


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json as _json

    from repro.analyze import (
        AnalysisReport,
        BudgetSpec,
        WorkloadDescriptor,
        analyze_system,
        run_analyze,
        uniform_for_topology,
    )

    budget = None
    if args.budget:
        try:
            budget = BudgetSpec.load(args.budget)
        except (OSError, ValueError, _json.JSONDecodeError) as exc:
            print(f"cannot load budget {args.budget}: {exc}",
                  file=sys.stderr)
            return 2
    overrides = {
        "max_area_mm2": args.max_area_mm2,
        "max_power_w": args.max_power_w,
        "max_wire_mm": args.max_wire_mm,
        "max_energy_pj_per_flit": args.max_energy_pj_per_flit,
    }
    if any(v is not None for v in overrides.values()):
        budget = budget or BudgetSpec()
        for key in sorted(overrides):
            if overrides[key] is not None:
                setattr(budget, key, overrides[key])
    if budget is not None and args.wire_fabric:
        budget.wire_fabric = args.wire_fabric

    workload = None
    if args.workload:
        try:
            with open(args.workload, "r", encoding="utf-8") as fh:
                workload = WorkloadDescriptor.from_dict(_json.load(fh))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            print(f"cannot load workload {args.workload}: {exc}",
                  file=sys.stderr)
            return 2

    report = AnalysisReport()
    if args.system or not args.scenario:
        base = run_analyze(
            args.system or None,
            no_swap=args.no_swap,
            injection_rate=args.injection_rate,
            workload=workload,
            budget=budget,
        )
        for system in base.systems:
            report.add_system(system)

    for path in args.scenario:
        from repro.core.serialize import topology_from_dict
        from repro.lint.validator import (
            _config_from_dict,
            validate_scenario_file,
        )

        findings = validate_scenario_file(path)
        if any(f.is_error for f in findings):
            # Structurally broken: report the validator findings instead
            # of crashing in deserialization.
            report.findings.extend(findings)
            continue
        with open(path, "r", encoding="utf-8") as fh:
            raw = _json.load(fh)
        topo_raw = raw.get("topology", raw)
        spec = topology_from_dict(topo_raw)
        config = _config_from_dict(raw.get("config", {}), path, findings)
        scenario_workload = workload
        if scenario_workload is None and args.injection_rate is not None:
            scenario_workload = uniform_for_topology(
                spec, args.injection_rate)
        report.add_system(analyze_system(
            path, spec, config,
            workload=scenario_workload, budget=budget))

    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format())
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-noc",
        description="Bufferless multi-ring NoC reproduction (HPCA 2022)",
        epilog="exit codes: 0 success, 1 findings (check/verify/analyze) "
               "or a failed gate, 2 usage errors or an escaped invariant "
               "violation, 3 a sweep exceeded --max-failures, 130 "
               "interrupted (SIGINT/SIGTERM; journaled runs resume with "
               "--resume)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library overview").set_defaults(fn=_cmd_info)

    p = sub.add_parser("check",
                       help="static analysis: lint sim paths, validate "
                            "topologies/configs")
    p.add_argument("--src", action="append", metavar="PATH",
                   help="source tree(s) to lint (default: the installed "
                        "repro package)")
    p.add_argument("--scenario", action="append", default=[],
                   metavar="FILE",
                   help="topology/scenario JSON file(s) to validate")
    p.add_argument("--no-lint", action="store_true",
                   help="skip the AST lint layer")
    p.add_argument("--no-builtin", action="store_true",
                   help="skip validating the built-in topologies")
    p.add_argument("--no-dataflow", action="store_true",
                   help="skip the interprocedural dataflow analysis")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.add_argument("--sarif", metavar="FILE",
                   help="also write findings as SARIF 2.1.0 (for GitHub "
                        "code scanning)")
    p.add_argument("--baseline", metavar="FILE",
                   help="subtract the findings baseline (fingerprint "
                        "match); stale entries report as notes")
    p.add_argument("--write-baseline", action="store_true",
                   help="regenerate the --baseline file from this run's "
                        "findings (explicit, reviewable diff)")
    p.add_argument("--fail-on", choices=["error", "warn", "info"],
                   default="error",
                   help="lowest severity that fails the run "
                        "(default: error)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the per-file lint memo cache")
    p.add_argument("--cache-file", metavar="FILE",
                   help="memo cache location (default: "
                        "~/.cache/repro-noc/check-cache.json)")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser(
        "verify",
        help="formal verification: channel-dependency deadlock analysis "
             "+ bounded model checking with counterexample replay")
    p.add_argument("--system", action="append",
                   choices=["pair", "chiplet-pair", "server", "ai", "all"],
                   help="system(s) to verify (repeatable; default: pair "
                        "and chiplet-pair)")
    p.add_argument("--no-swap", action="store_true",
                   help="verify with SWAP disabled (expected to produce "
                        "a deadlock counterexample on the pair testbench)")
    p.add_argument("--max-states", type=int, default=5000,
                   help="visited-state budget for the model checker")
    p.add_argument("--max-in-flight", type=int, default=None,
                   help="bound on in-flight flits during exploration "
                        "(default: 2 healthy, 24 with --no-swap)")
    p.add_argument("--no-model-check", action="store_true",
                   help="CDG analysis only; skip state enumeration")
    p.add_argument("--no-liveness", action="store_true",
                   help="skip the drain/DRM-exit liveness analysis")
    p.add_argument("--no-replay", action="store_true",
                   help="do not replay counterexamples on the simulator")
    p.add_argument("--save-counterexample", metavar="FILE",
                   help="write the first counterexample to FILE as JSON")
    p.add_argument("--replay", metavar="FILE",
                   help="replay a saved counterexample file in both "
                        "fast-path modes instead of verifying")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.add_argument("--profile", action="store_true",
                   help="report wall-clock time per verification stage")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "analyze",
        help="static fabric analysis: abstract bandwidth/latency "
             "bounds, occupancy estimates, physical budget checks, and "
             "deadlock classification — no simulation")
    p.add_argument("--system", action="append",
                   choices=["pair", "chiplet-pair", "server", "ai", "all"],
                   help="built-in system(s) to analyze (repeatable; "
                        "default: pair and chiplet-pair)")
    p.add_argument("--scenario", action="append", default=[],
                   metavar="FILE",
                   help="topology/scenario JSON file(s) to analyze "
                        "(validated first; structural errors become "
                        "findings)")
    p.add_argument("--no-swap", action="store_true",
                   help="analyze with SWAP disabled (flags the "
                        "inter-chiplet cycle as deadlock-capable)")
    p.add_argument("--injection-rate", type=float, default=None,
                   metavar="RATE",
                   help="uniform workload shorthand: every node injects "
                        "RATE flits/cycle to random destinations")
    p.add_argument("--workload", metavar="FILE",
                   help="per-flow workload descriptor JSON "
                        "({'flows': [{'src', 'dst', 'rate'}, ...]})")
    p.add_argument("--budget", metavar="FILE",
                   help="budget ceilings JSON (max_area_mm2, "
                        "max_power_w, max_wire_mm, "
                        "max_energy_pj_per_flit, wire_fabric)")
    p.add_argument("--max-area-mm2", type=float, default=None,
                   help="area ceiling override (mm^2)")
    p.add_argument("--max-power-w", type=float, default=None,
                   help="power ceiling override (W)")
    p.add_argument("--max-wire-mm", type=float, default=None,
                   help="total wire length ceiling override (mm)")
    p.add_argument("--max-energy-pj-per-flit", type=float, default=None,
                   help="worst-route energy ceiling override (pJ/flit)")
    p.add_argument("--wire-fabric", default=None,
                   choices=["high-density", "high-speed"],
                   help="Table 4 wire fabric for the physical model "
                        "(default: high-density)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser(
        "trace",
        help="flit-level event tracing: run random traffic with the "
             "observability layer on, print a hotspot table, and export "
             "JSONL / Chrome trace_event dumps")
    p.add_argument("--system", default="pair",
                   choices=["pair", "ring", "tiny"],
                   help="fabric to trace (default: the chiplet pair)")
    p.add_argument("--messages", type=int, default=200,
                   help="random messages to inject (one attempt/cycle)")
    p.add_argument("--max-cycles", type=int, default=20000,
                   help="give up (and report a timeout) after this many "
                        "cycles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-every", type=int, default=64,
                   help="snapshot cadence in cycles (rides the engine's "
                        "check_every)")
    p.add_argument("--top-hotspots", type=int, default=10,
                   help="stations in the hotspot table")
    p.add_argument("--events", metavar="FILE",
                   help="write the canonical JSONL event dump to FILE")
    p.add_argument("--chrome", metavar="FILE",
                   help="write a Chrome trace_event file to FILE "
                        "(chrome://tracing, Perfetto)")
    p.add_argument("--json", metavar="FILE",
                   help="write the metrics summary (latency histograms, "
                        "ring totals, snapshots) to FILE")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("ring", help="drain random traffic on one ring")
    p.add_argument("--nodes", type=int, default=12)
    p.add_argument("--messages", type=int, default=200)
    p.add_argument("--half", action="store_true", help="half ring")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check-invariants", action="store_true",
                   help="verify flit conservation, deflection bound, and "
                        "tag consistency every cycle")
    p.set_defaults(fn=_cmd_ring)

    p = sub.add_parser("server-latency",
                       help="Table 5-style coherent read latency")
    p.add_argument("--fabric", default="multiring",
                   choices=["multiring", "mesh", "single_ring",
                            "switched_star", "ideal"])
    p.add_argument("--inter", action="store_true",
                   help="reader on the other compute die")
    p.set_defaults(fn=_cmd_server)

    p = sub.add_parser("ai-bandwidth", help="Table 7-style AI bandwidth")
    p.add_argument("--cycles", type=int, default=1500)
    p.add_argument("--read-fraction", type=float, default=0.5)
    p.add_argument("--check-invariants", action="store_true",
                   help="verify fabric invariants every cycle")
    p.set_defaults(fn=_cmd_ai)

    p = sub.add_parser("deadlock", help="Figure 9 saturation testbench")
    p.add_argument("--cycles", type=int, default=3000)
    p.add_argument("--no-swap", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check-invariants", action="store_true",
                   help="verify fabric invariants every cycle (detects "
                        "the SWAP-off livelock at runtime)")
    p.set_defaults(fn=_cmd_deadlock)

    p = sub.add_parser(
        "faults",
        help="fault-injection campaign: flit error rate × retry budget "
             "on the chiplet-pair die-to-die link")
    p.add_argument("--messages", type=int, default=200,
                   help="cross-chiplet messages per campaign point")
    p.add_argument("--rates", default="0,1e-4,1e-3",
                   help="comma-separated per-flit error rates")
    p.add_argument("--retry-limits", default="8",
                   help="comma-separated link retry budgets")
    p.add_argument("--replay-depths", default="0",
                   help="comma-separated replay buffer depths "
                        "(0 = auto-size to the link round trip)")
    p.add_argument("--prefilter", action="store_true",
                   help="skip statically-infeasible points (e.g. a "
                        "replay buffer smaller than the link round "
                        "trip) before dispatch, via repro.analyze")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; per-point seeds derive from it")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = in-process; results are "
                        "identical either way)")
    p.add_argument("--cache", metavar="DIR",
                   help="persist per-point results under DIR")
    p.add_argument("--json", metavar="FILE",
                   help="write the result records to FILE")
    p.add_argument("--require-zero-drops", action="store_true",
                   help="exit 1 if any point dropped a message or wedged "
                        "(CI gate)")
    p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                   help="per-point wall-clock budget in seconds "
                        "(enforced with --workers > 1; a hung worker "
                        "is terminated and its pool recycled)")
    p.add_argument("--retries", type=int, default=3, metavar="N",
                   help="dispatch attempts per point before it becomes "
                        "a failure record (default 3; 1 disables retry)")
    p.add_argument("--journal", metavar="FILE",
                   help="append per-point outcomes to a crash-safe "
                        "JSONL journal as they complete")
    p.add_argument("--resume", action="store_true",
                   help="replay completed points from --journal instead "
                        "of recomputing them (failed points re-run); "
                        "results stay byte-identical per point")
    p.add_argument("--max-failures", type=int, default=0, metavar="N",
                   help=f"exit {EXIT_MAX_FAILURES} when more than N "
                        "points terminally fail (default 0: any failure "
                        "fails the campaign, loudly)")
    p.add_argument("--health-json", metavar="FILE",
                   help="write the sweep health counters (retries, "
                        "timeouts, pool restarts, quarantines) to FILE")
    p.set_defaults(fn=_cmd_faults)

    p = sub.add_parser("topology", help="describe a built-in topology")
    p.add_argument("system", choices=["server", "ai", "pair"])
    p.add_argument("--save", metavar="FILE", help="write JSON to FILE")
    p.set_defaults(fn=_cmd_topology)

    p = sub.add_parser("sweep-rw", help="R:W ratio bandwidth sweep")
    p.add_argument("--cycles", type=int, default=1200)
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; per-point seeds derive from it")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = in-process; results are "
                        "identical either way)")
    p.add_argument("--cache", metavar="DIR",
                   help="persist per-point results under DIR and reuse "
                        "them on later runs")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "bench",
        help="fabric stepping throughput: the smoke suite behind "
             "BENCH_fabric.json")
    p.add_argument("--smoke", action="store_true",
                   help="run the fixed smoke suite (the default and "
                        "currently only suite)")
    p.add_argument("--repeats", type=int, default=3,
                   help="timing repeats per case (best-of-N)")
    p.add_argument("--cycles", type=int,
                   default=None,
                   help="cycles per case (default: the committed-"
                        "trajectory value; override for quick local "
                        "runs only)")
    p.add_argument("--reference", action="store_true",
                   help="also time the reference step, verify the "
                        "engine under test matches its stats, and gate "
                        "saturated cases on speedup >= 1.0")
    p.add_argument("--engine", choices=["auto", "ref", "skip", "dense"],
                   default="auto",
                   help="stepping-engine mode to time (default: auto, "
                        "the shipping selector; use ref/skip/dense for "
                        "A/B runs)")
    p.add_argument("--json", metavar="FILE",
                   help="write the machine-readable report to FILE")
    p.add_argument("--baseline", metavar="FILE",
                   help="compare against a committed BENCH_fabric.json "
                        "and fail on regression")
    p.add_argument("--max-regression", type=float, default=0.25,
                   help="allowed fractional drop in normalized "
                        "throughput vs the baseline (default 0.25)")
    p.add_argument("--journal", metavar="FILE",
                   help="append per-case results to a crash-safe JSONL "
                        "journal as they complete")
    p.add_argument("--resume", action="store_true",
                   help="replay completed cases from --journal instead "
                        "of re-timing them (failed cases re-run)")
    p.add_argument("--max-failures", type=int, default=0, metavar="N",
                   help=f"exit {EXIT_MAX_FAILURES} when more than N "
                        "cases fail (default 0)")
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.lint.invariants import InvariantViolation
    from repro.perf.journal import SweepJournalMismatch

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except SweepJournalMismatch as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # SIGINT, or SIGTERM via the sweep dispatcher's graceful
        # mapping: completed points of a journaled run are already on
        # disk; rerun with --resume to pick up where this left off.
        print("interrupted — journaled sweeps resume with --resume",
              file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
