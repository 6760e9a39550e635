"""Orchestration and reporting for ``repro-noc verify``.

Runs the three verification layers over named systems:

1. CDG analysis (:mod:`repro.verify.cdg`) on every system — cheap and
   always on;
2. bounded model checking (:mod:`repro.verify.model`) on systems that
   pass :func:`model_check_feasible` — the built-in ``pair`` testbench
   by design, while the server/AI systems get a note instead of an
   intractable search;
3. counterexample replay (:mod:`repro.verify.replay`) of every model
   violation on the real simulator on the ``skip`` and ``ref`` tiers.

Exit-code convention matches ``repro-noc check``: 0 clean, 1 findings
(deadlock-capable cycle, model violation, or a replay that failed to
confirm), 2 usage errors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import MultiRingConfig, TopologySpec
from repro.core.topology import chiplet_pair, grid_of_rings, tiny_pair
from repro.params import QueueParams
from repro.reporting import EXIT_FINDINGS, EXIT_OK
from repro.verify.cdg import CdgAnalysis, analyze_cdg, format_channel
from repro.verify.model import ModelChecker, ModelCheckResult
from repro.verify.replay import (
    Counterexample,
    ReplayResult,
    replay_counterexample,
)

#: Feasibility ceiling for exhaustive exploration: total ring stops.
_MAX_MODEL_STOPS = 12


def model_check_feasible(spec: TopologySpec) -> bool:
    """Small enough for explicit-state enumeration within CLI budgets."""
    return (len(spec.rings) <= 3
            and sum(r.nstops for r in spec.rings) <= _MAX_MODEL_STOPS
            and len(spec.nodes) <= 6
            and len(spec.bridges) <= 2)


def verify_pair_system(
    no_swap: bool = False,
) -> Tuple[TopologySpec, MultiRingConfig, List[Tuple[int, int]]]:
    """The model checker's testbench: the smallest pair that can wedge.

    Two 3-stop half rings, two nodes each, one RBRG-L2, every queue one
    deep.  Under cross-ring saturation this fabric starves without SWAP
    (the deflection bound breaks within ~65 cycles) and stays live with
    it — the Figure 9 experiment at model-checkable scale.
    """
    spec, ring0, ring1 = tiny_pair(nstops=3, nodes_per_ring=2)
    queues = QueueParams(
        inject_queue_depth=1, eject_queue_depth=1, bridge_rx_depth=1,
        bridge_tx_depth=1, bridge_reserved_tx=1, itag_threshold=4,
        swap_detect_threshold=8, swap_exit_threshold=1)
    config = MultiRingConfig(queues=queues, eject_drain_per_cycle=1,
                             enable_swap=not no_swap)
    pairs = ([(a, b) for a in ring0 for b in ring1]
             + [(b, a) for a in ring0 for b in ring1])
    return spec, config, pairs


def _system_specs(no_swap: bool) -> Dict[str, Tuple[TopologySpec,
                                                    MultiRingConfig,
                                                    Optional[List]]]:
    """Named built-in systems for the CLI (insertion order = run order)."""
    systems: Dict[str, Tuple] = {}
    spec, config, pairs = verify_pair_system(no_swap)
    systems["pair"] = (spec, config, pairs)
    cp_spec, _, _ = chiplet_pair()
    systems["chiplet-pair"] = (
        cp_spec, MultiRingConfig(enable_swap=not no_swap), None)
    return systems


def _heavy_system(name: str, no_swap: bool) -> Tuple[TopologySpec,
                                                     MultiRingConfig,
                                                     Optional[List]]:
    """The paper's full systems, loaded lazily (they pull big modules)."""
    if name == "server":
        from repro.cpu.package import build_server_system
        fabric, _, _ = build_server_system("multiring")
        return (fabric.topology,
                MultiRingConfig(enable_swap=not no_swap), None)
    if name == "ai":
        from repro.ai import AiProcessorConfig
        cfg = AiProcessorConfig()
        layout = grid_of_rings(cfg.n_vrings, cfg.n_hrings,
                               cfg.cores_per_vring, cfg.memory_per_hring)
        return (layout.topology,
                MultiRingConfig(enable_swap=not no_swap), None)
    raise KeyError(name)


def resolve_systems(names: List[str],
                    no_swap: bool) -> Dict[str, Tuple]:
    """Map CLI ``--system`` names to (spec, config, pairs) triples."""
    if "all" in names:
        names = ["pair", "chiplet-pair", "server", "ai"]
    elif not names:
        names = ["pair", "chiplet-pair"]
    systems: Dict[str, Tuple] = {}
    builtin = _system_specs(no_swap)
    for name in names:
        if name in builtin:
            systems[name] = builtin[name]
        else:
            systems[name] = _heavy_system(name, no_swap)
    return systems


class StageTimer:
    """Wall-clock timings for ``--profile`` (timing is reporting, not
    simulation, hence the determinism-lint opt-outs)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.timings: Dict[str, float] = {}
        self._start = 0.0
        self._stage: Optional[str] = None

    def start(self, stage: str) -> None:
        if self.enabled:
            self._stage = stage
            self._start = time.perf_counter()  # repro: allow[determinism]

    def stop(self) -> None:
        if self.enabled and self._stage is not None:
            elapsed = time.perf_counter() - self._start  # repro: allow[determinism]
            self.timings[self._stage] = (
                self.timings.get(self._stage, 0.0) + elapsed)
            self._stage = None


@dataclass
class SystemVerification:
    """Everything ``verify`` learned about one system."""

    name: str
    cdg: CdgAnalysis
    model: Optional[ModelCheckResult] = None
    model_note: Optional[str] = None
    counterexamples: List[Counterexample] = field(default_factory=list)
    replays: List[ReplayResult] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def finding_count(self) -> int:
        count = len(self.cdg.deadlock_capable)
        if self.model is not None:
            count += len(self.model.violations)
        count += sum(1 for r in self.replays if not r.confirmed)
        return count

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "cdg": self.cdg.to_dict(),
            "model": self.model.to_dict() if self.model else None,
            "model_note": self.model_note,
            "counterexamples": [ce.to_dict()
                                for ce in self.counterexamples],
            "replays": [r.to_dict() for r in self.replays],
            "findings": self.finding_count,
        }
        if self.timings:
            out["timings"] = dict(self.timings)
        return out


@dataclass
class VerifyReport:
    systems: List[SystemVerification] = field(default_factory=list)

    @property
    def finding_count(self) -> int:
        return sum(s.finding_count for s in self.systems)

    def exit_code(self) -> int:
        # The shared check/verify/analyze convention (repro.reporting).
        return EXIT_FINDINGS if self.finding_count else EXIT_OK

    def to_dict(self) -> dict:
        return {
            "systems": [s.to_dict() for s in self.systems],
            "findings": self.finding_count,
        }

    def format(self) -> str:
        lines: List[str] = []
        for system in self.systems:
            lines.append(f"== {system.name} ==")
            cycles = system.cdg.cycles
            lines.append(
                f"  cdg: {len(system.cdg.channels)} channels, "
                f"{len(system.cdg.edges)} edges, "
                f"{len(cycles)} cyclic component(s)")
            for cyc in cycles:
                chain = " -> ".join(format_channel(ch)
                                    for ch in cyc.channels[:6])
                if len(cyc.channels) > 6:
                    chain += " -> ..."
                broken = (f" (broken by {', '.join(cyc.broken_by)})"
                          if cyc.broken_by else "")
                lines.append(f"    [{cyc.classification}] rings "
                             f"{list(cyc.rings)} bridges "
                             f"{list(cyc.bridges)}{broken}")
                lines.append(f"      {chain}")
            if system.model is not None:
                m = system.model
                status = ("exhaustive" if m.exhaustive
                          else "budget-bounded")
                lines.append(
                    f"  model: {m.states} states, {m.transitions} "
                    f"transitions, depth {m.max_depth} ({status}), "
                    f"{len(m.violations)} violation(s)")
                for v in m.violations:
                    lines.append(f"    [{v.kind}/{v.rule}] cycle "
                                 f"{v.cycle}: {v.message}")
            elif system.model_note:
                lines.append(f"  model: skipped ({system.model_note})")
            for replay in system.replays:
                verdict = ("confirmed" if replay.confirmed
                           else "NOT CONFIRMED")
                lines.append(
                    f"  replay[{replay.engine}]: {verdict} "
                    f"({replay.observed_rule or 'no violation'}) "
                    f"{replay.detail}")
            for stage, secs in sorted(system.timings.items()):
                lines.append(f"  time[{stage}]: {secs:.3f}s")
        lines.append(f"verify: {self.finding_count} finding(s) across "
                     f"{len(self.systems)} system(s)")
        return "\n".join(lines)


def run_verify(
    system_names: Optional[List[str]] = None,
    *,
    no_swap: bool = False,
    model_check: bool = True,
    liveness: bool = True,
    replay: bool = True,
    max_states: int = 5000,
    max_in_flight: Optional[int] = None,
    max_violations: int = 1,
    profile: bool = False,
) -> VerifyReport:
    """Run the verification stack over the named built-in systems."""
    report = VerifyReport()
    for name, (spec, config, pairs) in resolve_systems(
            system_names or [], no_swap).items():
        timer = StageTimer(profile)

        timer.start("cdg")
        system = SystemVerification(name=name,
                                    cdg=analyze_cdg(spec, config))
        timer.stop()

        if not model_check:
            system.model_note = "disabled (--no-model-check)"
        elif config.reliability is not None:
            system.model_note = "reliable link layer out of model scope"
        elif not model_check_feasible(spec):
            system.model_note = (
                f"{sum(r.nstops for r in spec.rings)} stops across "
                f"{len(spec.rings)} rings exceeds the explicit-state "
                "budget; CDG analysis only")
        else:
            # A wedge needs enough in-flight flits to saturate both
            # directions; a healthy proof wants a tight bound so the
            # enumeration is exhaustive.
            bound = max_in_flight if max_in_flight is not None else (
                24 if no_swap else 2)
            checker = ModelChecker(
                spec, config, pairs,
                max_states=max_states,
                max_in_flight=bound,
                max_violations=max_violations,
                liveness=liveness and not no_swap,
            )
            timer.start("model")
            system.model = checker.run()
            timer.stop()
            for violation in system.model.violations:
                ce = Counterexample.from_violation(violation, spec, config)
                system.counterexamples.append(ce)
                if replay:
                    timer.start("replay")
                    for engine in ("skip", "ref"):
                        system.replays.append(
                            replay_counterexample(ce, engine=engine))
                    timer.stop()
        system.timings = timer.timings
        report.systems.append(system)
    return report
