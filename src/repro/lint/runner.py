"""The ``repro-noc check`` orchestration: one entry over every layer.

``run_check`` runs, in order:

1. the per-file AST lint over the installed ``repro`` package (or any
   source tree given);
2. the whole-program interprocedural dataflow analysis
   (:mod:`repro.lint.dataflow`) over the same sources;
3. static validation of the built-in topologies and any scenario JSON
   files passed on the command line;
4. unused-suppression detection: after every line-anchored layer has
   run, any inline ``# repro: allow[rule]`` comment that never fired
   becomes a warn finding.

Every run is one cold pass: nothing is cached between runs and nothing
is subtracted from the findings.  The report's exit code is non-zero
iff any finding is at or above the ``fail_on`` severity (default
``error``), so CI can gate on it directly and tighten to ``warn`` where
wanted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.lint.dataflow import analyze_sources
from repro.lint.findings import Finding, Severity
from repro.lint.rules import iter_python_files, lint_source
from repro.lint.suppress import Suppressions
from repro.lint.validator import validate_scenario_file, validate_spec
from repro.reporting import FindingsReport


@dataclass
class CheckReport(FindingsReport):
    """Aggregated findings from every checker layer.

    Ordering, severity split, per-rule counts, and the exit-code
    convention come from the shared :class:`repro.reporting.FindingsReport`
    base, which ``verify`` and ``analyze`` reports also build on.
    """

    files_linted: int = 0
    modules_analyzed: int = 0
    topologies_validated: int = 0
    scenarios_validated: int = 0

    def format(self) -> str:
        lines = self.format_findings()
        lines.append(
            f"checked {self.files_linted} source files "
            f"({self.modules_analyzed} dataflow modules), "
            f"{self.topologies_validated} built-in topologies, "
            f"{self.scenarios_validated} scenario files: "
            f"{len(self.errors)} errors, {len(self.warnings)} warnings")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        out = self.findings_to_dict()
        out.update(
            files_linted=self.files_linted,
            modules_analyzed=self.modules_analyzed,
            topologies_validated=self.topologies_validated,
            scenarios_validated=self.scenarios_validated,
        )
        return out


def default_source_root() -> str:
    """The installed ``repro`` package directory (the default lint target)."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def _builtin_specs():
    """(name, TopologySpec, MultiRingConfig) for every built-in system."""
    from repro.ai.mesh_system import AiProcessorConfig
    from repro.core.config import MultiRingConfig
    from repro.core.topology import chiplet_pair, grid_of_rings, single_ring_topology

    out = []
    spec, _ = single_ring_topology(12)
    out.append(("single-ring", spec, MultiRingConfig()))
    spec, _, _ = chiplet_pair()
    out.append(("chiplet-pair", spec, MultiRingConfig()))
    cfg = AiProcessorConfig()
    layout = grid_of_rings(
        cfg.n_vrings, cfg.n_hrings, cfg.cores_per_vring, cfg.memory_per_hring,
        stop_spacing=cfg.stop_spacing,
        vring_lanes=cfg.lanes_per_direction, hring_lanes=cfg.hring_lanes,
    )
    out.append(("ai-grid", layout.topology,
                MultiRingConfig(lanes_per_direction=cfg.lanes_per_direction)))
    from repro.cpu.package import build_server_system

    fabric, _, _ = build_server_system("multiring")
    out.append(("server-package", fabric.topology, fabric.config))
    return out


def run_check(
    src_paths: Optional[Sequence[str]] = None,
    scenario_paths: Sequence[str] = (),
    lint: bool = True,
    builtin: bool = True,
    dataflow: bool = True,
    fail_on: str = Severity.ERROR,
) -> CheckReport:
    """Run every static layer and aggregate the findings."""
    report = CheckReport(fail_on=Severity.normalize(fail_on))
    suppressions: Dict[str, Suppressions] = {}
    sources: Dict[str, str] = {}
    if lint:
        paths = list(src_paths) if src_paths else [default_source_root()]
        # A typo'd --src would otherwise lint zero files and pass CI.
        for path in paths:
            if not os.path.exists(path):
                report.findings.append(Finding(
                    rule="missing-path",
                    message="source path does not exist",
                    severity=Severity.ERROR, path=path))
        files: List[str] = []
        for path in paths:
            if os.path.exists(path):
                for filepath in iter_python_files(path):
                    if filepath not in sources:
                        files.append(filepath)
                        with open(filepath, "r", encoding="utf-8") as fh:
                            sources[filepath] = fh.read()
        for filepath in files:
            supp = Suppressions(sources[filepath], filepath)
            suppressions[filepath] = supp
            report.findings.extend(
                lint_source(sources[filepath], filepath, suppressions=supp))
        report.files_linted = len(files)
        if dataflow and sources:
            flow = analyze_sources(sources, suppressions)
            report.findings.extend(flow.findings)
            report.modules_analyzed = flow.modules
        # Every line-anchored layer has now consulted the suppression
        # tables; whatever never fired is itself a finding.
        for filepath in files:
            report.findings.extend(suppressions[filepath].unused_findings())
    if builtin:
        for name, spec, config in _builtin_specs():
            report.findings.extend(
                validate_spec(spec, config, path=f"<builtin:{name}>"))
            report.topologies_validated += 1
    for path in scenario_paths:
        report.findings.extend(validate_scenario_file(path))
        report.scenarios_validated += 1
    return report
