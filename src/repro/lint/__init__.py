"""Static analysis and invariant verification for the reproduction.

Four layers, surfaced together as ``repro-noc check``:

- :mod:`repro.lint.rules` — per-file AST lint rules tailored to a
  cycle-accurate simulator (determinism, mutable defaults, integral
  cycle counters, no bare ``except``);
- :mod:`repro.lint.dataflow` — whole-program interprocedural analysis
  tracking RNG lineage (unrooted streams, split-salt collisions) and
  process-boundary dataflow (worker-shared mutable globals, config
  mutation after fabric/sweep handoff);
- :mod:`repro.lint.validator` — static topology/config validation run
  before any simulation (dangling bridge endpoints, unreachable
  stations, zero-depth queues, statically deadlock-prone SWAP-disabled
  inter-chiplet cycles per Section 4.4);
- :mod:`repro.lint.invariants` — opt-in runtime probes
  (``--check-invariants``) asserting flit conservation, the one-lap
  deflection bound, and I-tag/E-tag reservation consistency every cycle.

All layers emit the unified :class:`~repro.lint.findings.Finding`
record (severity, stable fingerprint), suppress via inline
``# repro: allow[rule]`` comments (:mod:`repro.lint.suppress`) and
export SARIF 2.1.0 (:mod:`repro.lint.sarif`).
"""

from repro.lint.dataflow import DataflowReport, analyze_paths, analyze_sources
from repro.lint.findings import Finding, Severity
from repro.lint.invariants import FabricInvariantChecker, InvariantViolation
from repro.lint.rules import DEFAULT_RULES, lint_paths, lint_source
from repro.lint.runner import CheckReport, run_check
from repro.lint.sarif import findings_to_sarif, write_sarif
from repro.lint.suppress import Suppressions
from repro.lint.validator import (
    validate_config,
    validate_reliability,
    validate_scenario,
    validate_scenario_file,
    validate_spec,
    validate_topology_dict,
)

__all__ = [
    "CheckReport",
    "DEFAULT_RULES",
    "DataflowReport",
    "FabricInvariantChecker",
    "Finding",
    "InvariantViolation",
    "Severity",
    "Suppressions",
    "analyze_paths",
    "analyze_sources",
    "findings_to_sarif",
    "lint_paths",
    "lint_source",
    "run_check",
    "write_sarif",
    "validate_config",
    "validate_reliability",
    "validate_scenario",
    "validate_scenario_file",
    "validate_spec",
    "validate_topology_dict",
]
