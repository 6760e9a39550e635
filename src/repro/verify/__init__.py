"""Formal verification for the multi-ring fabric (``repro-noc verify``).

Three layers:

- :mod:`repro.verify.cdg` — static channel-dependency-graph deadlock
  analysis (Dally–Seitz cycles, benign/deadlock-capable classification);
- :mod:`repro.verify.model` — explicit-state bounded model checking of
  small fabrics (safety invariants + liveness via drain analysis);
- :mod:`repro.verify.replay` — counterexample replay on the real
  :class:`repro.sim.engine.Simulator` on the ``skip`` and ``ref``
  stepping tiers.

:mod:`repro.verify.report` ties them together for the CLI.
"""

from repro.verify.cdg import (
    CdgAnalysis,
    CdgCycle,
    analyze_cdg,
    build_cdg,
    interchiplet_deadlock_findings,
)
from repro.verify.model import ModelChecker, ModelCheckResult, Violation
from repro.verify.replay import (
    Counterexample,
    ReplayResult,
    replay_counterexample,
)
from repro.verify.report import (
    VerifyReport,
    model_check_feasible,
    run_verify,
    verify_pair_system,
)
from repro.verify.state import build_model_fabric, clone_fabric, encode_state

__all__ = [
    "CdgAnalysis",
    "CdgCycle",
    "Counterexample",
    "ModelCheckResult",
    "ModelChecker",
    "ReplayResult",
    "VerifyReport",
    "Violation",
    "analyze_cdg",
    "build_cdg",
    "build_model_fabric",
    "clone_fabric",
    "encode_state",
    "interchiplet_deadlock_findings",
    "model_check_feasible",
    "replay_counterexample",
    "run_verify",
    "verify_pair_system",
]
