"""Counterexample serialization and replay on the real simulator.

A model-checker :class:`~repro.verify.model.Violation` carries a
deterministic injection schedule.  This module packages it — together
with the exact topology and config — as a :class:`Counterexample` that
round-trips through JSON, and re-executes it on a genuine
:class:`repro.sim.engine.Simulator` (injector component first, fabric
second, invariant probe last — the standard wiring) on the ``skip`` or
``ref`` stepping tier.  A confirmed replay means the abstraction in
:mod:`repro.verify.state` did not invent the bug: the shipping simulator
exhibits it too.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.config import MultiRingConfig
from repro.core.network import MultiRingFabric
from repro.core.serialize import topology_from_dict, topology_to_dict
from repro.fabric.message import Message
from repro.lint.invariants import FabricInvariantChecker, InvariantViolation
from repro.params import QueueParams
from repro.sim.engine import FunctionComponent, Simulator
from repro.verify.model import Violation
from repro.verify.state import _discard, encode_state

#: Counterexample file format version (bumped on incompatible change).
CE_FORMAT_VERSION = 1


def config_to_dict(config: MultiRingConfig) -> dict:
    """Serialize a config for counterexample files (baseline link only)."""
    if config.reliability is not None:
        raise ValueError("counterexamples cover the baseline link only; "
                         "config.reliability must be None")
    out = {
        field_.name: getattr(config, field_.name)
        for field_ in dataclasses.fields(MultiRingConfig)
        if field_.name not in ("queues", "reliability")
    }
    out["queues"] = dataclasses.asdict(config.queues)
    return out


def config_from_dict(raw: dict) -> MultiRingConfig:
    kwargs = dict(raw)
    queues = QueueParams(**kwargs.pop("queues", {}))
    return MultiRingConfig(queues=queues, **kwargs)


@dataclass
class Counterexample:
    """A violating run: what broke, on which fabric, under which schedule.

    ``schedule[c]`` lists the (src, dst) injections offered at cycle
    ``c``; trailing empty entries are the injection-free drain cycles of
    a liveness counterexample.
    """

    kind: str
    rule: str
    cycle: int
    message: str
    topology: dict
    config: dict
    schedule: List[List[Tuple[int, int]]]
    max_extra_laps: Optional[int] = None

    @classmethod
    def from_violation(cls, violation: Violation, spec, config,
                       max_extra_laps: Optional[int] = None
                       ) -> "Counterexample":
        return cls(
            kind=violation.kind,
            rule=violation.rule,
            cycle=violation.cycle,
            message=violation.message,
            topology=topology_to_dict(spec),
            config=config_to_dict(config),
            schedule=[[tuple(p) for p in step]
                      for step in violation.schedule],
            max_extra_laps=max_extra_laps,
        )

    def to_dict(self) -> dict:
        return {
            "version": CE_FORMAT_VERSION,
            "kind": self.kind,
            "rule": self.rule,
            "cycle": self.cycle,
            "message": self.message,
            "topology": self.topology,
            "config": self.config,
            "schedule": [[list(pair) for pair in step]
                         for step in self.schedule],
            "max_extra_laps": self.max_extra_laps,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Counterexample":
        version = raw.get("version")
        if version != CE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported counterexample version {version!r} "
                f"(expected {CE_FORMAT_VERSION})")
        return cls(
            kind=raw["kind"],
            rule=raw["rule"],
            cycle=raw["cycle"],
            message=raw.get("message", ""),
            topology=raw["topology"],
            config=raw["config"],
            schedule=[[tuple(pair) for pair in step]
                      for step in raw["schedule"]],
            max_extra_laps=raw.get("max_extra_laps"),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Counterexample":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class ReplayResult:
    confirmed: bool
    #: Stepping tier the replay ran on (``"skip"`` or ``"ref"``).
    engine: str
    expected_rule: str
    observed_rule: Optional[str] = None
    observed_cycle: Optional[int] = None
    detail: str = ""
    rejected_injections: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def replay_counterexample(
    ce: Counterexample,
    engine: str = "skip",
    max_free_cycles: int = 512,
) -> ReplayResult:
    """Re-execute a counterexample schedule on the real simulator.

    Safety counterexamples confirm when the invariant probe raises
    during the schedule; liveness counterexamples confirm when, after
    the schedule, injection-free stepping either repeats a state with
    flits still in flight (livelock) or never drains / never shows every
    SWAP controller out of DRM within ``max_free_cycles``.
    """
    spec = topology_from_dict(ce.topology)
    config = config_from_dict(ce.config)
    fabric = MultiRingFabric(spec, config)
    fabric.stats.keep_samples = False
    for node in fabric.nodes():
        fabric.attach(node, _discard)
    fabric.set_engine(engine)
    checker = FabricInvariantChecker(fabric,
                                     max_extra_laps=ce.max_extra_laps)

    schedule = ce.schedule
    rejected = [0]

    def inject(cycle: int) -> None:
        if cycle < len(schedule):
            for src, dst in schedule[cycle]:
                accepted = fabric.try_inject(
                    Message(src=src, dst=dst, payload=None))
                if not accepted:
                    rejected[0] += 1

    sim = Simulator()
    sim.register(FunctionComponent(inject, "counterexample-injector"))
    sim.register(fabric)
    sim.register_invariant(checker.check)

    result = ReplayResult(confirmed=False, engine=engine,
                          expected_rule=ce.rule,
                          rejected_injections=0)
    try:
        sim.run(len(schedule))
    except InvariantViolation as exc:
        result.confirmed = True
        result.observed_rule = exc.rule
        result.observed_cycle = exc.cycle
        result.detail = str(exc)
        result.rejected_injections = rejected[0]
        return result

    result.rejected_injections = rejected[0]
    if ce.kind == "safety":
        result.detail = ("schedule completed without an invariant "
                         "violation")
        return result

    # Liveness: keep stepping with no injections and watch for a lasso,
    # a refusal to drain, or a SWAP controller that never leaves DRM.
    seen = set()
    drm_pending = None
    post_drain_checks = 0
    for _ in range(max_free_cycles):
        if fabric.occupancy() == 0:
            if drm_pending is None:
                drm_pending = [
                    sc for bridge in fabric.bridges
                    for sc in (getattr(bridge, "swap_a", None),
                               getattr(bridge, "swap_b", None))
                    if sc is not None and sc.in_drm]
            drm_pending = [sc for sc in drm_pending if sc.in_drm]
            post_drain_checks += 1
            if not drm_pending:
                result.detail = ("network drained and every SWAP "
                                 "controller left DRM; not reproduced")
                return result
            if post_drain_checks > 8:
                result.confirmed = True
                result.observed_rule = "drm-stuck"
                result.observed_cycle = sim.cycle
                result.detail = (f"{len(drm_pending)} SWAP controller(s) "
                                 "still in DRM after drain")
                return result
        key = encode_state(fabric, sim.cycle)
        if key in seen and fabric.occupancy() > 0:
            result.confirmed = True
            result.observed_rule = "livelock"
            result.observed_cycle = sim.cycle
            result.detail = (f"state repeats with {fabric.occupancy()} "
                             "flit(s) in flight; they can never eject")
            return result
        seen.add(key)
        try:
            sim.step()
        except InvariantViolation as exc:
            result.confirmed = True
            result.observed_rule = exc.rule
            result.observed_cycle = exc.cycle
            result.detail = str(exc)
            return result
    result.confirmed = fabric.occupancy() > 0
    if result.confirmed:
        result.observed_rule = "livelock"
        result.observed_cycle = sim.cycle
        result.detail = (f"{fabric.occupancy()} flit(s) still in flight "
                         f"after {max_free_cycles} injection-free cycles")
    else:
        result.detail = "network drained; not reproduced"
    return result
