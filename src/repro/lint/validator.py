"""Static topology/config validation — run before any simulation.

:meth:`repro.core.config.TopologySpec.validate` raises on the *first*
structural error; this validator instead collects every problem it can
find, works on raw JSON dicts (so a broken saved topology is reported
rather than crashing deserialization), and adds the deeper checks a
spec-level ``validate()`` cannot do alone:

- dangling or mismatched RBRG-L1/L2 bridge endpoints;
- stations unreachable from part of the network (rings in different
  connected components of the bridge graph — within one ring, even a
  half ring reaches every stop because direction-constrained travel
  still cycles the whole ring);
- zero-depth inject/eject queues and other impossible tuning values;
- inter-chiplet ring cycles with SWAP disabled — statically
  deadlock-prone per Section 4.4: any RBRG-L2 closes a cyclic channel
  dependency between the rings it joins, so with neither SWAP nor
  escape slots there is no recovery path once both sides saturate;
- reliability misconfigurations: retry enabled without CRC (nothing can
  trigger a retry), an explicit replay buffer smaller than the link
  round trip (acks cannot return before the buffer chokes the link),
  and fault models attached to bridges without a die-to-die link.

Scenario files are either a bare topology dict (the
:mod:`repro.core.serialize` format) or ``{"topology": {...},
"config": {...}}`` where the config section carries
:class:`repro.core.config.MultiRingConfig` fields (with ``queues`` as a
nested :class:`repro.params.QueueParams` dict).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import (
    RETIRED_CONFIG_KEYS,
    MultiRingConfig,
    TopologySpec,
)
from repro.lint.findings import Finding, Severity
from repro.params import QueueParams

#: MultiRingConfig fields a scenario's "config" section may set.
_CONFIG_KEYS = {
    "eject_drain_per_cycle",
    "enable_itags",
    "enable_etags",
    "enable_swap",
    "escape_slot_period",
    "bridge_route_penalty",
    "lanes_per_direction",
}

_QUEUE_KEYS = {
    "inject_queue_depth",
    "eject_queue_depth",
    "bridge_rx_depth",
    "bridge_tx_depth",
    "bridge_reserved_tx",
    "itag_threshold",
    "swap_detect_threshold",
    "swap_exit_threshold",
}

#: LinkReliabilityConfig fields a scenario's "reliability" section may set.
_RELIABILITY_KEYS = {
    "enable_crc",
    "enable_retry",
    "retry_limit",
    "replay_depth",
    "ack_latency",
}


def _err(rule: str, message: str, path: Optional[str] = None) -> Finding:
    return Finding(rule=rule, message=message, severity=Severity.ERROR,
                   path=path)


def _warn(rule: str, message: str, path: Optional[str] = None) -> Finding:
    return Finding(rule=rule, message=message, severity=Severity.WARN,
                   path=path)


#: Keys a topology dict may carry (the repro.core.serialize format).
_TOPOLOGY_KEYS = {"version", "rings", "nodes", "bridges"}


def _section_entries(raw: dict, section: str, path: Optional[str],
                     findings: List[Finding]) -> List[dict]:
    """The dict entries of one topology section, with type guards.

    A section that is not a list, or a list entry that is not an object,
    becomes a structured ``malformed-topology`` finding instead of an
    ``AttributeError`` traceback further down the collector.
    """
    value = raw.get(section, [])
    if not isinstance(value, list):
        findings.append(_err(
            "malformed-topology",
            f"the '{section}' section must be a list of objects "
            f"(got {type(value).__name__})", path))
        return []
    entries = []
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            findings.append(_err(
                "malformed-topology",
                f"{section}[{i}] must be an object "
                f"(got {type(entry).__name__})", path))
            continue
        entries.append(entry)
    return entries


def validate_topology_dict(raw: dict, path: Optional[str] = None) -> List[Finding]:
    """Structural checks on a raw topology dict; collects every problem."""
    findings: List[Finding] = []
    for key in sorted(set(raw) - _TOPOLOGY_KEYS):
        findings.append(_err(
            "unknown-topology-key",
            f"unknown topology key '{key}' (known: "
            f"{', '.join(sorted(_TOPOLOGY_KEYS))})", path))
    rings = _section_entries(raw, "rings", path, findings)
    nodes = _section_entries(raw, "nodes", path, findings)
    bridges = _section_entries(raw, "bridges", path, findings)
    if not rings:
        findings.append(_err("empty-topology", "topology has no rings", path))
        return findings

    nstops: Dict[int, int] = {}
    for ring in rings:
        rid = ring.get("ring_id")
        if rid in nstops:
            findings.append(_err("duplicate-id", f"duplicate ring id {rid}", path))
            continue
        stops = ring.get("nstops", 0)
        if not isinstance(stops, int) or stops < 2:
            findings.append(_err(
                "ring-too-small",
                f"ring {rid} has {stops!r} stops; a ring needs at least 2",
                path))
            stops = max(2, stops if isinstance(stops, int) else 2)
        lanes = ring.get("lanes")
        if lanes is not None and (not isinstance(lanes, int) or lanes < 1):
            findings.append(_err(
                "bad-lane-count",
                f"ring {rid} lane override {lanes!r} must be a positive int",
                path))
        nstops[rid] = stops

    stop_load: Dict[Tuple[int, int], int] = {}
    seen_nodes: Set[int] = set()
    for placement in nodes:
        nid = placement.get("node")
        if nid in seen_nodes:
            findings.append(_err("duplicate-id", f"duplicate node id {nid}", path))
        seen_nodes.add(nid)
        ring = placement.get("ring")
        stop = placement.get("stop", -1)
        if ring not in nstops:
            findings.append(_err(
                "dangling-node",
                f"node {nid} placed on unknown ring {ring}", path))
            continue
        if not isinstance(stop, int) or not 0 <= stop < nstops[ring]:
            findings.append(_err(
                "dangling-node",
                f"node {nid} stop {stop!r} out of range on ring {ring} "
                f"(0..{nstops[ring] - 1})", path))
            continue
        key = (ring, stop)
        stop_load[key] = stop_load.get(key, 0) + 1

    seen_bridges: Set[int] = set()
    for bridge in bridges:
        bid = bridge.get("bridge_id")
        if bid in seen_bridges:
            findings.append(_err("duplicate-id", f"duplicate bridge id {bid}", path))
        seen_bridges.add(bid)
        level = bridge.get("level")
        if level not in (1, 2):
            findings.append(_err(
                "bad-bridge-level",
                f"bridge {bid} level {level!r}; must be 1 (RBRG-L1) or 2 "
                "(RBRG-L2)", path))
        link = bridge.get("link_latency", 0)
        if level == 1 and link not in (0, None):
            findings.append(_err(
                "bad-bridge-level",
                f"RBRG-L1 bridge {bid} declares a die-to-die link latency "
                f"of {link!r}; L1 bridges are intra-chiplet", path))
        if isinstance(link, int) and link < 0:
            findings.append(_err(
                "bad-bridge-level",
                f"bridge {bid} has negative link latency {link}", path))
        ring_a, ring_b = bridge.get("ring_a"), bridge.get("ring_b")
        if ring_a == ring_b and ring_a is not None:
            findings.append(_err(
                "self-bridge",
                f"bridge {bid} joins ring {ring_a} to itself", path))
        dangling = False
        for end, (ring, stop) in (("a", (ring_a, bridge.get("stop_a", -1))),
                                  ("b", (ring_b, bridge.get("stop_b", -1)))):
            if ring not in nstops:
                findings.append(_err(
                    "dangling-bridge-endpoint",
                    f"bridge {bid} endpoint {end} touches unknown ring "
                    f"{ring}", path))
                dangling = True
                continue
            if not isinstance(stop, int) or not 0 <= stop < nstops[ring]:
                findings.append(_err(
                    "dangling-bridge-endpoint",
                    f"bridge {bid} endpoint {end} stop {stop!r} out of "
                    f"range on ring {ring} (0..{nstops[ring] - 1})", path))
                dangling = True
                continue
            key = (ring, stop)
            stop_load[key] = stop_load.get(key, 0) + 1
        if dangling:
            continue

    for (ring, stop), load in sorted(stop_load.items()):
        if load > 2:
            findings.append(_err(
                "stop-overload",
                f"stop ({ring},{stop}) hosts {load} interfaces; a cross "
                "station has at most two node interfaces", path))

    if not any(f.is_error for f in findings):
        findings.extend(_reachability(raw, nstops, path))
    return findings


def _reachability(raw: dict, nstops: Dict[int, int],
                  path: Optional[str]) -> List[Finding]:
    """Rings in different components of the bridge graph cannot exchange
    traffic; every node on a minority component is an unreachable station."""
    parent = {rid: rid for rid in nstops}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for bridge in raw.get("bridges", []):
        a, b = find(bridge["ring_a"]), find(bridge["ring_b"])
        if a != b:
            parent[a] = b

    populated: Dict[int, List[int]] = {}
    for placement in raw.get("nodes", []):
        populated.setdefault(find(placement["ring"]), []).append(
            placement["node"])
    if len(populated) <= 1:
        return []
    components = sorted(populated.values(), key=len, reverse=True)
    return [
        _err("unreachable-station",
             f"nodes {comp} are on rings with no bridge path to the rest "
             "of the network; no route exists to or from them", path)
        for comp in components[1:]
    ]


def validate_config(
    config: MultiRingConfig,
    has_bridges: bool = True,
    has_l2_bridges: bool = False,
    path: Optional[str] = None,
    spec: Optional[TopologySpec] = None,
) -> List[Finding]:
    """Tuning-value checks, including the §4.4 static deadlock condition.

    The inter-chiplet-cycle rule delegates to the channel-dependency
    analyzer in :mod:`repro.verify.cdg`; pass a structurally valid
    ``spec`` to get exact ring/bridge cycle detail in the finding (with
    ``spec=None`` the rule falls back to the legacy boolean check on
    ``has_l2_bridges``).
    """
    findings: List[Finding] = []
    queues = config.queues
    for name in ("inject_queue_depth", "eject_queue_depth"):
        if getattr(queues, name) < 1:
            findings.append(_err(
                "zero-depth-queue",
                f"{name} is {getattr(queues, name)}; stations cannot "
                "accept or deliver a single flit", path))
    if has_bridges:
        for name in ("bridge_rx_depth", "bridge_tx_depth"):
            if getattr(queues, name) < 1:
                findings.append(_err(
                    "zero-depth-queue",
                    f"{name} is {getattr(queues, name)}; bridges cannot "
                    "forward any flit", path))
    if config.eject_drain_per_cycle < 1:
        findings.append(_err(
            "zero-depth-queue",
            "eject_drain_per_cycle is "
            f"{config.eject_drain_per_cycle}; delivered flits would sit "
            "in eject queues forever", path))
    if config.enable_itags and queues.itag_threshold < 1:
        findings.append(_err(
            "bad-threshold",
            f"itag_threshold is {queues.itag_threshold}; must be >= 1",
            path))
    if config.escape_slot_period < 0:
        findings.append(_err(
            "bad-threshold",
            f"escape_slot_period is {config.escape_slot_period}; must be "
            ">= 0 (0 disables escape slots)", path))
    if config.engine not in ("auto", "ref", "skip", "dense"):
        findings.append(_err(
            "bad-engine",
            f"engine is {config.engine!r}; must be one of "
            "auto/ref/skip/dense (see docs/PERFORMANCE.md)", path))
    if config.engine_check_every < 1:
        findings.append(_err(
            "bad-threshold",
            f"engine_check_every is {config.engine_check_every}; the "
            "auto selector needs a cadence of >= 1 cycle", path))
    if not (0.0 <= config.dense_exit_occupancy
            <= config.dense_enter_occupancy <= 1.0):
        findings.append(_err(
            "bad-threshold",
            "dense occupancy thresholds must satisfy 0 <= "
            f"dense_exit_occupancy ({config.dense_exit_occupancy}) <= "
            f"dense_enter_occupancy ({config.dense_enter_occupancy}) "
            "<= 1; an inverted band makes the auto selector thrash "
            "materialization every check", path))

    if has_l2_bridges:
        if config.enable_swap:
            if queues.swap_detect_threshold < 1:
                findings.append(_err(
                    "bad-threshold",
                    "swap_detect_threshold is "
                    f"{queues.swap_detect_threshold}; SWAP could never "
                    "trigger", path))
            if queues.bridge_reserved_tx < 1:
                findings.append(_err(
                    "zero-depth-queue",
                    "bridge_reserved_tx is "
                    f"{queues.bridge_reserved_tx}; DRM has no reserved "
                    "buffer to absorb a deadlocked flit", path))
        # Deferred import: repro.verify builds on the lint findings
        # types, so the validator must not import it at module load.
        from repro.verify.cdg import interchiplet_deadlock_findings
        findings.extend(interchiplet_deadlock_findings(
            config, spec=spec, has_l2_bridges=has_l2_bridges, path=path))
    if not config.enable_etags:
        findings.append(_warn(
            "unbounded-deflection",
            "E-tags disabled (ablation only): deflection count is "
            "unbounded and the one-lap guarantee does not hold", path))
    if not config.enable_itags:
        findings.append(_warn(
            "starvation-possible",
            "I-tags disabled (ablation only): a station can starve "
            "under continuous upstream traffic", path))
    return findings


def validate_reliability(
    reliability,
    l2_link_latencies: Sequence[int] = (),
    path: Optional[str] = None,
) -> List[Finding]:
    """Reliable-link-layer misconfiguration checks.

    ``reliability`` is a :class:`repro.faults.link.LinkReliabilityConfig`
    (or None, which validates trivially); ``l2_link_latencies`` are the
    die-to-die link latencies of the topology's RBRG-L2 bridges, used to
    compare an explicit replay depth against the worst link round trip.
    """
    findings: List[Finding] = []
    if reliability is None:
        return findings
    if reliability.enable_retry and not reliability.enable_crc:
        findings.append(_err(
            "retry-without-crc",
            "retry is enabled but CRC checking is disabled: a NAK can "
            "only come from a CRC mismatch, so the replay machinery can "
            "never trigger and corrupted flits are delivered undetected",
            path))
    if not l2_link_latencies:
        findings.append(_warn(
            "reliability-without-l2",
            "a reliability config is set but the topology has no RBRG-L2 "
            "bridge; the link layer protects die-to-die links only", path))
        return findings
    if reliability.enable_retry and reliability.replay_depth > 0:
        worst = max(l2_link_latencies)
        need = reliability.round_trip(worst)
        if reliability.replay_depth < need:
            findings.append(_err(
                "replay-buffer-too-small",
                f"replay_depth {reliability.replay_depth} is smaller than "
                f"the link round trip ({need} cycles at link latency "
                f"{worst}): every in-flight flit occupies a replay slot "
                "until its ack returns, so the buffer backpressures the "
                "link before the first ack can arrive (set replay_depth=0 "
                "to size it automatically)", path))
    return findings


def validate_spec(
    spec: TopologySpec,
    config: Optional[MultiRingConfig] = None,
    path: Optional[str] = None,
) -> List[Finding]:
    """Validate an in-memory spec (and optional config) without raising."""
    from repro.core.serialize import topology_to_dict

    spec_ok = True
    try:
        raw = topology_to_dict(spec)
    except ValueError:
        spec_ok = False
        # Spec too broken for the serializer's own validate(); rebuild the
        # dict by hand so the collector still reports everything.
        raw = {
            "rings": [
                {"ring_id": r.ring_id, "nstops": r.nstops,
                 "bidirectional": r.bidirectional, "lanes": r.lanes}
                for r in spec.rings
            ],
            "nodes": [
                {"node": p.node, "ring": p.ring, "stop": p.stop}
                for p in spec.nodes
            ],
            "bridges": [
                {"bridge_id": b.bridge_id, "level": b.level,
                 "ring_a": b.ring_a, "stop_a": b.stop_a,
                 "ring_b": b.ring_b, "stop_b": b.stop_b,
                 "link_latency": b.link_latency}
                for b in spec.bridges
            ],
        }
    findings = validate_topology_dict(raw, path)
    if config is not None:
        findings.extend(validate_config(
            config,
            has_bridges=bool(spec.bridges),
            has_l2_bridges=any(b.level == 2 for b in spec.bridges),
            path=path,
            spec=spec if spec_ok else None,
        ))
        findings.extend(validate_reliability(
            config.reliability,
            [b.link_latency for b in spec.bridges if b.level == 2],
            path=path,
        ))
    return findings


def _reliability_from_dict(raw: dict, path: Optional[str],
                           findings: List[Finding]):
    """Build a LinkReliabilityConfig from a scenario's config section."""
    from repro.faults.link import LinkReliabilityConfig

    kwargs = {}
    for key, value in raw.items():
        if key not in _RELIABILITY_KEYS:
            findings.append(_err(
                "unknown-config-key",
                f"unknown reliability key '{key}' (known: "
                f"{', '.join(sorted(_RELIABILITY_KEYS))})", path))
        else:
            kwargs[key] = value
    try:
        return LinkReliabilityConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        findings.append(_err(
            "bad-threshold", f"invalid reliability config: {exc}", path))
        return None


def _config_from_dict(raw: dict, path: Optional[str],
                      findings: List[Finding]) -> MultiRingConfig:
    kwargs = {}
    queue_kwargs = {}
    if not isinstance(raw, dict):
        findings.append(_err(
            "unknown-config-key",
            "the 'config' section must be an object "
            f"(got {type(raw).__name__})", path))
        return MultiRingConfig()
    for key, value in raw.items():
        if key == "queues":
            if not isinstance(value, dict):
                findings.append(_err(
                    "unknown-config-key",
                    "the 'queues' config section must be an object "
                    f"(got {type(value).__name__})", path))
                continue
            for qkey, qvalue in value.items():
                if qkey not in _QUEUE_KEYS:
                    findings.append(_err(
                        "unknown-config-key",
                        f"unknown queue parameter '{qkey}' (known: "
                        f"{', '.join(sorted(_QUEUE_KEYS))})", path))
                else:
                    queue_kwargs[qkey] = qvalue
        elif key == "reliability":
            if isinstance(value, dict):
                kwargs["reliability"] = _reliability_from_dict(
                    value, path, findings)
            else:
                findings.append(_err(
                    "unknown-config-key",
                    "the 'reliability' config section must be an object "
                    f"(got {type(value).__name__})", path))
        elif key in RETIRED_CONFIG_KEYS:
            findings.append(_warn(
                "retired-config-key",
                f"config key '{key}' is retired and ignored (every fabric "
                "now steps serially; see docs/PERFORMANCE.md)", path))
        elif key not in _CONFIG_KEYS:
            findings.append(_err(
                "unknown-config-key",
                f"unknown config key '{key}' (known: "
                f"{', '.join(sorted(_CONFIG_KEYS | {'queues', 'reliability'}))})",
                path))
        else:
            kwargs[key] = value
    return MultiRingConfig(queues=QueueParams(**queue_kwargs), **kwargs)


def _validate_faults_section(
    faults_raw, bridges, path: Optional[str], findings: List[Finding]
) -> None:
    """Check a scenario's top-level ``faults`` list of model dicts."""
    from repro.faults.models import model_from_dict

    if not isinstance(faults_raw, list):
        findings.append(_err(
            "unknown-fault-model",
            "the 'faults' section must be a list of fault-model objects",
            path))
        return
    levels = {b.get("bridge_id"): b.get("level") for b in bridges}
    has_l2 = any(level == 2 for level in levels.values())
    for i, entry in enumerate(faults_raw):
        if not isinstance(entry, dict):
            findings.append(_err(
                "unknown-fault-model",
                f"faults[{i}] must be an object with a 'model' key", path))
            continue
        try:
            model_from_dict(entry)
        except ValueError as exc:
            findings.append(_err(
                "unknown-fault-model", f"faults[{i}]: {exc}", path))
        target = entry.get("bridge")
        if target is not None:
            if target not in levels:
                findings.append(_err(
                    "fault-on-non-l2-bridge",
                    f"faults[{i}] targets unknown bridge {target}", path))
            elif levels[target] != 2:
                findings.append(_err(
                    "fault-on-non-l2-bridge",
                    f"faults[{i}] is attached to RBRG-L1 bridge {target}; "
                    "only RBRG-L2 die-to-die links take fault models",
                    path))
        elif not has_l2:
            findings.append(_err(
                "fault-on-non-l2-bridge",
                f"faults[{i}] has no RBRG-L2 bridge to attach to; the "
                "topology has no die-to-die link", path))


def validate_scenario(raw: dict, path: Optional[str] = None) -> List[Finding]:
    """Validate a scenario dict: topology plus optional config section."""
    if "topology" in raw:
        topo_raw = raw["topology"]
        config_raw = raw.get("config", {})
    else:
        topo_raw = raw
        config_raw = {}
    if not isinstance(topo_raw, dict):
        return [_err(
            "malformed-topology",
            "the 'topology' section must be an object "
            f"(got {type(topo_raw).__name__})", path)]
    findings = validate_topology_dict(topo_raw, path)
    config = _config_from_dict(config_raw, path, findings)
    bridges = [b for b in topo_raw.get("bridges", [])
               if isinstance(b, dict)] if isinstance(
                   topo_raw.get("bridges", []), list) else []
    # Best-effort spec for exact CDG cycle detail; a dict too broken to
    # deserialize still gets the boolean fallback via has_l2_bridges.
    spec: Optional[TopologySpec] = None
    try:
        from repro.core.serialize import topology_from_dict
        spec = topology_from_dict(topo_raw)
    except (KeyError, TypeError, ValueError):
        spec = None
    findings.extend(validate_config(
        config,
        has_bridges=bool(bridges),
        has_l2_bridges=any(b.get("level") == 2 for b in bridges),
        path=path,
        spec=spec,
    ))
    findings.extend(validate_reliability(
        config.reliability,
        [b.get("link_latency", 0) for b in bridges if b.get("level") == 2],
        path=path,
    ))
    if "faults" in raw and "topology" in raw:
        _validate_faults_section(raw["faults"], bridges, path, findings)
    return findings


def validate_scenario_file(path: str) -> List[Finding]:
    """Load and validate a scenario/topology JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [_err("unreadable-scenario", f"cannot load: {exc}", path)]
    if not isinstance(raw, dict):
        return [_err("unreadable-scenario",
                     "scenario file must contain a JSON object", path)]
    return validate_scenario(raw, path)
