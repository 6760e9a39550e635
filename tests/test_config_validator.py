"""Static topology/config validator tests.

The hypothesis sections generate random *valid* topologies and assert
the validator accepts them, then break each one in a targeted way and
assert the right finding appears — the validator must neither cry wolf
nor miss a seeded fault."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MultiRingConfig
from repro.core.serialize import topology_to_dict
from repro.core.topology import chiplet_pair, grid_of_rings, single_ring_topology
from repro.faults import LinkReliabilityConfig
from repro.lint import (
    validate_config,
    validate_reliability,
    validate_scenario,
    validate_scenario_file,
    validate_spec,
    validate_topology_dict,
)
from repro.params import QueueParams

pytestmark = pytest.mark.lint


def errors(findings):
    return [f for f in findings if f.is_error]


def rules(findings):
    return {f.rule for f in findings}


# -- deterministic cases --------------------------------------------------


def test_builtin_topologies_validate_clean():
    spec, _ = single_ring_topology(8)
    assert validate_spec(spec, MultiRingConfig()) == []
    spec, _, _ = chiplet_pair()
    assert validate_spec(spec, MultiRingConfig()) == []
    layout = grid_of_rings(3, 2, 2, 3)
    assert validate_spec(layout.topology, MultiRingConfig()) == []


def test_dangling_bridge_endpoint_detected():
    spec, _, _ = chiplet_pair()
    raw = topology_to_dict(spec)
    raw["bridges"][0]["ring_b"] = 42
    assert "dangling-bridge-endpoint" in rules(validate_topology_dict(raw))
    raw = topology_to_dict(spec)
    raw["bridges"][0]["stop_a"] = 10_000
    assert "dangling-bridge-endpoint" in rules(validate_topology_dict(raw))


def test_dangling_node_detected():
    spec, _ = single_ring_topology(4)
    raw = topology_to_dict(spec)
    raw["nodes"][0]["stop"] = -3
    assert "dangling-node" in rules(validate_topology_dict(raw))


def test_self_bridge_detected():
    spec, _, _ = chiplet_pair()
    raw = topology_to_dict(spec)
    raw["bridges"][0]["ring_b"] = raw["bridges"][0]["ring_a"]
    found = rules(validate_topology_dict(raw))
    assert "self-bridge" in found


def test_unreachable_station_detected():
    # Two populated rings, no bridge: neither side can reach the other.
    raw = {
        "rings": [{"ring_id": 0, "nstops": 4, "bidirectional": True},
                  {"ring_id": 1, "nstops": 4, "bidirectional": False}],
        "nodes": [{"node": 0, "ring": 0, "stop": 0},
                  {"node": 1, "ring": 1, "stop": 1}],
        "bridges": [],
    }
    assert "unreachable-station" in rules(validate_topology_dict(raw))


def test_half_ring_alone_is_fully_reachable():
    # Direction-constrained travel still cycles the whole ring.
    raw = {
        "rings": [{"ring_id": 0, "nstops": 6, "bidirectional": False}],
        "nodes": [{"node": 0, "ring": 0, "stop": 0},
                  {"node": 1, "ring": 0, "stop": 3}],
        "bridges": [],
    }
    assert validate_topology_dict(raw) == []


def test_stop_overload_detected():
    raw = {
        "rings": [{"ring_id": 0, "nstops": 4, "bidirectional": True}],
        "nodes": [{"node": n, "ring": 0, "stop": 1} for n in range(3)],
        "bridges": [],
    }
    assert "stop-overload" in rules(validate_topology_dict(raw))


def test_zero_depth_queues_detected():
    config = MultiRingConfig(queues=QueueParams(inject_queue_depth=0))
    assert "zero-depth-queue" in rules(validate_config(config))
    config = MultiRingConfig(queues=QueueParams(eject_queue_depth=0))
    assert "zero-depth-queue" in rules(validate_config(config))
    config = MultiRingConfig(eject_drain_per_cycle=0)
    assert "zero-depth-queue" in rules(validate_config(config))


def test_bad_engine_mode_detected():
    config = MultiRingConfig(engine="vectorized")
    assert "bad-engine" in rules(validate_config(config))
    for mode in ("auto", "ref", "skip", "dense"):
        assert "bad-engine" not in rules(
            validate_config(MultiRingConfig(engine=mode)))


def test_inverted_dense_hysteresis_band_detected():
    config = MultiRingConfig(dense_enter_occupancy=0.1,
                             dense_exit_occupancy=0.5)
    assert "bad-threshold" in rules(validate_config(config))
    config = MultiRingConfig(engine_check_every=0)
    assert "bad-threshold" in rules(validate_config(config))


def test_parallel_serial_fallback_warns_not_errors():
    """A saved scenario that asks for the retired parallel stepper still
    validates: every fabric steps serially, which is a warning."""
    spec, _, _ = chiplet_pair()
    raw = {"topology": topology_to_dict(spec),
           "config": {"parallel_step": True}}
    findings = validate_scenario(raw)
    assert "retired-config-key" in rules(findings)
    assert errors(findings) == []


def test_parallel_config_keys_accepted_in_scenarios():
    spec, _, _ = chiplet_pair()
    raw = {"topology": topology_to_dict(spec),
           "config": {"parallel_step": True, "parallel_workers": 2,
                      "parallel_window": 4}}
    findings = validate_scenario(raw)
    assert "unknown-config-key" not in rules(findings)
    assert sum(f.rule == "retired-config-key" for f in findings) == 3


def test_swap_disabled_interchiplet_cycle_detected():
    spec, _, _ = chiplet_pair()
    config = MultiRingConfig(enable_swap=False)
    assert "swap-disabled-interchiplet-cycle" in rules(
        errors(validate_spec(spec, config)))


def test_escape_slots_are_an_accepted_swap_alternative():
    spec, _, _ = chiplet_pair()
    config = MultiRingConfig(enable_swap=False, escape_slot_period=4)
    assert "swap-disabled-interchiplet-cycle" not in rules(
        validate_spec(spec, config))


def test_swap_disabled_without_l2_bridges_is_fine():
    spec, _ = single_ring_topology(6)
    config = MultiRingConfig(enable_swap=False)
    assert "swap-disabled-interchiplet-cycle" not in rules(
        validate_spec(spec, config))


def test_etag_ablation_warns_not_errors():
    config = MultiRingConfig(enable_etags=False)
    findings = validate_config(config)
    assert "unbounded-deflection" in rules(findings)
    assert errors(findings) == []


def test_unknown_config_key_detected():
    spec, _ = single_ring_topology(4)
    raw = {"topology": topology_to_dict(spec),
           "config": {"enable_swapp": True}}
    assert "unknown-config-key" in rules(validate_scenario(raw))


def test_scenario_file_roundtrip(tmp_path):
    spec, _, _ = chiplet_pair()
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"topology": topology_to_dict(spec)}))
    assert validate_scenario_file(str(good)) == []
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert "unreadable-scenario" in rules(validate_scenario_file(str(bad)))


# -- reliability / fault-injection configuration rules ---------------------


def test_reliability_clean_config_accepted():
    spec, _, _ = chiplet_pair()
    config = MultiRingConfig(reliability=LinkReliabilityConfig())
    assert validate_spec(spec, config) == []


def test_retry_without_crc_detected():
    reliability = LinkReliabilityConfig(enable_crc=False, enable_retry=True)
    findings = validate_reliability(reliability, [8])
    assert "retry-without-crc" in rules(errors(findings))
    spec, _, _ = chiplet_pair()
    config = MultiRingConfig(reliability=reliability)
    assert "retry-without-crc" in rules(validate_spec(spec, config))


def test_replay_buffer_too_small_detected():
    # chiplet_pair's d2d link latency is 8 -> round trip 18 > 3.
    spec, _, _ = chiplet_pair()
    config = MultiRingConfig(
        reliability=LinkReliabilityConfig(replay_depth=3))
    findings = validate_spec(spec, config)
    assert "replay-buffer-too-small" in rules(errors(findings))
    # Auto-sized (replay_depth=0) and explicitly-large buffers are fine.
    for depth in (0, 64):
        config = MultiRingConfig(
            reliability=LinkReliabilityConfig(replay_depth=depth))
        assert "replay-buffer-too-small" not in rules(
            validate_spec(spec, config))


def test_reliability_without_l2_bridge_warns():
    spec, _ = single_ring_topology(6)
    config = MultiRingConfig(reliability=LinkReliabilityConfig())
    findings = validate_spec(spec, config)
    assert "reliability-without-l2" in rules(findings)
    assert errors(findings) == []


def test_scenario_reliability_section_validated():
    spec, _, _ = chiplet_pair()
    raw = {"topology": topology_to_dict(spec),
           "config": {"reliability": {"enable_crc": False}}}
    assert "retry-without-crc" in rules(validate_scenario(raw))
    raw["config"]["reliability"] = {"enable_crcc": True}
    assert "unknown-config-key" in rules(validate_scenario(raw))
    raw["config"]["reliability"] = {"retry_limit": -2}
    assert "bad-threshold" in rules(validate_scenario(raw))
    raw["config"]["reliability"] = "yes please"
    assert "unknown-config-key" in rules(validate_scenario(raw))


def test_scenario_faults_section_validated():
    spec, _, _ = chiplet_pair()
    base = topology_to_dict(spec)
    l2_id = base["bridges"][0]["bridge_id"]

    raw = {"topology": base,
           "faults": [{"model": "bit-error", "rate": 1e-3}]}
    assert validate_scenario(raw) == []

    raw["faults"] = [{"model": "bit-flipper", "rate": 1e-3}]
    assert "unknown-fault-model" in rules(validate_scenario(raw))

    raw["faults"] = [{"model": "bit-error", "rate": 1e-3,
                      "bridge": l2_id + 999}]
    assert "fault-on-non-l2-bridge" in rules(validate_scenario(raw))

    raw["faults"] = "not-a-list"
    assert "unknown-fault-model" in rules(validate_scenario(raw))


def test_fault_targeting_l1_bridge_detected():
    layout = grid_of_rings(2, 2, 2, 2)  # local<->trunk bridges are L1
    base = topology_to_dict(layout.topology)
    l1 = next(b for b in base["bridges"] if b["level"] == 1)
    raw = {"topology": base,
           "faults": [{"model": "bit-error", "rate": 1e-3,
                       "bridge": l1["bridge_id"]}]}
    assert "fault-on-non-l2-bridge" in rules(validate_scenario(raw))
    # Untargeted faults on a topology with no L2 bridge at all.
    spec, _ = single_ring_topology(6)
    raw = {"topology": topology_to_dict(spec),
           "faults": [{"model": "bit-error", "rate": 1e-3}]}
    assert "fault-on-non-l2-bridge" in rules(validate_scenario(raw))


def test_fault_model_bad_parameters_detected():
    spec, _, _ = chiplet_pair()
    raw = {"topology": topology_to_dict(spec),
           "faults": [{"model": "bit-error", "ratee": 1e-3}]}
    assert "unknown-fault-model" in rules(validate_scenario(raw))


# -- property-based: random valid topologies are accepted ------------------


@st.composite
def valid_topologies(draw):
    """A random grid-of-rings (always valid by construction)."""
    n_v = draw(st.integers(min_value=1, max_value=4))
    n_h = draw(st.integers(min_value=1, max_value=4))
    devices = draw(st.integers(min_value=1, max_value=5))
    memory = draw(st.integers(min_value=1, max_value=5))
    spacing = draw(st.integers(min_value=1, max_value=3))
    layout = grid_of_rings(n_v, n_h, devices, memory, stop_spacing=spacing)
    return topology_to_dict(layout.topology)


@settings(max_examples=40, deadline=None)
@given(raw=valid_topologies())
def test_random_valid_topologies_accepted(raw):
    assert validate_topology_dict(raw) == []


@settings(max_examples=40, deadline=None)
@given(raw=valid_topologies(), data=st.data())
def test_random_dangled_bridge_always_caught(raw, data):
    if not raw["bridges"]:
        return
    bridge = data.draw(st.sampled_from(raw["bridges"]))
    how = data.draw(st.sampled_from(["ring_a", "ring_b", "stop_a", "stop_b"]))
    if how.startswith("ring"):
        bridge[how] = 10_000 + data.draw(st.integers(0, 100))
    else:
        ring_key = "ring_a" if how == "stop_a" else "ring_b"
        nstops = next(r["nstops"] for r in raw["rings"]
                      if r["ring_id"] == bridge[ring_key])
        bridge[how] = nstops + data.draw(st.integers(0, 100))
    assert "dangling-bridge-endpoint" in rules(validate_topology_dict(raw))


@settings(max_examples=40, deadline=None)
@given(raw=valid_topologies(), data=st.data())
def test_random_dangled_node_always_caught(raw, data):
    placement = data.draw(st.sampled_from(raw["nodes"]))
    if data.draw(st.booleans()):
        placement["ring"] = 10_000
    else:
        nstops = next(r["nstops"] for r in raw["rings"]
                      if r["ring_id"] == placement["ring"])
        placement["stop"] = nstops + data.draw(st.integers(0, 100))
    assert "dangling-node" in rules(validate_topology_dict(raw))


@settings(max_examples=20, deadline=None)
@given(raw=valid_topologies(), period=st.integers(min_value=0, max_value=8))
def test_random_config_swap_rule(raw, period):
    scenario = {"topology": raw,
                "config": {"enable_swap": False,
                           "escape_slot_period": period}}
    findings = validate_scenario(scenario)
    has_l2 = any(b["level"] == 2 for b in raw["bridges"])
    expect = has_l2 and period == 0
    assert ("swap-disabled-interchiplet-cycle" in rules(findings)) == expect
