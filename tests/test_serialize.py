"""Tests for topology (de)serialization and the ASCII description."""

import io

import pytest

from repro.core import chiplet_pair, grid_of_rings, single_ring_topology
from repro.core.serialize import (
    describe_topology,
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.cpu.package import build_server_system


def roundtrip(spec):
    buffer = io.StringIO()
    save_topology(spec, buffer)
    buffer.seek(0)
    return load_topology(buffer)


def test_single_ring_roundtrip():
    spec, _ = single_ring_topology(6, stop_spacing=2)
    loaded = roundtrip(spec)
    assert loaded.rings == spec.rings
    assert loaded.nodes == spec.nodes
    assert loaded.bridges == spec.bridges


def test_chiplet_pair_roundtrip_preserves_link_latency():
    spec, _, _ = chiplet_pair(link_latency=13)
    loaded = roundtrip(spec)
    assert loaded.bridges[0].link_latency == 13
    assert loaded.bridges[0].level == 2


def test_grid_roundtrip_with_lane_overrides():
    layout = grid_of_rings(2, 2, 2, 2, hring_lanes=3)
    loaded = roundtrip(layout.topology)
    hrings = [r for r in loaded.rings if r.ring_id >= 100]
    assert all(r.lanes == 3 for r in hrings)


def test_server_package_roundtrip_builds_identical_fabric():
    fabric, placement, _ = build_server_system("multiring")
    loaded = roundtrip(fabric.topology)
    from repro.core.network import MultiRingFabric
    rebuilt = MultiRingFabric(loaded)
    assert sorted(rebuilt.nodes()) == sorted(fabric.nodes())
    assert len(rebuilt.bridges) == len(fabric.bridges)


def test_version_mismatch_rejected():
    spec, _ = single_ring_topology(3)
    raw = topology_to_dict(spec)
    raw["version"] = 99
    with pytest.raises(ValueError, match="version"):
        topology_from_dict(raw)


def test_invalid_topology_rejected_on_load():
    spec, _ = single_ring_topology(3)
    raw = topology_to_dict(spec)
    raw["nodes"].append({"node": 0, "ring": 0, "stop": 1})  # duplicate id
    with pytest.raises(ValueError, match="duplicate"):
        topology_from_dict(raw)


def test_describe_topology_shape():
    spec, _, _ = chiplet_pair(nodes_per_ring=3)
    text = describe_topology(spec)
    assert "2 rings" in text
    assert "B0*" in text             # the RBRG-L2 marked with a star
    assert text.count("ring") >= 2
    # Strips have one character per stop.
    for line, ring in zip(text.splitlines()[1:], spec.rings):
        strip = line[line.index("[") + 1:line.index("]")]
        assert len(strip) == ring.nstops


# -- config round-trip ----------------------------------------------------


def test_config_roundtrip_preserves_every_knob():
    from repro.core.config import MultiRingConfig
    from repro.core.serialize import config_from_dict, config_to_dict
    from repro.params import QueueParams

    config = MultiRingConfig(
        engine="dense",
        bridge_route_penalty=3,
        escape_slot_period=7,
        queues=QueueParams(inject_queue_depth=5),
    )
    rebuilt = config_from_dict(config_to_dict(config))
    assert rebuilt == config
    assert rebuilt.engine == "dense" and rebuilt.bridge_route_penalty == 3
    assert rebuilt.queues.inject_queue_depth == 5


def test_config_dict_rejects_unknown_keys_and_reliability():
    import pytest

    from repro.core.config import MultiRingConfig
    from repro.core.serialize import config_from_dict, config_to_dict

    raw = config_to_dict(MultiRingConfig())
    raw["enginee"] = "ref"  # typo'd knob must not become a default
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict(raw)

    class FakeReliability:
        pass

    config = MultiRingConfig()
    config.reliability = FakeReliability()
    with pytest.raises(ValueError, match="reliability"):
        config_to_dict(config)


def test_config_dict_defaults_missing_keys():
    """Old saves keep loading as knobs are added."""
    from repro.core.config import MultiRingConfig
    from repro.core.serialize import config_from_dict, config_to_dict

    raw = config_to_dict(MultiRingConfig())
    raw.pop("engine")
    raw.pop("bridge_route_penalty")
    rebuilt = config_from_dict(raw)
    assert rebuilt == MultiRingConfig()


def test_config_dict_drops_retired_keys():
    """Saves written while the parallel stepper, the ``fast_path``
    alias and the auto-selector knobs existed keep loading."""
    from repro.core.config import RETIRED_CONFIG_KEYS, MultiRingConfig
    from repro.core.serialize import config_from_dict, config_to_dict

    raw = config_to_dict(MultiRingConfig(engine="skip"))
    assert not RETIRED_CONFIG_KEYS & set(raw)
    raw.update(parallel_step=True, parallel_workers=3, parallel_window=4,
               fast_path=False, engine_check_every=16,
               dense_enter_occupancy=0.3, dense_exit_occupancy=0.05)
    assert config_from_dict(raw) == MultiRingConfig(engine="skip")
