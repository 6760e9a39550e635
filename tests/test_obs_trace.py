"""Flit-level tracing (repro.obs): schema, exporters, and the contract
that fast-path and reference stepping emit byte-identical event streams."""

import copy
import io
import json

import pytest

from repro.core import MultiRingFabric, chiplet_pair
from repro.core.config import MultiRingConfig
from repro.core.topology import tiny_pair
from repro.cpu.package import build_server_system
from repro.fabric import Message
from repro.fabric.stats import FabricStats
from repro.obs import (
    EVENT_KINDS,
    NULL_TRACE,
    TraceRecorder,
    events_to_jsonl,
    read_jsonl,
    validate_event_stream,
    write_chrome_trace,
    write_jsonl,
)
from repro.sim.rng import make_rng


def _drive(fabric, cycles=600, inject_until=300, seed=42):
    """Deterministic random traffic, identical for any stepping mode."""
    rng = make_rng(seed)
    nodes = fabric.nodes()
    mid = 0
    for cycle in range(cycles):
        if cycle < inject_until and rng.random() < 0.5:
            src = nodes[rng.randrange(len(nodes))]
            dst = nodes[rng.randrange(len(nodes))]
            if src != dst:
                fabric.try_inject(Message(src=src, dst=dst,
                                          created_cycle=cycle, msg_id=mid))
                mid += 1
        fabric.step(cycle)


def _traced_run(build, engine):
    fabric = build(engine)
    recorder = fabric.attach_trace_recorder()
    _drive(fabric)
    return fabric, recorder


def _build_pair(engine):
    topo, _, _ = chiplet_pair()
    return MultiRingFabric(topo, MultiRingConfig(engine=engine))


def _build_tiny(engine):
    topo, _, _ = tiny_pair()
    return MultiRingFabric(topo, MultiRingConfig(engine=engine))


def _build_server(engine):
    fabric, _, _ = build_server_system(
        "multiring", ring_config=MultiRingConfig(engine=engine))
    return fabric


# -- schema ----------------------------------------------------------------


def test_traced_tiny_pair_stream_validates():
    fabric, recorder = _traced_run(_build_tiny, engine="auto")
    events = recorder.sorted_events()
    assert fabric.stats.delivered > 0
    assert events, "a delivering run must produce events"
    assert validate_event_stream(events) == []
    assert {event[1] for event in events} <= set(EVENT_KINDS)


def test_validator_flags_bad_events():
    assert validate_event_stream([(0, "teleport", 1, 0, 0, "")])
    assert validate_event_stream([(-1, "eject", 1, 0, 0, "port=node:0")])
    assert validate_event_stream([(0, "bridge-enter", 1, -1, -1, "")])
    out_of_order = [(5, "eject", 1, 0, 0, "port=node:0"),
                    (4, "eject", 2, 0, 0, "port=node:0")]
    assert any("canonical order" in e for e in
               validate_event_stream(out_of_order))


# -- fast/reference equivalence -------------------------------------------


@pytest.mark.parametrize("build", [_build_tiny, _build_pair, _build_server],
                         ids=["tiny_pair", "chiplet_pair", "server"])
def test_fast_and_reference_streams_byte_identical(build):
    fast_fabric, fast_rec = _traced_run(build, engine="auto")
    ref_fabric, ref_rec = _traced_run(build, engine="ref")
    assert fast_fabric.stats.delivered > 0
    assert events_to_jsonl(fast_rec.sorted_events()) == \
        events_to_jsonl(ref_rec.sorted_events())
    assert fast_fabric.stats == ref_fabric.stats


def test_tracing_does_not_perturb_stats():
    traced_fabric, _ = _traced_run(_build_pair, engine="auto")
    plain = _build_pair("auto")
    _drive(plain)
    # FabricStats equality ignores the recorder, so this compares every
    # counter and latency sample of the traced run against the untraced one.
    assert traced_fabric.stats == plain.stats


# -- recorder behaviour ----------------------------------------------------


def test_kind_filtering():
    fabric = _build_tiny("auto")
    recorder = fabric.attach_trace_recorder(kinds=("eject",))
    _drive(fabric)
    events = recorder.sorted_events()
    assert events and all(event[1] == "eject" for event in events)


def test_recorder_limit_counts_dropped_events():
    fabric = _build_tiny("auto")
    recorder = fabric.attach_trace_recorder(limit=5)
    _drive(fabric)
    assert len(recorder) == 5
    assert recorder.dropped_events > 0


def test_null_trace_is_default_and_survives_deepcopy():
    stats = FabricStats()
    assert stats.trace is NULL_TRACE
    assert not stats.trace.enabled
    assert copy.deepcopy(stats).trace is NULL_TRACE


def test_recorder_clear():
    recorder = TraceRecorder()
    recorder.emit(0, "eject", 1, 0, 0, "port=node:0")
    assert len(recorder) == 1
    recorder.clear()
    assert len(recorder) == 0


# -- exporters -------------------------------------------------------------


def test_jsonl_roundtrip():
    _, recorder = _traced_run(_build_pair, engine="auto")
    events = recorder.sorted_events()
    fh = io.StringIO()
    assert write_jsonl(events, fh) == len(events)
    fh.seek(0)
    assert read_jsonl(fh) == events


def test_chrome_trace_loads_with_ring_and_bridge_tracks():
    _, recorder = _traced_run(_build_pair, engine="auto")
    fh = io.StringIO()
    written = write_chrome_trace(recorder.sorted_events(), fh)
    assert written > 0
    doc = json.loads(fh.getvalue())
    events = doc["traceEvents"]
    names = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert any(name.startswith("ring") for name in names)
    assert any(name.startswith("bridge") for name in names)
    instants = [e for e in events if e["ph"] == "i"]
    assert len(instants) == written
    assert all(isinstance(e["ts"], int) for e in instants)
