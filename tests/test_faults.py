"""Units for the fault-injection subsystem and reliable D2D link layer.

Campaign-style end-to-end tests live in ``test_failure_injection.py``;
this file covers the pieces: fault models, CRC sealing, the link-layer
protocol state machine, the progress watchdog, and drop accounting
against the conservation invariant.
"""

import pytest

from repro.core import MultiRingFabric, chiplet_pair, grid_of_rings
from repro.core.config import MultiRingConfig
from repro.core.flit import Flit, _crc16
from repro.core.routing import Hop
from repro.fabric.message import Message, MessageKind
from repro.fabric.stats import FabricStats
from repro.faults import (
    BitErrorModel,
    BridgeStallModel,
    BurstErrorModel,
    D2DLink,
    FaultInjector,
    FaultStats,
    LaneFailureModel,
    LinkReliabilityConfig,
    NoProgressError,
    ProgressWatchdog,
    StuckTxModel,
    model_from_dict,
)
from repro.params import QueueParams
from repro.sim.rng import make_rng
from repro.testing import inject_all, run_to_drain, uniform_messages


def cross_traffic(ring0, ring1, count, seed=0):
    msgs = uniform_messages(ring0, ring1, count // 2, seed=seed ^ 1)
    msgs += uniform_messages(ring1, ring0, count - count // 2, seed=seed ^ 2)
    return msgs


def pair_fabric(reliability=None, **config_kwargs):
    topo, ring0, ring1 = chiplet_pair(nodes_per_ring=4)
    fabric = MultiRingFabric(topo, MultiRingConfig(
        reliability=reliability, **config_kwargs))
    return fabric, ring0, ring1


# -- configuration validation ---------------------------------------------


def test_reliability_config_rejects_garbage():
    with pytest.raises(ValueError):
        LinkReliabilityConfig(retry_limit=-1)
    with pytest.raises(ValueError):
        LinkReliabilityConfig(replay_depth=-2)
    with pytest.raises(ValueError):
        LinkReliabilityConfig(ack_latency=-1)


def test_replay_depth_auto_sizes_to_round_trip():
    rel = LinkReliabilityConfig()
    assert rel.round_trip(8) == 8 + 8 + 2
    assert rel.effective_replay_depth(8) == 18
    assert rel.effective_replay_depth(0) == 2  # floor
    explicit = LinkReliabilityConfig(replay_depth=5)
    assert explicit.effective_replay_depth(8) == 5
    asymmetric = LinkReliabilityConfig(ack_latency=2)
    assert asymmetric.round_trip(8) == 12


def test_fault_model_parameter_validation():
    with pytest.raises(ValueError):
        BitErrorModel(1.5)
    with pytest.raises(ValueError):
        BurstErrorModel(0.1, burst_len=0)
    with pytest.raises(ValueError):
        LaneFailureModel(fail_cycle=10, recover_cycle=5)
    with pytest.raises(ValueError):
        StuckTxModel(start_cycle=0, duration=0)
    with pytest.raises(ValueError):
        BridgeStallModel(period=4, duration=4)


def test_model_from_dict_round_trip_and_errors():
    model = model_from_dict({"model": "bit-error", "rate": 1e-3})
    assert isinstance(model, BitErrorModel) and model.rate == 1e-3
    with pytest.raises(ValueError, match="unknown fault model"):
        model_from_dict({"model": "gamma-ray"})
    with pytest.raises(ValueError, match="bad parameters"):
        model_from_dict({"model": "bit-error", "rate": 0.1, "phase": 3})


def test_bound_models_are_independent_copies():
    proto = BurstErrorModel(1.0, burst_len=2)
    a = proto.bound(make_rng(1))
    b = proto.bound(make_rng(2))
    assert a.corrupts(0)  # starts a burst, mutates a._remaining
    assert a._remaining == 1
    assert b._remaining == 0
    assert proto.rng is None


# -- CRC sealing -----------------------------------------------------------


def make_flit(msg_id=1):
    msg = Message(src=0, dst=1, kind=MessageKind.DATA, msg_id=msg_id)
    return Flit(msg, [Hop(ring=0, exit_stop=1, port_key=("node", 1))])


def test_crc_seals_and_detects_header_mutation():
    flit = make_flit()
    assert not flit.crc_valid()  # never sealed
    flit.seal_crc()
    assert flit.crc_valid()
    flit.msg.msg_id += 1  # header mutated in flight
    assert not flit.crc_valid()


def test_crc16_sensitivity():
    base = _crc16(1, 2, 3, 0)
    assert base == _crc16(1, 2, 3, 0)
    assert base != _crc16(1, 2, 3, 1)
    assert base != _crc16(2, 1, 3, 0)


# -- D2DLink protocol units ------------------------------------------------


class _SinkPort:
    """Stand-in for the peer Inject Queue."""

    def __init__(self):
        self.inject_full = False
        self.received = []

    def enqueue_inject(self, flit):
        self.received.append(flit)


def make_link(reliability=None, latency=2, models=()):
    stats = FabricStats()
    faults = FaultStats()
    link = D2DLink("test", latency, reliability or LinkReliabilityConfig(),
                   stats, faults)
    for model in models:
        link.models.append(model)
    return link, stats, faults


def run_link(link, port, flits, cycles):
    """Drive the link the way the bridge does, sending ``flits`` asap."""
    pending = list(flits)
    for cycle in range(cycles):
        link.begin_cycle(cycle)
        link.process_acks(cycle)
        link.deliver(cycle, port)
        if link.ready(cycle) and not link.try_retransmit(cycle):
            if pending and link.can_send_new():
                link.send_new(cycle, pending.pop(0))
    return pending


def test_clean_link_delivers_in_order():
    link, stats, faults = make_link()
    port = _SinkPort()
    flits = [make_flit(i) for i in range(5)]
    leftover = run_link(link, port, flits, 40)
    assert leftover == []
    assert [f.msg.msg_id for f in port.received] == [0, 1, 2, 3, 4]
    assert faults.injected == 0 and stats.dropped == 0
    assert link.occupancy() == 0


def test_corrupted_flit_recovers_via_replay():
    link, stats, faults = make_link(
        models=[StuckTxModel(start_cycle=100)])  # inert until cycle 100
    # Corrupt exactly the first traversal with a one-shot burst model.
    burst = BurstErrorModel(1.0, burst_len=1).bound(make_rng(0))
    burst.start_rate = 0.0  # after binding: burst never re-arms
    burst._remaining = 1
    link.models.append(burst)
    port = _SinkPort()
    leftover = run_link(link, port, [make_flit(7)], 60)
    assert leftover == []
    assert [f.msg.msg_id for f in port.received] == [7]
    assert faults.injected == 1
    assert faults.detected == 1
    assert faults.retried == 1
    assert faults.recovered == 1
    assert faults.retry_latency and faults.retry_latency[0] > 0
    assert stats.dropped == 0
    assert link.occupancy() == 0


def test_retry_budget_exhaustion_drops_loudly():
    link, stats, faults = make_link(
        reliability=LinkReliabilityConfig(retry_limit=2),
        models=[BitErrorModel(1.0).bound(make_rng(0))])
    port = _SinkPort()
    run_link(link, port, [make_flit(9)], 80)
    assert port.received == []
    assert faults.dropped == 1
    assert stats.dropped == 1
    assert faults.retried == 2  # budget fully spent first
    assert link.occupancy() == 0
    assert any(event == "dropped" for _, event, _ in faults.log)


def test_no_retry_mode_drops_on_first_detection():
    link, stats, faults = make_link(
        reliability=LinkReliabilityConfig(enable_retry=False),
        models=[BitErrorModel(1.0).bound(make_rng(0))])
    port = _SinkPort()
    run_link(link, port, [make_flit(3)], 20)
    assert faults.detected == 1 and faults.retried == 0
    assert stats.dropped == 1


def test_crc_disabled_delivers_corruption_undetected():
    link, stats, faults = make_link(
        reliability=LinkReliabilityConfig(enable_crc=False,
                                          enable_retry=False),
        models=[BitErrorModel(1.0).bound(make_rng(0))])
    port = _SinkPort()
    run_link(link, port, [make_flit(4)], 20)
    assert [f.msg.msg_id for f in port.received] == [4]
    assert faults.undetected == 1
    assert port.received[0].corrupt_bits == 1
    assert stats.dropped == 0


def test_replay_buffer_full_backpressures_new_sends():
    rel = LinkReliabilityConfig(replay_depth=2, ack_latency=50)
    link, _, _ = make_link(reliability=rel, latency=1)
    port = _SinkPort()
    # Acks take 50 cycles, so after 2 sends the replay buffer is full.
    leftover = run_link(link, port, [make_flit(i) for i in range(4)], 10)
    assert len(link.replay) == 2
    assert len(leftover) == 2
    assert not link.can_send_new()


def test_full_peer_queue_counts_link_stalls():
    link, stats, _ = make_link()
    port = _SinkPort()
    port.inject_full = True
    run_link(link, port, [make_flit(1)], 20)
    assert port.received == []
    assert stats.link_stall_cycles > 0


def test_degraded_lane_renegotiates_instead_of_dropping():
    model = LaneFailureModel(fail_cycle=0, interval=3, extra_latency=5)
    link, stats, faults = make_link(models=[model.bound(make_rng(0))],
                                    latency=2)
    port = _SinkPort()
    leftover = run_link(link, port, [make_flit(i) for i in range(4)], 60)
    assert leftover == []
    assert len(port.received) == 4
    assert faults.lane_events == 1
    assert stats.dropped == 0
    assert link.latency == 7 and link.interval == 3


def test_lane_recovery_restores_base_latency():
    model = LaneFailureModel(fail_cycle=2, recover_cycle=10)
    link, _, faults = make_link(models=[model.bound(make_rng(0))], latency=2)
    port = _SinkPort()
    run_link(link, port, [], 20)
    assert not link.degraded
    assert link.latency == 2 and link.interval == 1
    events = [event for _, event, _ in faults.log]
    assert events == ["lane-degraded", "lane-recovered"]


# -- injector wiring -------------------------------------------------------


def test_injector_rejects_l1_and_unknown_bridges():
    layout = grid_of_rings(2, 2, 2, 2)  # RBRG-L1 everywhere, no L2
    fabric = MultiRingFabric(layout.topology)
    with pytest.raises(ValueError, match="non-L2"):
        FaultInjector().add(BitErrorModel(0.1), bridge=0).install(fabric)
    fabric = MultiRingFabric(layout.topology)
    with pytest.raises(ValueError, match="unknown"):
        FaultInjector().add(BitErrorModel(0.1), bridge=99).install(fabric)
    fabric = MultiRingFabric(layout.topology)
    with pytest.raises(ValueError, match="no RBRG-L2"):
        FaultInjector().add(BitErrorModel(0.1)).install(fabric)


def test_injector_installs_once_and_enables_link_layer():
    fabric, _, _ = pair_fabric()
    injector = FaultInjector(seed=1).add(BitErrorModel(0.1))
    faults = fabric.attach_fault_injector(injector)
    assert fabric.stats.faults is faults
    bridge = fabric.bridges[0]
    assert len(bridge.links) == 2
    assert all(len(link.models) == 1 for link in bridge.links)
    with pytest.raises(RuntimeError, match="already installed"):
        injector.install(fabric)


def test_enable_link_layer_refuses_mid_traffic():
    fabric, ring0, ring1 = pair_fabric()
    msgs = cross_traffic(ring0, ring1, 8)
    for msg in msgs:
        fabric.try_inject(msg)
    bridge = fabric.bridges[0]
    cycle = 0
    while bridge.occupancy() == 0:  # step until a flit sits in the bridge
        assert cycle < 500, "traffic never reached the bridge"
        fabric.step(cycle)
        cycle += 1
    with pytest.raises(RuntimeError, match="before traffic"):
        bridge.enable_link_layer()


def test_bridge_stall_model_freezes_the_bridge():
    fabric, ring0, ring1 = pair_fabric()
    fabric.attach_fault_injector(
        FaultInjector(seed=0).add(BridgeStallModel(period=4, duration=2)))
    msgs = cross_traffic(ring0, ring1, 30)
    cycle = inject_all(fabric, msgs)
    run_to_drain(fabric, cycle)
    faults = fabric.stats.faults
    assert faults.bridge_stall_cycles > 0
    assert fabric.stats.delivered == 30


# -- watchdog --------------------------------------------------------------


def test_watchdog_fires_after_patience():
    dog = ProgressWatchdog(progress=lambda: (0,), active=lambda: True,
                           patience=5, diagnostic=lambda: "dump here")
    for cycle in range(5):
        dog.observe(cycle)
    with pytest.raises(NoProgressError) as info:
        dog.observe(5)
    assert info.value.stalled_for == 5
    assert "dump here" in str(info.value)


def test_watchdog_resets_on_progress_and_inactivity():
    state = {"sig": 0, "active": True}
    dog = ProgressWatchdog(progress=lambda: (state["sig"],),
                           active=lambda: state["active"], patience=3)
    for cycle in range(10):  # signature changes every cycle: never fires
        state["sig"] = cycle
        dog.observe(cycle)
    state["active"] = False
    for cycle in range(10, 20):  # inactive: stall clock resets
        dog.observe(cycle)
    state["active"] = True
    dog.observe(20)
    dog.observe(21)
    with pytest.raises(NoProgressError):
        for cycle in range(22, 30):
            dog.observe(cycle)


def test_black_holed_link_raises_diagnostic_not_hang():
    """A forever-stuck Tx wedges the fabric; the watchdog must convert
    that into a NoProgressError carrying the full state dump."""
    fabric, ring0, ring1 = pair_fabric()
    fabric.attach_fault_injector(
        FaultInjector(seed=0).add(StuckTxModel(start_cycle=0)))
    msgs = cross_traffic(ring0, ring1, 10)
    with pytest.raises(NoProgressError) as info:
        cycle = inject_all(fabric, msgs, max_cycles=5000)
        run_to_drain(fabric, cycle, patience=600)
    exc = info.value
    assert "wedged" in str(exc)
    assert "bridge 0" in exc.diagnostic
    assert "link bridge0:" in exc.diagnostic
    assert "faults:" in exc.diagnostic
    assert fabric.stats.faults.tx_stuck_cycles > 0


def test_simulator_run_until_accepts_watchdog():
    from repro.sim.engine import Simulator

    sim = Simulator()
    dog = ProgressWatchdog(progress=lambda: (0,), active=lambda: True,
                           patience=3)
    with pytest.raises(NoProgressError):
        sim.run_until(lambda: False, max_cycles=100, watchdog=dog)
    assert sim.cycle <= 10


# -- drop accounting vs the conservation invariant -------------------------


def test_conservation_holds_with_loud_drops():
    """stats.in_flight excludes dropped flits, so the per-cycle
    conservation probe stays clean while the link sheds traffic."""
    fabric, ring0, ring1 = pair_fabric(
        reliability=LinkReliabilityConfig(retry_limit=0))
    fabric.attach_fault_injector(
        FaultInjector(seed=2).add(BitErrorModel(1.0)))
    checker = fabric.attach_invariant_checker()
    msgs = cross_traffic(ring0, ring1, 20)
    cycle = inject_all(fabric, msgs)
    run_to_drain(fabric, cycle)
    assert fabric.stats.dropped == 20
    assert fabric.stats.delivered == 0
    assert fabric.stats.in_flight == 0
    assert checker.checks_run > 0


def test_legacy_l2_link_counts_backpressure_stalls():
    """Without the link layer, a full peer Inject Queue used to stall the
    link head silently; now the stall cycles are counted."""
    queues = QueueParams(inject_queue_depth=2, eject_queue_depth=2,
                         bridge_rx_depth=2, bridge_tx_depth=2,
                         bridge_reserved_tx=2, swap_detect_threshold=32)
    topo, ring0, ring1 = chiplet_pair(nodes_per_ring=4, stop_spacing=1)
    fabric = MultiRingFabric(topo, MultiRingConfig(
        queues=queues, eject_drain_per_cycle=1))
    assert fabric.bridges[0].links == []  # baseline pipe in play
    rng = make_rng(3)
    for cycle in range(600):
        for src in ring0:
            fabric.try_inject(Message(src=src, dst=rng.choice(ring1),
                                      kind=MessageKind.DATA,
                                      created_cycle=cycle))
        for src in ring1:
            fabric.try_inject(Message(src=src, dst=rng.choice(ring0),
                                      kind=MessageKind.DATA,
                                      created_cycle=cycle))
        fabric.step(cycle)
    assert fabric.stats.link_stall_cycles > 0


# -- CLI -------------------------------------------------------------------


def test_faults_cli_smoke(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "campaign.json"
    code = main(["faults", "--messages", "30", "--rates", "0,0.01",
                 "--retry-limits", "8", "--json", str(out),
                 "--require-zero-drops"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "zero drops" in captured
    import json
    records = json.loads(out.read_text())
    assert len(records) == 2
    assert all(r["dropped"] == 0 for r in records)


def test_faults_cli_detects_drops(capsys):
    from repro.cli import main

    # retry budget 0 at a high error rate must drop and fail the gate
    code = main(["faults", "--messages", "30", "--rates", "0.5",
                 "--retry-limits", "0", "--require-zero-drops"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().err


def test_faults_cli_prefilter_skips_doomed_replay_depths(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "campaign.json"
    code = main(["faults", "--messages", "20", "--rates", "0",
                 "--retry-limits", "8", "--replay-depths", "0,4",
                 "--prefilter", "--json", str(out),
                 "--require-zero-drops"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "prefilter: statically skipped 1/2" in captured
    assert "SKIPPED" in captured
    import json
    records = json.loads(out.read_text())
    skipped = [r for r in records if r.get("skipped")]
    assert len(skipped) == 1
    assert "replay" in skipped[0]["skip_reason"]
    # The surviving auto-sized point actually ran and delivered.
    survivors = [r for r in records if not r.get("skipped")]
    assert survivors and all(r["dropped"] == 0 for r in survivors)


@pytest.mark.parametrize("argv, code, stream, expected", [
    # BER sweep on the D2D link must deliver everything.
    (["--messages", "120", "--rates", "0,1e-4,1e-3", "--retry-limits", "8",
      "--require-zero-drops"],
     0, "out", "all points delivered every message (zero drops)"),
    # Statically-doomed replay depths are pruned before dispatch.
    (["--messages", "60", "--rates", "0,1e-4", "--retry-limits", "8",
      "--replay-depths", "0,4", "--prefilter", "--require-zero-drops"],
     0, "out", "prefilter: statically skipped 2/4 point(s)"),
    # An exhausted retry budget is detected as drops.
    (["--messages", "40", "--rates", "0.5", "--retry-limits", "0",
      "--require-zero-drops"],
     1, "err", "FAIL ber0.5-retry0: dropped"),
], ids=["zero-drops", "prefilter", "exhausted-retry"])
def test_faults_cli_gate_exit_codes(argv, code, stream, expected, capsys):
    from repro.cli import main

    assert main(["faults"] + argv) == code
    assert expected in getattr(capsys.readouterr(), stream)


def test_format_campaign_renders_skip_rows():
    from repro.faults.campaign import format_campaign

    rows = format_campaign([
        {"point": "ber1e-4-retry8-replay4", "skipped": True,
         "skip_reason": "[replay-buffer-too-small] depth 4 < 18"},
    ])
    assert "SKIPPED" in rows and "replay-buffer-too-small" in rows


def test_campaign_points_carry_replay_depth_and_stable_names():
    from repro.faults.campaign import campaign_points

    points = campaign_points([0.0], [8], 10, replay_depths=(0, 4))
    names = [p.name for p in points]
    # Historical names (replay_depth 0) are unchanged; nonzero depths
    # get a suffix so baselines stay comparable.
    assert not names[0].endswith("-replay0")
    assert names[1].endswith("-replay4")
    assert all(p.as_dict()["replay_depth"] in (0, 4) for p in points)
