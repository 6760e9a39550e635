"""Bounded model checker + counterexample replay acceptance.

The expensive exhaustive runs carry the ``model_check`` marker so CI can
schedule them separately (``-m model_check`` / ``-m "not model_check"``).
"""

import pytest

from repro.core.config import MultiRingConfig
from repro.core.topology import tiny_pair
from repro.faults.link import LinkReliabilityConfig
from repro.verify import (
    Counterexample,
    ModelChecker,
    build_model_fabric,
    clone_fabric,
    encode_state,
    replay_counterexample,
    verify_pair_system,
)
from repro.fabric.message import Message


def test_build_model_fabric_rejects_reliable_link():
    spec, _, _ = tiny_pair()
    config = MultiRingConfig(reliability=LinkReliabilityConfig())
    with pytest.raises(ValueError, match="baseline link"):
        build_model_fabric(spec, config)


def test_encode_state_distinguishes_occupancy():
    spec, config, _ = verify_pair_system()
    a = build_model_fabric(spec, config)
    b = build_model_fabric(spec, config)
    a.try_inject(Message(src=0, dst=2, payload=None))
    b.try_inject(Message(src=0, dst=2, payload=None))
    b.try_inject(Message(src=1, dst=3, payload=None))
    assert encode_state(a, 0) != encode_state(b, 0)


def test_encode_state_is_message_id_invariant():
    """The same configuration reached via different msg ids is one state."""
    spec, config, _ = verify_pair_system()
    a = build_model_fabric(spec, config)
    b = build_model_fabric(spec, config)
    # Fabric b consumes extra message ids via rejected/extra injections
    # before reaching the same occupancy as a.
    for _ in range(3):
        b.try_inject(Message(src=1, dst=3, payload=None))
    for cycle in range(64):
        b.step(cycle)
    assert b.occupancy() == 0
    a.try_inject(Message(src=0, dst=2, payload=None))
    b.try_inject(Message(src=0, dst=2, payload=None))
    assert encode_state(a, 0) == encode_state(b, 0)


def test_clone_is_independent():
    spec, config, _ = verify_pair_system()
    fab = build_model_fabric(spec, config)
    fab.try_inject(Message(src=0, dst=2, payload=None))
    clone = clone_fabric(fab)
    before = encode_state(fab, 0)
    assert encode_state(clone, 0) == before
    assert clone.topology is fab.topology
    assert clone.config is fab.config
    for cycle in range(5):
        clone.step(cycle)
    assert encode_state(fab, 0) == before, "stepping the clone mutated it"


def test_budget_cap_reports_bounded():
    spec, config, pairs = verify_pair_system()
    result = ModelChecker(spec, config, pairs, max_states=20,
                          max_in_flight=4, liveness=False).run()
    assert result.budget_hit
    assert not result.exhaustive
    assert result.states <= 21


@pytest.mark.model_check
def test_healthy_pair_is_exhaustively_clean():
    """Acceptance: one-lap deflection bound + SWAP liveness proven on the
    2-ring/1-bridge testbench, exhaustively within the in-flight bound."""
    spec, config, pairs = verify_pair_system()
    result = ModelChecker(spec, config, pairs, max_states=5000,
                          max_in_flight=2, liveness=True).run()
    assert result.ok
    assert result.exhaustive
    assert result.drain_inconclusive == 0
    assert result.states > 500


@pytest.mark.model_check
def test_no_swap_counterexample_replays_in_both_modes():
    """Acceptance: SWAP disabled => the checker finds a violating path
    and the real simulator reproduces it on the skip and ref engines."""
    spec, config, pairs = verify_pair_system(no_swap=True)
    result = ModelChecker(spec, config, pairs, max_states=5000,
                          max_in_flight=24, liveness=False).run()
    assert len(result.violations) == 1
    violation = result.violations[0]
    assert violation.kind == "safety"
    assert violation.rule == "deflection-bound"
    assert len(violation.schedule) == violation.cycle + 1

    ce = Counterexample.from_violation(violation, spec, config)
    for engine in ("skip", "ref"):
        replay = replay_counterexample(ce, engine=engine)
        assert replay.engine == engine
        assert replay.confirmed, replay.detail
        assert replay.observed_rule == "deflection-bound"
        assert replay.observed_cycle == violation.cycle


@pytest.mark.model_check
def test_counterexample_round_trips_through_json(tmp_path):
    spec, config, pairs = verify_pair_system(no_swap=True)
    result = ModelChecker(spec, config, pairs, max_states=5000,
                          max_in_flight=24, liveness=False).run()
    ce = Counterexample.from_violation(result.violations[0], spec, config)
    path = tmp_path / "ce.json"
    ce.save(str(path))
    loaded = Counterexample.load(str(path))
    assert loaded.schedule == ce.schedule
    assert loaded.rule == ce.rule
    assert replay_counterexample(loaded, engine="skip").confirmed
