"""Property tests: the static analyzer's bounds vs the simulator.

Two soundness obligations tie :mod:`repro.analyze` to the ground truth:

- the zero-load latency figure is a *lower* bound — contention and
  deflection only ever add cycles, so a single message on an otherwise
  idle fabric must take at least the analyzer's cycle count (and at
  zero load, exactly it);
- the delivered-bandwidth ceiling is an *upper* bound — no traffic
  pattern may deliver more bytes per cycle than the inject/eject
  ceiling.

Both are checked on single rings, the tiny two-chiplet pair, and the
full server-CPU topology, on the default ``auto`` engine and on the
``ref`` reference walk.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analyze import compute_bounds, zero_load_route_cycles
from repro.core.config import MultiRingConfig
from repro.core.network import MultiRingFabric
from repro.core.routing import Router
from repro.core.topology import single_ring_topology, tiny_pair
from repro.fabric.message import Message, MessageKind
from repro.sim.rng import make_rng

SETTINGS = settings(max_examples=12, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
#: The default engine and the reference walk it must match.
ENGINES = st.sampled_from(["auto", "ref"])


def _nodes(topo):
    return sorted(p.node for p in topo.nodes)


def measured_zero_load_latency(topo, config, src, dst, max_cycles=2000):
    """Network latency of one message on an otherwise idle fabric."""
    fabric = MultiRingFabric(topo, config)
    assert fabric.try_inject(Message(src=src, dst=dst,
                                     kind=MessageKind.REQUEST,
                                     created_cycle=0, msg_id=0))
    for cycle in range(max_cycles):
        fabric.step(cycle)
        if fabric.stats.delivered:
            return fabric.stats.samples[0].network_latency
    raise AssertionError(f"message {src}->{dst} never delivered")


def measured_delivered_rate(topo, config, cycles, per_cycle, seed):
    """Delivered bytes/cycle under saturating uniform-random traffic."""
    nodes = _nodes(topo)
    fabric = MultiRingFabric(topo, config)
    rng = make_rng(seed)
    msg_id = 0
    for cycle in range(cycles):
        for _ in range(per_cycle):
            src, dst = rng.choice(nodes), rng.choice(nodes)
            if src != dst:
                fabric.try_inject(Message(src=src, dst=dst,
                                          kind=MessageKind.REQUEST,
                                          created_cycle=cycle,
                                          msg_id=msg_id))
                msg_id += 1
        fabric.step(cycle)
    return fabric.stats.delivered_bytes / cycles


def assert_latency_lower_bound(topo, config, src, dst):
    router = Router(topo, bridge_penalty=config.bridge_route_penalty)
    bound = zero_load_route_cycles(router, topo, src, dst)
    measured = measured_zero_load_latency(topo, config, src, dst)
    assert bound <= measured, (
        f"{src}->{dst}: analyzer bound {bound} exceeds measured "
        f"zero-load latency {measured}")


def assert_bandwidth_upper_bound(topo, config, seed,
                                 cycles=300, per_cycle=8):
    ceiling = compute_bounds(
        topo, config).delivered_ceiling_bytes_per_cycle
    measured = measured_delivered_rate(topo, config, cycles, per_cycle,
                                       seed)
    assert measured <= ceiling, (
        f"measured {measured:.1f} B/cycle exceeds static ceiling "
        f"{ceiling:.1f}")


# -- single rings ----------------------------------------------------------


@SETTINGS
@given(n_nodes=st.integers(4, 12), bidirectional=st.booleans(),
       engine=ENGINES, pair=st.tuples(st.integers(0, 11),
                                          st.integers(0, 11)))
def test_ring_zero_load_latency_is_a_lower_bound(n_nodes, bidirectional,
                                                 engine, pair):
    topo, nodes = single_ring_topology(n_nodes,
                                       bidirectional=bidirectional)
    src = nodes[pair[0] % n_nodes]
    dst = nodes[pair[1] % n_nodes]
    if src == dst:
        dst = nodes[(pair[1] + 1) % n_nodes]
    assert_latency_lower_bound(topo, MultiRingConfig(engine=engine),
                               src, dst)


@SETTINGS
@given(n_nodes=st.integers(4, 10), bidirectional=st.booleans(),
       engine=ENGINES, seed=st.integers(0, 2 ** 16))
def test_ring_bandwidth_ceiling_is_an_upper_bound(n_nodes, bidirectional,
                                                  engine, seed):
    topo, _ = single_ring_topology(n_nodes, bidirectional=bidirectional)
    assert_bandwidth_upper_bound(topo, MultiRingConfig(engine=engine),
                                 seed)


# -- bridged chiplet pair --------------------------------------------------


@SETTINGS
@given(nstops=st.integers(3, 6), bidirectional=st.booleans(),
       link_latency=st.integers(1, 4), engine=ENGINES)
def test_tiny_pair_zero_load_latency_is_a_lower_bound(
        nstops, bidirectional, link_latency, engine):
    topo, ring0, ring1 = tiny_pair(nstops=nstops,
                                   nodes_per_ring=min(2, nstops - 1),
                                   bidirectional=bidirectional,
                                   link_latency=link_latency)
    config = MultiRingConfig(engine=engine)
    # Cross-chiplet both ways plus one same-ring pair when it exists.
    assert_latency_lower_bound(topo, config, ring0[0], ring1[-1])
    assert_latency_lower_bound(topo, config, ring1[0], ring0[-1])
    if len(ring0) > 1:
        assert_latency_lower_bound(topo, config, ring0[0], ring0[1])


@SETTINGS
@given(engine=ENGINES, seed=st.integers(0, 2 ** 16))
def test_tiny_pair_bandwidth_ceiling_is_an_upper_bound(engine, seed):
    topo, _, _ = tiny_pair()
    assert_bandwidth_upper_bound(topo, MultiRingConfig(engine=engine),
                                 seed)


# -- the server-CPU system -------------------------------------------------


@pytest.fixture(scope="module")
def server_topology():
    from repro.cpu.package import build_server_system

    fabric, _, _ = build_server_system("multiring")
    return fabric.topology


@pytest.mark.parametrize("engine", ["auto", "ref"],
                         ids=["fast-path", "reference"])
def test_server_zero_load_latency_is_a_lower_bound(server_topology, engine):
    config = MultiRingConfig(engine=engine)
    nodes = _nodes(server_topology)
    # The extreme node-id pair crosses the package; spot-check it plus
    # a same-die neighbour pair (exhaustive all-pairs is a CI budget
    # problem, not a soundness one).
    assert_latency_lower_bound(server_topology, config,
                               nodes[0], nodes[-1])
    assert_latency_lower_bound(server_topology, config,
                               nodes[0], nodes[1])


@pytest.mark.parametrize("engine", ["auto", "ref"],
                         ids=["fast-path", "reference"])
def test_server_bandwidth_ceiling_is_an_upper_bound(server_topology, engine):
    assert_bandwidth_upper_bound(server_topology,
                                 MultiRingConfig(engine=engine),
                                 seed=7, cycles=150, per_cycle=16)
