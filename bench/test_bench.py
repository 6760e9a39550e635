"""Tests of the repository benchmark itself.

Run from the repository root (they are not part of the tier-1 suite,
whose ``testpaths`` is ``tests/``)::

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from types import SimpleNamespace

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from trace_layers import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def run_bench(*args, env=None, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


def test_quick_run_reports_every_metric(tmp_path):
    out = tmp_path / "quick.json"
    start = time.monotonic()
    proc = run_bench("--quick", "--seconds", "1", "--json", str(out))
    assert time.monotonic() - start < 60
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    report = json.loads(out.read_text())
    for workload in run.WORKLOADS:
        summary = report["workloads"][workload]
        assert summary["correct"], summary["failures"]
        for metric in BENCHMARK["end_to_end"]:
            got = summary["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert got["value"] > 0


def test_single_workload_prints_one_result_line():
    proc = run_bench("--workload", "chiplet_swap", "--seed", "3",
                     "--seconds", "1", "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"]
                                      for m in BENCHMARK["end_to_end"]}


def test_trace_observes_without_changing_outputs(tmp_path):
    out = tmp_path / "trace.json"
    proc = run_bench("--quick", "--trace", "--seconds", "1",
                     "--json", str(out))
    # run.py fails a repeat whose traced outputs differ from the untraced.
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    for workload, summary in report["workloads"].items():
        assert set(summary["metrics"]) == names
        trace_file = os.path.join(ROOT, summary["traced"][0]["chrome_trace"])
        with open(trace_file) as fh:
            assert json.load(fh)["traceEvents"]


def spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class SpinRing:
    """Busy for a known time per step; switches tier at ``switch_at``,
    at the start of the step, as the auto selector does."""

    def __init__(self, step_s, switch_at):
        self.step_s = step_s
        self.switch_at = switch_at
        self.tier = "skip"

    def step(self, cycle):
        if cycle == self.switch_at:
            self.tier = "dense"
        spin(self.step_s)

    def active_tier(self):
        return self.tier

    def occupancy(self):
        return 0


class SpinFabric:
    def __init__(self, inject_s, step_s, ring_s, switch_at):
        self.inject_s = inject_s
        self.step_s = step_s
        self.rings = {0: SpinRing(ring_s, switch_at),
                      1: SpinRing(ring_s, switch_at)}
        self.bridges = []
        self.stats = SimpleNamespace(
            accepted=0, rejected=0, delivered=0, dropped=0, deflections=0,
            swap_events=0, link_stall_cycles=0)

    def try_inject(self, msg):
        spin(self.inject_s)
        return True

    def step(self, cycle):
        spin(self.step_s)
        for ring in self.rings.values():
            ring.step(cycle)


class SpinWorkload(harness.Workload):
    """Every layer busy for a known time, so attribution can be checked."""

    cycles = 300
    nominal_cycles = cycles
    harness_s = 100e-6

    def __init__(self):
        super().__init__(1)
        self.fabric = SpinFabric(inject_s=100e-6, step_s=100e-6,
                                 ring_s=100e-6, switch_at=self.cycles // 3)

    def run(self):
        fabric = self.fabric
        for cycle in range(self.cycles):
            spin(self.harness_s)
            fabric.try_inject(None)
            fabric.step(cycle)


def test_tracer_attributes_known_durations():
    workload = SpinWorkload()
    tracer = Tracer()
    tracer.install(workload)
    t0 = time.perf_counter()
    workload.run()
    run_s = time.perf_counter() - t0
    tracer.end_loop()
    got = tracer.report(workload, run_s, 0.0)

    cycles = workload.cycles
    switch = workload.fabric.rings[0].switch_at
    # The tier is read after each step, so the switching step is dense.
    assert got["core.ring.skip.ring_cycles"] == 2 * switch
    assert got["core.ring.dense.ring_cycles"] == 2 * (cycles - switch)
    assert got["core.ring.tier_switches"] == 2
    assert got["core.network.try_inject.calls"] == cycles
    want = {
        "core.network.try_inject.self_s": cycles * 100e-6,
        "core.network.step.self_s": cycles * 100e-6,
        "core.ring.skip.self_s": 2 * switch * 100e-6,
        "core.ring.dense.self_s": 2 * (cycles - switch) * 100e-6,
        "harness.loop.self_s": cycles * workload.harness_s,
    }
    for name, seconds in want.items():
        assert abs(got[name] - seconds) <= 0.15 * seconds, (name, got[name])
    assert got["trace.self_s"] > 0


class NullFabric:
    """Accepts every message and simulates nothing."""

    def __init__(self):
        self.stats = SimpleNamespace(accepted=0, delivered=0, dropped=0)

    def try_inject(self, msg):
        return True

    def step(self, cycle):
        pass


def null_message(src, dst, kind, created_cycle, msg_id):
    return None


@pytest.mark.parametrize("name", ["ring_dense", "chiplet_swap"])
def test_open_loop_harness_costs_under_5_percent(name):
    """The harness's own loop (input reads, pacer, reference kernel, calls)
    against a fabric that does nothing, next to the real loop.

    Building each ``Message`` is the senders' work and is stubbed out.
    The closed-loop workloads make one call per simulated cycle.  The two
    loops run back to back, so the host's slow spells, which last
    seconds, hit both sides of a pair alike.
    """
    def loop_seconds(null):
        workload = harness.WORKLOADS[name](1, harness.QUICK_SCALE)
        workload.build()
        if null:
            workload.fabric = NullFabric()
            workload.message = null_message
        pacer = harness.Pacer(workload.fabric.stats, workload.window)
        t0 = time.perf_counter()
        workload.run(pacer)
        return time.perf_counter() - t0

    shares = [loop_seconds(True) / loop_seconds(False) for _ in range(5)]
    assert statistics.median(shares) < 0.05, shares


def test_tiers_and_layers_land_where_expected(tmp_path):
    out = tmp_path / "trace.json"
    proc = run_bench("--quick", "--trace", "--seconds", "1",
                     "--workload", "ring_dense", "--workload",
                     "server_coherent", "--json", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())["workloads"]
    dense = report["ring_dense"]["metrics"]
    server = report["server_coherent"]["metrics"]
    assert dense["core.ring.dense.ring_cycles"]["value"] > 0
    assert dense["core.bridge.step.calls"]["value"] == 0
    assert dense["coherence.rn.step.self_s"]["value"] == 0
    assert server["core.ring.dense.ring_cycles"]["value"] == 0
    assert server["coherence.rn.snoops"]["value"] > 0
    assert server["cpu.core.step.self_s"]["value"] > 0
    assert dense["fabric.message.self_s"]["value"] > 0
    assert server["fabric.message.self_s"]["value"] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_outputs_do_not_depend_on_hash_seed(workload):
    seen = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "bench/harness.py", "--workload", workload,
             "--seed", "5", "--quick"],
            cwd=ROOT, capture_output=True, text=True, env=env, timeout=120)
        record = json.loads(proc.stdout)
        assert record["failure"] is None, record["failure"]
        seen.append(run.outputs(record))
    assert seen[0] == seen[1]


def test_committed_fingerprints_cover_every_workload():
    committed = run.load_fingerprints()
    assert committed["seed"] == run.DEFAULT_SEED
    for size in ("full", "quick"):
        assert set(committed[size]) == set(run.WORKLOADS)


def test_watchdog_reports_full_package_wedge():
    """Open fabric bug: the 96-core package wedges under this load.

    With two cores on each of the 24 clusters of the full-size package,
    deliveries stop within a few thousand cycles and SWAP then fires every
    cycle.  The watchdog must turn that into a structured failure in
    seconds instead of spinning to a cycle limit.  When the fabric is
    fixed this test fails and should be turned around.
    """
    workload = harness.ServerCoherent(1, 1, config_kwargs={},
                                      ops_per_core=100)
    start = time.monotonic()
    record = harness.run_repeat("server_coherent", 1, workload=workload)
    assert time.monotonic() - start < 30
    failure = record["failure"]
    assert failure["kind"] == "wedge"
    assert failure["in_flight"] > 0
    stalled = failure["cycle"] - failure["last_delivery"]
    assert stalled >= harness.WEDGE_CYCLES
    assert failure["stats"]["swap_events"] >= stalled


class UniformMix(harness.ServerCoherent):
    """Every core loads (70 %) and stores (30 %) any of 4096 lines."""

    def __init__(self, seed: int):
        super().__init__(seed, 1)
        rng = random.Random(seed)
        self.streams = []
        for _ in range(self.n_ccds * self.clusters * self.cores_per_cluster):
            kinds = bytes(rng.random() < 0.7 for _ in range(self.ops))
            addrs = array("H", (rng.randrange(4096) for _ in range(self.ops)))
            self.streams.append((kinds, addrs))


def test_uniform_store_mix_trips_upgrade_race():
    """Open coherence bug: a CleanUnique grant is not ordered with later
    snoops, so two requesters can end up owning one line.

    The benchmark's server workload avoids upgrades for that reason; this
    test pins the failure so the fix shows.  When the home node waits for
    a CompAck on upgrades this test fails and should be turned around.
    """
    with pytest.raises(harness.CheckFailed, match="coherence"):
        harness.run_repeat("server_coherent", 1, workload=UniformMix(1))


def test_compare_verdicts(tmp_path):
    def write(directory, values):
        directory.mkdir()
        for i, value in enumerate(values):
            data = {"workloads": {"w": {"metrics": {
                "cycles_per_s": {"value": value, "unit": "cyc/s"}}}}}
            (directory / f"{i:02d}.json").write_text(json.dumps(data))

    bench = {"end_to_end": [{"name": "cycles_per_s", "unit": "cyc/s",
                             "better": "higher", "bound": 0.1}]}
    write(tmp_path / "a", [100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    write(tmp_path / "gain", [120, 121, 119, 120, 122, 118, 120, 121, 119,
                              120])
    write(tmp_path / "slow", [80, 81, 79, 80, 82, 78, 80, 81, 79, 80])
    write(tmp_path / "noisy", [60, 140, 100, 70, 130, 100, 65, 135, 100,
                               100])
    verdicts = {name: compare.compare(str(tmp_path / "a"),
                                      str(tmp_path / name), bench)[0]
                for name in ("gain", "slow", "noisy")}
    assert verdicts["gain"]["verdict"] == "gain"
    assert verdicts["gain"]["wins"] == 10
    assert verdicts["slow"]["verdict"] == "regression"
    assert verdicts["noisy"]["verdict"] == "unresolved"


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_bench("--workload", "ring_dense", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path,
                     timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
