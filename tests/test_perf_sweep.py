"""The sweep runner must be deterministic and cache-transparent.

Parallelism is only acceptable if it is invisible: N workers, 1 worker,
and a cache-warmed rerun must all return the same results in the same
order.  These tests pin that, plus the cache's corruption handling.
"""

import json
import os

from repro.perf.cache import ResultCache, canonical_json, config_fingerprint
from repro.perf.sweep import SweepPoint, point_seed, run_sweep
from repro.sim.rng import make_rng


def echo_worker(point, seed):
    """Module-level (picklable) worker: derive a value from the seed."""
    rng = make_rng(seed)
    return {"name": point.name, "params": point.as_dict(),
            "draw": rng.randrange(10 ** 9)}


POINTS = [SweepPoint.make(f"p{i}", scale=i) for i in range(6)]


# -- deterministic seeding -------------------------------------------------


def test_point_seed_is_pure():
    assert point_seed(0, 0) == point_seed(0, 0)
    assert point_seed(0, 1) == point_seed(0, 1)


def test_point_seeds_differ_across_points_and_bases():
    seeds = [point_seed(3, i) for i in range(20)]
    assert len(set(seeds)) == 20
    assert point_seed(3, 0) != point_seed(4, 0)


def test_sweep_point_params_order_invariant():
    a = SweepPoint.make("x", alpha=1, beta=2)
    b = SweepPoint.make("x", beta=2, alpha=1)
    assert a == b
    assert a.as_dict() == {"alpha": 1, "beta": 2}


# -- runner ----------------------------------------------------------------


def test_sequential_and_parallel_results_identical():
    sequential = run_sweep(echo_worker, POINTS, base_seed=5, workers=1)
    parallel = run_sweep(echo_worker, POINTS, base_seed=5, workers=3)
    assert sequential == parallel
    assert [r["name"] for r in sequential] == [p.name for p in POINTS]


def test_results_ordered_regardless_of_completion(tmp_path):
    results = run_sweep(echo_worker, POINTS, base_seed=1, workers=4)
    assert [r["params"]["scale"] for r in results] == list(range(6))


# -- cache -----------------------------------------------------------------


def test_cache_roundtrip_and_counters(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = cache.make_key("bench", seed=1, cycles=100)
    assert cache.get(key) is None
    assert cache.misses == 1
    cache.put(key, {"value": 42})
    assert cache.get(key) == {"value": 42}
    assert cache.hits == 1


def test_cache_key_stability_and_sensitivity():
    cache = ResultCache("/nonexistent")
    base = cache.make_key("bench", seed=1, cycles=100)
    assert base == cache.make_key("bench", cycles=100, seed=1)
    assert base != cache.make_key("bench", seed=2, cycles=100)
    assert base != cache.make_key("other", seed=1, cycles=100)
    assert base != ResultCache("/nonexistent", version=99).make_key(
        "bench", seed=1, cycles=100)


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = cache.make_key("bench", seed=1)
    cache.put(key, [1, 2, 3])
    with open(os.path.join(str(tmp_path), key + ".json"), "w") as fh:
        fh.write("{not json")
    assert cache.get(key) is None


def test_sweep_uses_cache_across_runs(tmp_path):
    cache = ResultCache(str(tmp_path))
    first = run_sweep(echo_worker, POINTS, base_seed=5, workers=1,
                      cache=cache, cache_name="echo")
    warm = ResultCache(str(tmp_path))
    second = run_sweep(echo_worker, POINTS, base_seed=5, workers=1,
                       cache=warm, cache_name="echo")
    assert first == second
    assert warm.hits == len(POINTS) and warm.misses == 0
    # A different base seed must not alias into the same entries.
    other = run_sweep(echo_worker, POINTS, base_seed=6, workers=1,
                      cache=warm, cache_name="echo")
    assert other != first


def test_cache_clear(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(cache.make_key("a"), 1)
    cache.put(cache.make_key("b"), 2)
    assert cache.clear() == 2
    assert cache.get(cache.make_key("a")) is None


def test_cache_clear_removes_orphaned_tmp_files(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(cache.make_key("a"), 1)
    (tmp_path / "deadbeef.json.tmp.999999").write_text("{")
    # Temp files are removed but not counted — they were never entries.
    assert cache.clear() == 1
    assert list(tmp_path.iterdir()) == []


def test_prune_tmp_reaps_orphans_keeps_live_writers(tmp_path):
    import subprocess
    import sys

    cache = ResultCache(str(tmp_path))
    dead = subprocess.run([sys.executable, "-c", "import os;print(os.getpid())"],
                          capture_output=True, text=True)
    dead_pid = int(dead.stdout)
    live = subprocess.Popen([sys.executable, "-c",
                             "import time; time.sleep(60)"])
    try:
        (tmp_path / f"k1.json.tmp.{dead_pid}").write_text("{")  # crashed
        (tmp_path / f"k2.json.tmp.{os.getpid()}").write_text("{")  # stale own
        (tmp_path / f"k3.json.tmp.{live.pid}").write_text("{")  # in flight
        assert cache.prune_tmp() == 2
        assert {p.name for p in tmp_path.iterdir()} == {
            f"k3.json.tmp.{live.pid}"}
        # A fresh cache open prunes automatically (the crash-recovery
        # path) and still leaves the live writer alone.
        (tmp_path / f"k4.json.tmp.{dead_pid}").write_text("{")
        ResultCache(str(tmp_path))
        assert {p.name for p in tmp_path.iterdir()} == {
            f"k3.json.tmp.{live.pid}"}
    finally:
        live.kill()
        live.wait()


NONE_CALLS = []


def none_worker(point, seed):
    """Worker whose legitimate result is None (e.g. a probe sweep)."""
    NONE_CALLS.append(point.name)
    return None


def test_none_result_is_cached_not_recomputed(tmp_path):
    """A worker returning None must hit the cache on the second run.

    Regression: ``cache.get(key)`` returning None was indistinguishable
    from a miss, so None-valued entries were re-dispatched on every
    run.  The MISS sentinel disambiguates.
    """
    NONE_CALLS.clear()
    cache = ResultCache(str(tmp_path))
    first = run_sweep(none_worker, POINTS[:3], base_seed=5, workers=1,
                      cache=cache, cache_name="none")
    assert first == [None, None, None]
    assert len(NONE_CALLS) == 3
    warm = ResultCache(str(tmp_path))
    second = run_sweep(none_worker, POINTS[:3], base_seed=5, workers=1,
                       cache=warm, cache_name="none")
    assert second == [None, None, None]
    assert len(NONE_CALLS) == 3  # served from cache, not recomputed
    assert warm.hits == 3 and warm.misses == 0


def test_cache_lookup_disambiguates_none(tmp_path):
    from repro.perf.cache import MISS

    cache = ResultCache(str(tmp_path))
    key = cache.make_key("probe", seed=1)
    assert cache.get(key, MISS) is MISS
    found, value = cache.lookup(key)
    assert not found and value is None
    cache.put(key, None)
    assert cache.get(key, MISS) is None
    assert cache.lookup(key) == (True, None)


def lookalike_worker(point, seed):
    """Stats dict whose counter keys shadow the outcome-record keys."""
    return {"skipped": 3, "failed": 1, "delivered": 10,
            "scale": point.as_dict()["scale"]}


def test_outcome_classifiers_require_co_keys():
    """A stats dict with ``skipped``/``failed`` *counters* is a result.

    Regression: ``is_skipped``/``is_failed`` keyed on the flag alone,
    so such results were silently dropped from campaign aggregation as
    if the point never ran.  The structured records carry
    ``skip_reason``/``error_kind`` co-keys; the classifiers demand them.
    """
    from repro.perf.outcomes import (
        failure_record,
        is_failed,
        is_skipped,
        outcome_counts,
        skip_record,
    )

    assert not is_skipped({"skipped": 3, "delivered": 10})
    assert not is_failed({"failed": 2, "retries": 1})
    assert is_skipped(skip_record("p0", "statically infeasible"))
    assert is_failed(failure_record("p0", "ValueError", attempts=1,
                                    elapsed_s=0.0))
    results = run_sweep(lookalike_worker, POINTS[:3], base_seed=1,
                        workers=1)
    assert outcome_counts(results) == {
        "total": 3, "ok": 3, "skipped": 0, "failed": 0}


def unserializable_worker(point, seed):
    return {"handle": object()}  # cannot be JSON-persisted


def test_unserializable_result_is_structured_failure(tmp_path):
    """A non-JSON-serializable worker value must not abort the sweep.

    Regression: ``cache.put`` raised TypeError inside the dispatcher's
    completion callback, killing the whole sweep (and every in-flight
    point) for one bad result.  It now becomes a failure record with
    :data:`~repro.perf.outcomes.KIND_UNSERIALIZABLE`.
    """
    from repro.perf.outcomes import (
        KIND_UNSERIALIZABLE,
        failed_points,
        outcome_counts,
    )

    cache = ResultCache(str(tmp_path))
    results = run_sweep(unserializable_worker, POINTS[:3], base_seed=5,
                        workers=1, cache=cache, cache_name="bad")
    assert len(failed_points(results)) == 3
    for record in results:
        assert record["error_kind"] == KIND_UNSERIALIZABLE
        assert record["attempts"] == 1
    assert outcome_counts(results)["ok"] == 0
    assert os.listdir(str(tmp_path)) == []  # nothing half-written


def raise_on_p3(point, seed):
    """Module-level worker that raises on point ``p3`` only."""
    if point.name == "p3":
        raise ValueError(f"boom at {point.name}")
    return echo_worker(point, seed)


def _without_wall_time(results):
    return [{k: v for k, v in r.items() if k != "elapsed_s"}
            for r in results]


def test_worker_exception_is_one_failure_record():
    """A raising point fails alone, once, the same way on both paths."""
    from repro.perf.outcomes import failed_points

    clean = run_sweep(echo_worker, POINTS, base_seed=5, workers=1)
    serial = run_sweep(raise_on_p3, POINTS, base_seed=5, workers=1)
    pooled = run_sweep(raise_on_p3, POINTS, base_seed=5, workers=2)
    assert _without_wall_time(serial) == _without_wall_time(pooled)
    for results in (serial, pooled):
        (record,) = failed_points(results)
        assert record["point"] == "p3"
        assert record["attempts"] == 1
        assert record["error_kind"] == "ValueError"
        assert record["error_message"] == "boom at p3"
        assert "raise_on_p3" in record["traceback_tail"]
        assert results[:3] + results[4:] == clean[:3] + clean[4:]


def test_failed_points_are_not_cached(tmp_path):
    """Only successful values are cached; a failure re-runs next time."""
    cache = ResultCache(str(tmp_path))
    run_sweep(raise_on_p3, POINTS, base_seed=5, workers=1, cache=cache,
              cache_name="raise")
    warm = ResultCache(str(tmp_path))
    again = run_sweep(raise_on_p3, POINTS, base_seed=5, workers=1,
                      cache=warm, cache_name="raise")
    assert warm.hits == len(POINTS) - 1 and warm.misses == 1
    assert again[3]["error_kind"] == "ValueError"


def test_dense_tier_import_stays_free_of_the_sweep_runner():
    """The ring's tier selector loads repro.perf.dense in the sim loop.

    It must not drag in the sweep runner or its process pool: the
    ``repro.perf`` package resolves its names lazily for that reason.
    """
    import subprocess
    import sys

    script = (
        "import sys, repro.perf.dense;"
        "bad = [m for m in ('concurrent.futures', 'repro.perf.sweep')"
        " if m in sys.modules];"
        "print(bad)"
    )
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                             p for p in sys.path if p)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_prune_tmp_reaps_old_files_from_live_pids(tmp_path):
    """PID reuse: a live PID plus an hours-old mtime is an orphan.

    Regression: prune_tmp trusted ``pid is alive`` alone, so a temp
    file whose writer crashed and whose PID was recycled by an
    unrelated long-lived process leaked forever.
    """
    import subprocess
    import sys
    import time

    cache = ResultCache(str(tmp_path))
    live = subprocess.Popen([sys.executable, "-c",
                             "import time; time.sleep(60)"])
    try:
        fresh = tmp_path / f"k1.json.tmp.{live.pid}"
        fresh.write_text("{")
        stale = tmp_path / f"k2.json.tmp.{live.pid}"
        stale.write_text("{")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        assert cache.prune_tmp() == 1
        assert {p.name for p in tmp_path.iterdir()} == {fresh.name}
    finally:
        live.kill()
        live.wait()


def test_config_fingerprint_flattens_dataclasses():
    from repro.core.config import MultiRingConfig
    fp = config_fingerprint(MultiRingConfig())
    assert fp["engine"] == "auto"
    assert fp["queues"]["inject_queue_depth"] >= 1
    canonical_json(fp)  # must be JSON-able


# -- benchmarks/common.py disk-backed memo --------------------------------


def test_memo_persists_across_processes(tmp_path, monkeypatch):
    import importlib
    import subprocess
    import sys

    monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path))
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = (
        "import sys;"
        f"sys.path.insert(0, {repr(os.path.join(repo_root, 'benchmarks'))});"
        f"sys.path.insert(0, {repr(os.path.join(repo_root, 'src'))});"
        "import common;"
        "print(common.memo('t', lambda: 41 + 1, params={'seed': 1}))"
    )
    env = dict(os.environ, REPRO_BENCH_CACHE=str(tmp_path))
    out1 = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert out1.stdout.strip() == "42", out1.stderr
    # Second process: computed value must come from disk (lambda would
    # still return 42, so instead check that an entry file exists).
    entries = [n for n in os.listdir(str(tmp_path)) if n.endswith(".json")]
    assert len(entries) == 1
    out2 = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert out2.stdout.strip() == "42", out2.stderr


# -- static prefilter ------------------------------------------------------


def reject_odd(point, seed):
    """Module-level prefilter: skip points with odd scale."""
    if point.as_dict()["scale"] % 2:
        return "odd scale is statically infeasible"
    return None


def test_prefilter_skips_points_in_place():
    from repro.perf.sweep import is_skipped, skipped_points

    results = run_sweep(echo_worker, POINTS, base_seed=5, workers=1,
                        prefilter=reject_odd)
    assert [r.get("name", r.get("point")) for r in results] == \
        [p.name for p in POINTS]
    skipped = skipped_points(results)
    assert [r["point"] for r in skipped] == ["p1", "p3", "p5"]
    assert all("odd scale" in r["skip_reason"] for r in skipped)
    assert [is_skipped(r) for r in results] == [False, True] * 3


def test_prefilter_preserves_surviving_results_exactly():
    """Pruning must not perturb the RNG of points that still run."""
    from repro.perf.sweep import is_skipped

    unpruned = run_sweep(echo_worker, POINTS, base_seed=5, workers=2)
    pruned = run_sweep(echo_worker, POINTS, base_seed=5, workers=2,
                       prefilter=reject_odd)
    for before, after in zip(unpruned, pruned):
        if not is_skipped(after):
            assert after == before


def test_prefilter_runs_before_the_cache(tmp_path):
    """A skipped point must not consume or create a cache entry."""
    cache = ResultCache(str(tmp_path))
    run_sweep(echo_worker, POINTS, base_seed=5, workers=1, cache=cache,
              cache_name="echo", prefilter=reject_odd)
    assert cache.misses == 3  # only the surviving even-scale points
    warm = ResultCache(str(tmp_path))
    run_sweep(echo_worker, POINTS, base_seed=5, workers=1, cache=warm,
              cache_name="echo")
    assert warm.misses == 3 and warm.hits == 3


def test_prefilter_skip_counts_are_logged(caplog):
    import logging

    with caplog.at_level(logging.INFO, logger="repro.perf.sweep"):
        run_sweep(echo_worker, POINTS, base_seed=5, workers=1,
                  prefilter=reject_odd)
    assert "statically skipped 3/6" in caplog.text
