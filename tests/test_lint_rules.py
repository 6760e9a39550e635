"""Lint self-test: every rule must fire on a planted violation and stay
silent on the idioms the codebase actually uses — and the shipped tree
itself must lint clean (the ``repro-noc check`` acceptance gate)."""

import textwrap

import pytest

from repro.lint import lint_paths, lint_source
from repro.lint.runner import default_source_root

pytestmark = pytest.mark.lint


def rules_hit(source, path="pkg/repro/sim/model.py"):
    return {f.rule for f in lint_source(textwrap.dedent(source), path)}


# -- determinism ----------------------------------------------------------


def test_import_random_flagged():
    assert "determinism" in rules_hit("import random\n")


def test_from_random_import_flagged():
    assert "determinism" in rules_hit("from random import Random\n")


def test_numpy_random_flagged():
    assert "determinism" in rules_hit("import numpy.random\n")


def test_from_numpy_import_random_flagged():
    assert "determinism" in rules_hit("from numpy import random\n")
    assert "determinism" in rules_hit("from numpy import random as npr\n")


def test_numpy_random_attribute_flagged():
    assert "determinism" in rules_hit(
        """
        import numpy as np

        def jitter(n):
            return np.random.default_rng(0).integers(0, n)
        """
    )
    assert "determinism" in rules_hit(
        """
        import numpy

        def jitter(n):
            return numpy.random.rand(n)
        """
    )


def test_plain_numpy_is_permitted():
    assert rules_hit(
        """
        import numpy as np

        def advance(occupied):
            return np.roll(occupied, 1)
        """
    ) == set()
    assert rules_hit("from numpy import int64, zeros\n") == set()


def test_non_numpy_random_attribute_not_flagged():
    # Only names bound to the numpy package are attributed; an unrelated
    # object with a .random attribute is not numpy.random.
    assert rules_hit(
        """
        def pick(rng):
            return rng.random()
        """
    ) == set()


def test_dense_engine_file_is_order_sensitive():
    source = """
        def release(tags):
            for idx in {1, 2, 3}:
                tags.pop(idx)
    """
    assert "unordered-iteration" in {
        f.rule for f in lint_source(
            textwrap.dedent(source), "pkg/repro/perf/dense.py")}
    # ...while the rest of the perf harness may iterate sets freely.
    assert {f.rule for f in lint_source(
        textwrap.dedent(source), "pkg/repro/perf/sweep.py")} == set()


def test_wall_clock_calls_flagged():
    assert "determinism" in rules_hit(
        """
        import time

        def step(cycle):
            return time.time()
        """
    )
    assert "determinism" in rules_hit(
        """
        import datetime

        def stamp():
            return datetime.datetime.now()
        """
    )


def test_rng_helper_file_is_exempt():
    assert rules_hit("import random\n", path="pkg/repro/sim/rng.py") == set()


def test_make_rng_usage_clean():
    assert rules_hit(
        """
        from repro.sim.rng import Rng, make_rng

        def build(seed):
            rng = make_rng(seed)
            return rng.random()
        """
    ) == set()


def test_inline_allow_comment_suppresses():
    source = "import random  # lint: allow[determinism]\n"
    assert lint_source(source, "pkg/repro/sim/model.py") == []


# -- mutable defaults -----------------------------------------------------


def test_mutable_default_list_flagged():
    assert "mutable-default" in rules_hit("def f(x=[]):\n    return x\n")


def test_mutable_default_dict_call_flagged():
    assert "mutable-default" in rules_hit("def f(x=dict()):\n    return x\n")


def test_none_default_clean():
    assert rules_hit("def f(x=None):\n    return x or []\n") == set()


def test_frozen_default_clean():
    assert rules_hit("def f(x=(), y=0, z='a'):\n    return x\n") == set()


# -- float-cycle ----------------------------------------------------------


def test_float_assign_to_cycle_flagged():
    assert "float-cycle" in rules_hit("cycle = 1.5\n")
    assert "float-cycle" in rules_hit("self_cycle = 0\nready_cycle = 10 / 3\n")


def test_float_augassign_to_cycle_flagged():
    assert "float-cycle" in rules_hit(
        "def f(cycle, latency):\n    cycle += latency / 2\n    return cycle\n"
    )


def test_floor_division_on_cycle_clean():
    assert rules_hit("def f(c):\n    cycle = c // 2\n    return cycle\n") == set()


def test_reporting_conversion_clean():
    # Unit conversion into a non-cycle variable is the sanctioned idiom.
    assert rules_hit(
        "def f(cycles, freq):\n    seconds = cycles / freq\n    return seconds\n"
    ) == set()


def test_per_cycle_rates_are_not_counters():
    assert rules_hit("issues_per_cycle = 0.4\n") == set()


# -- bare except ----------------------------------------------------------


def test_bare_except_flagged():
    assert "bare-except" in rules_hit(
        "try:\n    pass\nexcept:\n    pass\n"
    )


def test_typed_except_clean():
    assert rules_hit(
        "try:\n    pass\nexcept ValueError:\n    pass\n"
    ) == set()


# -- syntax errors --------------------------------------------------------


def test_unparseable_source_reported_not_raised():
    findings = lint_source("def f(:\n", "broken.py")
    assert [f.rule for f in findings] == ["syntax"]


# -- the shipped tree -----------------------------------------------------


def test_shipped_tree_lints_clean():
    """The acceptance gate: `repro-noc check` exits zero on a clean tree."""
    findings, nfiles = lint_paths([default_source_root()])
    assert nfiles > 50  # sanity: we really walked the package
    assert findings == []


# -- parallel-seeding -----------------------------------------------------


def test_multiprocessing_import_flagged():
    assert "parallel-seeding" in rules_hit("import multiprocessing\n")
    assert "parallel-seeding" in rules_hit(
        "from multiprocessing import Pool\n")


def test_process_pool_import_flagged():
    assert "parallel-seeding" in rules_hit(
        "from concurrent.futures import ProcessPoolExecutor\n")


def test_getpid_seed_flagged():
    assert "parallel-seeding" in rules_hit(
        """
        import os

        def worker_seed(base):
            return base ^ os.getpid()
        """
    )


def test_perf_package_is_exempt():
    source = (
        "import time\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import os\n"
        "def t():\n"
        "    return time.perf_counter(), os.getpid()\n"
    )
    hits = rules_hit(source, path="pkg/repro/perf/sweep.py")
    assert "parallel-seeding" not in hits
    assert "determinism" not in hits
    # The same source in a sim path trips both rules.
    hits = rules_hit(source, path="pkg/repro/sim/model.py")
    assert {"parallel-seeding", "determinism"} <= hits


def test_parallel_seeding_inline_optout():
    assert "parallel-seeding" not in rules_hit(
        "import multiprocessing  # lint: allow[parallel-seeding]\n")


# -- sweep-bare-pool ------------------------------------------------------


def test_bare_pool_map_on_local_flagged():
    assert "sweep-bare-pool" in rules_hit(
        """
        from concurrent.futures import ProcessPoolExecutor

        def sweep(fn, points):
            pool = ProcessPoolExecutor(4)
            return list(pool.map(fn, points))
        """
    )


def test_bare_pool_map_with_as_flagged():
    assert "sweep-bare-pool" in rules_hit(
        """
        from concurrent.futures import ProcessPoolExecutor

        def sweep(fn, points):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(fn, points))
        """
    )


def test_bare_pool_map_direct_call_flagged():
    assert "sweep-bare-pool" in rules_hit(
        """
        import concurrent.futures

        def sweep(fn, points):
            return list(
                concurrent.futures.ProcessPoolExecutor().map(fn, points))
        """
    )


def test_plain_map_not_flagged():
    assert "sweep-bare-pool" not in rules_hit(
        """
        def sweep(fn, points):
            return list(map(fn, points))
        """
    )
    # .map on a non-pool object is someone else's method.
    assert "sweep-bare-pool" not in rules_hit(
        """
        def render(surface, texture):
            return surface.map(texture)
        """
    )


def test_bare_pool_map_exempt_in_perf():
    source = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def sweep(fn, points):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return list(pool.map(fn, points))\n"
    )
    assert "sweep-bare-pool" not in rules_hit(
        source, path="pkg/repro/perf/sweep.py")
    assert "sweep-bare-pool" in rules_hit(
        source, path="pkg/repro/faults/campaign.py")


def test_bare_pool_map_inline_optout():
    assert "sweep-bare-pool" not in rules_hit(
        """
        from concurrent.futures import ProcessPoolExecutor

        def sweep(fn, points):
            pool = ProcessPoolExecutor(4)
            return list(pool.map(fn, points))  # lint: allow[sweep-bare-pool]
        """
    )


def test_rebound_pool_name_not_flagged():
    assert "sweep-bare-pool" not in rules_hit(
        """
        from concurrent.futures import ProcessPoolExecutor

        def sweep(fn, points):
            pool = ProcessPoolExecutor(4)
            pool = None
            pool = SomethingElse()
            return pool.map(fn, points)
        """
    )


# -- unordered-iteration --------------------------------------------------


def test_set_literal_iteration_flagged():
    assert "unordered-iteration" in rules_hit(
        """
        def drain(stations):
            for s in {1, 2, 3}:
                stations[s].step()
        """,
        path="pkg/repro/core/station.py",
    )


def test_set_call_local_iteration_flagged():
    assert "unordered-iteration" in rules_hit(
        """
        def drain(items):
            pending = set(items)
            for s in pending:
                s.step()
        """,
        path="pkg/repro/fabric/interface.py",
    )


def test_set_method_result_iteration_flagged():
    assert "unordered-iteration" in rules_hit(
        """
        def merge(a, b):
            return [x for x in a.union(b)]
        """,
        path="pkg/repro/sim/model.py",
    )


def test_frozenset_comprehension_flagged():
    assert "unordered-iteration" in rules_hit(
        """
        def pick(flits):
            return {f.dst for f in frozenset(flits)}
        """,
        path="pkg/repro/analyze/occupancy.py",
    )


def test_sorted_set_iteration_clean():
    assert "unordered-iteration" not in rules_hit(
        """
        def drain(items):
            pending = set(items)
            for s in sorted(pending):
                s.step()
        """,
        path="pkg/repro/core/station.py",
    )


def test_reassigned_to_list_iteration_clean():
    assert "unordered-iteration" not in rules_hit(
        """
        def drain(items):
            pending = set(items)
            pending = sorted(pending)
            for s in pending:
                s.step()
        """,
        path="pkg/repro/core/station.py",
    )


def test_dict_iteration_clean():
    # Dicts preserve insertion order; only sets are nondeterministic.
    assert "unordered-iteration" not in rules_hit(
        """
        def drain(stations):
            for s in stations:
                stations[s].step()
        """,
        path="pkg/repro/core/station.py",
    )


def test_commutative_reduction_over_set_clean():
    # Regression: sum/max/min/any/all over a set comprehension are
    # order-insensitive — iteration order cannot leak into the result.
    assert "unordered-iteration" not in rules_hit(
        """
        def totals(stations):
            pending = set(stations)
            total = sum(s.queued for s in pending)
            worst = max(s.depth for s in pending)
            alive = any(s.busy for s in pending)
            return total, worst, alive
        """,
        path="pkg/repro/core/station.py",
    )


def test_sorted_reduction_over_set_clean():
    # Regression: sorted()/set() *as reducers* restore or keep an
    # order-free domain; neither observes set iteration order.
    assert "unordered-iteration" not in rules_hit(
        """
        def ordered(stations):
            pending = set(stations)
            return sorted(s.idx for s in pending)
        """,
        path="pkg/repro/fabric/interface.py",
    )


def test_order_sensitive_reduction_still_flagged():
    # list(...) over a set materializes iteration order: still a bug.
    assert "unordered-iteration" in rules_hit(
        """
        def drain_order(stations):
            pending = set(stations)
            return list(s.idx for s in pending)
        """,
        path="pkg/repro/core/station.py",
    )


def test_bare_set_comprehension_source_still_flagged():
    # The reducer exemption is per-call-site: the same comprehension
    # outside a commutative reducer still trips the rule.
    assert "unordered-iteration" in rules_hit(
        """
        def depths(stations):
            pending = set(stations)
            return [s.depth for s in pending]
        """,
        path="pkg/repro/core/station.py",
    )


def test_unordered_iteration_inactive_outside_sim_paths():
    assert "unordered-iteration" not in rules_hit(
        """
        def summarize(rules):
            for r in {1, 2}:
                print(r)
        """,
        path="pkg/repro/lint/rules.py",
    )


def test_unordered_iteration_inline_optout():
    assert "unordered-iteration" not in rules_hit(
        """
        def drain(items):
            for s in {1, 2}:  # lint: allow[unordered-iteration]
                s.step()
        """,
        path="pkg/repro/core/station.py",
    )
