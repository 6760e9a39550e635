"""Interprocedural dataflow analyzer vs the planted-defect corpus.

The corpus (``tests/fixtures/dataflow/``) pairs each rule with a
planted-defect file and a clean look-alike file.  Flagged lines carry a
trailing ``# PLANT: <rule>`` marker, and the core assertion is
*exact-set equality* between findings and markers — a missed defect and
a false positive fail the same test, which is the acceptance bar the
analyzer is held to.
"""

import os

import pytest

from repro.lint.dataflow import (
    DATAFLOW_RULES,
    analyze_paths,
    analyze_sources,
    module_name_for,
)
from repro.lint.suppress import Suppressions

pytestmark = pytest.mark.lint

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "dataflow")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def planted_markers(path: str):
    """{(rule, line)} for every ``# PLANT: <rule>`` marker in the file."""
    out = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if "# PLANT:" in line:
                rule = line.split("# PLANT:")[1].strip()
                out.add((rule, lineno))
    return out


def found(path: str):
    report = analyze_paths([path])
    return {(f.rule, f.line) for f in report.findings}


PLANTED = ["rng_planted.py", "split_planted.py", "worker_planted.py",
           "config_planted.py"]
CLEAN = ["rng_clean.py", "split_clean.py", "worker_clean.py",
         "config_clean.py"]


@pytest.mark.parametrize("name", PLANTED)
def test_planted_defects_flagged_exactly(name):
    path = fixture_path(name)
    markers = planted_markers(path)
    assert markers, f"{name} has no PLANT markers (corpus rot)"
    assert found(path) == markers


@pytest.mark.parametrize("name", CLEAN)
def test_clean_lookalikes_stay_clean(name):
    path = fixture_path(name)
    assert planted_markers(path) == set()
    assert found(path) == set()


def test_corpus_covers_every_rule():
    covered = set()
    for name in PLANTED:
        covered.update(rule for rule, _ in
                       planted_markers(fixture_path(name)))
    assert covered == set(DATAFLOW_RULES)


def test_whole_corpus_as_one_program():
    """Analyzing all fixtures together must not create cross-file noise
    (e.g. a clean file's helper colliding with a planted file's)."""
    all_paths = [fixture_path(n) for n in PLANTED + CLEAN]
    report = analyze_paths(all_paths)
    expected = set()
    for name in PLANTED:
        expected.update(planted_markers(fixture_path(name)))
    got = {(f.rule, f.line) for f in report.findings}
    assert got == expected
    assert report.modules == len(PLANTED + CLEAN)


def test_findings_are_errors_with_context():
    report = analyze_paths([fixture_path("rng_planted.py")])
    assert report.findings
    for f in report.findings:
        assert f.severity == "error"
        assert f.context is not None
        assert f.context.strip()  # the flagged source line
        assert f.fingerprint


def test_module_name_mapping():
    assert module_name_for("/x/src/repro/perf/sweep.py") == \
        "repro.perf.sweep"
    assert module_name_for("src/repro/sim/__init__.py") == "repro.sim"
    assert module_name_for("tests/fixtures/dataflow/rng_clean.py") == \
        "rng_clean"


def test_worker_roots_discovered():
    report = analyze_paths([fixture_path("worker_planted.py")])
    assert "worker_planted.sweep_point" in report.roots
    assert "worker_planted.submitted_point" in report.roots


def test_suppression_silences_dataflow_finding():
    source = (
        "import random\n"
        "\n"
        "def draw(seed):\n"
        "    return random.Random(seed)  # repro: allow[rng-not-rooted]\n"
    )
    path = "pkg/repro/traffic/gen.py"
    supp = Suppressions(source, path)
    report = analyze_sources({path: source}, {path: supp})
    assert report.findings == []
    assert (4, "rng-not-rooted") in supp.used()


def test_split_collision_message_names_both_paths():
    report = analyze_paths([fixture_path("split_planted.py")])
    messages = [f.message for f in report.findings
                if f.rule == "split-collision"]
    assert any("derive_traffic" in m for m in messages)


def test_shipped_tree_is_dataflow_clean():
    """The real src/ tree passes its own analyzer (acceptance bar)."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    report = analyze_paths([root])
    assert [f.format() for f in report.findings] == []
    assert report.modules > 50
    assert report.functions > 500
    # the sweep runner's pool entry point and the static worker roots
    assert "repro.perf.sweep._run_point" in report.roots
    assert any(r.endswith("ai_rw_point") for r in report.roots)
