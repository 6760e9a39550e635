"""The unified findings pipeline: severity, fingerprints, suppressions,
SARIF, and the ``run_check`` orchestration.

The load-bearing property is fingerprint stability: a finding's identity
is (rule, normalized path, normalized line content) — *not* its line
number — so edits above a finding must not change it, and code scanning
keeps tracking the same annotation.  A hypothesis property drives that
directly.
"""

import json
import os
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.findings import (
    Finding,
    Severity,
    normalize_context,
    normalize_path,
)
from repro.lint.rules import lint_source
from repro.lint.runner import run_check
from repro.lint.sarif import findings_to_sarif
from repro.lint.suppress import Suppressions
from repro.reporting import exit_code_for

pytestmark = pytest.mark.lint


# ---------------------------------------------------------------- severity

def test_severity_rank_ordering():
    assert Severity.RANK[Severity.ERROR] > Severity.RANK[Severity.WARN]


def test_legacy_warning_spelling_normalizes():
    assert Severity.normalize("warning") == Severity.WARN
    f = Finding(rule="r", message="m", severity="warning")
    assert f.severity == Severity.WARN
    assert Severity.WARNING == Severity.WARN  # back-compat alias


def test_fail_on_thresholds():
    findings = [Finding(rule="a", message="m", severity=Severity.WARN)]
    assert exit_code_for(findings, fail_on=Severity.ERROR) == 0
    assert exit_code_for(findings, fail_on=Severity.WARN) == 1


# ------------------------------------------------------------ fingerprints

DEFECT_SOURCE = textwrap.dedent("""\
    import random

    def draw(seed):
        return random.Random(seed).random()
""")

SIM_PATH = "pkg/src/repro/sim/model.py"


def _fingerprints(source, path=SIM_PATH):
    return {f.rule: f.fingerprint for f in lint_source(source, path)}


junk_lines = st.lists(
    st.sampled_from(["", "# a comment", "#", "   ", "# repro noise"]),
    min_size=1, max_size=12)


@settings(max_examples=50, deadline=None)
@given(junk=junk_lines)
def test_fingerprint_stable_under_insertions_above(junk):
    """Inserting blank lines/comments above a finding keeps its identity."""
    base = _fingerprints(DEFECT_SOURCE)
    shifted_src = "\n".join(junk) + "\n" + DEFECT_SOURCE
    shifted = _fingerprints(shifted_src)
    assert base == shifted
    # ... while the *line numbers* did move, proving the fingerprint is
    # not keyed on them.
    base_lines = {f.line for f in lint_source(DEFECT_SOURCE, SIM_PATH)}
    new_lines = {f.line for f in lint_source(shifted_src, SIM_PATH)}
    assert base_lines != new_lines


def test_fingerprint_changes_when_flagged_line_changes():
    a = Finding(rule="determinism", message="m", path=SIM_PATH,
                context="import random")
    b = Finding(rule="determinism", message="m", path=SIM_PATH,
                context="import secrets")
    assert a.fingerprint != b.fingerprint


def test_fingerprint_ignores_whitespace_and_checkout_prefix():
    a = Finding(rule="r", message="m", path="/home/a/src/repro/x.py",
                line=10, context="x  =   1")
    b = Finding(rule="r", message="m", path="/ci/build/src/repro/x.py",
                line=99, context="x = 1")
    assert a.fingerprint == b.fingerprint


def test_normalize_helpers():
    assert normalize_context("  a \t b\n") == "a b"
    assert normalize_path("/any/where/src/repro/perf/sweep.py") == \
        "repro/perf/sweep.py"
    assert normalize_path("scenario.json") == "scenario.json"


def test_finding_dict_roundtrip_preserves_fingerprint():
    f = Finding(rule="r", message="m", severity=Severity.WARN,
                path="src/repro/x.py", line=3, col=1, context="y = 2")
    g = Finding.from_dict(json.loads(json.dumps(f.to_dict())))
    assert g == f
    assert g.fingerprint == f.fingerprint


# ------------------------------------------------------------ suppressions

def test_suppression_comment_in_docstring_is_inert():
    source = '"""Docs show ``# repro: allow[determinism]`` usage."""\n'
    supp = Suppressions(source, "x.py")
    assert not supp
    assert supp.unused_findings() == []


def test_unused_suppression_reported_as_warn():
    source = "x = 1  # repro: allow[determinism]\n"
    supp = Suppressions(source, "x.py")
    findings = supp.unused_findings()
    assert [f.rule for f in findings] == ["unused-suppression"]
    assert findings[0].severity == Severity.WARN
    assert findings[0].line == 1


def test_used_suppression_not_reported():
    source = "import random  # repro: allow[determinism]\n"
    supp = Suppressions(source, SIM_PATH)
    findings = lint_source(source, SIM_PATH, suppressions=supp)
    assert findings == []
    assert supp.used() == [(1, "determinism")]
    assert supp.unused_findings() == []


def test_legacy_lint_prefix_still_accepted():
    source = "import random  # lint: allow[determinism]\n"
    assert lint_source(source, SIM_PATH) == []


# ------------------------------------------------------------------- SARIF

def test_sarif_document_shape():
    findings = [
        Finding(rule="determinism", message="no", severity=Severity.ERROR,
                path="/x/src/repro/sim/a.py", line=3, col=0, context="c"),
        Finding(rule="unused-suppression", message="stale",
                severity=Severity.WARN, path="/x/src/repro/b.py", line=7),
        Finding(rule="missing-path", message="gone",
                severity=Severity.WARN),
    ]
    doc = findings_to_sarif(findings)
    assert doc["version"] == "2.1.0"
    assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-noc-check"
    assert {r["id"] for r in driver["rules"]} == {
        "determinism", "unused-suppression", "missing-path"}
    assert all(r["shortDescription"]["text"] for r in driver["rules"])
    levels = [r["level"] for r in run["results"]]
    assert levels == ["error", "warning", "warning"]
    first = run["results"][0]
    loc = first["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "src/repro/sim/a.py"
    assert loc["region"] == {"startLine": 3, "startColumn": 1}
    assert first["partialFingerprints"]["reproFingerprint/v1"] == \
        findings[0].fingerprint
    # pathless findings carry no location but stay valid results
    assert "locations" not in run["results"][2]


def test_sarif_validates_against_bundled_schema_subset():
    """Structural invariants the 2.1.0 schema enforces (full-schema
    validation runs in CI where the schema can be fetched)."""
    doc = findings_to_sarif(lint_source(DEFECT_SOURCE, SIM_PATH))
    json.dumps(doc)  # serializable
    for result in doc["runs"][0]["results"]:
        assert set(result) >= {"ruleId", "level", "message"}
        assert result["level"] in ("error", "warning", "note", "none")
        assert "text" in result["message"]


# --------------------------------------------------------------- run_check

def _write_tree(root, defect=True):
    pkg = root / "repro" / "sim"
    os.makedirs(pkg, exist_ok=True)
    (root / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    body = DEFECT_SOURCE if defect else "VALUE = 1\n"
    (pkg / "model.py").write_text(body)
    return str(root)


def test_run_check_honours_used_suppression(tmp_path):
    """A suppression consumed by the lint layer is not reported as
    unused once every layer has run."""
    src = _write_tree(tmp_path / "src", defect=False)
    model = tmp_path / "src" / "repro" / "sim" / "model.py"
    model.write_text("import random  # repro: allow[determinism]\n")
    report = run_check(src_paths=[src], builtin=False)
    assert [f.rule for f in report.findings] == []
    assert report.fail_on == Severity.ERROR


def test_run_check_writes_no_cache(tmp_path, monkeypatch):
    """One cold pass: a check leaves nothing behind under the user's
    cache or home directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    src = _write_tree(tmp_path / "src")
    first = run_check(src_paths=[src], builtin=False)
    second = run_check(src_paths=[src], builtin=False)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["src"]
    assert [f.fingerprint for f in first.findings] == \
        [f.fingerprint for f in second.findings]
    assert second.exit_code == 1


def test_run_check_dataflow_layer_fires(tmp_path):
    src = _write_tree(tmp_path / "src", defect=True)
    report = run_check(src_paths=[src], builtin=False)
    rules = {f.rule for f in report.findings}
    assert "determinism" in rules       # per-file lint layer
    assert "rng-not-rooted" in rules    # interprocedural layer
    assert report.modules_analyzed == 3
    off = run_check(src_paths=[src], builtin=False, dataflow=False)
    assert "rng-not-rooted" not in {f.rule for f in off.findings}
