"""End-to-end acceptance for ``repro-noc check`` and the
``--check-invariants`` flag: exit codes are the contract CI relies on."""

import json

import pytest

from repro.cli import main
from repro.core import chiplet_pair
from repro.core.serialize import topology_to_dict

pytestmark = pytest.mark.lint


def test_check_clean_tree_exits_zero(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "0 errors" in out


def test_check_json_report(capsys):
    assert main(["check", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["errors"] == 0
    assert report["files_linted"] > 50
    assert report["topologies_validated"] >= 4


def test_check_flags_broken_scenario(tmp_path, capsys):
    spec, _, _ = chiplet_pair()
    raw = topology_to_dict(spec)
    raw["bridges"][0]["ring_b"] = 7  # dangling endpoint
    scenario = {"topology": raw, "config": {"enable_swap": False}}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(scenario))
    assert main(["check", "--scenario", str(path), "--no-builtin",
                 "--no-lint"]) == 1
    out = capsys.readouterr().out
    assert "dangling-bridge-endpoint" in out
    assert "swap-disabled-interchiplet-cycle" in out


def test_check_flags_planted_determinism_violation(tmp_path, capsys):
    bad = tmp_path / "model.py"
    bad.write_text("import random\n\n\ndef pick(xs):\n"
                   "    return random.choice(xs)\n")
    assert main(["check", "--src", str(tmp_path), "--no-builtin"]) == 1
    assert "determinism" in capsys.readouterr().out


def test_check_src_clean_dir_exits_zero(tmp_path):
    good = tmp_path / "model.py"
    good.write_text("from repro.sim.rng import make_rng\n\n\n"
                    "def pick(xs, seed):\n"
                    "    return make_rng(seed).choice(xs)\n")
    assert main(["check", "--src", str(tmp_path), "--no-builtin"]) == 0


def test_check_sarif_export(tmp_path, capsys):
    bad = tmp_path / "model.py"
    bad.write_text("import random\n")
    sarif = tmp_path / "out.sarif"
    assert main(["check", "--src", str(tmp_path), "--no-builtin",
                 "--sarif", str(sarif)]) == 1
    doc = json.loads(sarif.read_text())
    assert doc["version"] == "2.1.0"
    results = doc["runs"][0]["results"]
    assert any(r["ruleId"] == "determinism" for r in results)
    assert all("reproFingerprint/v1" in r["partialFingerprints"]
               for r in results)


def test_check_rejects_retired_flags(capsys):
    """The findings baseline and the lint memo cache are gone: every
    run is one cold pass and every finding counts."""
    for flag in ("--baseline", "--write-baseline", "--no-cache",
                 "--cache-file"):
        with pytest.raises(SystemExit) as exc:
            main(["check", flag, "x.json", "--no-builtin", "--no-lint"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_check_fail_on_warn_tightens_gate(tmp_path, capsys):
    stale = tmp_path / "model.py"
    stale.write_text("x = 1  # repro: allow[determinism]\n")
    assert main(["check", "--src", str(tmp_path),
                 "--no-builtin"]) == 0  # warn passes by default
    capsys.readouterr()
    assert main(["check", "--src", str(tmp_path), "--no-builtin",
                 "--fail-on", "warn"]) == 1
    assert "unused-suppression" in capsys.readouterr().out
    # ``warn`` is the lowest severity.
    with pytest.raises(SystemExit) as exc:
        main(["check", "--fail-on", "info"])
    assert exc.value.code == 2


def test_shipped_tree_is_clean_at_fail_on_warn(capsys):
    """The shipped tree passes the CI gate on its own merits: no
    warn-or-worse finding anywhere, unused suppressions included."""
    assert main(["check", "--fail-on", "warn"]) == 0
    assert "0 errors, 0 warnings" in capsys.readouterr().out


def test_deadlock_bench_invariants_clean(capsys):
    assert main(["deadlock", "--cycles", "400", "--check-invariants"]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_deadlock_no_swap_trips_invariants(capsys):
    code = main(["deadlock", "--cycles", "3000", "--no-swap",
                 "--check-invariants"])
    assert code == 2
    err = capsys.readouterr().err
    assert "deflection-bound" in err


def test_check_invariants_run_is_deterministic(capsys):
    def run():
        assert main(["deadlock", "--cycles", "400", "--seed", "5",
                     "--check-invariants"]) == 0
        return capsys.readouterr().out

    assert run() == run()
