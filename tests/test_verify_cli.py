"""End-to-end acceptance for ``repro-noc verify``: exit codes and the
counterexample save/replay flow are the contract CI relies on."""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.lint


def test_verify_cdg_only_exits_zero(capsys):
    assert main(["verify", "--system", "chiplet-pair",
                 "--no-model-check"]) == 0
    out = capsys.readouterr().out
    assert "benign-swap" in out
    assert "skipped (disabled" in out


def test_verify_infeasible_system_gets_a_note(capsys):
    assert main(["verify", "--system", "chiplet-pair"]) == 0
    out = capsys.readouterr().out
    assert "exceeds the explicit-state budget" in out


def test_verify_no_swap_cdg_finding_exits_one(capsys):
    assert main(["verify", "--system", "chiplet-pair", "--no-swap",
                 "--no-model-check"]) == 1
    assert "deadlock-capable" in capsys.readouterr().out


def test_verify_json_report(capsys):
    assert main(["verify", "--system", "chiplet-pair",
                 "--no-model-check", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["findings"] == 0
    assert report["systems"][0]["name"] == "chiplet-pair"
    assert report["systems"][0]["cdg"]["cycles"]


@pytest.mark.model_check
def test_verify_pair_full_stack_clean(capsys):
    assert main(["verify", "--system", "pair", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "exhaustive" in out
    assert "0 violation(s)" in out
    assert "time[model]" in out


@pytest.mark.model_check
def test_verify_no_swap_counterexample_and_replay_flow(tmp_path, capsys):
    ce_path = tmp_path / "ce.json"
    assert main(["verify", "--system", "pair", "--no-swap",
                 "--save-counterexample", str(ce_path)]) == 1
    out = capsys.readouterr().out
    assert "deadlock-capable" in out
    assert "replay[skip]: confirmed" in out
    assert "replay[ref]: confirmed" in out
    assert ce_path.exists()

    # The saved counterexample replays standalone via --replay.
    assert main(["verify", "--replay", str(ce_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("confirmed") == 2
