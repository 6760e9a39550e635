"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_info_runs(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "repro" in out and "HPCA 2022" in out


def test_ring_command(capsys):
    assert main(["ring", "--nodes", "8", "--messages", "50"]) == 0
    out = capsys.readouterr().out
    assert "delivered 50/50" in out


def test_half_ring_command(capsys):
    assert main(["ring", "--nodes", "6", "--messages", "30", "--half"]) == 0
    assert "half ring" in capsys.readouterr().out


def test_deadlock_command_swap_on(capsys):
    assert main(["deadlock", "--cycles", "800"]) == 0
    out = capsys.readouterr().out
    assert "SWAP on" in out


def test_deadlock_command_swap_off_wedges(capsys):
    assert main(["deadlock", "--cycles", "800", "--no-swap"]) == 0
    out = capsys.readouterr().out
    assert "delivered 0" in out


def test_parser_rejects_unknown_command(capsys):
    for command in ("frobnicate", "bench"):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--version"])
    assert exc.value.code == 0


def test_topology_command(capsys, tmp_path):
    out_file = tmp_path / "topo.json"
    assert main(["topology", "server", "--save", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "rings" in out and "RBRG-L2" in out
    # The saved file loads back into a valid topology.
    from repro.core.serialize import load_topology
    with open(out_file) as fh:
        spec = load_topology(fh)
    assert len(spec.rings) == 4


def test_sweep_rw_workers_match_sequential(tmp_path, capsys):
    assert main(["sweep-rw", "--cycles", "60", "--workers", "1"]) == 0
    seq = capsys.readouterr().out
    assert main(["sweep-rw", "--cycles", "60", "--workers", "2"]) == 0
    par = capsys.readouterr().out
    assert seq == par


def test_ring_zero_messages_prints_na(capsys):
    assert main(["ring", "--nodes", "6", "--messages", "0"]) == 0
    out = capsys.readouterr().out
    assert "delivered 0/0" in out
    assert "n/a" in out
    assert "network" in out and "total" in out  # labelled latencies


def test_trace_command_smoke(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    chrome = tmp_path / "chrome.json"
    metrics = tmp_path / "metrics.json"
    assert main(["trace", "--system", "pair", "--messages", "60",
                 "--seed", "1", "--sample-every", "32",
                 "--events", str(events), "--chrome", str(chrome),
                 "--json", str(metrics), "--top-hotspots", "3"]) == 0
    out = capsys.readouterr().out
    assert "drained" in out and "hotspots" in out and "score" in out
    # The JSONL dump round-trips and validates against the schema.
    from repro.obs import read_jsonl, validate_event_stream
    with open(events) as fh:
        parsed = read_jsonl(fh)
    assert parsed and validate_event_stream(parsed) == []
    # The Chrome trace is valid JSON with instant events.
    import json as _json
    with open(chrome) as fh:
        doc = _json.load(fh)
    assert any(e["ph"] == "i" for e in doc["traceEvents"])
    with open(metrics) as fh:
        record = _json.load(fh)
    assert record["delivered"] == 60
    assert record["schema_errors"] == []
    assert record["latency"]["network"]["count"] == 60.0


def test_trace_zero_messages_exits_cleanly(capsys):
    assert main(["trace", "--system", "tiny", "--messages", "0",
                 "--max-cycles", "100"]) == 0
    out = capsys.readouterr().out
    assert "delivered 0/0" in out and "n/a" in out


# -- faults: failure gate and retired flags -------------------------------


def _raising_campaign_point(point, seed):
    raise RuntimeError(f"worker exploded at {point.name}")


def test_faults_failure_gate_exit_code(monkeypatch, capsys):
    """A raising worker fails the only point; --max-failures gates it."""
    from repro.cli import EXIT_MAX_FAILURES
    from repro.faults import campaign

    monkeypatch.setattr(campaign, "fault_campaign_point",
                        _raising_campaign_point)
    argv = ["faults", "--messages", "10", "--rates", "0", "--workers", "1"]
    assert main(argv) == EXIT_MAX_FAILURES
    err = capsys.readouterr().err
    assert "exceed --max-failures" in err and "RuntimeError" in err
    assert "worker exploded at ber0-retry8" in err
    # A raised failure budget tolerates the same campaign.
    assert main(argv + ["--max-failures", "5"]) == 0
    out = capsys.readouterr().out
    assert "FAILED" in out and "1 FAILED" in out


@pytest.mark.parametrize("flag", [
    ["--timeout", "10"], ["--retries", "2"], ["--journal", "j.jsonl"],
    ["--resume"], ["--health-json", "h.json"],
])
def test_faults_rejects_retired_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["faults", "--messages", "10", "--rates", "0"] + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
