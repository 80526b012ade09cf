"""The managed-service CLI."""

import pytest

from repro.cli import build_parser, main
from tests.conftest import row_plane_only


def test_markets_command(capsys):
    assert main(["markets", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "spot universe" in out
    assert "on-demand/r3.large" in out
    assert "MTTF" in out


def test_select_batch(capsys):
    assert main(["select", "--mode", "batch", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "mode: batch" in out
    assert "expected cost/server" in out


def test_select_interactive(capsys):
    assert main(["select", "--mode", "interactive", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "markets:" in out
    # Interactive diversifies: more than one market listed.
    markets_line = [l for l in out.splitlines() if l.startswith("markets:")][0]
    assert "," in markets_line


def test_canonical_command(capsys):
    assert main(["canonical", "--selector", "on-demand", "--runs", "3",
                 "--hours", "1", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "canonical job under on-demand" in out
    assert "mean overhead" in out


def test_run_tpch_small(capsys):
    assert main(["run", "--workload", "tpch", "--nodes", "4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "runtime:" in out
    assert "cost:" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--workload", "nope"])


_SERVE_SMALL = ["serve", "--workers", "4", "--queries", "2", "--seed", "5"]


def test_serve_healthy_run(capsys):
    assert main(_SERVE_SMALL) == 0
    out = capsys.readouterr().out
    assert "job server SLOs (policy=fair, seed=5, workers=4)" in out
    assert "interactive" in out and "batch" in out
    assert "failed: 0" in out and "rejected: 0" in out
    assert "revocations: 0" in out


def test_serve_output_is_deterministic(capsys):
    assert main(_SERVE_SMALL) == 0
    first = capsys.readouterr().out
    assert main(_SERVE_SMALL) == 0
    second = capsys.readouterr().out
    assert first == second


def test_serve_policy_changes_the_report(capsys):
    assert main(_SERVE_SMALL + ["--policy", "fifo"]) == 0
    out = capsys.readouterr().out
    assert "policy=fifo" in out


def test_serve_exits_nonzero_on_rejection(capsys):
    # One slot, no queue, two overlapping clients: someone gets shed.
    assert main(_SERVE_SMALL + [
        "--clients", "2", "--interactive-cap", "1", "--queue-cap", "0",
    ]) == 1
    captured = capsys.readouterr()
    assert "UNHEALTHY" in captured.err
    assert "rejected: 0" not in captured.out


def test_serve_revocation_flag(capsys):
    assert main(_SERVE_SMALL + ["--revoke"]) == 0
    out = capsys.readouterr().out
    assert "revocations: 1" in out


def test_advise_command(capsys):
    from repro.cli import main

    assert main(["advise", "--seed", "7", "--hours", "2"]) == 0
    out = capsys.readouterr().out
    assert "market quotes" in out
    assert "batch pick" in out
    assert "savings" in out


def test_main_leaves_the_environment_unchanged(tmp_path, monkeypatch, capsys):
    """``trace`` reaches the scenario builders through ``FLINT_TRACE``; a
    caller importing ``main`` must get its own environment back afterwards."""
    import os

    for key in [k for k in os.environ if k.startswith("FLINT_")]:
        monkeypatch.delenv(key)
    before = dict(os.environ)
    assert main(["trace", "streaming", "--workers", "4", "--batches", "2",
                 "--out", str(tmp_path / "t.json"), "--seed", "3"]) == 0
    assert dict(os.environ) == before
    capsys.readouterr()


def test_columnar_plane_is_report_invariant(request, capsys):
    """The serve report is bit-identical whichever plane runs fused chains."""
    assert main(_SERVE_SMALL) == 0
    on_out = capsys.readouterr().out
    request.getfixturevalue("row_plane")
    assert main(_SERVE_SMALL) == 0
    off_out = capsys.readouterr().out
    assert on_out == off_out


_STREAM_SMALL = ["run", "--workload", "streaming", "--nodes", "4",
                 "--batches", "3", "--batch-interval", "20", "--seed", "3"]


def test_run_streaming_wordcount(capsys):
    """Default streaming scenario: τ-checkpointed stateful wordcount."""
    assert main(_STREAM_SMALL) == 0
    out = capsys.readouterr().out
    assert "batches: 3" in out
    assert "records/s" in out
    assert "state checkpoints:" in out


def test_run_streaming_windowed(capsys):
    """--window > 1 switches to the windowed aggregation."""
    assert main(["run", "--workload", "streaming", "--nodes", "4",
                 "--batches", "5", "--window", "3", "--slide", "2",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "batches: 5" in out
    assert "state checkpoints:" not in out


def test_trace_streaming_scenario(tmp_path, capsys):
    """trace streaming exports stream-batch spans on their own lane."""
    import json

    out = tmp_path / "stream.json"
    assert main(["trace", "streaming", "--workers", "4", "--batches", "2",
                 "--out", str(out), "--seed", "3"]) == 0
    trace = json.loads(out.read_text())
    batch_rows = [r for r in trace["traceEvents"]
                  if r.get("cat") == "stream-batch"]
    assert len(batch_rows) == 2
    text = capsys.readouterr().out
    assert "stream-batch=2" in text
    assert "span/book reconciliation: OK" in text


def test_streaming_report_is_plane_invariant(capsys):
    """Same streaming report whichever data plane runs it."""
    with row_plane_only():
        assert main(_STREAM_SMALL) == 0
    row_out = capsys.readouterr().out
    assert main(_STREAM_SMALL) == 0
    columnar_out = capsys.readouterr().out
    assert row_out == columnar_out
