"""CLI surface: subcommands, exit codes, artifacts."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import brc20sim
from brc20sim.cli import main
from brc20sim.indexer import Brc20State
from brc20sim.sim import SETTINGS, SimConfig

HEADER = {"event": "header", "config": {name: getattr(SimConfig(), name) for name in SETTINGS}}
# spends the first grant's coin at a fee the pool accepts
FUNDED_TX = {"txid": "t", "inputs": [{"outpoint": ["genesis-0", 0], "sequence": 0}],
             "outputs": [{"value": 500, "owner": "b"}], "vsize": 100}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTolerance:
    def test_three_hours(self, capsys):
        code, out, _ = run_cli(
            capsys, "tolerance", "--avail", "5000000", "--req", "2000000",
            "--vol", "1000000", "--period", "1h",
        )
        assert code == 0
        assert "3.000000 h" in out and "10800.0 s" in out

    def test_half_hour(self, capsys):
        code, out, _ = run_cli(
            capsys, "tolerance", "--avail", "2500000", "--req", "2000000",
            "--vol", "1000000", "--period", "1h",
        )
        assert code == 0 and "0.500000 h" in out

    def test_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "tolerance", "--avail", "7", "--req", "7", "--vol", "10",
        )
        assert code == 0 and "0.000000 h" in out

    def test_period_units(self, capsys):
        code, out, _ = run_cli(
            capsys, "tolerance", "--avail", "2", "--req", "1", "--vol", "1",
            "--period", "30m",
        )
        assert code == 0 and "0.500000 h" in out

    def test_invalid_args_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tolerance", "--avail", "x", "--req", "1", "--vol", "1"])
        assert exc.value.code == 1

    def test_semantic_error_exit_one(self, capsys):
        code, _, err = run_cli(
            capsys, "tolerance", "--avail", "1", "--req", "2", "--vol", "1",
        )
        assert code == 1 and "error" in err


class TestReplayBinance:
    def test_exit_zero_and_transcript(self, capsys):
        code, out, _ = run_cli(capsys, "replay-binance")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert all(r["ok"] for r in rows)


class TestSimCommand:
    def test_json_report_and_log_replay(self, capsys, tmp_path):
        log = tmp_path / "events.jsonl"
        code, out, _ = run_cli(
            capsys, "sim", "--fraction", "1.0", "--fee", "100",
            "--congestion", "0.75", "--attempts", "2", "--seed", "3",
            "--log", str(log),
        )
        assert code == 0
        report = json.loads(out)
        assert report["seed"] == 3
        assert len(report["delays"]) == 2
        assert log.exists()

        code, out, _ = run_cli(capsys, "replay", str(log))
        assert code == 0 and "replay OK" in out

    def test_replay_checks_token_supply(self, capsys, tmp_path, monkeypatch):
        log = tmp_path / "events.jsonl"
        run_cli(capsys, "sim", "--attempts", "1", "--seed", "2", "--log", str(log))
        assert '"event": "fund"' in log.read_text()
        monkeypatch.setattr(Brc20State, "supply_is_conserved", lambda self: False)
        code, out, err = run_cli(capsys, "replay", str(log))
        assert code == 2 and "divergence" in err and "replay OK" not in out

    def replay_tampered(self, capsys, tmp_path, change):
        """Replay a scenario's log after ``change`` edits its first non-empty mine event."""
        log = tmp_path / "events.jsonl"
        run_cli(
            capsys, "sim", "--fee", "100", "--congestion", "0.5",
            "--attempts", "2", "--seed", "1", "--log", str(log),
        )
        lines = log.read_text().splitlines()
        for i, line in enumerate(lines):
            event = json.loads(line)
            if event["event"] == "mine" and event["txids"]:
                change(event)
                lines[i] = json.dumps(event, sort_keys=True)
                break
        log.write_text("\n".join(lines) + "\n")
        return run_cli(capsys, "replay", str(log))

    def test_tampered_log_detected(self, capsys, tmp_path):
        def reorder(event):
            event["txids"] = event["txids"][::-1] if len(event["txids"]) > 1 else []

        code, _, err = self.replay_tampered(capsys, tmp_path, reorder)
        assert code == 2 and "divergence" in err

    def test_wrong_block_height_detected(self, capsys, tmp_path):
        def renumber(event):
            event["height"] += 1

        code, out, err = self.replay_tampered(capsys, tmp_path, renumber)
        assert code == 2 and "divergence" in err and "replay OK" not in out

    def test_off_grid_block_time_detected(self, capsys, tmp_path):
        def shift(event):
            event["t"] += 1.0

        code, out, err = self.replay_tampered(capsys, tmp_path, shift)
        assert code == 2 and "divergence" in err and "replay OK" not in out


class TestSweepCommand:
    def test_restricted_grid_csv(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--seeds", "2", "--fractions", "1.0",
            "--fees", "100,500", "--congestion", "0.25", "--attempts", "2",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("fraction,fee")
        assert len(lines) == 3

    def test_byte_identical_runs(self, capsys, tmp_path):
        args = [
            "sweep", "--seeds", "2", "--fractions", "0.5", "--fees", "200",
            "--congestion", "0.75", "--attempts", "2,5",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


    def test_no_seeds_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--seeds", "0", "--fees", "100")
        assert code == 1 and "at least one seed" in err


class TestPinnedOutputs:
    """sha256 of fixed-seed outputs: a change to any of them is a behaviour change."""

    def sha(self, path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--seeds", "1", "--fees", "100,500", "--out", str(out)]) == 0
        assert self.sha(out) == "f3adf9b739fa1aa2ec536564dd38c0f7c35f831729c8f40f51906ffff7f13bf2"

    def test_sim_log_and_report(self, tmp_path):
        log, out = tmp_path / "events.jsonl", tmp_path / "report.json"
        argv = ["sim", "--seed", "4", "--attempts", "3", "--log", str(log), "--out", str(out)]
        assert main(argv) == 0
        assert self.sha(log) == "03988115f024c21523888c95234925beb24769fe7b3db91f8e8aa10907ce3b75"
        assert self.sha(out) == "88fcf2c45b0b643e48223f7cdce131469fc62d08741131fd845fc5ede2a8c246"

    def test_replay_binance_transcript(self, tmp_path):
        out = tmp_path / "transcript.jsonl"
        assert main(["replay-binance", "--out", str(out)]) == 0
        assert self.sha(out) == "4a7b98bf164664da771669e9ee8b64471b7a41d2ccb4dc9b1ad49c09d6ed613b"


class TestBadInput:
    @pytest.mark.parametrize(
        "command, content",
        [
            ("sim", [{"sim": {"expiry": "x"}}]),
            ("sim", [{"sim": {"block_capacity_vbytes": "10"}}]),
            ("sim", [{"sim": {"expiry": True}}]),
            ("sim", [{"sim": [1]}]),
            ("sim", [[1]]),
            ("replay", [[1]]),
            ("replay", [{"event": "header", "config": [1]}]),
            ("replay", [{"event": "header", "config": {}}]),
            ("replay", [HEADER, [1]]),
            ("replay", [HEADER, {"event": "submit", "t": 0.0}]),
            ("replay", [HEADER, {"event": "submit", "t": 0.0, "tx": {},
                                 "accepted": True, "reason": None}]),
            ("sim", [{"sim": {"block_interval": 0}}]),
            ("sim", [{"sim": {"seed": 5}}]),
            ("replay", [HEADER, {"event": [1]}]),
            ("replay", [HEADER, {"event": "mine", "t": "x", "height": 0, "txids": []}]),
            ("replay", [HEADER, {"event": "grant", "owner": "a", "value": "x"}]),
            ("replay", [HEADER, {"event": "grant", "owner": "a", "value": 1_000},
                        {"event": "submit", "t": "x", "tx": FUNDED_TX,
                         "accepted": True, "reason": None}]),
            ("replay", [HEADER, {"event": "submit", "t": 0.0, "accepted": True, "reason": None,
                                 "tx": {**FUNDED_TX,
                                        "inputs": [{"outpoint": [["a"], 0], "sequence": 0}]}}]),
            ("replay", [HEADER, {"event": "fund", "t": 0.0, "value": 1.5}]),
            ("sim", [{"sim": {"expiry": float("nan")}}]),
            ("sim", [{"sim": {"block_capacity_vbytes": 10150.5}}]),
            ("sim", [{"sim": {"min_relay_fee_rate": float("nan")}}]),
        ],
    )
    def test_bad_config_or_log_exits_one_without_traceback(self, tmp_path, command, content):
        path = tmp_path / "input.json"
        path.write_text("".join(json.dumps(line) + "\n" for line in content))
        argv = ["sim", "--config", str(path)] if command == "sim" else ["replay", str(path)]
        self.assert_usage_error(argv)

    # a NaN or infinite tolerance once made the scenario's horizon unreachable
    # (a hang), and a negative one reported success
    @pytest.mark.parametrize(
        "argv",
        [
            ["sim", "--t-bar", "nan"],
            ["sim", "--t-bar", "inf"],
            ["sim", "--t-bar", "-5"],
            ["tolerance", "--avail", "2", "--req", "1", "--vol", "1", "--period", "nanh"],
            ["tolerance", "--avail", "2", "--req", "1", "--vol", "1", "--period", "inf"],
            # fewer than one worker once ran the sweep serially without a word
            ["sweep", "--workers", "0", "--seeds", "1"],
        ],
    )
    def test_bad_number_on_the_command_line_exits_one(self, argv):
        self.assert_usage_error(argv)

    def assert_usage_error(self, argv):
        src = str(Path(brc20sim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "brc20sim.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr
