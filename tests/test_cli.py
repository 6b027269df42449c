"""CLI surface: subcommands, exit codes, artifacts."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

import brc20sim
from brc20sim import cli
from brc20sim.cli import cmd_replay_log, main
from brc20sim.harness import ScenarioConfig, run_binance_replay, run_scenario
from brc20sim.indexer import Indexer
from brc20sim.mempool import Mempool
from brc20sim.sim import MAX_NORMAL_COUNT, SETTINGS, SimConfig, collector_paused
from brc20sim.wallet import TX1_VSIZE

# a log's header; a log that replays to its end counts its events in place of the 0
HEADER = {"event": "header", "config": {name: getattr(SimConfig(), name) for name in SETTINGS},
          "events": 0}
# spends the first grant's coin at a fee the pool accepts
FUNDED_TX = {"txid": "t", "inputs": [{"outpoint": ["genesis-0", 0], "sequence": 0}],
             "outputs": [{"value": 500, "owner": "b"}], "vsize": 100}


def submit_line(txid, outpoint, value, owner="mkt", reason=None):
    """A submit event at t=10 of a one-input, one-output transaction of 100 vB."""
    return {"event": "submit", "t": 10.0, "accepted": reason is None, "reason": reason,
            "tx": {"txid": txid, "inputs": [{"outpoint": outpoint, "sequence": 0}],
                   "outputs": [{"value": value, "owner": owner}], "vsize": 100}}


def market_line(txid, fee, t=10.0, reason=None):
    """A submit event of a market entry of 400 vB."""
    return {"event": "submit", "t": t, "accepted": reason is None, "reason": reason,
            "txid": txid, "fee": fee, "vsize": 400}


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

    def test_a_grant_between_market_lines_keeps_its_serial(self, capsys, tmp_path):
        # market entries take no serial: the grant is genesis-0 wherever it falls
        log = tmp_path / "events.jsonl"
        log.write_text("".join(json.dumps(line) + "\n" for line in [
            {**HEADER, "events": 6},
            market_line("s0", 2_000, t=0.0),
            {"event": "grant", "t": 0.0, "owner": "a", "value": 1_000},
            market_line("s1", 6_000),
            market_line("s2", 8_500),
            submit_line("g", ["genesis-0", 0], 800, owner="b"),
            {"event": "mine", "t": 600.0, "height": 0, "txids": ["s2", "s1", "s0", "g"]},
        ]))
        code, out, err = run_cli(capsys, "replay", str(log))
        assert (code, err) == (0, "") and "replay OK: 4 submissions, 1 blocks verified" in out

    # a log of the old format, whose market transactions spent coins funded by
    # fund lines, once replayed its fund lines as skipped and failed as a
    # divergence (exit 2) at the first market transaction
    OLD_FORMAT_LOG = [
        HEADER,
        {"event": "fund", "t": 0.0, "value": 5_000},
        {"event": "grant", "t": 0.0, "owner": "a", "value": 1_000},
        {"event": "fund", "t": 0.0, "value": 7_000},
        submit_line("s1", ["fund-1", 0], 6_000),
        submit_line("g", ["genesis-0", 0], 800, owner="b"),
        {"event": "mine", "t": 600.0, "height": 0, "txids": ["s1", "g"]},
    ]

    def test_a_log_of_the_old_format_exits_one_at_its_first_fund_line(self, capsys, tmp_path):
        log = tmp_path / "events.jsonl"
        log.write_text("".join(json.dumps(line) + "\n" for line in self.OLD_FORMAT_LOG))
        code, out, err = run_cli(capsys, "replay", str(log))
        assert code == 1 and "replay OK" not in out
        assert "error: log line 2: a fund line comes from the old log format" in err

    def test_a_bad_fund_value_is_reported_before_a_later_line(self, capsys, tmp_path):
        # a fund line, of any value, is refused on its own line (exit 1), before
        # the later line's time (exit 2)
        log = tmp_path / "events.jsonl"
        log.write_text("".join(json.dumps(line) + "\n" for line in [
            HEADER,
            {"event": "fund", "t": 0.0, "value": 0},
            market_line("m", 5_000, t=9_999.0),
        ]))
        code, _, err = run_cli(capsys, "replay", str(log))
        assert code == 1 and "log line 2: a fund line comes from the old log format" in err

    def test_main_looks_the_command_up_per_call(self, capsys, tmp_path, monkeypatch):
        # the parser is built once; a command wrapped after that (as the
        # benchmark's tracer wraps replay) must still be the one main runs
        log = tmp_path / "events.jsonl"
        log.write_text(json.dumps(HEADER) + "\n")
        assert run_cli(capsys, "replay", str(log))[0] == 0
        calls = []
        monkeypatch.setattr(brc20sim.cli, "cmd_replay_log", lambda args: calls.append(args.log) or 0)
        assert run_cli(capsys, "replay", str(log)) == (0, "", "")
        assert calls == [str(log)]

    def test_replay_checks_token_supply(self, capsys, tmp_path, monkeypatch):
        log = tmp_path / "events.jsonl"
        run_cli(capsys, "sim", "--attempts", "1", "--seed", "2", "--log", str(log))
        assert '"fee": ' in log.read_text() and '"event": "fund"' not in log.read_text()
        monkeypatch.setattr(Indexer, "supply_is_conserved", lambda self: False)
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

    # a send after the block that mined it, or before the event that precedes
    # it, once replayed as OK
    @pytest.mark.parametrize("sent_at", [2401.0, -100.0])
    def test_impossible_send_time_detected(self, capsys, tmp_path, sent_at):
        log = tmp_path / "events.jsonl"
        run_cli(capsys, "sim", "--seed", "4", "--attempts", "3", "--log", str(log))
        events = [json.loads(line) for line in log.read_text().splitlines()]
        # the first attempt's Tx1: sent at 1800 and mined in the block at 2400
        tx1 = next(
            e for e in events
            if e["event"] == "submit" and e["t"] == 1800.0 and e["tx"]["vsize"] == TX1_VSIZE
        )
        assert any(e["event"] == "mine" and e["t"] == 2400.0 and tx1["tx"]["txid"] in e["txids"]
                   for e in events)
        tx1["t"] = sent_at
        log.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in events))
        code, out, err = run_cli(capsys, "replay", str(log))
        assert code == 2 and "divergence" in err and "replay OK" not in out

    # a grant at a time the simulation never reached once replayed as OK
    @pytest.mark.parametrize("kind, moved_to", [("grant", 1e9)])
    def test_impossible_genesis_time_detected(self, capsys, tmp_path, kind, moved_to):
        log = tmp_path / "events.jsonl"
        run_cli(capsys, "sim", "--seed", "4", "--attempts", "3", "--log", str(log))
        events = [json.loads(line) for line in log.read_text().splitlines()]
        last = [e for e in events if e["event"] == kind][-1]
        assert last["t"] == 600.0
        last["t"] = moved_to
        log.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in events))
        code, out, err = run_cli(capsys, "replay", str(log))
        assert code == 2 and "divergence" in err and "replay OK" not in out


class TestReplayRuns:
    """Replay reads a log in one pass and submits each run of consecutive submit
    lines as one batch; the first bad line in the file is the one reported."""

    @pytest.fixture(scope="class")
    def seed7(self, tmp_path_factory):
        """The README's example log: `brc20sim sim --seed 7 --log events.jsonl`."""
        log = tmp_path_factory.mktemp("seed7") / "events.jsonl"
        assert main(["sim", "--seed", "7", "--log", str(log), "--out", os.devnull]) == 0
        return log.read_text().splitlines(keepends=True)

    @staticmethod
    def mid_run_market_line(lines) -> int:
        """The index of a market submit line with a market submit line on either side."""
        market = [json.loads(line)["event"] == "submit" and '"tx"' not in line for line in lines]
        return next(i for i in range(len(lines) // 2, len(lines) - 1)
                    if market[i - 1] and market[i] and market[i + 1])

    def replay(self, capsys, tmp_path, lines):
        log = tmp_path / "events.jsonl"
        log.write_text("".join(lines))
        return run_cli(capsys, "replay", str(log))

    def test_a_flipped_decision_inside_a_run_names_its_txid(self, capsys, tmp_path, seed7):
        lines, i = list(seed7), self.mid_run_market_line(seed7)
        event = json.loads(lines[i])
        assert event["accepted"]
        lines[i] = json.dumps({**event, "accepted": False}) + "\n"
        code, out, err = self.replay(capsys, tmp_path, lines)
        assert code == 2 and "replay OK" not in out
        assert f"tx {event['txid']} got " in err and "log has accepted=False" in err

    def test_two_flipped_decisions_in_one_run_name_the_earlier_line(
        self, capsys, tmp_path, seed7
    ):
        # a run is checked by one comparison; a mismatch is walked in line order
        lines, i = list(seed7), self.mid_run_market_line(seed7)
        txids = [json.loads(lines[j])["txid"] for j in (i, i + 1)]
        for j in (i, i + 1):
            assert '"accepted": true' in lines[j]
            lines[j] = lines[j].replace('"accepted": true', '"accepted": false')
        code, out, err = self.replay(capsys, tmp_path, lines)
        assert code == 2 and out == ""
        assert f"tx {txids[0]} got " in err and txids[1] not in err

    def test_crlf_line_ends_and_blank_lines_replay_alike(self, capsys, tmp_path, seed7):
        plain = self.replay(capsys, tmp_path, seed7)
        spaced = ["\r\n"] + [line.replace("\n", "\r\n") + "\r\n" for line in seed7]
        assert self.replay(capsys, tmp_path, spaced) == plain
        assert plain == (0, "replay OK: 979 submissions, 28 blocks verified\n", "")

    def test_a_json_error_after_a_blank_line_names_its_line_in_the_file(
        self, capsys, tmp_path, seed7
    ):
        lines = seed7[:3] + ["\n", "  \n", "{bad\n"] + seed7[3:]
        code, out, err = self.replay(capsys, tmp_path, lines)
        assert (code, out) == (1, "")
        assert err == "error: log line 6: Expecting property name enclosed in double quotes " \
                      "at column 2\n"

    @pytest.mark.parametrize("sort_keys", [True, False])  # the strict reader, the decoder
    def test_a_market_line_with_a_negative_fee_exits_one(self, capsys, tmp_path, sort_keys):
        code, out, err = self.replay(capsys, tmp_path, [
            json.dumps(HEADER) + "\n", "\n",
            json.dumps(market_line("m", -1), sort_keys=sort_keys) + "\n",
        ])
        assert (code, out) == (1, "")
        assert err == ("error: log line 3: market entry needs vsize >= 1 and fee >= 0, "
                       "got (400, -1)\n")

    def test_a_market_line_after_the_next_block_is_a_divergence(self, capsys, tmp_path):
        code, out, err = self.replay(capsys, tmp_path, [json.dumps(line, sort_keys=True) + "\n"
                                                        for line in [{**HEADER, "events": 1},
                                                                     market_line("m", 5_000, t=600.5)]])
        assert (code, out) == (2, "")
        assert err == "divergence at t=600.5: a market here must fall in [0.0, 600.0]\n"

    @pytest.mark.parametrize("bad_at, code", [(1, 2), (0, 1)])  # after, or before, the flip
    def test_the_first_bad_line_in_the_file_is_reported(
        self, capsys, tmp_path, seed7, bad_at, code
    ):
        lines, i = list(seed7), self.mid_run_market_line(seed7)
        lines[i] = lines[i].replace('"accepted": true', '"accepted": false')
        lines.insert(i + bad_at, "not json\n")
        got, _, err = self.replay(capsys, tmp_path, lines)
        assert got == code
        assert ("divergence at" in err) == (code == 2)
        assert (f"log line {i + bad_at + 1}: Expecting value" in err) == (code == 1)

    def test_a_pool_that_binds_its_capacity_replays(self, capsys, tmp_path):
        config = ScenarioConfig(
            fraction=1.0, fee_rate=100, congestion=0.75, attempts=2,
            sim=SimConfig(congestion_normal_count=2000, mempool_capacity_vbytes=400_000),
        )
        log = tmp_path / "events.jsonl"
        run_scenario(config, 4, log_path=str(log))
        events = [json.loads(line) for line in log.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        full_inside_runs = [
            i for i in range(1, len(events) - 1)
            if events[i].get("reason") == "mempool-full"
            and kinds[i - 1] == kinds[i + 1] == "submit"
        ]
        assert full_inside_runs
        code, out, err = run_cli(capsys, "replay", str(log))
        assert (code, err) == (0, "")
        counts = f"{kinds.count('submit')} submissions, {kinds.count('mine')} blocks"
        assert f"replay OK: {counts} verified" in out

    def test_a_grant_between_submits_comes_after_the_one_and_before_the_other(
        self, capsys, tmp_path
    ):
        code, out, err = self.replay(capsys, tmp_path, [json.dumps(line) + "\n" for line in [
            {**HEADER, "events": 6},
            {"event": "grant", "t": 0.0, "owner": "a", "value": 1_000},
            submit_line("s1", ["genesis-0", 0], 500),
            submit_line("early", ["genesis-1", 0], 1_000, reason="orphan-input"),  # not granted yet
            {"event": "grant", "t": 10.0, "owner": "a", "value": 2_000},
            submit_line("s2", ["genesis-1", 0], 1_000),  # spends the grant just before it
            {"event": "mine", "t": 600.0, "height": 0, "txids": ["s2", "s1"]},
        ]])
        assert (code, err) == (0, "") and "replay OK: 3 submissions, 1 blocks verified" in out

    def test_the_readme_log_takes_one_pool_submit_per_foreground_transaction(
        self, capsys, tmp_path, seed7, monkeypatch
    ):
        # 979 submissions, 975 of them market entries: the 4 foreground ones
        # (deploy, mint, Tx1, Tx2) go through Mempool.submit, and each run of
        # market lines is one batch
        calls = Counter()
        submit, submit_batch = Mempool.submit, Mempool.submit_batch

        def counted_submit(self, *args):
            calls["submit"] += 1
            return submit(self, *args)

        def counted_batch(self, *args):
            calls["submit_batch"] += 1
            return submit_batch(self, *args)

        monkeypatch.setattr(Mempool, "submit", counted_submit)
        monkeypatch.setattr(Mempool, "submit_batch", counted_batch)
        kinds = [json.loads(line)["event"] for line in seed7]
        market = [kind == "submit" and '"tx"' not in line for kind, line in zip(kinds, seed7)]
        runs = sum(1 for i, m in enumerate(market) if m and not market[i - 1])
        assert (len(seed7), kinds.count("submit"), kinds.count("mine")) == (1_020, 979, 28)
        assert (kinds.count("grant"), market.count(True)) == (12, 975)
        code, out, _ = self.replay(capsys, tmp_path, seed7)
        assert code == 0 and "replay OK: 979 submissions, 28 blocks verified" in out
        assert calls == {"submit": 4, "submit_batch": runs}

    def test_only_the_non_market_lines_of_the_readme_log_are_decoded(
        self, capsys, tmp_path, seed7, monkeypatch
    ):
        # the strict reader takes every market line log_line writes; a writer
        # change that turned it off would cost replay its speed and fail here
        decoded, decode = [], cli._decoded

        def counted(number, line):
            decoded.append(number)
            return decode(number, line)

        monkeypatch.setattr(cli, "_decoded", counted)
        code, out, _ = self.replay(capsys, tmp_path, seed7)
        assert code == 0 and "replay OK: 979 submissions, 28 blocks verified" in out
        market = [n for n, line in enumerate(seed7, start=1)
                  if json.loads(line)["event"] == "submit" and '"tx"' not in line]
        assert len(market) == 975
        assert decoded == [n for n in range(1, len(seed7) + 1) if n not in market]

    # a log cut short, or missing a market line that was never mined, once replayed
    # as OK: each line it kept still verified, and nothing tied the log to its length
    def test_a_log_cut_short_is_a_divergence(self, capsys, tmp_path, seed7):
        assert json.loads(seed7[0])["events"] == len(seed7) - 1 == 1_019
        code, out, err = self.replay(capsys, tmp_path, seed7[:500])
        assert code == 2 and "replay OK" not in out
        assert "divergence: replay recorded 499 events, the log header counts 1019" in err

    def test_a_log_missing_a_never_mined_line_is_a_divergence(self, capsys, tmp_path, seed7):
        mined = {txid for line in seed7 if '"mine"' in line for txid in json.loads(line)["txids"]}
        i = next(i for i, line in enumerate(seed7)
                 if '"fee"' in line and json.loads(line)["txid"] not in mined)
        assert json.loads(seed7[i])["accepted"]
        code, out, err = self.replay(capsys, tmp_path, seed7[:i] + seed7[i + 1:])
        assert code == 2 and "replay OK" not in out
        assert "divergence: replay recorded 1018 events, the log header counts 1019" in err

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # forked sweep workers share their parent's hash seed, so only separate
        # processes show that no output depends on set or dict iteration order
        src = str(Path(brc20sim.__file__).resolve().parents[1])
        seen = set()
        for hash_seed in ("0", "12345"):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
            log, report = tmp_path / f"log-{hash_seed}", tmp_path / f"report-{hash_seed}"

            def cli(*argv):
                return subprocess.run([sys.executable, "-m", "brc20sim.cli", *argv],
                                      capture_output=True, text=True, env=env, timeout=60)

            sim = cli("sim", "--seed", "7", "--log", str(log), "--out", str(report))
            replayed = cli("replay", str(log))
            assert sim.returncode == replayed.returncode == 0
            assert replayed.stdout == "replay OK: 979 submissions, 28 blocks verified\n"
            seen.add((hashlib.sha256(log.read_bytes()).hexdigest(),
                      hashlib.sha256(report.read_bytes()).hexdigest()))
        assert len(seen) == 1


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


class TestOutFiles:
    """main closes every --out file it opened, and writes to the sys.stdout of the call."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sim", "--attempts", "1"],
            ["sweep", "--seeds", "1", "--fractions", "1.0", "--fees", "100",
             "--congestion", "0.25", "--attempts", "2"],
            ["replay-binance"],
        ],
    )
    def test_an_out_file_is_closed_by_the_time_main_returns(self, tmp_path, monkeypatch, argv):
        # an unclosed file warns when it is freed, where a raised warning is unraisable
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert main(argv + ["--out", str(out)]) == 0
            gc.collect()
        assert unraisable == []
        assert out.read_text()

    def test_stdout_is_the_callers_and_stays_open(self, capsys):
        assert main(["replay-binance"]) == 0  # the parser now exists
        capsys.readouterr()
        for argv in (["replay-binance"], ["replay-binance", "--out", "-"]):
            with contextlib.redirect_stdout(io.StringIO()) as buffer:
                assert main(argv) == 0
            assert not buffer.closed and '"ok": true' in buffer.getvalue()
        assert main(["replay-binance"]) == 0
        assert '"ok": true' in capsys.readouterr().out


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
        assert self.sha(log) == "45593ae99e92b975aadc06f085f51a8596d07d093d7503fb9db0b72c95db944e"
        assert self.sha(out) == "88fcf2c45b0b643e48223f7cdce131469fc62d08741131fd845fc5ede2a8c246"

    def test_replay_binance_transcript(self, tmp_path):
        out = tmp_path / "transcript.jsonl"
        assert main(["replay-binance", "--out", str(out)]) == 0
        assert self.sha(out) == "e8e7ab068ee69110293ab3eef35620102d77408b4984709b26dc21e2a003fad0"


class TestBadInput:
    @pytest.mark.parametrize(
        "command, content",
        [
            ("sim", [{"sim": {"mempool_capacity_vbytes": "x"}}]),
            ("sim", [{"sim": {"block_capacity_vbytes": "10"}}]),
            ("sim", [{"sim": {"congestion_normal_count": True}}]),
            ("sim", [{"sim": [1]}]),
            ("sim", [[1]]),
            ("replay", [[1]]),
            ("replay", [{"event": "header", "config": [1]}]),
            ("replay", [{"event": "header", "config": {}}]),
            ("replay", [HEADER, [1]]),
            ("replay", [HEADER, {"event": "submit", "t": 0.0}]),
            ("replay", [HEADER, {"event": "submit", "t": 0.0, "tx": {},
                                 "accepted": True, "reason": None}]),
            ("sim", [{"sim": {"block_capacity_vbytes": 0}}]),
            ("sim", [{"sim": {"seed": 5}}]),
            ("replay", [HEADER, {"event": [1]}]),
            ("replay", [HEADER, {"event": "mine", "t": "x", "height": 0, "txids": []}]),
            ("replay", [HEADER, {"event": "grant", "t": 0.0, "owner": "a", "value": "x"}]),
            ("replay", [HEADER, {"event": "grant", "t": 0.0, "owner": "a", "value": 1_000},
                        {"event": "submit", "t": "x", "tx": FUNDED_TX,
                         "accepted": True, "reason": None}]),
            ("replay", [HEADER, {"event": "submit", "t": 0.0, "accepted": True, "reason": None,
                                 "tx": {**FUNDED_TX,
                                        "inputs": [{"outpoint": [["a"], 0], "sequence": 0}]}}]),
            ("replay", [HEADER, {"event": "fund", "t": 0.0, "value": 1.5}]),
            ("sim", [{"sim": {"mempool_capacity_vbytes": float("nan")}}]),
            ("sim", [{"sim": {"block_capacity_vbytes": 10150.5}}]),
            ("sim", [{"sim": {"congestion_normal_count": float("nan")}}]),
            # a market entry's line: no vsize below 1, no negative fee, exact types
            ("replay", [HEADER, {**market_line("m", 400), "vsize": 0}]),
            ("replay", [HEADER, {**market_line("m", 400), "fee": -1}]),
            ("replay", [HEADER, {**market_line("m", 400), "fee": True}]),
            ("replay", [HEADER, {**market_line("m", 400), "vsize": 400.0}]),
        ],
    )
    def test_bad_config_or_log_exits_one_without_traceback(self, tmp_path, command, content):
        path = tmp_path / "input.json"
        path.write_text("".join(json.dumps(line) + "\n" for line in content))
        argv = ["sim", "--config", str(path)] if command == "sim" else ["replay", str(path)]
        self.assert_usage_error(argv)

    @pytest.mark.parametrize("value", ["x", True, 0, -5, 10150.5, float("nan")])
    @pytest.mark.parametrize("key", SETTINGS)
    def test_each_setting_must_be_a_positive_integer(self, capsys, tmp_path, key, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sim": {key: value}}))
        code, _, err = run_cli(capsys, "sim", "--config", str(path))
        assert code == 1 and f"{key} must be a positive integer" in err

    @pytest.mark.parametrize("events", [None, True, 0.0, "0", [0]])
    def test_a_log_header_needs_an_integer_event_count(self, capsys, tmp_path, events):
        path = tmp_path / "events.jsonl"
        header = {"event": "header", "config": HEADER["config"]}
        if events is not None:
            header["events"] = events
        path.write_text(json.dumps(header) + "\n")
        code, _, err = run_cli(capsys, "replay", str(path))
        assert code == 1 and "error: log header lacks an integer 'events' count" in err

    # 10**30 once ended in an OverflowError traceback from the sediment draw, and
    # counts from about 10**7 up tried to build tens of millions of market entries
    def test_a_normal_count_above_the_ceiling_exits_one(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sim": {"congestion_normal_count": 10**30}}))
        code, _, err = run_cli(capsys, "sim", "--config", str(path))
        assert code == 1 and "error: congestion_normal_count must be at most 40000" in err
        assert SimConfig(congestion_normal_count=MAX_NORMAL_COUNT).congestion_normal_count == 40_000
        with pytest.raises(ValueError, match="congestion_normal_count must be at most"):
            SimConfig(congestion_normal_count=MAX_NORMAL_COUNT + 1)

    def test_a_log_header_with_a_removed_setting_is_refused(self, capsys, tmp_path):
        # a log written while the block interval was a setting names it in its header
        path = tmp_path / "old.jsonl"
        header = {**HEADER, "config": {**HEADER["config"], "block_interval": 600.0}}
        path.write_text(json.dumps(header) + "\n")
        code, _, err = run_cli(capsys, "replay", str(path))
        assert code == 1 and "unknown config keys: ['block_interval']" in err

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
            # an empty level list once ran every default level without a word
            ["sweep", "--seeds", "1", "--fees", ","],
            ["sweep", "--seeds", "1", "--fractions", ""],
            ["sweep", "--seeds", "1", "--congestion", ",,"],
            ["sweep", "--seeds", "1", "--attempts", ""],
            # a negative congestion once ran with no market, under its own label
            ["sim", "--congestion", "-1"],
            ["sim", "--congestion", "nan"],
            ["sim", "--congestion", "inf"],
            ["sweep", "--seeds", "1", "--congestion=-0.5", "--fees", "100", "--fractions", "1.0",
             "--attempts", "2"],
            # a horizon past mempool.EXPIRY: each once ran until killed
            ["sim", "--attempts", "2", "--t-bar", "1e12"],
            ["sim", "--attempts", "2", "--t-bar", "1e300"],
            ["sim", "--attempts", "1000000000"],
            # a fee the hot wallet cannot pay once ended in an InsufficientFunds traceback
            ["sim", "--fee", "2000000"],
            ["sweep", "--seeds", "1", "--fractions", "1", "--fees", "2000000",
             "--congestion", "0.75", "--attempts", "2"],
        ],
    )
    def test_bad_number_on_the_command_line_exits_one(self, argv):
        self.assert_usage_error(argv)

    # a bad level once read "invalid <lambda> value: '100,abc'", a repeated level
    # ran its cells twice, and a bad period gave float's "could not convert" message
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--seeds", "1", "--fees", "100,abc"],
             "argument --fees: bad int level 'abc'"),
            (["sweep", "--seeds", "1", "--congestion", "0.5,0.5"],
             "argument --congestion: level '0.5' repeats in '0.5,0.5'"),
            (["tolerance", "--avail", "2", "--req", "1", "--vol", "1", "--period", "1x"],
             "period '1x' is not a number with an optional s, m, h or d unit"),
        ],
    )
    def test_a_bad_level_or_period_is_named(self, argv, message):
        assert message in self.assert_usage_error(argv)

    # a set-up that no block or pool has room for once ended in a traceback,
    # "ReplayDivergence: setup mint failed for hot-wallet"
    @pytest.mark.parametrize(
        "argv, settings",
        [
            (["sim"], {"block_capacity_vbytes": TX1_VSIZE - 1}),
            (["sim", "--congestion", "0"], {"mempool_capacity_vbytes": TX1_VSIZE - 1}),
            (["sweep", "--seeds", "1", "--fractions", "1", "--fees", "100", "--congestion", "0.75",
              "--attempts", "2"], {"block_capacity_vbytes": TX1_VSIZE - 1}),
        ],
    )
    def test_a_set_up_that_cannot_confirm_exits_one(self, tmp_path, argv, settings):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sim": settings}))
        err = self.assert_usage_error([*argv, "--config", str(path)])
        assert "set-up step 'deploy' did not confirm" in err

    # past about 3.49 the market's floor_lo passes its hard cap: 50 once failed
    # with "floor_lo above floor_cap", 1e300 with an OverflowError traceback
    @pytest.mark.parametrize(
        "argv",
        [
            ["sim", "--congestion", "50"],
            ["sim", "--congestion", "1e300", "--attempts", "2"],
            ["sweep", "--seeds", "1", "--congestion", "1e300", "--fees", "100",
             "--fractions", "1.0", "--attempts", "2"],
        ],
    )
    def test_congestion_above_the_ceiling_exits_one(self, argv):
        err = self.assert_usage_error(argv)
        assert "congestion must be in [0, 3.4898" in err

    # json's own message once gave the line within the string ("line 1 column
    # 5"), not the line in the file
    @pytest.mark.parametrize(
        "bad, message",
        [
            ('{"event": "fund", "t": 0.0, "value"', "log line 3: Expecting ':' delimiter"),
            ('{"event": "fund", "t": 0.0, "value": 1} {"event": "fund"}',
             "log line 3: more than one JSON value"),
            ("  [1] 2", "log line 3: more than one JSON value, the next at column 7"),
        ],
    )
    def test_a_line_that_is_not_one_json_value_names_its_file_line(self, tmp_path, bad, message):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(HEADER) + "\n\n" + bad + "\n")
        assert message in self.assert_usage_error(["replay", str(path)])

    # 100,000 brackets once raised RecursionError out of the JSON decoder, as a traceback
    def test_a_log_line_nested_too_deeply_names_its_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(HEADER) + "\n" + "[" * 100_000 + "\n")
        err = self.assert_usage_error(["replay", str(path)])
        assert "error: log line 2: JSON nested too deeply to decode" in err

    def test_a_config_nested_too_deeply_is_a_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[" * 100_000)
        err = self.assert_usage_error(["sim", "--config", str(path)])
        assert "error: config nests too deeply to decode" in err

    def test_an_integer_past_the_digit_limit_names_its_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        market = json.dumps({**market_line("m", 400), "fee": 1}, sort_keys=True)
        path.write_text(json.dumps(HEADER) + "\n" + market.replace(": 1,", ": " + "1" * 4400 + ","))
        err = self.assert_usage_error(["replay", str(path)])
        assert "error: log line 2: Exceeds the limit (4300 digits)" in err

    def assert_usage_error(self, argv) -> str:
        """Run the CLI; it must exit 1 with an error and no traceback. Returns stderr."""
        src = str(Path(brc20sim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "brc20sim.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr
        return proc.stderr


class TestCollectorPause:
    """Scenarios and replays run with the cyclic collector paused."""

    # the `brc20sim sim` defaults
    LOGGED = ScenarioConfig(fraction=1.0, fee_rate=100, congestion=0.75, attempts=5)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_callers_setting_comes_back(self, capsys, tmp_path, enabled):
        log, bad, diverging = (tmp_path / name for name in ("log", "bad", "diverging"))
        bad.write_text("[1]\n")
        diverging.write_text(f"{json.dumps(HEADER)}\n"
                             '{"event": "mine", "t": 1.0, "height": 0, "txids": []}\n')
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            run_scenario(self.LOGGED, 3, log_path=str(log))
            assert gc.isenabled() is enabled
            assert [main(["replay", str(path)]) for path in (log, bad, diverging)] == [0, 1, 2]
            assert gc.isenabled() is enabled
            with pytest.raises(RuntimeError), collector_paused():
                assert not gc.isenabled()
                raise RuntimeError
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_scenarios_and_replays_make_no_reference_cycles(self, capsys, tmp_path):
        # the pause is safe only because reference counting frees all they discard
        log = tmp_path / "events.jsonl"
        gc.collect()
        with collector_paused():  # no automatic collection between the checks
            run_scenario(self.LOGGED, 3, log_path=str(log))
            assert gc.collect() == 0
            assert cmd_replay_log(argparse.Namespace(log=str(log))) == 0
            assert gc.collect() == 0
            run_binance_replay()
            assert gc.collect() == 0
