"""Command-line front end.

Subcommands: ``sim`` (one scenario), ``sweep`` (full parameter grid),
``replay-binance`` (scripted incident), ``tolerance`` (operational-tolerance
calculator) and ``replay`` (re-run an exported event log and verify it).

Exit codes: 0 success, 1 usage error, 2 assertion/model divergence.
"""

from __future__ import annotations

import argparse
import json
import sys

from .attack import ToleranceInputs, tolerance
from .chain import Chain, Transaction
from .harness import (
    ATTEMPT_LEVELS,
    CONGESTION_LEVELS,
    FEE_LEVELS,
    FRACTION_LEVELS,
    ReplayDivergence,
    ScenarioConfig,
    run_binance_replay,
    run_scenario,
    run_sweep,
    sweep_csv,
)
from .mempool import Mempool
from .sim import SETTINGS, SimConfig

USAGE_ERROR = 1
MODEL_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def _parse_period(text: str) -> float:
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    if text and text[-1].lower() in units:
        return float(text[:-1]) * units[text[-1].lower()]
    return float(text)


def _levels(text: str, cast) -> tuple:
    return tuple(cast(part) for part in text.split(",") if part)


def _load_sim_overrides(path: str | None) -> dict:
    """The ``"sim"`` object of a JSON config file ({} without a file)."""
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("sim", {}), dict):
        raise ValueError('config must be a JSON object whose "sim" entry is an object')
    return data.get("sim", {})


def _sim_config(overrides: dict) -> SimConfig:
    unknown = set(overrides) - set(SETTINGS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in overrides.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"config key {key!r} must be a number, got {value!r}")
    return SimConfig(**overrides)


def cmd_sim(args) -> int:
    sim_cfg = _sim_config(_load_sim_overrides(args.config))
    config = ScenarioConfig(
        fraction=args.fraction,
        fee_rate=args.fee,
        congestion=args.congestion,
        attempts=args.attempts,
        tolerance_s=args.t_bar,
        sim=sim_cfg,
    )
    result = run_scenario(config, args.seed, log_path=args.log)
    report = {
        "seed": result.seed,
        "success": result.success,
        "congestion_measured": round(result.congestion_measured, 4),
        "pinned_pct": round(result.pinned_pct, 2),
        "outage_s": result.outage_s,
        "delays": result.delays,
        "attempts": result.transcript,
    }
    json.dump(report, args.out, indent=2, sort_keys=True)
    args.out.write("\n")
    return 0


def cmd_sweep(args) -> int:
    sim_cfg = _sim_config(_load_sim_overrides(args.config))
    grid = [
        ScenarioConfig(fraction=f, fee_rate=fee, congestion=c, attempts=n, sim=sim_cfg)
        for f in (args.fractions or FRACTION_LEVELS)
        for fee in (args.fees or FEE_LEVELS)
        for c in (args.congestion or CONGESTION_LEVELS)
        for n in (args.attempts or ATTEMPT_LEVELS)
    ]
    seeds = tuple(range(args.seed_base, args.seed_base + args.seeds))
    rows = run_sweep(grid, seeds=seeds, workers=args.workers)
    args.out.write(sweep_csv(rows))
    return 0


def cmd_replay_binance(args) -> int:
    try:
        transcript = run_binance_replay()
    except ReplayDivergence as exc:
        print(f"replay divergence: {exc}", file=sys.stderr)
        return MODEL_ERROR
    for row in transcript:
        args.out.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


def cmd_tolerance(args) -> int:
    period = _parse_period(args.period)
    inputs = ToleranceInputs(
        available_liquidity=args.avail,
        required_liquidity=args.req,
        volume_per_period=args.vol,
        period_seconds=period,
    )
    seconds = tolerance(inputs)
    print(f"T_bar = {seconds / 3600.0:.6f} h ({seconds:.1f} s)")
    return 0


# the fields replay reads from each kind of event; other kinds are skipped
REPLAY_FIELDS = {
    "grant": ("owner", "value"),
    "submit": ("t", "tx", "accepted", "reason"),
    "mine": ("t", "height", "txids"),
}


def _replay_kind(event, number: int) -> str:
    """The event's kind, once it is known to carry every field replay reads."""
    if not isinstance(event, dict) or "event" not in event:
        raise ValueError(f"log line {number} is not an event object")
    missing = [k for k in REPLAY_FIELDS.get(event["event"], ()) if k not in event]
    if missing:
        raise ValueError(f"log line {number}: {event['event']} event lacks {missing}")
    return event["event"]


def cmd_replay_log(args) -> int:
    """Re-run a recorded event log and verify decisions and blocks match."""
    with open(args.log, encoding="utf-8") as fh:
        events = [json.loads(line) for line in fh if line.strip()]
    header = events[0] if events else None
    if (
        not isinstance(header, dict)
        or header.get("event") != "header"
        or not isinstance(header.get("config"), dict)
    ):
        raise ValueError("log has no header line with a config object")
    missing = [name for name in SETTINGS if name not in header["config"]]
    if missing:
        raise ValueError(f"log header lacks config keys: {missing}")
    chain = Chain()
    pool = Mempool(_sim_config(header["config"]), chain)
    blocks = submits = 0
    for number, event in enumerate(events[1:], start=2):
        kind = _replay_kind(event, number)
        if kind == "grant":
            chain.utxo_set.grant(event["owner"], event["value"])
        elif kind == "submit":
            try:
                tx = Transaction.from_dict(event["tx"])
            except (KeyError, TypeError, IndexError) as exc:
                raise ValueError(f"log line {number}: malformed tx ({exc!r})") from None
            result = pool.submit(tx, event["t"])
            submits += 1
            if result.accepted != event["accepted"] or result.reason != event["reason"]:
                print(
                    f"divergence at t={event['t']}: tx {tx.txid} "
                    f"got {result}, log has accepted={event['accepted']} "
                    f"reason={event['reason']}",
                    file=sys.stderr,
                )
                return MODEL_ERROR
        elif kind == "mine":
            pool.tick_expiry(event["t"])
            block = pool.mine_block(event["t"])
            blocks += 1
            got = [tx.txid for tx in block.transactions]
            if got != event["txids"]:
                print(f"divergence in block {event['height']}", file=sys.stderr)
                return MODEL_ERROR
    print(f"replay OK: {submits} submissions, {blocks} blocks verified")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="brc20sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="run one attack scenario")
    p_sim.add_argument("--fraction", type=float, default=1.0)
    p_sim.add_argument("--fee", type=int, default=100)
    p_sim.add_argument("--congestion", type=float, default=0.75)
    p_sim.add_argument("--attempts", type=int, default=5)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--t-bar", type=float, default=3600.0)
    p_sim.add_argument("--config", default=None, help="JSON config file")
    p_sim.add_argument("--log", default=None, help="write the event log here")
    p_sim.add_argument("--out", type=argparse.FileType("w"), default=sys.stdout)
    p_sim.set_defaults(func=cmd_sim)

    p_sweep = sub.add_parser("sweep", help="run the parameter grid")
    p_sweep.add_argument("--seeds", type=int, default=50)
    p_sweep.add_argument("--seed-base", type=int, default=0)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--config", default=None, help="JSON config file")
    p_sweep.add_argument("--fractions", type=lambda s: _levels(s, float), default=None)
    p_sweep.add_argument("--fees", type=lambda s: _levels(s, int), default=None)
    p_sweep.add_argument("--congestion", type=lambda s: _levels(s, float), default=None)
    p_sweep.add_argument("--attempts", type=lambda s: _levels(s, int), default=None)
    p_sweep.add_argument("--out", type=argparse.FileType("w"), default=sys.stdout)
    p_sweep.set_defaults(func=cmd_sweep)

    p_replay = sub.add_parser("replay-binance", help="scripted incident replay")
    p_replay.add_argument("--out", type=argparse.FileType("w"), default=sys.stdout)
    p_replay.set_defaults(func=cmd_replay_binance)

    p_tol = sub.add_parser("tolerance", help="operational tolerance calculator")
    p_tol.add_argument("--avail", type=int, required=True)
    p_tol.add_argument("--req", type=int, required=True)
    p_tol.add_argument("--vol", type=int, required=True)
    p_tol.add_argument("--period", default="1h")
    p_tol.set_defaults(func=cmd_tolerance)

    p_log = sub.add_parser("replay", help="verify an exported event log")
    p_log.add_argument("log")
    p_log.set_defaults(func=cmd_replay_log)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
