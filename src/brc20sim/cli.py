"""Command-line front end.

Subcommands: ``sim`` (one scenario), ``sweep`` (full parameter grid),
``replay-binance`` (scripted incident), ``tolerance`` (operational-tolerance
calculator) and ``replay`` (verify an exported event log).  ``replay``
re-runs the log through a ``Simulation``, the same block step that wrote it
(``grant`` events re-create the foreground's coins and ``fund`` events the
market's value-only coins, each kind under its own serials in log order, each
run of consecutive ``fund`` lines with one batch ``Simulation.fund`` call),
checks every grant's, fund's and submission's time, each submission's
decision and each block's height, time and txids, and at the end that the
replayed token state conserves supply.

Exit codes: 0 success, 1 usage error, 2 assertion/model divergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .attack import ToleranceInputs, tolerance
from .chain import Transaction
from .harness import (
    ATTEMPT_LEVELS,
    CONGESTION_LEVELS,
    FEE_LEVELS,
    FRACTION_LEVELS,
    ReplayDivergence,
    ScenarioConfig,
    default_grid,
    run_binance_replay,
    run_scenario,
    run_sweep,
    sweep_csv,
)
from .sim import SETTINGS, SimConfig, Simulation, collector_paused

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
    levels = tuple(cast(part) for part in text.split(",") if part)
    if not levels:  # an empty list once ran every default level without a word
        raise argparse.ArgumentTypeError(f"no levels in {text!r}")
    return levels


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
    grid = default_grid(args.fractions, args.fees, args.congestion, args.attempts, sim_cfg)
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


_JSON_SPACE = " \t\n\r"  # the whitespace json.loads allows around a value

# the fields replay reads from each kind of event, with the exact types JSON
# gives them (so a bool is no count); other kinds are skipped
REPLAY_FIELDS = {
    "grant": {"t": (int, float), "owner": (str,), "value": (int,)},
    "fund": {"t": (int, float), "value": (int,)},
    "submit": {"t": (int, float), "tx": (dict,), "accepted": (bool,), "reason": (str, type(None))},
    "mine": {"t": (int, float), "height": (int,), "txids": (list,)},
}


def _replay_kind(event, number: int) -> str:
    """The event's kind, once every field replay reads is there with its type."""
    if not isinstance(event, dict) or not isinstance(event.get("event"), str):
        raise ValueError(f"log line {number} is not an event object")
    kind = event["event"]
    for key, types in REPLAY_FIELDS.get(kind, {}).items():
        if key not in event:
            raise ValueError(f"log line {number}: {kind} event lacks {key!r}")
        if type(event[key]) not in types:
            raise ValueError(f"log line {number}: {kind} {key} has the wrong type: {event[key]!r}")
    return kind


def _read_log(path: str) -> list[tuple[int, object]]:
    """Each non-blank line of an event log as (its line number in the file, its value)."""
    decode = json.JSONDecoder().raw_decode  # json.loads adds per-line checks and two regex scans
    events = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            start = len(line) - len(line.lstrip(_JSON_SPACE))
            try:
                value, end = decode(line, start)
            except json.JSONDecodeError as exc:
                raise ValueError(f"log line {number}: {exc.msg} at column {exc.colno}") from None
            after = line[end:].lstrip(_JSON_SPACE)
            if after:
                raise ValueError(f"log line {number}: more than one JSON value, "
                                 f"the next at column {len(line) - len(after) + 1}")
            events.append((number, value))
    return events


@collector_paused()
def cmd_replay_log(args) -> int:
    """Re-run a recorded event log through a Simulation and verify every
    grant's, fund's and submission's time, every decision, every block's
    height, time and txids, and the token supply at the end."""
    events = _read_log(args.log)
    header = events[0][1] if events else None
    if (
        not isinstance(header, dict)
        or header.get("event") != "header"
        or not isinstance(header.get("config"), dict)
    ):
        raise ValueError("log has no header line with a config object")
    missing = [name for name in SETTINGS if name not in header["config"]]
    if missing:
        raise ValueError(f"log header lacks config keys: {missing}")
    sim = Simulation(_sim_config(header["config"]))
    blocks = submits = 0
    clock = sim.now  # the time of the last event
    funds: list[int] = []  # the values of the run of fund lines not yet funded
    for number, event in events[1:]:
        kind = _replay_kind(event, number)
        if kind == "fund":
            if event["value"] < 1:  # refused on its own line, before a later line's checks
                raise ValueError(f"log line {number}: fund value must be >= 1")
            funds.append(event["value"])
        elif funds:
            sim.fund(funds)
            funds = []
        if kind in ("grant", "fund", "submit"):
            # a grant, fund or send falls between the previous event and the next block
            if not clock <= event["t"] <= sim.next_block_time:
                print(f"divergence at t={event['t']}: a {kind} here must fall in "
                      f"[{clock}, {sim.next_block_time}]", file=sys.stderr)
                return MODEL_ERROR
            clock = event["t"]
        if kind == "grant":
            sim.grant(event["owner"], event["value"])
        elif kind == "submit":
            try:
                tx = Transaction.from_dict(event["tx"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"log line {number}: malformed tx ({exc!r})") from None
            result = sim.submit(tx, event["t"])
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
            # only the next block time can come next; a later log time would
            # have replay mine every block up to it
            if event["t"] != sim.next_block_time:
                print(f"divergence at t={event['t']}: the next block is at t={sim.next_block_time}",
                      file=sys.stderr)
                return MODEL_ERROR
            sim.run_until(event["t"])
            clock = event["t"]
            blocks += 1
            tip = sim.chain.blocks[-1]
            got = (tip.height, [tx.txid for tx in tip.transactions])
            if got != (event["height"], event["txids"]):
                print(f"divergence in block {event['height']}: replay mined block {tip.height}",
                      file=sys.stderr)
                return MODEL_ERROR
    sim.fund(funds)
    # the indexer followed every replayed block; its token state must balance
    if not sim.indexer.state.supply_is_conserved():
        print("divergence: replayed token state does not conserve supply", file=sys.stderr)
        return MODEL_ERROR
    print(f"replay OK: {submits} submissions, {blocks} blocks verified")
    return 0


@functools.cache  # once per process
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
    p_sim.add_argument("--out", type=argparse.FileType("w"), default=None)
    p_sim.set_defaults(func="cmd_sim")

    p_sweep = sub.add_parser("sweep", help="run the parameter grid")
    p_sweep.add_argument("--seeds", type=int, default=50)
    p_sweep.add_argument("--seed-base", type=int, default=0)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--config", default=None, help="JSON config file")
    p_sweep.add_argument("--fractions", type=lambda s: _levels(s, float), default=FRACTION_LEVELS)
    p_sweep.add_argument("--fees", type=lambda s: _levels(s, int), default=FEE_LEVELS)
    p_sweep.add_argument("--congestion", type=lambda s: _levels(s, float), default=CONGESTION_LEVELS)
    p_sweep.add_argument("--attempts", type=lambda s: _levels(s, int), default=ATTEMPT_LEVELS)
    p_sweep.add_argument("--out", type=argparse.FileType("w"), default=None)
    p_sweep.set_defaults(func="cmd_sweep")

    p_replay = sub.add_parser("replay-binance", help="scripted incident replay")
    p_replay.add_argument("--out", type=argparse.FileType("w"), default=None)
    p_replay.set_defaults(func="cmd_replay_binance")

    p_tol = sub.add_parser("tolerance", help="operational tolerance calculator")
    p_tol.add_argument("--avail", type=int, required=True)
    p_tol.add_argument("--req", type=int, required=True)
    p_tol.add_argument("--vol", type=int, required=True)
    p_tol.add_argument("--period", default="1h")
    p_tol.set_defaults(func="cmd_tolerance")

    p_log = sub.add_parser("replay", help="verify an exported event log")
    p_log.add_argument("log")
    p_log.set_defaults(func="cmd_replay_log")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if "out" in args and args.out is None:
        args.out = sys.stdout  # this call's: the parser is built once and binds no stream
    try:
        try:
            # looked up per call, not bound when the cached parser was built:
            # bench/tracing.py wraps cmd_replay_log after the first main()
            return globals()[args.func](args)
        finally:
            if getattr(args, "out", sys.stdout) is not sys.stdout:  # "--out -" is stdout
                args.out.close()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
