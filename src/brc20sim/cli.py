"""Command-line front end.

Subcommands: ``sim`` (one scenario), ``sweep`` (full parameter grid),
``replay-binance`` (scripted incident), ``tolerance`` (operational-tolerance
calculator) and ``replay`` (verify an exported event log).  ``replay``
re-runs the log through a ``Simulation``, the same block step that wrote it,
in one pass over the open file that applies each non-blank line as it is
read: ``grant`` events re-create the foreground's coins, a ``submit`` line
with a ``"tx"`` goes through ``Simulation.submit``, and each run of
consecutive market ``submit`` lines (a txid, fee and vsize, no ``"tx"``) is
kept as two lists, its ``MarketTx`` entries and the decisions they record,
and enters the pool as one ``Simulation.submit_batch``, whose decisions one
list comparison checks.  A market line as ``sim.log_line`` writes it is read
by the strict pattern ``sim.MARKET_LINE``; any other line goes through
``json.loads``, to the same values.  Replay checks every grant's and
submission's time, each submission's decision and each block's height, time
and txids, and at the end that it recorded as many events as the header's
``events`` counts (so a log cut short or missing a line fails) and that the
replayed token state conserves supply.  Of a broken log's faults, the first
bad line's is reported, with its line number in the file.  A ``fund`` line
(the old log format, whose market transactions spent coins) is refused.

Exit codes: 0 success, 1 usage error (a bad value, or a fee the wallet cannot
pay), 2 assertion/model divergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterable

from .attack import ToleranceInputs, tolerance
from .chain import MarketTx, Transaction
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
from .mempool import ACCEPTED, SubmitResult
from .sim import MARKET_LINE, SETTINGS, SimConfig, Simulation, collector_paused
from .wallet import WalletError

USAGE_ERROR = 1
MODEL_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def _parse_period(text: str) -> float:
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    scale = units.get(text[-1:].lower())
    try:
        return float(text[:-1]) * scale if scale else float(text)
    except ValueError:
        raise ValueError(f"period {text!r} is not a number with an optional "
                         "s, m, h or d unit") from None


def _levels(text: str, cast) -> tuple:
    levels: list = []
    for part in filter(None, text.split(",")):
        try:
            levels.append(cast(part))
        except ValueError:  # once reported as "invalid <lambda> value"
            raise argparse.ArgumentTypeError(f"bad {cast.__name__} level {part!r}") from None
        if levels[-1] in levels[:-1]:  # a repeated level once ran its cells twice
            raise argparse.ArgumentTypeError(f"level {part!r} repeats in {text!r}")
    if not levels:  # an empty list once ran every default level without a word
        raise argparse.ArgumentTypeError(f"no levels in {text!r}")
    return tuple(levels)


def _load_sim_overrides(path: str | None) -> dict:
    """The ``"sim"`` object of a JSON config file ({} without a file)."""
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("config nests too deeply to decode; it must be a JSON "
                             'object whose "sim" entry is an object') from None
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


# the fields replay reads from each kind of event, with the exact types JSON
# gives them (so a bool is no count); other kinds are skipped.  A submit line
# with no "tx" is a market entry's, read with MARKET_FIELDS.  _replay unpacks
# _replay_fields' values in this order, which a structure test pins
REPLAY_FIELDS = {
    "grant": {"t": (int, float), "owner": (str,), "value": (int,)},
    "submit": {"t": (int, float), "tx": (dict,), "accepted": (bool,), "reason": (str, type(None))},
    "mine": {"t": (int, float), "height": (int,), "txids": (list,)},
}
MARKET_FIELDS = {"t": (int, float), "txid": (str,), "fee": (int,), "vsize": (int,),
                 "accepted": (bool,), "reason": (str, type(None))}
_ABSENT = object()  # a field the line lacks; its type is in no REPLAY_FIELDS entry


def _replay_fields(event, number: int) -> tuple[str, tuple]:
    """The event's kind (``"market"`` for a market entry's submit line) and the
    values of the fields replay reads from it, in ``REPLAY_FIELDS`` or
    ``MARKET_FIELDS`` order, once each is there with its type (one lookup per field)."""
    kind = event.get("event") if isinstance(event, dict) else None
    if not isinstance(kind, str):
        raise ValueError(f"log line {number} is not an event object")
    if kind == "submit" and "tx" not in event:
        shape, fields = "market", MARKET_FIELDS
    elif kind == "fund":
        raise ValueError(f"log line {number}: a fund line comes from the old log format, "
                         "in which market transactions spent coins; write the log again")
    else:
        shape, fields = kind, REPLAY_FIELDS.get(kind, {})
    values = []
    for key, types in fields.items():
        value = event.get(key, _ABSENT)
        if type(value) not in types:
            if value is _ABSENT:
                raise ValueError(f"log line {number}: {kind} event lacks {key!r}")
            raise ValueError(f"log line {number}: {kind} {key} has the wrong type: {value!r}")
        values.append(value)
    return shape, tuple(values)


def _market_values(line: str) -> tuple | None:
    """The values ``_replay_fields`` gives a market line that ``sim.MARKET_LINE``
    matches, in ``MARKET_FIELDS`` order and with the decoder's types, read
    without the decoder; None for any other line."""
    match = MARKET_LINE.fullmatch(line)
    if match is None:
        return None
    accepted, fee, reason, t_float, t_int, txid, vsize = match.groups()
    t = float(t_float) if t_int is None else int(t_int)
    return t, txid, int(fee), int(vsize), accepted == "true", reason


def _decoded(number: int, line: str):
    """Log line ``number`` decoded as one JSON value; a ValueError names the line."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        msg = "more than one JSON value, the next" if exc.msg == "Extra data" else exc.msg
        raise ValueError(f"log line {number}: {msg} at column {exc.colno}") from None
    except ValueError as exc:  # an integer past int()'s digit limit
        raise ValueError(f"log line {number}: {exc}") from None
    except RecursionError:
        raise ValueError(f"log line {number}: JSON nested too deeply to decode") from None


@collector_paused()
def cmd_replay_log(args) -> int:
    """Re-run a recorded event log through a Simulation and verify every
    grant's and submission's time, every decision, every block's height,
    time and txids, and the token supply at the end.

    A run of market lines ends at any other line, or at the end of the file.
    Before a fault on a later line is reported, the pending run is submitted
    and checked, so the first bad line in the file is the one reported.
    """
    with open(args.log, encoding="utf-8") as fh:
        number, header = 0, None
        for number, line in enumerate(fh, start=1):  # the first non-blank line
            if not line.isspace():
                header = _decoded(number, line)
                break
        if (
            not isinstance(header, dict)
            or header.get("event") != "header"
            or not isinstance(header.get("config"), dict)
        ):
            raise ValueError("log has no header line with a config object")
        missing = [name for name in SETTINGS if name not in header["config"]]
        if missing:
            raise ValueError(f"log header lacks config keys: {missing}")
        events = header.get("events")
        if type(events) is not int:  # a bool is no count
            raise ValueError(f"log header lacks an integer 'events' count, got {events!r}")
        try:
            return _replay(Simulation(_sim_config(header["config"])), fh, number + 1, events)
        except ReplayDivergence as exc:
            print(exc, file=sys.stderr)
            return MODEL_ERROR


def _check_decision(tx, t, accepted: bool, reason: str | None, result) -> None:
    """Raise ReplayDivergence unless ``result`` is the decision the log recorded."""
    if (result.accepted, result.reason) != (accepted, reason):
        raise ReplayDivergence(f"divergence at t={t}: tx {tx.txid} got {result}, "
                               f"log has accepted={accepted} reason={reason}")


def _apply_event(sim: Simulation, clock, kind: str, values: tuple, number: int):
    """Apply log line ``number``, a grant, send or block; return its time."""
    t = values[0]  # each kind's first field
    if kind == "mine":
        _, height, txids = values
        # only the next block time can come next: a later one would mine every block to it
        if t != sim.next_block_time:
            raise ReplayDivergence(
                f"divergence at t={t}: the next block is at t={sim.next_block_time}")
        sim.run_until(t)
        tip = sim.chain.blocks[-1]
        if (tip.height, [tx.txid for tx in tip.transactions]) != (height, txids):
            raise ReplayDivergence(f"divergence in block {height}: replay mined block {tip.height}")
        return t
    # a grant or send falls between the previous event and the next block
    if not clock <= t <= sim.next_block_time:
        raise ReplayDivergence(f"divergence at t={t}: a {kind} here must fall in "
                               f"[{clock}, {sim.next_block_time}]")
    if kind == "submit":
        _, data, accepted, reason = values
        try:
            tx = Transaction.from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"log line {number}: malformed tx ({exc!r})") from None
        _check_decision(tx, t, accepted, reason, sim.submit(tx, t))
    else:  # grant
        _, owner, value = values
        sim.grant(owner, value)
    return t


def _replay(sim: Simulation, lines: Iterable[str], first: int, events: int) -> int:
    """``cmd_replay_log``'s pass over the file's lines from line ``first``, after
    the header; raises ReplayDivergence at the first divergence, or at the end
    when the replay recorded other than the ``events`` the header counts."""
    clock = sim.now  # the time of the last event
    # the pending run of market lines: entries and the decisions they record
    entries: list[MarketTx] = []
    expected: list[SubmitResult] = []

    def submit_run() -> None:
        """Submit and empty the run; check it by one list comparison."""
        if not entries:
            return
        results = sim.submit_batch(entries)
        walk = () if results == expected else list(zip(entries, expected, results))
        entries.clear()
        expected.clear()
        for entry, want, result in walk:
            _check_decision(entry, entry.arrival, want.accepted, want.reason, result)

    try:
        for number, line in enumerate(lines, first):
            values = _market_values(line)
            if values is None:
                if line.isspace():
                    continue
                kind, values = _replay_fields(_decoded(number, line), number)
                if kind != "market":
                    if values:  # else a kind replay skips
                        submit_run()
                        clock = _apply_event(sim, clock, kind, values, number)
                    continue
            # a market line, from either reader, checked inline: it is most of a log
            t, txid, fee, vsize, accepted, reason = values
            if not clock <= t <= sim.next_block_time:
                raise ReplayDivergence(f"divergence at t={t}: a market here must fall in "
                                       f"[{clock}, {sim.next_block_time}]")
            clock = t
            try:
                entries.append(MarketTx(txid, fee, vsize, t))
            except ValueError as exc:
                raise ValueError(f"log line {number}: {exc}") from None
            expected.append(ACCEPTED if accepted and reason is None
                            else SubmitResult(accepted, reason))
        submit_run()
    except (ValueError, ReplayDivergence):
        submit_run()  # an earlier line's divergence outranks this fault
        raise
    # a log cut short, or with a line dropped, replays line by line
    if len(sim.event_log) != events:
        raise ReplayDivergence(f"divergence: replay recorded {len(sim.event_log)} events, "
                               f"the log header counts {events}")
    # the indexer followed every replayed block; its token state must balance
    if not sim.indexer.supply_is_conserved():
        raise ReplayDivergence("divergence: replayed token state does not conserve supply")
    # each verified submit line is one submit event, and each mine line one block
    submits = sum(1 for event in sim.event_log if event[0] == "submit")
    print(f"replay OK: {submits} submissions, {len(sim.chain.blocks)} blocks verified")
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
    except (ValueError, OSError, WalletError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
