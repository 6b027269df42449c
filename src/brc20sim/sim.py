"""Single-threaded discrete-event simulation loop.

Owns the chain, the mempool, the indexer and (optionally) a background load,
and advances them in lockstep: foreground submissions and background arrivals
are processed in timestamp order, a block is mined every ``BLOCK_INTERVAL``
simulated seconds, and every mined block is fed to the indexer together with
the receipts its chain append returned.

Every grant, fund, submission and mined block is recorded once, in order, in
``event_log``: the run's one record, which ``export_event_log`` writes as JSON
lines for ``brc20sim replay``.  ``log_line`` formats each line itself, with
the bytes ``json.dumps(..., sort_keys=True)`` would give at a fraction of its
cost; a test holds it to ``json.dumps``.  Genesis satoshis enter through
``grant``; background traffic is funded through ``fund`` instead, a batch
at a time (the sediment, then one window's market at a time), with
value-only coins that have no owner and no ordinals, each named by the
market transaction that spends it.  Both kinds are in the record, one event
per coin, so token state stays reconstructable from its grants and funds
plus the block list alone (see ``replay_state``).  A ``fund`` line holds
only the coin's value: ``brc20sim replay`` names the n-th one
``chain.fund_serial(n)``, which is the coin ``bg{n + 1}`` spends, since a
simulation funds its coins in ``bg`` order.

Background traffic enters the pool through ``submit_batch``, the sediment
as one batch and each run of market arrivals up to a horizon as another,
each arrival at ``max(now, its time)``; the foreground and ``brc20sim
replay`` enter through ``submit``, one transaction at a time.  Either way
each submission is recorded once, as one ``submit`` event.

Scenarios and replays run with the cyclic garbage collector paused
(``collector_paused``), since a simulation makes no reference cycles.
"""

from __future__ import annotations

import gc
import json
import math
from bisect import bisect_right
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from . import wallet
from .background import BackgroundLoad, CongestionProfile
from .chain import BLOCK_INTERVAL, Chain, Transaction, Utxo, UtxoSet
from .indexer import Brc20State, Indexer, replay
from .mempool import Mempool, SubmitResult
from .wallet import BUNDLE_GAP, TransferBundle, TransferRequest


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Every simulation setting; the pool reads its own from here too."""

    block_capacity_vbytes: int = 10_150
    mempool_capacity_vbytes: int = 50_000_000
    congestion_normal_count: int = 400

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise ValueError(f"{f.name} must be a positive integer, got {value!r}")


# The settings, as written to the event-log header, accepted as CLI config
# keys and required by replay.
SETTINGS = tuple(f.name for f in fields(SimConfig))


@contextmanager
def collector_paused():
    """Run a block, or a function it decorates, with the cyclic garbage collector off.

    A simulation makes no reference cycles, so reference counting frees all
    it discards and a collection would find nothing; with the collector on it
    still rescans the live pool and ledger over and over as they grow.  The
    caller's setting comes back on return or raise.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Simulation:
    def __init__(self, config: SimConfig, profile: CongestionProfile | None = None):
        self.config = config
        self.chain = Chain()
        self.pool = Mempool(config, self.chain)
        self.indexer = Indexer()
        self.now = 0.0
        self.next_block_time = BLOCK_INTERVAL
        self._arrivals: tuple[tuple[float, Transaction], ...] = ()  # this window's market, by time
        self._next_arrival = 0  # index of the first arrival not yet submitted
        self._window_generated = -1
        self.congestion_samples: list[float] = []
        self._watch: tuple[str, str] | None = None
        self.balance_samples: list[tuple[float, int, int]] = []
        # ("grant", t, owner, value), ("fund", t, serial, value), ("submit", t, tx, result)
        # and ("mine", t, block), in the order they happened
        self.event_log: list[tuple] = []
        self.background: BackgroundLoad | None = None
        if profile is not None and profile.target_level > 0:
            self.background = BackgroundLoad(
                profile, config.congestion_normal_count, config.block_capacity_vbytes
            )
            txs = self.background.sediment(self.fund)
            self.submit_batch(txs, [self.now] * len(txs))

    # -- funding -------------------------------------------------------------

    def grant(self, owner: str, value: int) -> Utxo:
        """Genesis allocation, recorded for replay."""
        utxo = self.chain.utxo_set.grant(owner, value)
        self.event_log.append(("grant", self.now, owner, value))
        return utxo

    def fund(self, coins: Sequence[tuple[tuple[str, int], int]]) -> None:
        """A batch of value-only coins for background traffic, as ``(serial, value)``
        pairs; each coin is recorded for replay."""
        self.chain.utxo_set.fund(coins)
        self.event_log += [("fund", self.now, serial, value) for serial, value in coins]

    # -- submissions -----------------------------------------------------------

    def submit(self, tx: Transaction, at: float | None = None) -> SubmitResult:
        """Pool submission at ``at`` (default now), recorded: the foreground's path to the pool."""
        at = self.now if at is None else at
        result = self.pool.submit(tx, at)
        self.event_log.append(("submit", at, tx, result))
        return result

    def submit_batch(
        self, txs: Sequence[Transaction], times: Sequence[float]
    ) -> list[SubmitResult]:
        """``txs[i]`` submitted at ``times[i]`` in order, each recorded as ``submit``
        records it: the background's path to the pool."""
        results = self.pool.submit_batch(txs, times)
        self.event_log += [("submit", t, tx, r) for tx, t, r in zip(txs, times, results)]
        return results

    def send_transfer(
        self, request: TransferRequest
    ) -> tuple[TransferBundle, SubmitResult, SubmitResult]:
        """Build a bundle from coins no pool entry spends; send Tx1 now and Tx2
        ``BUNDLE_GAP`` later, after mining any block that falls in between."""
        bundle = wallet.build_transfer(  # looked up per call: bench/tracing.py wraps it
            request, self.chain.utxo_set, exclude=self.pool.spends
        )
        r1 = self.submit(bundle.tx1)
        self.run_until(self.now + BUNDLE_GAP)
        r2 = self.submit(bundle.tx2)
        return bundle, r1, r2

    # -- time ------------------------------------------------------------------

    def _ensure_window(self) -> None:
        window = int(self.next_block_time / BLOCK_INTERVAL)
        if self.background is not None and window > self._window_generated:
            self._window_generated = window
            # the last window's arrivals were all submitted before its block was mined
            self._arrivals = self.background.market_batch(self.fund)
            self._next_arrival = 0

    def run_until(self, target: float) -> None:
        """Submit arrivals and mine every block due up to ``target``, then stand at it."""
        if not target < math.inf:  # NaN or +inf: no block would ever pass it
            raise ValueError(f"run_until needs a finite target, got {target!r}")
        while True:
            self._ensure_window()
            horizon = min(target, self.next_block_time)
            # the arrivals up to the horizon, each submitted at max(now, its time)
            arrivals, i = self._arrivals, self._next_arrival
            j = bisect_right(arrivals, horizon, lo=i, key=itemgetter(0))
            if j > i:
                now, run = self.now, arrivals[i:j]
                self.submit_batch([tx for _, tx in run], [max(now, at) for at, _ in run])
                self._next_arrival = j
            self.now = max(self.now, horizon)
            if self.next_block_time > target:
                return
            self.pool.tick_expiry(self.now)
            self.congestion_samples.append(self.pool.congestion())
            block = self.pool.mine_block(self.now)
            self.indexer.apply_block(block, self.chain.tip_receipts)
            if self._watch is not None:
                avail, trans, _ = self.indexer.balance(*self._watch)
                self.balance_samples.append((self.now, avail, trans))
            self.event_log.append(("mine", self.now, block))
            self.next_block_time += BLOCK_INTERVAL

    def run_blocks(self, count: int) -> None:
        self.run_until(self.next_block_time + (count - 1) * BLOCK_INTERVAL)

    # -- queries -----------------------------------------------------------------

    def watch_balance(self, tick: str, addr: str) -> None:
        """Sample (available, transferable) for one address at every block."""
        self._watch = (tick, addr)

    def mean_congestion(self) -> float:
        if not self.congestion_samples:
            return 0.0
        return sum(self.congestion_samples) / len(self.congestion_samples)

    def balance(self, tick: str, addr: str) -> tuple[int, int, int]:
        return self.indexer.balance(tick, addr)

    # -- replay -------------------------------------------------------------------

    def replay_state(self) -> Brc20State:
        """Token state rebuilt from the recorded grants and funds and the block list."""
        genesis = UtxoSet()
        for event in self.event_log:
            match event:
                case ("grant", _, owner, value):
                    genesis.grant(owner, value)
                case ("fund", _, serial, value):
                    genesis.fund(((serial, value),))
        return replay(self.chain.blocks, genesis)

    def export_event_log(self, path: str) -> None:
        """The event log as JSON lines: a config header, then one object per event."""
        config = {name: getattr(self.config, name) for name in SETTINGS}
        lines = [json.dumps({"event": "header", "config": config}, sort_keys=True)]
        lines += [log_line(event) for event in self.event_log]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


# What json.dumps(sort_keys=True) writes, by hand: keys in sorted order, ", "
# and ": " separators, strings through json's own ASCII escaper, and
# non-finite floats as Infinity, -Infinity and NaN, which repr spells inf and nan.
_string = encode_basestring_ascii  # what json.dumps escapes strings with
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _number(x: float) -> str:
    text = repr(x)
    return _NON_FINITE.get(text, text)


def _nullable(text: str | None) -> str:
    return "null" if text is None else _string(text)


def log_line(event: tuple) -> str:
    """One recorded event as its event-log line, without the newline."""
    kind = event[0]
    if kind == "submit":
        _, t, tx, result = event
        inputs = ", ".join([
            f'{{"outpoint": [{_string(i.outpoint[0])}, {i.outpoint[1]}], "sequence": {i.sequence}}}'
            for i in tx.inputs
        ])
        outputs = ", ".join([
            f'{{"inscription": {_nullable(o.inscription)}, "owner": {_string(o.owner)}, '
            f'"value": {o.value}}}'
            for o in tx.outputs
        ])
        return (
            f'{{"accepted": {"true" if result.accepted else "false"}, "event": "submit", '
            f'"reason": {_nullable(result.reason)}, "t": {_number(t)}, '
            f'"tx": {{"inputs": [{inputs}], "outputs": [{outputs}], '
            f'"txid": {_string(tx.txid)}, "vsize": {tx.vsize}}}}}'
        )
    if kind == "mine":
        _, t, block = event
        txids = ", ".join([_string(tx.txid) for tx in block.transactions])
        return (f'{{"event": "mine", "height": {block.height}, "t": {_number(t)}, '
                f'"txids": [{txids}]}}')
    if kind == "fund":
        _, t, _, value = event
        return f'{{"event": "fund", "t": {_number(t)}, "value": {value}}}'
    _, t, owner, value = event  # grant
    return f'{{"event": "grant", "owner": {_string(owner)}, "t": {_number(t)}, "value": {value}}}'
