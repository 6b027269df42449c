"""Single-threaded discrete-event simulation loop.

Owns the chain, the mempool, the indexer and (optionally) a background load,
which its forks share, and advances them in lockstep: foreground submissions
and background arrivals are processed in timestamp order, a block is mined
every ``BLOCK_INTERVAL`` simulated seconds, and every mined block is fed to
the indexer together with the receipts its chain append returned.

Every grant, submission and mined block is recorded once, in order, in
``event_log``: the run's one record, which ``export_event_log`` writes as JSON
lines for ``brc20sim replay``, after a header of settings and event count.
``log_line`` writes a foreground ``submit`` line, a few per scenario, with
``json.dumps``, and the rest by hand, as ``json.dumps(..., sort_keys=True)``
would at a fraction of its cost.  ``MARKET_LINE`` matches a market
entry's line exactly as written, for replay to read back without the JSON
decoder.  Genesis satoshis enter through ``grant``, so token state stays
reconstructable from the grants plus the block list alone (see
``replay_state``).

Background traffic is market entries (``chain.MarketTx``), which carry a fee,
a vsize and their arrival time, and no coin.  They enter the pool through
``submit_batch``, each at its arrival and as it is, the pool's own entry: the
sediment as one batch and each run of market arrivals up to a horizon as
another; ``brc20sim replay`` enters through it too, with each run of
consecutive market lines of a log as one batch.  A market entry's ``submit``
line holds its txid, fee and vsize (its time is its arrival); a foreground
one holds its whole transaction under ``"tx"``.  The foreground enters
through ``submit``, one transaction at a time, and ``foreground_pooled``
tells whether one sent that way is still pooled.  A window's market is the
tuple of its entries in ascending order of arrival, so ``run_until`` bisects
it by arrival for the run up to the horizon and slices it: window 1 is drawn
at construction and each next one once a block is mined, so it is always the
window that ends at ``next_block_time``.  No arrival is earlier than ``now``:
a window is drawn when the clock stands at its start, and ``now`` is the
latest horizon passed, up to which every arrival was submitted.  Each
submission is recorded once, as one ``submit`` event.

``fork`` gives an independent simulation in the same state, from per-layer
copies: the harness holds a scenario's set-up and the checkpoint a shorter
attack leaves, and starts later scenarios from forks of them.  A fork
shares its source's background load, which keeps no per-simulation state:
each simulation asks it for a window by number.  What a fork then does is
what the original would have done, byte for byte.

Scenarios and replays run with the cyclic garbage collector paused
(``collector_paused``), since a simulation makes no reference cycles.
"""

from __future__ import annotations

import copy
import gc
import json
import math
import re
from bisect import bisect_right
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from json.encoder import encode_basestring_ascii
from operator import attrgetter

from . import wallet
from .background import NO_MARKET, BackgroundLoad, CongestionProfile
from .chain import BLOCK_INTERVAL, Chain, MarketTx, Transaction, Utxo, UtxoSet
from .indexer import Indexer, replay
from .mempool import Mempool, SubmitResult
from .wallet import BUNDLE_GAP, TransferBundle, TransferRequest


# The largest congestion_normal_count: the sediment holds about level * count
# market entries, and at the highest congestion level (about 3.49) this count
# sets up a simulation of 125,000 pooled entries that peaks at about 65 MB.
MAX_NORMAL_COUNT = 40_000


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
        if self.congestion_normal_count > MAX_NORMAL_COUNT:
            raise ValueError(f"congestion_normal_count must be at most {MAX_NORMAL_COUNT}, "
                             f"got {self.congestion_normal_count!r}")


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


_ARRIVAL = attrgetter("arrival")  # a market entry's bisect key


class Simulation:
    def __init__(self, config: SimConfig, profile: CongestionProfile | None = None):
        self.config = config
        self.chain = Chain()
        self.pool = Mempool(config, self.chain)
        self.indexer = Indexer()
        self.now = 0.0
        self.next_block_time = BLOCK_INTERVAL
        self._arrivals = NO_MARKET  # this window's market
        self._next_arrival = 0  # index of the first arrival not yet submitted
        self.congestion_samples: list[float] = []
        self._watch: tuple[str, str] | None = None
        self.balance_samples: list[int] = []  # the watched transferable balance, per block
        # ("grant", t, owner, value), ("submit", t, tx, result) and ("mine", t, block),
        # in the order they happened
        self.event_log: list[tuple] = []
        self.background: BackgroundLoad | None = None
        if profile is not None and profile.target_level > 0:
            self.background = BackgroundLoad(
                profile, config.congestion_normal_count, config.block_capacity_vbytes
            )
            self.submit_batch(self.background.sediment())
            self._arrivals = self.background.market_batch(1)

    def fork(self) -> Simulation:
        """An independent simulation in this one's state: run apart, each goes on as
        this one would have.

        Each layer copies itself (``Chain.copy``, ``Mempool.copy``,
        ``Indexer.copy``): a fork gets its own copy of every container and of
        every object a later step mutates, and shares what is frozen, such as
        transactions, mined blocks, receipts, submit results and event tuples,
        and the background load, whose windows are the same for every reader.
        """
        dup = copy.copy(self)  # settings, clock, watch, the load and this window's arrivals
        dup.chain = self.chain.copy()
        dup.pool = self.pool.copy(dup.chain)
        dup.indexer = self.indexer.copy()
        dup.congestion_samples = list(self.congestion_samples)
        dup.balance_samples = list(self.balance_samples)
        dup.event_log = list(self.event_log)
        return dup

    # -- funding -------------------------------------------------------------

    def grant(self, owner: str, value: int) -> Utxo:
        """Genesis allocation, recorded for replay."""
        utxo = self.chain.utxo_set.grant(owner, value)
        self.event_log.append(("grant", self.now, owner, value))
        return utxo

    # -- submissions -----------------------------------------------------------

    def submit(self, tx: Transaction, at: float | None = None) -> SubmitResult:
        """Pool submission at ``at`` (default now), recorded: the foreground's path to the pool."""
        at = self.now if at is None else at
        result = self.pool.submit(tx, at)
        self.event_log.append(("submit", at, tx, result))
        return result

    def submit_batch(self, batch: Sequence[MarketTx]) -> list[SubmitResult]:
        """Each market entry of ``batch`` submitted at its arrival, in order, and
        recorded as one ``submit`` event: the background's path to the pool, and
        replay's for a run of market lines."""
        results = self.pool.submit_batch(batch)
        self.event_log += [("submit", e.arrival, e, r) for e, r in zip(batch, results)]
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

    def run_until(self, target: float) -> None:
        """Submit arrivals and mine every block due up to ``target``, then stand at it."""
        if not target < math.inf:  # NaN or +inf: no block would ever pass it
            raise ValueError(f"run_until needs a finite target, got {target!r}")
        while True:
            horizon = min(target, self.next_block_time)
            # the arrivals up to the horizon, none earlier than now (see the module docstring)
            i = self._next_arrival
            j = bisect_right(self._arrivals, horizon, lo=i, key=_ARRIVAL)
            if j > i:
                self.submit_batch(self._arrivals[i:j])
                self._next_arrival = j
            self.now = max(self.now, horizon)
            if self.next_block_time > target:
                return
            self.pool.tick_expiry(self.now)
            self.congestion_samples.append(self.pool.congestion())
            block = self.pool.mine_block(self.now)
            self.indexer.apply_block(block, self.chain.tip_receipts)
            if self._watch is not None:
                self.balance_samples.append(self.indexer.balance(*self._watch)[1])
            self.event_log.append(("mine", self.now, block))
            self.next_block_time += BLOCK_INTERVAL
            if self.background is not None:
                # the last window's arrivals were all submitted before its block was mined
                self._arrivals = self.background.market_batch(
                    int(self.next_block_time / BLOCK_INTERVAL))
                self._next_arrival = 0

    def run_blocks(self, count: int) -> None:
        self.run_until(self.next_block_time + (count - 1) * BLOCK_INTERVAL)

    # -- queries -----------------------------------------------------------------

    def watch_balance(self, tick: str, addr: str) -> None:
        """Sample one address's transferable balance at every block."""
        self._watch = (tick, addr)

    def mean_congestion(self) -> float:
        if not self.congestion_samples:
            return 0.0
        return sum(self.congestion_samples) / len(self.congestion_samples)

    def balance(self, tick: str, addr: str) -> tuple[int, int, int]:
        return self.indexer.balance(tick, addr)

    def foreground_pooled(self) -> bool:
        """Whether a transaction sent through ``submit`` is still in the pool: only those
        spend, since a market entry spends nothing and a transaction with no input pays
        a fee of at most 0, below the relay floor."""
        return bool(self.pool.spends)

    # -- replay -------------------------------------------------------------------

    def replay_state(self) -> Indexer:
        """The indexer rebuilt from the recorded grants and the block list."""
        genesis = UtxoSet()
        for event in self.event_log:
            if event[0] == "grant":
                genesis.grant(event[2], event[3])
        return replay(self.chain.blocks, genesis)

    def export_event_log(self, path: str) -> None:
        """The event log as JSON lines: a header, then one object per event."""
        config = {name: getattr(self.config, name) for name in SETTINGS}
        lines = [json.dumps({"event": "header", "config": config, "events": len(self.event_log)},
                            sort_keys=True)]
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


# A market entry's submit line as log_line writes it, with an optional
# newline, for replay to read without the JSON decoder.  It admits only text
# whose decoding it gives exactly: true/false and null; integers of at most 18
# digits, which int() converts (it refuses past 4,300); a time that is an int
# without fraction or exponent and a float otherwise, as JSON types it; and
# strings of printable ASCII with no '"' or '\', which need no unescaping.
# Any other line, JSON-equal or not, goes through the decoder.  Its groups:
# accepted, fee, reason (None for null), t as a float (float() reads NaN and
# Infinity as JSON does) or else as an int, txid and vsize.
_INT = r"(-?(?:0|[1-9][0-9]{0,17}))"
_FLOAT = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)|NaN|-?Infinity)"
_TEXT = r'"([ !#-\[\]-~]*)"'
MARKET_LINE = re.compile(
    rf'{{"accepted": (true|false), "event": "submit", "fee": {_INT}, '
    rf'"reason": (?:null|{_TEXT}), "t": (?:{_FLOAT}|{_INT}), '
    rf'"txid": {_TEXT}, "vsize": {_INT}}}\n?'
)


def log_line(event: tuple) -> str:
    """One recorded event as its event-log line, without the newline."""
    kind = event[0]
    if kind == "submit":
        _, t, tx, result = event
        if tx.__class__ is not MarketTx:  # a foreground transaction, whole
            return json.dumps({"accepted": result.accepted, "event": "submit",
                               "reason": result.reason, "t": t, "tx": asdict(tx)},
                              sort_keys=True)
        reason = "null" if result.reason is None else _string(result.reason)
        return (f'{{"accepted": {"true" if result.accepted else "false"}, "event": "submit", '
                f'"fee": {tx.fee}, "reason": {reason}, "t": {_number(t)}, '
                f'"txid": {_string(tx.txid)}, "vsize": {tx.vsize}}}')
    if kind == "mine":
        _, t, block = event
        txids = ", ".join([_string(tx.txid) for tx in block.transactions])
        return (f'{{"event": "mine", "height": {block.height}, "t": {_number(t)}, '
                f'"txids": [{txids}]}}')
    _, t, owner, value = event  # grant
    return f'{{"event": "grant", "owner": {_string(owner)}, "t": {_number(t)}, "value": {value}}}'
