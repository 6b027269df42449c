"""Single-threaded discrete-event simulation loop.

Owns the chain, the mempool, the indexer and (optionally) a background load,
and advances them in lockstep: foreground submissions and background arrivals
are processed in timestamp order, a block is mined every ``block_interval``
simulated seconds, and every mined block is fed to the indexer together with
the receipts its chain append returned.

Genesis satoshis enter through ``grant``, which funds the chain's UTXO set and
records the allocation in the grant ledger, so token state stays
reconstructable from the grant ledger plus the block list alone (see
``replay_state``).  Background traffic is funded through ``fund`` instead:
value-only coins with no owner and no ordinals, recorded in the same ledger
(and logged as ``fund`` events) so that replay re-creates every serial in
order.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, fields

from . import wallet
from .background import BackgroundLoad, CongestionProfile
from .chain import Chain, Transaction, Utxo, UtxoSet
from .indexer import Brc20State, Indexer, replay
from .mempool import DAY, Mempool, SubmitResult, UnknownTx
from .wallet import BUNDLE_GAP, TransferBundle, TransferRequest


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Every simulation setting; the pool reads its policy from here too."""

    block_interval: float = 600.0
    block_capacity_vbytes: int = 10_150
    mempool_capacity_vbytes: int = 50_000_000
    min_relay_fee_rate: int = 1
    expiry: float = 14 * DAY
    congestion_normal_count: int = 400
    log_events: bool = False

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.name in SETTINGS and not 0 < value < math.inf:
                raise ValueError(f"{f.name} must be positive and finite, got {value!r}")


# The numeric settings, as written to the event-log header, accepted as CLI
# config keys and required by replay.
SETTINGS = tuple(f.name for f in fields(SimConfig) if f.name != "log_events")

# one encoder for every event-log line: json.dumps(sort_keys=True) builds a new one per call
_LOG_ENCODER = json.JSONEncoder(sort_keys=True)


class Simulation:
    def __init__(self, config: SimConfig, profile: CongestionProfile | None = None):
        self.config = config
        self.chain = Chain()
        self.pool = Mempool(config, self.chain)
        self.indexer = Indexer()
        self.now = 0.0
        self.next_block_time = config.block_interval
        self._scheduled: list[tuple[float, int, Transaction]] = []
        self._seq = 0
        self._window_generated = -1
        self.submit_times: dict[str, float] = {}
        self.congestion_samples: list[float] = []
        self.grants_log: list[tuple[str | None, int]] = []  # owner None: a fund
        self._watch: tuple[str, str] | None = None
        self.balance_samples: list[tuple[float, int, int]] = []
        self.event_log: list[dict] = []
        self.background: BackgroundLoad | None = None
        if profile is not None and profile.target_level > 0:
            self.background = BackgroundLoad(
                profile, config.congestion_normal_count, config.block_capacity_vbytes
            )
            for tx in self.background.sediment(self.fund):
                self.submit(tx)

    # -- funding -------------------------------------------------------------

    def grant(self, owner: str, value: int) -> Utxo:
        """Genesis allocation, recorded in the grant ledger for replay."""
        utxo = self.chain.utxo_set.grant(owner, value)
        self.grants_log.append((owner, value))
        if self.config.log_events:
            self.event_log.append(
                {"event": "grant", "t": self.now, "owner": owner, "value": value}
            )
        return utxo

    def fund(self, value: int) -> tuple[str, int]:
        """Value-only coin for background traffic, recorded in the grant ledger for replay."""
        serial = self.chain.utxo_set.fund(value)
        self.grants_log.append((None, value))
        if self.config.log_events:
            self.event_log.append({"event": "fund", "t": self.now, "value": value})
        return serial

    # -- submissions -----------------------------------------------------------

    def submit(self, tx: Transaction, at: float | None = None) -> SubmitResult:
        """Pool submission at ``at`` (default now), timed and logged; the only path to the pool."""
        at = self.now if at is None else at
        result = self.pool.submit(tx, at)
        self.submit_times.setdefault(tx.txid, at)
        if self.config.log_events:
            self.event_log.append(
                {"event": "submit", "t": at, "tx": tx.to_dict(),
                 "accepted": result.accepted, "reason": result.reason}
            )
        return result

    def send_transfer(
        self, request: TransferRequest
    ) -> tuple[TransferBundle, SubmitResult, SubmitResult]:
        """Build a bundle from coins no pool entry spends; send Tx1 now and Tx2
        ``BUNDLE_GAP`` later, after mining any block that falls in between."""
        bundle = wallet.build_transfer(  # looked up per call: bench/tracing.py wraps it
            request, self.chain.utxo_set, exclude=set(self.pool.spends)
        )
        r1 = self.submit(bundle.tx1)
        self.run_until(self.now + BUNDLE_GAP)
        r2 = self.submit(bundle.tx2)
        return bundle, r1, r2

    # -- time ------------------------------------------------------------------

    def _ensure_window(self) -> None:
        if self.background is None:
            return
        window = int(self.next_block_time / self.config.block_interval)
        if window <= self._window_generated:
            return
        self._window_generated = window
        start = self.next_block_time - self.config.block_interval
        for at, tx in self.background.market_batch(
            self.fund, start, self.config.block_interval
        ):
            self._seq += 1
            heapq.heappush(self._scheduled, (max(at, self.now), self._seq, tx))

    def run_until(self, target: float) -> None:
        while True:
            self._ensure_window()
            horizon = min(target, self.next_block_time)
            while self._scheduled and self._scheduled[0][0] <= horizon:
                at, _, tx = heapq.heappop(self._scheduled)
                self.now = max(self.now, at)
                self.submit(tx)
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
            if self.config.log_events:
                self.event_log.append(
                    {
                        "event": "mine",
                        "t": self.now,
                        "height": block.height,
                        "txids": [tx.txid for tx in block.transactions],
                    }
                )
            self.next_block_time += self.config.block_interval

    def run_blocks(self, count: int) -> None:
        self.run_until(self.next_block_time + (count - 1) * self.config.block_interval)

    # -- queries -----------------------------------------------------------------

    def confirmation_delay(self, txid: str) -> float | None:
        if txid not in self.submit_times:
            raise UnknownTx(txid)
        confirmed_at = self.chain.confirmation_time(txid)
        if confirmed_at is None:
            return None
        return confirmed_at - self.submit_times[txid]

    def effective_delay(self, txid: str) -> float:
        """Confirmed delay, or elapsed pending time as of now."""
        delay = self.confirmation_delay(txid)
        if delay is None:
            return self.now - self.submit_times[txid]
        return delay

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
        """Token state rebuilt from the grant ledger and the block list."""
        genesis = UtxoSet()
        for owner, value in self.grants_log:
            if owner is None:
                genesis.fund(value)
            else:
                genesis.grant(owner, value)
        return replay(self.chain.blocks, genesis)

    def export_event_log(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            config = {name: getattr(self.config, name) for name in SETTINGS}
            fh.write(_LOG_ENCODER.encode({"event": "header", "config": config}) + "\n")
            for event in self.event_log:
                fh.write(_LOG_ENCODER.encode(event) + "\n")
