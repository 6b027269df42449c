"""Discrete-event mempool and miner.

Entries are prioritized by fee rate (sat/vB).  Block template construction is
a dependency-respecting greedy: repeatedly take the highest-rate entry whose
in-pool parents are all already selected and which still fits the remaining
block capacity.  Replace-by-fee, capacity eviction and 14-day expiry follow
the usual node behavior.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .chain import Block, Chain, Transaction

if TYPE_CHECKING:
    from .sim import SimConfig

DAY = 86_400.0


class MempoolError(Exception):
    pass


class UnknownTx(MempoolError):
    pass


# submit() reject reasons
BELOW_MIN_RELAY_FEE = "below-min-relay-fee"
CONFLICT_NOT_REPLACEABLE = "conflict-not-replaceable"
ORPHAN_INPUT = "orphan-input"
NEGATIVE_FEE = "negative-fee"
MEMPOOL_FULL = "mempool-full"
DUPLICATE = "duplicate"
DUPLICATE_INPUT = "duplicate-input"


@dataclass(slots=True)
class MempoolEntry:
    tx: Transaction
    arrival: float
    fee: int
    rbf_enabled: bool
    depends_on: set[str]
    rate_key: float = field(init=False)  # fee / vsize, the sort key

    def __post_init__(self) -> None:
        self.rate_key = self.fee / self.tx.vsize


@dataclass(frozen=True, slots=True)
class SubmitResult:
    accepted: bool
    reason: str | None = None
    replaced: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.accepted


def _sort_key(entry: MempoolEntry) -> tuple:
    return (-entry.rate_key, entry.arrival, entry.tx.txid)


class Mempool:
    """Unconfirmed transaction pool bound to a chain's confirmed UTXO set."""

    def __init__(self, config: SimConfig, chain: Chain):
        self.config = config
        self.chain = chain
        self.entries: dict[str, MempoolEntry] = {}
        self.spends: dict[tuple[str, int], str] = {}  # outpoint -> spender txid
        self.total_vsize = 0

    # -- bookkeeping -------------------------------------------------------

    def __contains__(self, txid: str) -> bool:
        return txid in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def congestion(self) -> float:
        """Unconfirmed count over the configured normal level, uncapped."""
        return len(self.entries) / self.config.congestion_normal_count

    def _resolve_input_value(self, outpoint: tuple[str, int]) -> int | None:
        utxo = self.chain.utxo_set.utxos.get(outpoint)
        if utxo is not None:
            return utxo.value
        parent = self.entries.get(outpoint[0])
        if parent is not None and outpoint[1] < len(parent.tx.outputs):
            value = parent.tx.outputs[outpoint[1]].value
            return value if value > 0 else None  # zero outputs never materialize
        return None

    def _remove(self, txid: str) -> list[MempoolEntry]:
        """Remove an entry and, recursively, any in-pool descendants."""
        entry = self.entries.pop(txid, None)
        if entry is None:
            return []
        self.total_vsize -= entry.tx.vsize
        removed = [entry]
        for inp in entry.tx.inputs:
            if self.spends.get(inp.outpoint) == txid:
                del self.spends[inp.outpoint]
        # children spend this entry's outputs and are orphaned by its removal
        children = [
            self.spends[op]
            for op in (
                (txid, i) for i in range(len(entry.tx.outputs))
            )
            if op in self.spends
        ]
        for child in children:
            removed.extend(self._remove(child))
        return removed

    # -- spec operations ----------------------------------------------------

    def submit(self, tx: Transaction, now: float) -> SubmitResult:
        if tx.txid in self.entries or self.chain.confirmed(tx.txid):
            return SubmitResult(False, DUPLICATE)
        if len({inp.outpoint for inp in tx.inputs}) != len(tx.inputs):
            return SubmitResult(False, DUPLICATE_INPUT)

        input_total = 0
        conflicts: set[str] = set()
        for inp in tx.inputs:
            value = self._resolve_input_value(inp.outpoint)
            if value is None:
                return SubmitResult(False, ORPHAN_INPUT)
            spender = self.spends.get(inp.outpoint)
            if spender is not None:
                conflicts.add(spender)
            input_total += value

        fee = input_total - tx.output_total
        if fee < 0:
            return SubmitResult(False, NEGATIVE_FEE)
        if fee < self.config.min_relay_fee_rate * tx.vsize:
            return SubmitResult(False, BELOW_MIN_RELAY_FEE)

        replaced: list[str] = []
        if conflicts:
            conflict_fee = sum(self.entries[c].fee for c in conflicts)
            replaceable = all(self.entries[c].rbf_enabled for c in conflicts)
            if not replaceable or fee <= conflict_fee:
                return SubmitResult(False, CONFLICT_NOT_REPLACEABLE)
            for conflict in sorted(conflicts):
                replaced.extend(e.tx.txid for e in self._remove(conflict))

        depends_on = {
            inp.outpoint[0] for inp in tx.inputs if inp.outpoint[0] in self.entries
        }
        entry = MempoolEntry(
            tx=tx,
            arrival=now,
            fee=fee,
            rbf_enabled=tx.rbf_enabled,
            depends_on=depends_on,
        )
        self.entries[tx.txid] = entry
        self.total_vsize += tx.vsize
        for inp in tx.inputs:
            self.spends[inp.outpoint] = tx.txid

        self._enforce_capacity()
        if tx.txid not in self.entries:
            return SubmitResult(False, MEMPOOL_FULL)
        return SubmitResult(True, replaced=tuple(replaced))

    def _enforce_capacity(self) -> list[str]:
        evicted: list[str] = []
        while self.total_vsize > self.config.mempool_capacity_vbytes:
            victim = min(
                self.entries.values(),
                key=lambda e: (e.rate_key, -e.arrival, e.tx.txid),
            )
            evicted.extend(x.tx.txid for x in self._remove(victim.tx.txid))
        return evicted

    def tick_expiry(self, now: float) -> list[Transaction]:
        """Drop entries older than the expiry window (strictly older)."""
        stale = [
            txid
            for txid, entry in self.entries.items()
            if now - entry.arrival > self.config.expiry
        ]
        dropped: list[Transaction] = []
        for txid in stale:
            dropped.extend(e.tx for e in self._remove(txid))
        return dropped

    def mine_block(self, now: float) -> Block:
        """Greedy fee-rate block template; selected entries leave the pool."""
        missing: dict[str, set[str]] = {}
        ready: list[tuple] = []
        min_vsize = self.config.block_capacity_vbytes
        for txid, entry in self.entries.items():
            min_vsize = min(min_vsize, entry.tx.vsize)
            parents = {p for p in entry.depends_on if p in self.entries}
            if parents:
                missing[txid] = parents
            else:
                ready.append((_sort_key(entry), txid))
        heapq.heapify(ready)

        children: dict[str, list[str]] = {}
        for txid, parents in missing.items():
            for parent in sorted(parents):
                children.setdefault(parent, []).append(txid)

        remaining = self.config.block_capacity_vbytes
        selected: list[str] = []
        while ready and remaining >= min_vsize:
            txid = heapq.heappop(ready)[1]
            entry = self.entries[txid]
            if entry.tx.vsize > remaining:
                continue  # capacity only shrinks; drop from consideration
            selected.append(txid)
            remaining -= entry.tx.vsize
            for child in children.get(txid, ()):
                pending = missing[child]
                pending.discard(txid)
                if not pending:
                    heapq.heappush(ready, (_sort_key(self.entries[child]), child))

        block = Block(height=self.chain.height + 1, timestamp=now)
        for txid in selected:
            entry = self.entries.pop(txid)
            self.total_vsize -= entry.tx.vsize
            for inp in entry.tx.inputs:
                if self.spends.get(inp.outpoint) == txid:
                    del self.spends[inp.outpoint]
            block.transactions.append(entry.tx)
        self.chain.append_block(block)

        mined = set(selected)
        for entry in self.entries.values():
            entry.depends_on -= mined
        return block
