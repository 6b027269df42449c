"""Discrete-event mempool and miner.

Entries are prioritized by fee rate (sat/vB).  Block template construction is
a dependency-respecting greedy: repeatedly take the highest-rate entry whose
in-pool parents are all already selected and which still fits the remaining
block capacity.  Replace-by-fee, capacity eviction and 14-day expiry follow
the usual node behavior.  A replacement first removes its conflicts and then
faces capacity eviction like any newcomer, which is Bitcoin Core's order
before cluster mempool (replace, then trim); when the replacement itself is
trimmed, the rejection still lists the conflicts it removed.

The pool maintains its orderings on every submit and removal instead of
rebuilding them per block.  With n entries, s entries selected for a block
and k distinct vsizes among the ready entries:

- ``spends`` maps every outpoint an entry spends to that entry, so an
  entry's in-pool children are the spenders of its outputs, and
  ``depends_on`` holds each entry's in-pool parents (a mined parent is
  pruned from its children only).
- The ready entries, those with no in-pool parent, sit in one best-rate-first
  heap per vsize.  ``mine_block`` repeatedly takes the best top among the
  heaps whose vsize still fits, in O(s * (k + log n)): it touches the
  selected entries and their children, never the unmined rest.
- Every entry sits in a low-rate-first eviction heap, so each capacity
  eviction costs O(log n) instead of an O(n) scan.
- Both heaps delete lazily.  A removal leaves the entry's items behind; an
  item counts only while its txid is in the pool with the item's arrival
  time, so a txid evicted and resubmitted is not mistaken for its old item.
  Once removals since the last rebuild outnumber the entries, both heaps are
  rebuilt from ``entries`` in O(n), which is O(1) per removal amortized.
- ``tick_expiry`` is O(1) while a lower bound on the oldest arrival cannot
  expire; only then does it scan the pool in insertion order.
"""

from __future__ import annotations

import heapq
import math
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
SPENDS_CONFLICTING_TX = "spends-conflicting-tx"


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
        # lazily deleted indexes (see the module docstring)
        self._ready: dict[int, list[tuple]] = {}  # vsize -> heap of _sort_key
        self._by_rate: list[tuple] = []  # heap of (rate_key, -arrival, txid)
        self._removed = 0  # entries removed or mined since the last rebuild
        self._oldest = math.inf  # at most the earliest arrival in the pool

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

    def _live(self, txid: str, arrival: float) -> bool:
        """Whether a heap item for (txid, arrival) still stands for an entry."""
        entry = self.entries.get(txid)
        return entry is not None and entry.arrival == arrival

    def _push_ready(self, entry: MempoolEntry) -> None:
        heapq.heappush(self._ready.setdefault(entry.tx.vsize, []), _sort_key(entry))

    def _forget(self, count: int) -> None:
        """Count removals; rebuild the heaps once stale items may dominate."""
        self._removed += count
        if self._removed <= len(self.entries):
            return
        self._removed = 0
        self._by_rate = [(e.rate_key, -e.arrival, t) for t, e in self.entries.items()]
        heapq.heapify(self._by_rate)
        self._ready = {}
        for entry in self.entries.values():
            if not entry.depends_on:
                self._ready.setdefault(entry.tx.vsize, []).append(_sort_key(entry))
        for heap in self._ready.values():
            heapq.heapify(heap)

    def _ancestors(self, parents: set[str]) -> set[str]:
        """The given in-pool entries and all their in-pool ancestors."""
        seen, stack = set(), list(parents)
        while stack:
            txid = stack.pop()
            if txid not in seen:
                seen.add(txid)
                stack.extend(self.entries[txid].depends_on)
        return seen

    def _remove(self, txid: str) -> list[MempoolEntry]:
        """Remove an entry and, recursively, any in-pool descendants."""
        entry = self.entries.pop(txid, None)
        if entry is None:
            return []
        self.total_vsize -= entry.tx.vsize
        self._forget(1)
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

        depends_on = {
            inp.outpoint[0] for inp in tx.inputs if inp.outpoint[0] in self.entries
        }
        replaced: list[str] = []
        if conflicts:
            conflict_fee = sum(self.entries[c].fee for c in conflicts)
            replaceable = all(self.entries[c].rbf_enabled for c in conflicts)
            if not replaceable or fee <= conflict_fee:
                return SubmitResult(False, CONFLICT_NOT_REPLACEABLE)
            # an input from a conflict or its descendant would leave the pool with it
            if not conflicts.isdisjoint(self._ancestors(depends_on)):
                return SubmitResult(False, SPENDS_CONFLICTING_TX)
            for conflict in sorted(conflicts):
                replaced.extend(e.tx.txid for e in self._remove(conflict))
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
        heapq.heappush(self._by_rate, (entry.rate_key, -now, tx.txid))
        if not depends_on:
            self._push_ready(entry)
        self._oldest = min(self._oldest, now)

        self._enforce_capacity()
        if tx.txid not in self.entries:
            return SubmitResult(False, MEMPOOL_FULL, replaced=tuple(replaced))
        return SubmitResult(True, replaced=tuple(replaced))

    def _enforce_capacity(self) -> list[str]:
        """Evict lowest-rate entries, latest arrival first, until the pool fits."""
        evicted: list[str] = []
        while self.total_vsize > self.config.mempool_capacity_vbytes:
            _, neg_arrival, txid = heapq.heappop(self._by_rate)
            if self._live(txid, -neg_arrival):
                evicted.extend(x.tx.txid for x in self._remove(txid))
        return evicted

    def tick_expiry(self, now: float) -> list[Transaction]:
        """Drop entries older than the expiry window (strictly older)."""
        if now - self._oldest <= self.config.expiry:
            return []
        stale = [
            txid
            for txid, entry in self.entries.items()
            if now - entry.arrival > self.config.expiry
        ]
        dropped: list[Transaction] = []
        for txid in stale:
            dropped.extend(e.tx for e in self._remove(txid))
        self._oldest = min((e.arrival for e in self.entries.values()), default=math.inf)
        return dropped

    def mine_block(self, now: float) -> Block:
        """Greedy fee-rate block template; selected entries leave the pool."""
        block = Block(height=self.chain.height + 1, timestamp=now)
        remaining = self.config.block_capacity_vbytes
        while True:
            # the best ready entry that fits tops one of the fitting heaps
            best: list[tuple] | None = None
            for vsize, heap in self._ready.items():
                if vsize > remaining:
                    continue
                while heap and not self._live(heap[0][2], heap[0][1]):
                    heapq.heappop(heap)
                if heap and (best is None or heap[0] < best[0]):
                    best = heap
            if best is None:
                break
            txid = heapq.heappop(best)[2]
            entry = self.entries.pop(txid)
            remaining -= entry.tx.vsize
            self.total_vsize -= entry.tx.vsize
            for inp in entry.tx.inputs:
                if self.spends.get(inp.outpoint) == txid:
                    del self.spends[inp.outpoint]
            for i in range(len(entry.tx.outputs)):
                child = self.entries.get(self.spends.get((txid, i)))
                if child is not None and txid in child.depends_on:
                    child.depends_on.remove(txid)
                    if not child.depends_on:
                        self._push_ready(child)
            block.transactions.append(entry.tx)
        self.chain.append_block(block)
        self._forget(len(block.transactions))
        return block
