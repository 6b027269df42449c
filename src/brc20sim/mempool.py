"""Discrete-event mempool and miner.

Entries are prioritized by fee rate (sat/vB).  Block template construction is
a dependency-respecting greedy: repeatedly take the highest-rate entry whose
in-pool parents are all already selected and which still fits the remaining
block capacity.  Replace-by-fee, capacity eviction and 14-day expiry follow
the usual node behavior.  A replacement must pay more than the fees of
everything it evicts, its conflicts' descendants included (BIP125 rule 3).
It first removes its conflicts and then faces capacity eviction like any
newcomer, which is Bitcoin Core's order before cluster mempool (replace,
then trim); when the replacement itself is trimmed, the rejection still
lists the conflicts it removed.

The pool maintains its orderings on every submit and removal instead of
rebuilding them per block.  With n entries, s entries selected for a block
and k distinct vsizes among the ready entries:

- ``spends`` maps every outpoint an entry spends to that entry, so an
  entry's in-pool children are the spenders of its outputs, and
  ``depends_on`` holds each entry's in-pool parents (a mined parent is
  pruned from its children only).  Every entry admitted with no in-pool
  parent shares the empty ``NO_PARENTS``.
- The ready entries, those with no in-pool parent, sit in one best-rate-first
  heap per vsize; each entry carries its own heap item, ``MempoolEntry.key``.
  ``mine_block`` repeatedly takes the best top among the heaps whose vsize
  still fits, in O(s * (k + log n)): it touches the selected entries and
  their children, never the unmined rest.
- Once capacity binds, every entry sits in a low-rate-first eviction heap,
  so each capacity eviction costs O(log n) instead of an O(n) scan.  The
  heap is built from ``entries`` when the pool first exceeds its capacity,
  so a pool that never fills (the sweep's) never pays for it.
- Both heaps delete lazily.  A removal leaves the entry's items behind; an
  item counts only while its txid is in the pool with the item's arrival
  time, so a txid evicted and resubmitted is not mistaken for its old item.
  Once removals since the last rebuild outnumber the entries, the ready
  heaps are rebuilt from ``entries`` in O(n), O(1) per removal amortized,
  and the eviction heap is dropped, to be rebuilt when capacity next binds.
- ``tick_expiry`` is O(1) while a lower bound on the oldest arrival cannot
  expire; only then does it scan the pool in insertion order.

Admission takes one pass over the inputs: one lookup per input gives its
value and its in-pool parent, and the same pass collects the parents and the
conflicts (a value-only coin is one dict probe).  A plain accept does no
more work: the duplicate-input set is built only for several inputs, the
parent set only for an in-pool parent, the conflict set only for an input
that already has a spender, the descendant walk only for a replacement,
eviction only over capacity, and the accepted result is one shared object.

Background traffic arrives in batches (``submit_batch``): the sediment, or a
run of market arrivals.  A batch gives the results, and leaves the pool,
that one ``submit`` per transaction in order would, lazily deleted heap
items included.  A transaction that spends exactly one value-only coin
with no spender, is neither pooled nor confirmed, carries no
inscription and clears the relay floor is one that ``submit`` accepts with
no parent, conflict or replacement, so it takes a fast pass: its entry, its
``spends`` item and its eviction-heap item (once that heap is built) go in at
once, while its ready-heap key waits with the batch's other pending keys.
Any other transaction goes through ``submit``, and one that takes the pool
over capacity goes through ``_enforce_capacity``, reporting ``mempool-full``
if it was the one evicted.  Both first flush the pending keys, because either
may remove entries and so rebuild the ready heaps from ``entries``, which
would then hold a pending key twice.  A flush pushes a vsize's keys one by
one or, when they outnumber its heap, extends the heap and heapifies it
once, so a sediment of m entries enters the ready heaps in O(m), not
O(m log m).  Per transaction the fast pass costs four dict probes (coin,
spender, pool, chain), two dict writes and one entry, without ``submit``'s
call, input loop and result checks.

An entry spending value-only coins (the chain's ``UtxoSet.plain``) is
value-only, and its outputs leave the model: an input naming one of them,
whether its transaction is pooled or mined, is refused as ``orphan-input``.
So a value-only entry spends only confirmed coins, which stay in
``UtxoSet.plain`` while it is pooled.  A transaction that mixes value-only
coins with ordinal-tracked ones, or puts an inscription on them, is rejected
as ``mixed-funding``; neither ever reaches the chain.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .chain import Block, Chain, Transaction

if TYPE_CHECKING:
    from .sim import SimConfig

DAY = 86_400.0
EXPIRY = 14 * DAY  # an entry older than this leaves the pool
MIN_RELAY_FEE_RATE = 1  # sat/vB: the relay floor


# submit() reject reasons
BELOW_MIN_RELAY_FEE = "below-min-relay-fee"
CONFLICT_NOT_REPLACEABLE = "conflict-not-replaceable"
ORPHAN_INPUT = "orphan-input"
NEGATIVE_FEE = "negative-fee"
MEMPOOL_FULL = "mempool-full"
DUPLICATE = "duplicate"
DUPLICATE_INPUT = "duplicate-input"
SPENDS_CONFLICTING_TX = "spends-conflicting-tx"
MIXED_FUNDING = "mixed-funding"

NO_PARENTS: frozenset[str] = frozenset()  # depends_on of every entry admitted without one


@dataclass(slots=True)
class MempoolEntry:
    tx: Transaction
    arrival: float
    fee: int
    depends_on: set[str] | frozenset[str]  # in-pool parents; NO_PARENTS when none
    # fee / vsize, the sort key.  The float orders entries exactly: with
    # vsizes at most V and rates below 10**4 sat/vB, distinct ratios a/b and
    # c/d differ by |ad - bc| / bd >= 1 / V**2, at least 1 / (V * 10**4 * V)
    # relative, which is 1e-12 at V = 10**4 and far above the float
    # resolution of 2**-52.  Correctly rounded division is monotone, so
    # distinct ratios keep their order and equal ratios tie.
    rate_key: float = field(init=False)
    key: tuple = field(init=False)  # (-rate_key, arrival, txid), its ready-heap item

    def __post_init__(self) -> None:
        self.rate_key = self.fee / self.tx.vsize
        self.key = (-self.rate_key, self.arrival, self.tx.txid)


@dataclass(frozen=True, slots=True)
class SubmitResult:
    accepted: bool
    reason: str | None = None
    replaced: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.accepted


ACCEPTED = SubmitResult(True)  # every plain accept shares it: results are immutable
FULL = SubmitResult(False, MEMPOOL_FULL)  # a batch's fast-pass newcomer that was evicted


class Mempool:
    """Unconfirmed transaction pool bound to a chain's confirmed UTXO set."""

    def __init__(self, config: SimConfig, chain: Chain):
        self.config = config
        self.chain = chain
        self.entries: dict[str, MempoolEntry] = {}
        self.spends: dict[tuple[str, int], str] = {}  # outpoint -> spender txid
        self.total_vsize = 0
        # lazily deleted indexes (see the module docstring)
        self._ready: dict[int, list[tuple]] = {}  # vsize -> heap of MempoolEntry.key
        self._by_rate: list[tuple] | None = None  # heap of (rate_key, -arrival, txid)
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

    def _lookup(self, outpoint: tuple[str, int]) -> tuple[int, MempoolEntry | None] | None:
        """An ordinal-tracked input's value and its in-pool parent; None if orphaned.

        Value-only coins are not looked up here: ``submit`` probes
        ``UtxoSet.plain`` first, inline, because most inputs are such coins.
        """
        utxo = self.chain.utxo_set.utxos.get(outpoint)
        if utxo is not None:
            return utxo.value, None
        parent = self.entries.get(outpoint[0])
        if parent is not None and outpoint[1] < len(parent.tx.outputs):
            value = parent.tx.outputs[outpoint[1]].value
            # zero outputs never materialize, nor do a value-only entry's
            if value > 0 and parent.tx.inputs[0].outpoint not in self.chain.utxo_set.plain:
                return value, parent
        return None

    def _live(self, txid: str, arrival: float) -> bool:
        """Whether a heap item for (txid, arrival) still stands for an entry."""
        entry = self.entries.get(txid)
        return entry is not None and entry.arrival == arrival

    def _push_ready(self, entry: MempoolEntry) -> None:
        heap = self._ready.get(entry.tx.vsize)
        if heap is None:
            heap = self._ready[entry.tx.vsize] = []
        heapq.heappush(heap, entry.key)

    def _forget(self, count: int) -> None:
        """Count removals; rebuild the indexes once stale items may dominate."""
        self._removed += count
        if self._removed <= len(self.entries):
            return
        self._removed = 0
        self._by_rate = None  # rebuilt when capacity next binds
        self._ready = {}
        for entry in self.entries.values():
            if not entry.depends_on:
                self._ready.setdefault(entry.tx.vsize, []).append(entry.key)
        for heap in self._ready.values():
            heapq.heapify(heap)

    def _descendants(self, txids: set[str]) -> set[str]:
        """The given in-pool entries and all their in-pool descendants."""
        seen, stack = set(), list(txids)
        while stack:
            txid = stack.pop()
            if txid not in seen:
                seen.add(txid)
                for i in range(len(self.entries[txid].tx.outputs)):
                    child = self.spends.get((txid, i))
                    if child is not None:
                        stack.append(child)
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
        txid, inputs = tx.txid, tx.inputs
        if txid in self.entries or self.chain.confirmed(txid):
            return SubmitResult(False, DUPLICATE)
        if len(inputs) > 1 and len({inp.outpoint for inp in inputs}) != len(inputs):
            return SubmitResult(False, DUPLICATE_INPUT)

        input_total = 0
        plain_inputs = 0
        depends_on: set[str] | frozenset[str] = NO_PARENTS
        conflicts: set[str] | None = None
        plain_coins = self.chain.utxo_set.plain
        for inp in inputs:
            value, parent = plain_coins.get(inp.outpoint), None
            if value is not None:
                plain_inputs += 1
            else:
                found = self._lookup(inp.outpoint)
                if found is None:
                    return SubmitResult(False, ORPHAN_INPUT)
                value, parent = found
            input_total += value
            if parent is not None:
                if depends_on is NO_PARENTS:
                    depends_on = set()
                depends_on.add(parent.tx.txid)
            spender = self.spends.get(inp.outpoint)
            if spender is not None:
                if conflicts is None:
                    conflicts = set()
                conflicts.add(spender)
        # value-only coins carry no ordinals, so they neither mix with
        # ordinal-tracked ones nor take an inscription
        if plain_inputs and (
            plain_inputs < len(inputs) or (tx.outputs and tx.outputs[0].inscription is not None)
        ):
            return SubmitResult(False, MIXED_FUNDING)

        fee = input_total - tx.output_total
        if fee < 0:
            return SubmitResult(False, NEGATIVE_FEE)
        if fee < MIN_RELAY_FEE_RATE * tx.vsize:
            return SubmitResult(False, BELOW_MIN_RELAY_FEE)

        replaced: list[str] = []
        if conflicts:
            # BIP125 rule 3: outbid everything that leaves, descendants included
            evicted = self._descendants(conflicts)
            replaceable = all(self.entries[c].tx.rbf_enabled for c in conflicts)
            if not replaceable or fee <= sum(self.entries[t].fee for t in evicted):
                return SubmitResult(False, CONFLICT_NOT_REPLACEABLE)
            # an input from a conflict or its descendant would leave the pool with it
            if not depends_on.isdisjoint(evicted):
                return SubmitResult(False, SPENDS_CONFLICTING_TX)
            for conflict in sorted(conflicts):
                replaced.extend(e.tx.txid for e in self._remove(conflict))
        entry = MempoolEntry(tx, now, fee, depends_on)
        self.entries[txid] = entry
        self.total_vsize += tx.vsize
        for inp in inputs:
            self.spends[inp.outpoint] = txid
        if self._by_rate is not None:
            heapq.heappush(self._by_rate, (entry.rate_key, -now, txid))
        if not depends_on:
            self._push_ready(entry)
        if now < self._oldest:
            self._oldest = now

        if self.total_vsize > self.config.mempool_capacity_vbytes:
            self._enforce_capacity()
            if txid not in self.entries:
                return SubmitResult(False, MEMPOOL_FULL, replaced=tuple(replaced))
        return SubmitResult(True, replaced=tuple(replaced)) if replaced else ACCEPTED

    def submit_batch(
        self, txs: Sequence[Transaction], times: Sequence[float]
    ) -> list[SubmitResult]:
        """``submit(txs[i], times[i])`` for each i in order: the same results and
        the same pool, with fresh value-only spends on a fast pass (see the
        module docstring)."""
        results: list[SubmitResult] = []
        pending: dict[int, list[tuple]] = {}  # vsize -> ready keys not yet in _ready
        entries, spends = self.entries, self.spends
        plain_coins = self.chain.utxo_set.plain
        confirmed = self.chain.confirmed
        capacity = self.config.mempool_capacity_vbytes
        for tx, now in zip(txs, times):
            txid, inputs, outputs = tx.txid, tx.inputs, tx.outputs
            outpoint = inputs[0].outpoint if len(inputs) == 1 else None
            value = plain_coins.get(outpoint)
            if (
                value is None
                or outpoint in spends
                or txid in entries
                or confirmed(txid)
                or (outputs and outputs[0].inscription is not None)
                or value - tx.output_total < MIN_RELAY_FEE_RATE * tx.vsize
            ):
                if pending:
                    self._flush_ready(pending)
                results.append(self.submit(tx, now))
                continue
            entry = MempoolEntry(tx, now, value - tx.output_total, NO_PARENTS)
            entries[txid] = entry
            self.total_vsize += tx.vsize
            spends[outpoint] = txid
            if self._by_rate is not None:
                heapq.heappush(self._by_rate, (entry.rate_key, -now, txid))
            keys = pending.get(tx.vsize)
            if keys is None:
                pending[tx.vsize] = [entry.key]
            else:
                keys.append(entry.key)
            if now < self._oldest:
                self._oldest = now
            if self.total_vsize > capacity:
                self._flush_ready(pending)
                self._enforce_capacity()
                if txid not in entries:
                    results.append(FULL)
                    continue
            results.append(ACCEPTED)
        if pending:
            self._flush_ready(pending)
        return results

    def _flush_ready(self, pending: dict[int, list[tuple]]) -> None:
        """Move a batch's pending ready keys into the ready heaps, and empty ``pending``."""
        for vsize, keys in pending.items():
            heap = self._ready.setdefault(vsize, [])
            if len(keys) > len(heap):
                heap += keys
                heapq.heapify(heap)
            else:
                for key in keys:
                    heapq.heappush(heap, key)
        pending.clear()

    def _enforce_capacity(self) -> list[str]:
        """Evict lowest-rate entries, latest arrival first, until the pool fits."""
        evicted: list[str] = []
        while self.total_vsize > self.config.mempool_capacity_vbytes:
            if self._by_rate is None:  # unbuilt, or dropped by a rebuild (_forget)
                self._by_rate = [(e.rate_key, -e.arrival, t) for t, e in self.entries.items()]
                heapq.heapify(self._by_rate)
            _, neg_arrival, txid = heapq.heappop(self._by_rate)
            if self._live(txid, -neg_arrival):
                evicted.extend(x.tx.txid for x in self._remove(txid))
        return evicted

    def tick_expiry(self, now: float) -> list[Transaction]:
        """Drop entries older than the expiry window (strictly older)."""
        if now - self._oldest <= EXPIRY:
            return []
        stale = [
            txid
            for txid, entry in self.entries.items()
            if now - entry.arrival > EXPIRY
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
                while heap:  # drop stale tops, as _live would
                    live = self.entries.get(heap[0][2])
                    if live is not None and live.arrival == heap[0][1]:
                        break
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
