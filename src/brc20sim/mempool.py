"""Discrete-event mempool and miner.

Entries are prioritized by fee rate (sat/vB).  Block template construction is
a dependency-respecting greedy: repeatedly take the highest-rate entry whose
in-pool parents are all already selected and which still fits the remaining
block capacity.  Replace-by-fee, capacity eviction and 14-day expiry follow
the usual node behavior.  A replacement may spend an unconfirmed output
only of a transaction its conflicts already spend from (BIP125 rule 2); must
pay more than the fees of everything it evicts, its conflicts' descendants
included (rule 3), and above them at least ``MIN_RELAY_FEE_RATE`` times its
own vsize (rule 4); may evict at most 100 transactions, descendants
included (rule 5); and must pay a higher fee rate than each transaction it
directly conflicts with (Bitcoin Core's feerate rule, checked last).
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
  parent shares the empty ``NO_PARENTS``, and an entry whose last parent is
  mined takes it, so only an entry with a parent in the pool, a spender,
  changes after admission: ``copy`` copies only these, found among spenders.
- The ready entries, those with no in-pool parent, sit in one best-rate-first
  heap per vsize; each entry carries its own heap item, its ``key``.
  ``mine_block`` repeatedly takes the best top among the heaps whose vsize
  still fits, in O(s * (k + log n)): it touches the selected entries, the
  inputs and children of those that are not market entries, and the pool's
  total vsize once a block, never the unmined rest.
- Once capacity binds, every entry sits in a low-rate-first eviction heap,
  so each capacity eviction costs O(log n) instead of an O(n) scan.  The
  heap is built from ``entries`` when the pool first exceeds its capacity,
  so a pool that never fills (the sweep's) never pays for it.
- Both heaps delete lazily.  A replacement, eviction or expiry leaves the
  entry's items behind; an item counts only while its txid is in the pool
  with the item's arrival time, so a txid evicted and resubmitted is not
  mistaken for its old item.  Mining pops each selected entry's own item
  from its ready heap, so a mined entry leaves a stale item only in the
  eviction heap, and counts as a removal only while that heap exists.  Once
  removals counted since the last rebuild outnumber the entries, the ready
  heaps are rebuilt from ``entries`` in O(n), O(1) per removal amortized,
  and the eviction heap is dropped, to be rebuilt when capacity next binds.
  So a pool that never fills rebuilds only after replacements and expiry,
  never because blocks were mined.
- An entry carries its fee rate and its ready-heap item beside its fields:
  ``MempoolEntry.__post_init__`` sets them, or ``MarketTx.__init__``.
- ``tick_expiry`` is O(1) while a lower bound on the oldest arrival cannot
  expire; only then does it scan the pool in insertion order.

Admission takes one pass over the inputs: one lookup per input gives its
value and its in-pool parent, and the same pass collects the parents and the
conflicts.  A plain accept does no more work: the duplicate-input set is
built only for several inputs, the parent set only for an in-pool parent,
the conflict set only for an input that already has a spender, the
descendant walk only for a replacement, eviction only over capacity, and the
accepted result is one shared object.

Transactions with inputs enter through ``submit``; market entries
(``chain.MarketTx``), which carry a fee, a vsize and an arrival and spend
nothing, enter through ``submit_batch`` alone, a batch at a time (the
sediment, or a run of market arrivals), and each is its own pool entry,
which forks share.  An entry has no parent, conflict or replacement, so a
batch refuses a txid already pooled or confirmed (``duplicate``), then a fee
below the relay floor, and puts the rest in at once: the entry and its
eviction-heap item (once that heap is built), while its ready-heap key waits
with the batch's other pending keys.  Capacity is checked after each entry,
as ``submit`` checks it, so an entry that a later entry of its batch evicts
was still ``accepted``, and one evicted on arrival is ``mempool-full``.
Eviction first flushes the pending keys, because it removes entries and so
may rebuild the ready heaps from ``entries``, which would then hold a pending
key twice.  A flush pushes a vsize's keys one by one or, when they outnumber
its heap, extends the heap and heapifies it once, so a sediment of m entries
enters the ready heaps in O(m), not O(m log m).

A market entry has no outputs, so an input naming one, whether it is pooled
or mined, is refused as ``orphan-input``.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .chain import NO_PARENTS, Block, Chain, MarketTx, Transaction

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
TOO_MANY_REPLACEMENTS = "too-many-replacements"
REPLACEMENT_ADDS_UNCONFIRMED = "replacement-adds-unconfirmed"
REPLACEMENT_UNDERPAYS_RELAY = "replacement-underpays-relay"
REPLACEMENT_UNDERPAYS_FEERATE = "replacement-underpays-feerate"

MAX_REPLACEMENT_EVICTIONS = 100  # BIP125 rule 5: conflicts plus their descendants


@dataclass(slots=True)
class MempoolEntry:
    """One pooled transaction with inputs (a ``chain.MarketTx`` is its own entry);
    ``__post_init__`` sets the derived keys, so ``dataclasses.replace`` rebuilds them."""

    tx: Transaction
    arrival: float
    fee: int
    depends_on: set[str] | frozenset[str]  # in-pool parents; NO_PARENTS when none
    # fee / vsize, the sort key, for both kinds of entry.  The float orders
    # entries exactly: with vsizes at most V and rates below 10**4 sat/vB,
    # distinct ratios a/b and c/d differ by |ad - bc| / bd >= 1 / V**2, at
    # least 1 / (V * 10**4 * V) relative, which is 1e-12 at V = 10**4 and far
    # above the float resolution of 2**-52.  Correctly rounded division is
    # monotone, so distinct ratios keep their order and equal ratios tie.
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
FULL = SubmitResult(False, MEMPOOL_FULL)  # a batch's entry that was evicted on arrival


class Mempool:
    """Unconfirmed transaction pool bound to a chain's confirmed UTXO set."""

    def __init__(self, config: SimConfig, chain: Chain):
        self.config = config
        self.chain = chain
        self.entries: dict[str, MempoolEntry | MarketTx] = {}
        self.spends: dict[tuple[str, int], str] = {}  # outpoint -> spender txid
        self.total_vsize = 0
        # lazily deleted indexes (see the module docstring)
        self._ready: dict[int, list[tuple]] = {}  # vsize -> heap of entry keys
        self._by_rate: list[tuple] | None = None  # heap of (rate_key, -arrival, txid)
        self._removed = 0  # entries removed or mined since the last rebuild
        self._oldest = math.inf  # at most the earliest arrival in the pool

    def copy(self, chain: Chain) -> Mempool:
        """An independent pool in this one's state, bound to ``chain``, a copy of its
        chain.  The containers and heaps are copied; entries are shared, apart from
        those with an in-pool parent, all spenders, whose ``depends_on`` mining prunes."""
        dup = Mempool(self.config, chain)
        dup.entries = entries = dict(self.entries)
        for txid in set(self.spends.values()):
            entry = entries[txid]
            if entry.depends_on:
                entries[txid] = replace(entry, depends_on=set(entry.depends_on))
        dup.spends = dict(self.spends)
        dup.total_vsize = self.total_vsize
        dup._ready = {vsize: list(heap) for vsize, heap in self._ready.items()}
        dup._by_rate = None if self._by_rate is None else list(self._by_rate)
        dup._removed = self._removed
        dup._oldest = self._oldest
        return dup

    # -- bookkeeping -------------------------------------------------------

    def __contains__(self, txid: str) -> bool:
        return txid in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def congestion(self) -> float:
        """Unconfirmed count over the configured normal level, uncapped."""
        return len(self.entries) / self.config.congestion_normal_count

    def _lookup(self, outpoint: tuple[str, int]) -> tuple[int, MempoolEntry | None] | None:
        """An input's value and its in-pool parent (None if confirmed); None if orphaned."""
        utxo = self.chain.utxo_set.utxos.get(outpoint)
        if utxo is not None:
            return utxo.value, None
        parent = self.entries.get(outpoint[0])
        if parent is not None and outpoint[1] < len(parent.tx.outputs):
            value = parent.tx.outputs[outpoint[1]].value
            if value > 0:  # zero outputs never materialize
                return value, parent
        return None

    def _live(self, txid: str, arrival: float) -> bool:
        """Whether a heap item for (txid, arrival) still stands for an entry."""
        entry = self.entries.get(txid)
        return entry is not None and entry.arrival == arrival

    def _push_ready(self, entry: MempoolEntry | MarketTx) -> None:
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

    def _remove(self, txid: str) -> list[MempoolEntry | MarketTx]:
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
        depends_on: set[str] | frozenset[str] = NO_PARENTS
        conflicts: set[str] | None = None
        for inp in inputs:
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

        fee = input_total - tx.output_total
        if fee < 0:
            return SubmitResult(False, NEGATIVE_FEE)
        if fee < MIN_RELAY_FEE_RATE * tx.vsize:
            return SubmitResult(False, BELOW_MIN_RELAY_FEE)

        replaced: list[str] = []
        if conflicts:
            evicted = self._descendants(conflicts)
            if not all(self.entries[c].tx.rbf_enabled for c in conflicts):
                return SubmitResult(False, CONFLICT_NOT_REPLACEABLE)
            # BIP125 rule 5: evict at most 100 transactions, descendants included
            if len(evicted) > MAX_REPLACEMENT_EVICTIONS:
                return SubmitResult(False, TOO_MANY_REPLACEMENTS)
            # BIP125 rule 3: outbid everything that leaves, descendants included
            evicted_fees = sum(self.entries[t].fee for t in evicted)
            if fee <= evicted_fees:
                return SubmitResult(False, CONFLICT_NOT_REPLACEABLE)
            # BIP125 rule 4: and pay for its own relay on top
            if fee - evicted_fees < MIN_RELAY_FEE_RATE * tx.vsize:
                return SubmitResult(False, REPLACEMENT_UNDERPAYS_RELAY)
            # an input from a conflict or its descendant would leave the pool with it
            if not depends_on.isdisjoint(evicted):
                return SubmitResult(False, SPENDS_CONFLICTING_TX)
            # BIP125 rule 2: an in-pool parent must be one a conflict spends from
            if depends_on and not depends_on <= {
                inp.outpoint[0] for c in conflicts for inp in self.entries[c].tx.inputs
            }:
                return SubmitResult(False, REPLACEMENT_ADDS_UNCONFIRMED)
            # Bitcoin Core: and beat the fee rate of each direct conflict
            if any(fee * self.entries[c].tx.vsize <= self.entries[c].fee * tx.vsize
                   for c in conflicts):
                return SubmitResult(False, REPLACEMENT_UNDERPAYS_FEERATE)
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

    def submit_batch(self, batch: Sequence[MarketTx]) -> list[SubmitResult]:
        """Each market entry of ``batch`` submitted at its arrival, in order, with
        capacity checked after each (see the module docstring)."""
        results: list[SubmitResult] = []
        pending: dict[int, list[tuple]] = {}  # vsize -> ready keys not yet in _ready
        entries, confirmed = self.entries, self.chain.tx_index
        capacity = self.config.mempool_capacity_vbytes
        total_vsize, oldest, by_rate = self.total_vsize, self._oldest, self._by_rate
        for entry in batch:
            txid, vsize = entry.txid, entry.vsize
            if txid in entries or txid in confirmed:
                results.append(SubmitResult(False, DUPLICATE))
                continue
            if entry.fee < MIN_RELAY_FEE_RATE * vsize:
                results.append(SubmitResult(False, BELOW_MIN_RELAY_FEE))
                continue
            entries[txid] = entry
            total_vsize += vsize
            now = entry.arrival
            if by_rate is not None:
                heapq.heappush(by_rate, (entry.rate_key, -now, txid))
            keys = pending.get(vsize)
            if keys is None:
                pending[vsize] = [entry.key]
            else:
                keys.append(entry.key)
            if now < oldest:
                oldest = now
            if total_vsize > capacity:
                self.total_vsize, self._oldest = total_vsize, oldest  # for eviction to read
                self._flush_ready(pending)
                self._enforce_capacity()  # removes entries, and may build _by_rate
                total_vsize, by_rate = self.total_vsize, self._by_rate
                if txid not in entries:
                    results.append(FULL)
                    continue
            results.append(ACCEPTED)
        self.total_vsize, self._oldest = total_vsize, oldest
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
        """Greedy fee-rate block template; selected entries leave the pool.

        Each scan of the fitting heaps finds the best live top and ``bound``, the
        best top among the others.  The best heap then gives up a run of entries
        while its top beats ``bound``, skipping stale items, until its vsize no
        longer fits or a mined entry frees a child, which may beat ``bound``.
        """
        entries, spends, ready = self.entries, self.spends, self._ready
        selected: list[Transaction] = []
        remaining = self.config.block_capacity_vbytes
        while True:
            # the best ready entry that fits tops one of the fitting heaps
            best: list[tuple] | None = None
            bound: tuple | None = None
            for vsize, heap in ready.items():
                if vsize > remaining:
                    continue
                while heap:  # drop stale tops, as _live would
                    live = entries.get(heap[0][2])
                    if live is not None and live.arrival == heap[0][1]:
                        break
                    heapq.heappop(heap)
                if not heap:
                    continue
                if best is None or heap[0] < best[0]:
                    if best is not None:
                        bound = best[0]
                    best, best_vsize = heap, vsize
                elif bound is None or heap[0] < bound:
                    bound = heap[0]
            if best is None:
                break
            while True:  # the scan left a live top; later tops may be stale
                _, arrival, txid = heapq.heappop(best)
                entry = entries.get(txid)
                if entry is not None and entry.arrival == arrival:
                    del entries[txid]
                    remaining -= best_vsize
                    tx = entry if entry.__class__ is MarketTx else entry.tx
                    selected.append(tx)
                    freed = False
                    if tx.__class__ is not MarketTx:  # which has no input and no output
                        for inp in tx.inputs:
                            if spends.get(inp.outpoint) == txid:
                                del spends[inp.outpoint]
                        for i in range(len(tx.outputs)):
                            child = entries.get(spends.get((txid, i)))
                            if child is not None and txid in child.depends_on:
                                child.depends_on.remove(txid)
                                if not child.depends_on:
                                    child.depends_on = NO_PARENTS  # so nothing mutates it again
                                    self._push_ready(child)
                                    freed = True
                    if freed or best_vsize > remaining:
                        break
                if not best or (bound is not None and best[0] > bound):
                    break
        self.total_vsize -= self.config.block_capacity_vbytes - remaining
        block = Block(self.chain.height + 1, now, tuple(selected))
        self.chain.append_block(block)
        if self._by_rate is not None:  # each mined entry left its eviction-heap item
            self._forget(len(selected))
        return block
