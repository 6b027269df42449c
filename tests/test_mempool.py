"""Mempool behavior: priority mining, RBF, eviction, expiry, congestion."""

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from brc20sim.chain import Chain, MarketTx, Transaction, TxInput, TxOutput, make_txid
from brc20sim.mempool import (
    ACCEPTED,
    BELOW_MIN_RELAY_FEE,
    DAY,
    EXPIRY,
    CONFLICT_NOT_REPLACEABLE,
    DUPLICATE_INPUT,
    MEMPOOL_FULL,
    NEGATIVE_FEE,
    NO_PARENTS,
    ORPHAN_INPUT,
    REPLACEMENT_ADDS_UNCONFIRMED,
    REPLACEMENT_UNDERPAYS_FEERATE,
    REPLACEMENT_UNDERPAYS_RELAY,
    SPENDS_CONFLICTING_TX,
    TOO_MANY_REPLACEMENTS,
    Mempool,
    MempoolEntry,
)
from brc20sim.sim import SimConfig

RBF_ON = 0xFFFFFFFD
RBF_OFF = 0xFFFFFFFF


def make_pool(**overrides) -> tuple[Mempool, Chain]:
    defaults = dict(
        mempool_capacity_vbytes=1_000_000,
        block_capacity_vbytes=2_000,
        congestion_normal_count=1000,
    )
    defaults.update(overrides)
    chain = Chain()
    return Mempool(SimConfig(**defaults), chain), chain


_entries = itertools.count()


def market(fee: int, vsize: int = 400, arrival: float = 0.0) -> MarketTx:
    """A fresh market entry paying ``fee``, arriving at ``arrival``."""
    return MarketTx(f"mkt-{next(_entries)}", fee, vsize, arrival)


def spend(chain, owner_value, fee, vsize=100, sequence=RBF_ON, tag="", to="dest"):
    """Fresh granted coin spent into one output at the given fee."""
    utxo = chain.utxo_set.grant("funder", owner_value + fee)
    inputs = (TxInput(utxo.serial, sequence),)
    outputs = (TxOutput(owner_value, to),)
    return Transaction(make_txid(inputs, outputs, vsize, tag=tag), inputs, outputs, vsize)


def child_of(parent, index, value, fee, vsize=100, sequence=RBF_ON, tag="child"):
    inputs = (TxInput((parent.txid, index), sequence),)
    outputs = (TxOutput(value - fee, "dest"),)
    return Transaction(make_txid(inputs, outputs, vsize, tag=tag), inputs, outputs, vsize)


class TestSubmit:
    def test_accept_simple(self):
        pool, chain = make_pool()
        result = pool.submit(spend(chain, 500, fee=20_000, tag="a"), 0.0)
        assert result.accepted
        assert pool.total_vsize == 100

    def test_below_min_relay(self):
        pool, chain = make_pool()  # 0.99 sat/vB, under the 1 sat/vB floor
        result = pool.submit(spend(chain, 500, fee=99, vsize=100, tag="low"), 0.0)
        assert not result.accepted and result.reason == BELOW_MIN_RELAY_FEE
        assert pool.submit(spend(chain, 500, fee=100, vsize=100, tag="floor"), 0.0).accepted

    def test_a_batch_refuses_a_market_entry_below_the_relay_floor(self):
        pool, _ = make_pool()
        low, floor = MarketTx("low", 99, 100, 0.0), MarketTx("floor", 100, 100, 0.0)
        results = pool.submit_batch([low, floor])
        assert [(r.accepted, r.reason) for r in results] == [(False, BELOW_MIN_RELAY_FEE),
                                                             (True, None)]
        assert "low" not in pool and "floor" in pool

    def test_orphan_input(self):
        pool, _ = make_pool()
        orphan = Transaction(
            "orphan", (TxInput(("missing", 0)),), (TxOutput(1, "a"),), 100
        )
        result = pool.submit(orphan, 0.0)
        assert result.reason == ORPHAN_INPUT

    def test_negative_fee(self):
        pool, chain = make_pool()
        utxo = chain.utxo_set.grant("funder", 100)
        bad = Transaction(
            "bad", (TxInput(utxo.serial),), (TxOutput(500, "a"),), 100
        )
        assert pool.submit(bad, 0.0).reason == NEGATIVE_FEE

    def test_duplicate_input_rejected(self):
        pool, chain = make_pool()
        utxo = chain.utxo_set.grant("funder", 1000)
        bad = Transaction(
            "dup", (TxInput(utxo.serial), TxInput(utxo.serial)), (TxOutput(10, "a"),), 100
        )
        assert pool.submit(bad, 0.0).reason == DUPLICATE_INPUT

    def test_fee_rate_exact(self):
        pool, chain = make_pool()
        tx = spend(chain, 500, fee=333, vsize=100, tag="r")
        pool.submit(tx, 0.0)
        entry = pool.entries[tx.txid]
        assert Fraction(entry.fee, entry.tx.vsize) == Fraction(333, 100)

    def test_rate_key_orders_closest_ratios_at_the_extremes(self):
        # fee1 = 1 (mod V) puts fee1/V and fee2/(V-1) next to each other in the
        # Farey sequence: the closest distinct ratios with vsizes <= V, at a
        # rate just under 10**4 sat/vB
        v = 10_000
        fee1 = 9_999 * v + 1
        fee2 = (fee1 * (v - 1) + 1) // v
        gap = Fraction(fee2, v - 1) - Fraction(fee1, v)
        assert gap == Fraction(1, v * (v - 1)) and fee2 / (v - 1) < 10**4
        low, high = (
            MempoolEntry(Transaction(f"x{fee}", (), (), vsize), 0.0, fee, set())
            for fee, vsize in ((fee1, v), (fee2, v - 1))
        )
        assert low.rate_key < high.rate_key
        # a market entry derives both keys as an entry with inputs does
        for entry in (low, high):
            twin = MarketTx(entry.tx.txid, entry.fee, entry.tx.vsize, entry.arrival)
            assert (twin.rate_key, twin.key) == (entry.rate_key, entry.key)

    # one pass over the inputs must keep the order in which reasons are tested
    def test_duplicate_input_beats_orphan(self):
        pool, chain = make_pool()
        utxo = chain.utxo_set.grant("funder", 1000)
        inputs = (TxInput(("missing", 0)), TxInput(utxo.serial), TxInput(utxo.serial))
        bad = Transaction("dup", inputs, (TxOutput(10, "a"),), 100)
        assert pool.submit(bad, 0.0).reason == DUPLICATE_INPUT

    def test_orphan_after_value_only_coin_is_orphan(self):
        pool, chain = make_pool()
        utxo = chain.utxo_set.grant("funder", 5_000)
        inputs = (TxInput(utxo.serial), TxInput(("missing", 0)))
        tx = Transaction("o", inputs, (TxOutput(10, "a"),), 100)
        assert pool.submit(tx, 0.0).reason == ORPHAN_INPUT

    def test_zero_value_in_pool_output_is_orphan(self):
        pool, chain = make_pool()
        utxo = chain.utxo_set.grant("funder", 10_000)
        outputs = (TxOutput(0, "a"), TxOutput(5_000, "b"))
        parent = Transaction("p", (TxInput(utxo.serial),), outputs, 100)
        assert pool.submit(parent, 0.0).accepted
        child = Transaction("c", (TxInput(("p", 0)),), (TxOutput(0, "a"),), 100)
        assert pool.submit(child, 1.0).reason == ORPHAN_INPUT
        assert pool._lookup(("p", 0)) is None

    def test_negative_fee_beats_conflict(self):
        pool, chain = make_pool()
        utxo = chain.utxo_set.grant("funder", 10_000)
        first = Transaction("one", (TxInput(utxo.serial, RBF_OFF),), (TxOutput(5_000, "a"),), 100)
        assert pool.submit(first, 0.0).accepted
        over = Transaction("two", (TxInput(utxo.serial, RBF_ON),), (TxOutput(10_001, "a"),), 100)
        assert pool.submit(over, 1.0).reason == NEGATIVE_FEE
        assert list(pool.entries) == ["one"]

    def test_in_pool_parent_resolves(self):
        pool, chain = make_pool()
        parent = spend(chain, 1000, fee=5_000, tag="p")
        assert pool.submit(parent, 0.0).accepted
        child = child_of(parent, 0, 1000, fee=400)
        result = pool.submit(child, 1.0)
        assert result.accepted
        assert pool.entries[child.txid].depends_on == {parent.txid}

    def test_parentless_entries_share_one_empty_parent_set(self):
        pool, chain = make_pool()
        parent, other = spend(chain, 1000, fee=5_000, tag="p"), spend(chain, 1000, fee=5_000)
        assert pool.submit(parent, 0.0).accepted and pool.submit(other, 0.0).accepted
        child = child_of(parent, 0, 1000, fee=400)
        assert pool.submit(child, 1.0).accepted
        assert pool.entries[parent.txid].depends_on is NO_PARENTS
        assert pool.entries[other.txid].depends_on is NO_PARENTS
        assert pool.entries[child.txid].depends_on == {parent.txid}
        block = pool.mine_block(600.0)
        assert [tx.txid for tx in block.transactions][-1] == child.txid
        assert len(block.transactions) == 3 and NO_PARENTS == frozenset()


class TestValueOnly:
    """Market entries are value-only: a fee and a vsize, with no coin to spend."""

    def test_mixed_inputs_rejected(self):
        # an input naming a market entry's output, beside a coin or an in-pool output
        pool, chain = make_pool()
        entry = market(5_000)
        assert pool.submit_batch([entry]) == [ACCEPTED]
        utxo = chain.utxo_set.grant("funder", 5_000)
        parent = spend(chain, 1_000, fee=5_000, tag="p")
        assert pool.submit(parent, 0.0).accepted
        for other in (utxo.serial, (parent.txid, 0)):
            for inputs in (((entry.txid, 0), other), (other, (entry.txid, 0))):
                tx = Transaction("mix", tuple(TxInput(o) for o in inputs),
                                 (TxOutput(1_000, "a"),), 100)
                assert pool.submit(tx, 1.0).reason == ORPHAN_INPUT
        assert list(pool.entries) == [entry.txid, parent.txid]

    def test_inscription_on_value_only_coins_rejected(self):
        pool, _ = make_pool()
        entry = market(5_000)
        pool.submit_batch([entry])
        tx = Transaction("i", (TxInput((entry.txid, 0)),),
                         (TxOutput(546, "a", inscription="{}"),), 100)
        assert pool.submit(tx, 0.0).reason == ORPHAN_INPUT
        assert list(pool.entries) == [entry.txid]

    def test_outputs_of_a_value_only_entry_are_orphans_pooled_or_mined(self):
        pool, chain = make_pool()
        parent = MarketTx("p", 3_000, 100, 0.0)
        assert pool.submit_batch([parent]) == [ACCEPTED]
        assert pool._lookup(("p", 0)) is None
        utxo = chain.utxo_set.grant("funder", 5_000)
        children = [child_of(parent, 0, 6_000, fee=2_500),
                    Transaction("m", (TxInput(("p", 1)), TxInput(utxo.serial)),
                                (TxOutput(10, "a"),), 100)]
        assert [pool.submit(child, 1.0).reason for child in children] == [ORPHAN_INPUT] * 2
        assert [t.txid for t in pool.mine_block(600.0).transactions] == ["p"]
        assert [pool.submit(child, 601.0).reason for child in children] == [ORPHAN_INPUT] * 2
        assert list(pool.entries) == [] and list(chain.utxo_set.utxos) == [utxo.serial]
        assert pool.submit(spend(chain, 1_000, fee=5_000, tag="next"), 602.0).accepted
        assert len(pool.mine_block(1_200.0).transactions) == 1


class TestRbf:
    def test_replacement_accepted(self):
        pool, chain = make_pool()
        utxo = chain.utxo_set.grant("funder", 100_000)
        original = Transaction(
            "orig", (TxInput(utxo.serial, RBF_ON),), (TxOutput(500, "a"),), 100
        )
        pool.submit(original, 0.0)
        better = Transaction(
            "better", (TxInput(utxo.serial, RBF_ON),), (TxOutput(400, "a"),), 100
        )
        result = pool.submit(better, 1.0)
        assert result.accepted and "orig" in result.replaced
        assert "orig" not in pool and "better" in pool

    def test_opt_out_sequence_blocks_replacement(self):
        pool, chain = make_pool()
        utxo = chain.utxo_set.grant("funder", 100_000)
        original = Transaction(
            "orig", (TxInput(utxo.serial, RBF_OFF),), (TxOutput(500, "a"),), 100
        )
        pool.submit(original, 0.0)
        better = Transaction(
            "better", (TxInput(utxo.serial, RBF_ON),), (TxOutput(1, "a"),), 100
        )
        result = pool.submit(better, 1.0)
        assert not result.accepted and result.reason == CONFLICT_NOT_REPLACEABLE
        assert "orig" in pool

    def test_equal_fee_not_enough(self):
        pool, chain = make_pool()
        utxo = chain.utxo_set.grant("funder", 10_000)
        first = Transaction(
            "one", (TxInput(utxo.serial, RBF_ON),), (TxOutput(500, "a"),), 100
        )
        second = Transaction(
            "two", (TxInput(utxo.serial, RBF_ON),), (TxOutput(500, "b"),), 100
        )
        pool.submit(first, 0.0)
        assert pool.submit(second, 1.0).reason == CONFLICT_NOT_REPLACEABLE

    def test_replacement_evicts_descendants(self):
        pool, chain = make_pool()
        utxo = chain.utxo_set.grant("funder", 100_000)
        original = Transaction(
            "orig", (TxInput(utxo.serial, RBF_ON),), (TxOutput(50_000, "a"),), 100
        )
        pool.submit(original, 0.0)
        grandchild = child_of(child_of(original, 0, 50_000, fee=1_000, tag="c1"), 0,
                              49_000, fee=1_000, tag="c2")
        pool.submit(child_of(original, 0, 50_000, fee=1_000, tag="c1"), 1.0)
        pool.submit(grandchild, 2.0)
        assert len(pool) == 3
        better = Transaction(
            "better", (TxInput(utxo.serial, RBF_ON),), (TxOutput(500, "a"),), 100
        )
        result = pool.submit(better, 3.0)
        assert result.accepted and len(result.replaced) == 3
        assert list(pool.entries) == ["better"]

    def test_replacement_must_outbid_descendants(self):
        # BIP125 rule 3: the fees of everything evicted count, the child's too
        pool, chain = make_pool()
        coin = chain.utxo_set.grant("funder", 200_000)
        parent = Transaction("p", (TxInput(coin.serial, RBF_ON),), (TxOutput(199_000, "a"),), 100)
        child = Transaction("c", (TxInput(("p", 0), RBF_ON),), (TxOutput(99_000, "a"),), 100)
        assert pool.submit(parent, 0.0).accepted and pool.submit(child, 1.0).accepted
        for fee in (1_001, 101_000):  # outbids the parent only; ties the pair
            r = Transaction(f"r{fee}", (TxInput(coin.serial, RBF_ON),),
                            (TxOutput(200_000 - fee, "a"),), 100)
            result = pool.submit(r, 2.0)
            assert not result.accepted and result.reason == CONFLICT_NOT_REPLACEABLE
            assert list(pool.entries) == ["p", "c"]
        # rule 4 asks 100 sat more, a sat per vB of the replacement
        r = Transaction("r", (TxInput(coin.serial, RBF_ON),), (TxOutput(98_900, "a"),), 100)
        result = pool.submit(r, 3.0)
        assert result.accepted and result.replaced == ("p", "c")
        assert list(pool.entries) == ["r"]
        check_pool_invariants(pool)

    def test_a_replacement_pays_for_its_own_relay(self):
        # BIP125 rule 4: above the fees it evicts, MIN_RELAY_FEE_RATE per vB of
        # its own size, here 100 vB against the original's 200, so that every bid
        # beats the original's 50 sat/vB
        pool, chain = make_pool()
        coin = chain.utxo_set.grant("funder", 100_000)
        orig = Transaction("orig", (TxInput(coin.serial, RBF_ON),), (TxOutput(90_000, "a"),), 200)
        assert pool.submit(orig, 0.0).accepted
        for extra, accepted in ((1, False), (99, False), (100, True)):
            bid = Transaction(f"r{extra}", (TxInput(coin.serial, RBF_ON),),
                              (TxOutput(90_000 - extra, "a"),), 100)
            result = pool.submit(bid, 1.0)
            if accepted:
                assert result.accepted and result.replaced == ("orig",)
            else:
                assert not result.accepted and result.reason == REPLACEMENT_UNDERPAYS_RELAY
                assert list(pool.entries) == ["orig"]
        check_pool_invariants(pool)

    def test_a_replacement_beats_each_conflicts_fee_rate(self):
        # Bitcoin Core's feerate rule: a 150 vB bid against a 100 vB original at
        # 100 sat/vB pays for rules 3 and 4 from 10,151 sat, but must pay more
        # than 15,000 to beat the original's rate
        pool, chain = make_pool()
        coin = chain.utxo_set.grant("funder", 100_000)
        orig = Transaction("orig", (TxInput(coin.serial, RBF_ON),), (TxOutput(90_000, "a"),), 100)
        assert pool.submit(orig, 0.0).accepted
        for fee, accepted in ((10_151, False), (15_000, False), (15_001, True)):
            bid = Transaction(f"r{fee}", (TxInput(coin.serial, RBF_ON),),
                              (TxOutput(100_000 - fee, "a"),), 150)
            result = pool.submit(bid, 1.0)
            if accepted:
                assert result.accepted and result.replaced == ("orig",)
            else:
                assert not result.accepted and result.reason == REPLACEMENT_UNDERPAYS_FEERATE
                assert list(pool.entries) == ["orig"]
        check_pool_invariants(pool)

    def test_a_replacement_adds_no_unconfirmed_input(self):
        # BIP125 rule 2: a replacement may spend an in-pool output only of a
        # transaction its conflicts already spend from
        pool, chain = make_pool()
        coin, other = (chain.utxo_set.grant("funder", 100_000) for _ in range(2))
        parent = Transaction("p", (TxInput(other.serial, RBF_ON),),
                             (TxOutput(90_000, "a"), TxOutput(5_000, "a")), 100)
        orig = Transaction("orig", (TxInput(coin.serial, RBF_ON),), (TxOutput(99_000, "a"),), 100)
        assert pool.submit(parent, 0.0).accepted and pool.submit(orig, 0.0).accepted
        inputs = (TxInput(coin.serial, RBF_ON), TxInput(("p", 0), RBF_ON))
        result = pool.submit(Transaction("r", inputs, (TxOutput(150_000, "a"),), 100), 1.0)
        assert not result.accepted and result.reason == REPLACEMENT_ADDS_UNCONFIRMED
        assert list(pool.entries) == ["p", "orig"]
        # a conflict spending from p lets its replacement spend p's other output
        child = child_of(parent, 1, 5_000, fee=1_000, tag="c")
        assert pool.submit(child, 2.0).accepted
        inputs = (TxInput(("p", 1), RBF_ON), TxInput(("p", 0), RBF_ON))
        result = pool.submit(Transaction("r2", inputs, (TxOutput(93_000, "a"),), 100), 3.0)
        assert result.accepted and result.replaced == (child.txid,)
        assert pool.entries["r2"].depends_on == {"p"}
        check_pool_invariants(pool)

    @pytest.mark.parametrize("children", [99, 100])
    def test_a_replacement_evicts_at_most_100_transactions(self, children):
        # BIP125 rule 5 (Bitcoin Core's "too many potential replacements"): the
        # conflicts and their descendants count, and the bid is high enough that
        # only the count can refuse it
        pool, chain = make_pool()
        coin = chain.utxo_set.grant("funder", 10_000 * (children + 1))  # the parent pays 10,000
        outputs = tuple(TxOutput(10_000, "a") for _ in range(children))
        parent = Transaction("p", (TxInput(coin.serial, RBF_ON),), outputs, 100)
        assert pool.submit(parent, 0.0).accepted
        for i in range(children):
            assert pool.submit(child_of(parent, i, 10_000, fee=1_000, tag=f"c{i}"), 1.0).accepted
        def state():
            ready = {vsize: list(heap) for vsize, heap in pool._ready.items()}
            return dict(pool.entries), dict(pool.spends), pool.total_vsize, ready, pool._removed

        before = state()
        bid = Transaction("r", (TxInput(coin.serial, RBF_ON),),  # pays 200,000
                          (TxOutput(coin.value - 200_000, "a"),), 100)
        result = pool.submit(bid, 2.0)
        if children == 100:  # 101 would leave
            assert not result.accepted and result.reason == TOO_MANY_REPLACEMENTS
            assert state() == before
        else:
            assert result.accepted and len(result.replaced) == 100
            assert list(pool.entries) == ["r"]
        check_pool_invariants(pool)

    @pytest.mark.parametrize("through_child", [False, True])
    def test_replacement_spending_what_it_would_remove_rejected(self, through_child):
        pool, chain = make_pool()
        coin = chain.utxo_set.grant("funder", 100_000)
        outputs = (TxOutput(40_000, "a"), TxOutput(50_000, "a"))
        a = Transaction("A", (TxInput(coin.serial, RBF_ON),), outputs, 100)
        assert pool.submit(a, 0.0).accepted
        spent = ("A", 1)
        if through_child:  # a descendant of the conflict leaves with it too
            child = child_of(a, 1, 50_000, fee=1_000)
            assert pool.submit(child, 1.0).accepted
            spent = (child.txid, 0)
        before = dict(pool.entries)
        inputs = (TxInput(coin.serial, RBF_ON), TxInput(spent, RBF_ON))
        r = Transaction("R", inputs, (TxOutput(10_000, "a"),), 100)
        result = pool.submit(r, 2.0)
        assert not result.accepted and result.reason == SPENDS_CONFLICTING_TX
        assert result.replaced == ()
        assert pool.entries == before
        check_pool_invariants(pool)
        block = pool.mine_block(600.0)
        assert [tx.txid for tx in block.transactions] == list(before)

    def test_pool_never_holds_conflicting_pair(self):
        rng = random.Random(11)
        pool, chain = make_pool()
        coins = [chain.utxo_set.grant("funder", 100_000) for _ in range(8)]
        for i in range(300):
            coin = rng.choice(coins)
            seq = rng.choice((RBF_ON, RBF_OFF))
            out_value = rng.randint(1, 99_999)
            inputs = (TxInput(coin.serial, seq),)
            outputs = (TxOutput(out_value, "a"),)
            tx = Transaction(
                make_txid(inputs, outputs, 100, tag=f"r{i}"), inputs, outputs, 100
            )
            pool.submit(tx, float(i))
            spenders = [
                txid for op, txid in pool.spends.items() if op == coin.serial
            ]
            assert len(spenders) <= 1

    def test_trimmed_replacement_still_reports_replaced(self):
        pool, chain = make_pool(mempool_capacity_vbytes=300)
        coin = chain.utxo_set.grant("funder", 100_000)
        orig = Transaction(
            "orig", (TxInput(coin.serial, RBF_ON),), (TxOutput(100_000 - 5_000, "a"),), 100
        )
        assert pool.submit(orig, 0.0).accepted
        for rate in (300, 400):
            assert pool.submit(spend(chain, 500, fee=rate * 100, tag=f"h{rate}"), 1.0)
        late = Transaction(
            "late", (TxInput(coin.serial, RBF_ON),), (TxOutput(100_000 - 12_000, "a"),), 200
        )
        result = pool.submit(late, 2.0)
        # replace first, then trim: the replacement is the lowest-rate entry
        assert not result.accepted and result.reason == MEMPOOL_FULL
        assert result.replaced == ("orig",)
        assert "orig" not in pool and "late" not in pool
        assert coin.serial not in pool.spends
        assert pool.total_vsize == 200


class TestEviction:
    def test_capacity_evicts_lowest_rate(self):
        pool, chain = make_pool(mempool_capacity_vbytes=300)
        txs = [
            spend(chain, 500, fee=rate * 100, vsize=100, tag=f"t{rate}")
            for rate in (150, 200, 300)
        ]
        for i, tx in enumerate(txs):
            assert pool.submit(tx, float(i)).accepted
        newcomer = spend(chain, 500, fee=250 * 100, vsize=100, tag="new")
        assert pool.submit(newcomer, 4.0).accepted
        assert txs[0].txid not in pool  # the 150 sat/vB floor entry was evicted
        assert pool.total_vsize <= 300

    def test_eviction_heap_waits_for_capacity_to_bind(self):
        pool, chain = make_pool(mempool_capacity_vbytes=300)
        for rate in (150, 200, 300):
            assert pool.submit(spend(chain, 500, fee=rate * 100, tag=f"t{rate}"), 0.0)
        pool.mine_block(600.0)
        assert pool._by_rate is None  # a pool that never fills never pays for the heap
        for rate in (150, 200, 300, 250):
            pool.submit(spend(chain, 500, fee=rate * 100, tag=f"u{rate}"), 601.0)
        assert pool._by_rate is not None and len(pool) == 3

    def test_below_floor_rejected_immediately(self):
        pool, chain = make_pool(mempool_capacity_vbytes=300)
        for i, rate in enumerate((150, 200, 300)):
            pool.submit(spend(chain, 500, fee=rate * 100, vsize=100, tag=f"t{i}"), float(i))
        low = spend(chain, 500, fee=100 * 100, vsize=100, tag="low")
        result = pool.submit(low, 4.0)
        assert not result.accepted and result.reason == MEMPOOL_FULL
        assert pool.total_vsize <= 300

    def test_vsize_never_exceeds_capacity(self):
        rng = random.Random(5)
        pool, chain = make_pool(mempool_capacity_vbytes=1_000)
        for i in range(200):
            vsize = rng.choice((100, 250, 400))
            rate = rng.randint(1, 500)
            pool.submit(spend(chain, 500, fee=rate * vsize, vsize=vsize, tag=f"s{i}"), float(i))
            assert pool.total_vsize <= 1_000

    def test_parent_eviction_cascades_to_children(self):
        pool, chain = make_pool()
        parent = spend(chain, 100_000, fee=2 * 100, tag="p")
        child = child_of(parent, 0, 100_000, fee=100 * 100)
        keeper = spend(chain, 500, fee=50 * 100, tag="k")
        for i, tx in enumerate((parent, child, keeper)):
            assert pool.submit(tx, float(i)).accepted
        pool.config = replace(pool.config, mempool_capacity_vbytes=100)
        assert pool._enforce_capacity() == [parent.txid, child.txid]
        assert list(pool.entries) == [keeper.txid]
        assert set(pool.spends) == {keeper.inputs[0].outpoint}
        assert pool.total_vsize == 100
        assert [t.txid for t in pool.mine_block(600.0).transactions] == [keeper.txid]

    def test_resubmitted_txid_is_not_its_stale_item(self):
        # the huge entries never fit a block and outrank `a`, so `a` is the
        # one evicted; its ready item (arrival 1) outlives it
        pool, chain = make_pool(mempool_capacity_vbytes=5_200, block_capacity_vbytes=100)
        for i in range(5):
            pool.submit(spend(chain, 500, fee=30 * 1_000, vsize=1_000, tag=f"f{i}"), 0.0)
        a = spend(chain, 500, fee=10 * 100, tag="a")
        b = spend(chain, 500, fee=10 * 100, tag="b")
        assert pool.submit(a, 1.0).accepted
        pool.submit(spend(chain, 500, fee=50 * 100, tag="h1"), 2.0)
        assert pool.submit(spend(chain, 500, fee=50 * 100, tag="h2"), 3.0).accepted
        assert a.txid not in pool
        pool.mine_block(600.0)  # h1
        assert pool.submit(b, 601.0).accepted
        pool.mine_block(1200.0)  # h2
        assert pool.submit(a, 1201.0).accepted
        # equal rates: the earlier arrival wins, and `a` now arrived last
        assert [t.txid for t in pool.mine_block(1800.0).transactions] == [b.txid]
        assert [t.txid for t in pool.mine_block(2400.0).transactions] == [a.txid]


HUNDREDTH = EXPIRY / 100  # 12,096 s: whole multiples of it are exact floats


class TestExpiry:
    def test_expiry_boundaries(self):
        pool, chain = make_pool()
        old = spend(chain, 500, fee=10_000, tag="old")
        fresh = spend(chain, 500, fee=10_000, tag="fresh")
        boundary = spend(chain, 500, fee=10_000, tag="edge")
        pool.submit(old, 0.0)
        pool.submit(boundary, DAY)
        pool.submit(fresh, EXPIRY + DAY - 1.0)
        dropped = pool.tick_expiry(EXPIRY + DAY)
        assert [t.txid for t in dropped] == [old.txid]
        assert boundary.txid in pool  # aged exactly 14 days: retained (strict >)
        assert fresh.txid in pool

    def test_expiry_cascades_to_children(self):
        pool, chain = make_pool()
        parent = spend(chain, 1000, fee=5_000, tag="p")
        pool.submit(parent, 0.0)
        child = child_of(parent, 0, 1000, fee=400)
        pool.submit(child, EXPIRY - DAY)
        dropped = pool.tick_expiry(EXPIRY + 1.0)
        assert {t.txid for t in dropped} == {parent.txid, child.txid}

    def test_out_of_order_arrivals_expire_in_pool_order(self):
        pool, chain = make_pool()
        txs = {at: spend(chain, 500, fee=10_000, tag=f"e{at}") for at in (50, 10, 40, 5, 60)}
        for at, tx in txs.items():
            pool.submit(tx, at * HUNDREDTH)
        assert pool.tick_expiry(105 * HUNDREDTH) == []  # the oldest is aged exactly EXPIRY
        dropped = pool.tick_expiry(145 * HUNDREDTH)
        assert [t.txid for t in dropped] == [txs[10].txid, txs[40].txid, txs[5].txid]
        assert list(pool.entries) == [txs[50].txid, txs[60].txid]

    def test_expiry_after_oldest_entry_left(self):
        pool, chain = make_pool(block_capacity_vbytes=100, mempool_capacity_vbytes=200)
        mined = spend(chain, 500, fee=90 * 100, tag="mined")
        evicted = spend(chain, 500, fee=1 * 100, tag="evicted")
        young = spend(chain, 500, fee=5 * 100, tag="young")
        pool.submit(mined, 0.0)
        pool.submit(evicted, 1 * HUNDREDTH)
        pool.mine_block(2 * HUNDREDTH)
        assert pool.submit(young, 20 * HUNDREDTH).accepted
        later = spend(chain, 500, fee=9 * 100, tag="later")
        assert pool.submit(later, 30 * HUNDREDTH).accepted
        assert evicted.txid not in pool
        assert pool.tick_expiry(115 * HUNDREDTH) == []
        assert [t.txid for t in pool.tick_expiry(121 * HUNDREDTH)] == [young.txid]
        assert pool.tick_expiry(125 * HUNDREDTH) == []
        assert [t.txid for t in pool.tick_expiry(131 * HUNDREDTH)] == [later.txid]
        assert len(pool) == 0


class TestCongestion:
    def test_empty_pool(self):
        pool, _ = make_pool()
        assert pool.congestion() == 0.0

    def test_ratio(self):
        pool, chain = make_pool(congestion_normal_count=1000, mempool_capacity_vbytes=10**9)
        for i in range(750):
            pool.submit(spend(chain, 500, fee=1_000, tag=f"c{i}"), 0.0)
        assert pool.congestion() == 0.75

    def test_uncapped_above_normal(self):
        pool, chain = make_pool(congestion_normal_count=10_000, mempool_capacity_vbytes=10**9)
        for i in range(14_948):
            pool.submit(spend(chain, 5, fee=100, tag=f"c{i}"), 0.0)
        assert pool.congestion() == 1.4948  # congestion can exceed 100%


def oracle_greedy(entries, confirmed, capacity):
    """Pick the best-rate fitting entry whose parents are settled; repeat.

    Exact Fraction arithmetic, quadratic scans: independent of the
    implementation's heap bookkeeping.
    """
    chosen: list[str] = []
    remaining = capacity
    left = dict(entries)
    while True:
        candidates = []
        for txid, entry in left.items():
            parents = {i.outpoint[0] for i in entry.tx.inputs}
            if any(p in left for p in parents):  # unselected in-pool parent
                continue
            if entry.tx.vsize > remaining:
                continue
            candidates.append(
                (-Fraction(entry.fee, entry.tx.vsize), entry.arrival, txid)
            )
        if not candidates:
            return chosen
        best = min(candidates)[2]
        chosen.append(best)
        remaining -= left[best].tx.vsize
        del left[best]


def check_pool_invariants(pool):
    entries = pool.entries
    assert pool.total_vsize == sum(e.tx.vsize for e in entries.values())
    assert pool.spends == {
        inp.outpoint: txid for txid, e in entries.items() for inp in e.tx.inputs
    }
    # every entry but a market one owns a spend, and a market one none, so
    # Simulation.foreground_pooled reads a pooled foreground entry from bool(spends)
    assert set(pool.spends.values()) == {
        txid for txid, e in entries.items() if e.__class__ is not MarketTx
    }
    for entry in entries.values():
        parents = {inp.outpoint[0] for inp in entry.tx.inputs}
        assert entry.depends_on == parents & entries.keys()
    # a lower bound on the oldest arrival, which tick_expiry trusts
    assert pool._oldest <= min((e.arrival for e in entries.values()), default=math.inf)


def oracle_evictions(entries, capacity):
    """The txids capacity eviction removes from ``entries``, txid -> (fee, arrival, tx).

    Drop the lowest (rate, -arrival, txid) entry with its in-pool descendants
    until the vsizes fit: exact Fraction rates and linear scans, independent
    of the implementation's eviction heap.
    """
    left = dict(entries)
    total = sum(tx.vsize for _, _, tx in left.values())
    evicted: list[str] = []
    while total > capacity:
        doomed = [min(left, key=lambda t: (Fraction(left[t][0], left[t][2].vsize), -left[t][1], t))]
        for txid in doomed:  # grows as descendants are found
            doomed.extend(
                child for child, (_, _, tx) in left.items()
                if child not in doomed and any(i.outpoint[0] == txid for i in tx.inputs)
            )
        for txid in doomed:
            total -= left.pop(txid)[2].vsize
        evicted.extend(doomed)
    return evicted


# 672 s: the histories' 600-unit blocks come three to an EXPIRY window
HISTORY_SECOND = EXPIRY / 1_800


def random_pool_history(seed, blocks=12, capacity=(1_500, 3_000)):
    """Submit, bump, resubmit and mine at random; each block must match the oracle.

    Every capacity eviction must evict what ``oracle_evictions`` does.
    Returns how often each path was taken, so callers can check coverage,
    and the height whose submissions first evicted for capacity (None if
    capacity never bound).  Besides the paths, ``stale_mined`` counts blocks
    mined while a ready heap held a stale item, and ``built_from_entries`` the
    evicting submissions that found no eviction heap and so built it.
    """
    rng = random.Random(seed)
    block_capacity = rng.randint(400, 1_200)
    mempool_capacity = rng.randint(*capacity)
    pool, chain = make_pool(
        mempool_capacity_vbytes=mempool_capacity,
        block_capacity_vbytes=block_capacity,
    )
    seen = dict(evicted=0, replaced=0, expired=0, resubmitted=0, children_mined=0,
                stale_mined=0, built_from_entries=0)
    bound_at = None
    gone: list[Transaction] = []  # left the pool unmined
    now = 0.0

    def make(outpoints, total, vsize, rate, sequence=RBF_ON):
        fee = rate * vsize  # at most 80 * 400, below every input's value
        half = (total - fee) // 2
        inputs = tuple(TxInput(op, sequence) for op in outpoints)
        outputs = (TxOutput(half, "x"), TxOutput(total - fee - half, "y"))
        txid = make_txid(inputs, outputs, vsize, tag=f"{seed}-{rng.random()}")
        return Transaction(txid, inputs, outputs, vsize)

    for height in range(1, blocks + 1):
        for _ in range(rng.randint(4, 14)):
            now += rng.uniform(0.0, 40.0) * HISTORY_SECOND
            vsize = rng.choice((100, 150, 250, 400))
            rate = rng.randint(1, 60)
            roll = rng.random()
            free = [
                ((txid, i), out.value)
                for txid, e in pool.entries.items()
                for i, out in enumerate(e.tx.outputs)
                if (txid, i) not in pool.spends and out.value > 40_000
            ]
            if roll < 0.3 and free:  # a child of one or two in-pool outputs
                picks = rng.sample(free, min(len(free), rng.choice((1, 2))))
                tx = make([op for op, _ in picks], sum(v for _, v in picks), vsize, rate)
            elif roll < 0.45 and pool.entries:  # a fee bump of a one-input entry
                target = pool.entries[rng.choice(list(pool.entries))].tx
                if len(target.inputs) != 1:
                    continue
                outpoint = target.inputs[0].outpoint
                tx = make([outpoint], pool._lookup(outpoint)[0], vsize, rate + 20)
            elif roll < 0.55 and gone:  # an evicted, replaced or expired tx again
                tx = gone.pop(rng.randrange(len(gone)))
                seen["resubmitted"] += 1
            else:
                coin = chain.utxo_set.grant("funder", 100_000)
                tx = make([coin.serial], coin.value, vsize, rate,
                          rng.choice((RBF_ON, RBF_ON, RBF_OFF)))
            before = dict(pool.entries)
            found = [pool._lookup(inp.outpoint) for inp in tx.inputs]
            unbuilt = pool._by_rate is None
            result = pool.submit(tx, now)
            check_pool_invariants(pool)
            removed = [e.tx for txid, e in before.items() if txid not in pool.entries]
            gone.extend(removed)
            if result.reason == MEMPOOL_FULL:
                gone.append(tx)
            seen["replaced"] += len(result.replaced)
            seen["evicted"] += len(removed) - len(result.replaced)
            if result.accepted or result.reason == MEMPOOL_FULL:  # tx entered, then the trim
                admitted = {t: (e.fee, e.arrival, e.tx) for t, e in before.items()
                            if t not in result.replaced}
                admitted[tx.txid] = (sum(f[0] for f in found) - tx.output_total, now, tx)
                expected = oracle_evictions(admitted, mempool_capacity)
                actual = [t.txid for t in removed if t.txid not in result.replaced]
                if result.reason == MEMPOOL_FULL:
                    actual.append(tx.txid)
                assert sorted(actual) == sorted(expected), (seed, height)
                seen["built_from_entries"] += bool(expected) and unbuilt
                if expected and bound_at is None:
                    bound_at = height
        now = 600.0 * HISTORY_SECOND * height
        dropped = pool.tick_expiry(now)
        check_pool_invariants(pool)
        gone.extend(dropped)
        seen["expired"] += len(dropped)
        with_parents = {txid for txid, e in pool.entries.items() if e.depends_on}
        expected = oracle_greedy(dict(pool.entries), chain, block_capacity)
        seen["stale_mined"] += any(
            not pool._live(txid, arrival)
            for heap in pool._ready.values() for _, arrival, txid in heap
        )
        block = pool.mine_block(now)
        assert [t.txid for t in block.transactions] == expected, (seed, height)
        check_pool_invariants(pool)
        seen["children_mined"] += len(with_parents & set(expected))
    return seen, bound_at


class TestMining:
    def test_strict_rate_ordering(self):
        pool, chain = make_pool(block_capacity_vbytes=100)
        a = spend(chain, 500, fee=500 * 100, vsize=100, tag="A")
        b = spend(chain, 500, fee=100 * 100, vsize=100, tag="B")
        pool.submit(a, 0.0)
        pool.submit(b, 1.0)
        block = pool.mine_block(600.0)
        assert [t.txid for t in block.transactions] == [a.txid]
        assert b.txid in pool

    def test_parent_before_high_fee_child(self):
        pool, chain = make_pool(block_capacity_vbytes=1_000)
        parent = spend(chain, 100_000, fee=10 * 100, vsize=100, tag="p")
        pool.submit(parent, 0.0)
        child = child_of(parent, 0, 100_000, fee=900 * 100, vsize=100)
        pool.submit(child, 1.0)
        block = pool.mine_block(600.0)
        assert [t.txid for t in block.transactions] == [parent.txid, child.txid]

    def test_child_only_after_parent_selected(self):
        pool, chain = make_pool(block_capacity_vbytes=100)
        parent = spend(chain, 100_000, fee=10 * 100, vsize=100, tag="p")
        pool.submit(parent, 0.0)
        child = child_of(parent, 0, 100_000, fee=900 * 100, vsize=100)
        pool.submit(child, 1.0)
        block = pool.mine_block(600.0)
        # capacity fits one: the parent goes first, the child must wait
        assert [t.txid for t in block.transactions] == [parent.txid]
        assert pool.entries[child.txid].depends_on == set()
        nxt = pool.mine_block(1200.0)
        assert [t.txid for t in nxt.transactions] == [child.txid]

    def test_matches_greedy_oracle_on_random_pools(self):
        rng = random.Random(99)
        for case in range(500):
            capacity = rng.randint(200, 1200)
            pool, chain = make_pool(block_capacity_vbytes=capacity)
            made: list[Transaction] = []
            for i in range(rng.randint(1, 8)):
                vsize = rng.randint(80, 600)
                fee = rng.randint(vsize, 40_000)
                if made and rng.random() < 0.4:
                    parent = rng.choice(made)
                    value = parent.outputs[0].value
                    if value > fee:
                        tx = child_of(parent, 0, value, fee=fee, vsize=vsize,
                                      tag=f"c{case}-{i}")
                        if pool.submit(tx, float(i)).accepted:
                            made.append(tx)
                        continue
                tx = spend(chain, 50_000, fee=fee, vsize=vsize, tag=f"t{case}-{i}")
                if pool.submit(tx, float(i)).accepted:
                    made.append(tx)
            expected = oracle_greedy(dict(pool.entries), chain, capacity)
            block = pool.mine_block(600.0)
            assert [t.txid for t in block.transactions] == expected

    def test_multi_block_histories_match_greedy_oracle(self):
        totals: dict[str, int] = {}
        for seed in range(40):
            seen, _ = random_pool_history(seed)
            for key, count in seen.items():
                totals[key] = totals.get(key, 0) + count
        assert all(totals.values()), totals  # every path was exercised

    def test_capacity_first_binding_after_mining_matches_eviction_oracle(self):
        # the eviction heap is built when capacity first binds, so build it
        # from a pool that blocks and expiry have already thinned
        late = []
        for seed in range(40):
            seen, bound_at = random_pool_history(seed, blocks=16, capacity=(3_000, 4_500))
            late.append(bound_at is not None and bound_at >= 3)
            if late[-1]:  # built from entries, it evicted what the oracle evicts
                assert seen["built_from_entries"] >= 1 and seen["evicted"] >= 1
        assert sum(late) >= 20, late

    def test_a_pool_that_never_fills_matches_greedy_oracle(self):
        # with no eviction heap, mining leaves no stale item and triggers no
        # rebuild; replacements and expiry still leave stale ready items, and
        # every block must still be the oracle's
        totals: dict[str, int] = {}
        for seed in range(40):
            seen, bound_at = random_pool_history(seed, capacity=(10**9, 10**9))
            assert bound_at is None
            for key, count in seen.items():
                totals[key] = totals.get(key, 0) + count
        assert totals["evicted"] == totals["built_from_entries"] == 0, totals
        assert totals["replaced"] and totals["expired"] and totals["stale_mined"], totals

    def test_deterministic_block_sequence(self):
        def build():
            rng = random.Random(42)
            pool, chain = make_pool(block_capacity_vbytes=500)
            heights = []
            for i in range(120):
                vsize = rng.choice((100, 200))
                pool.submit(
                    spend(chain, 500, fee=rng.randint(1, 400) * vsize, vsize=vsize,
                          tag=f"t{i}"),
                    float(i),
                )
                if i % 20 == 19:
                    block = pool.mine_block(600.0 * (i // 20 + 1))
                    heights.append([t.txid for t in block.transactions])
            return heights

        assert build() == build()


class TestDelays:
    def test_next_block_delay(self):
        pool, chain = make_pool()
        tx = spend(chain, 500, fee=50_000, tag="d")
        pool.submit(tx, 0.0)
        pool.mine_block(600.0)
        assert chain.confirmation_time(tx.txid) == 600.0

    def test_third_block_delay(self):
        pool, chain = make_pool(block_capacity_vbytes=100)
        txs = [spend(chain, 500, fee=(300 - i) * 100, vsize=100, tag=f"d{i}") for i in range(3)]
        for i, tx in enumerate(txs):
            pool.submit(tx, 0.0)
        for k in range(3):
            pool.mine_block(600.0 * (k + 1))
        assert chain.confirmation_time(txs[2].txid) == 1800.0

    def test_pending_is_none(self):
        pool, chain = make_pool()
        tx = spend(chain, 500, fee=50_000, tag="p")
        pool.submit(tx, 0.0)
        assert chain.confirmation_time(tx.txid) is None
