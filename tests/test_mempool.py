"""Mempool behavior: priority mining, RBF, eviction, expiry, congestion."""

import random
from fractions import Fraction

from brc20sim.chain import Chain, Transaction, TxInput, TxOutput, make_txid
from brc20sim.mempool import (
    BELOW_MIN_RELAY_FEE,
    CONFLICT_NOT_REPLACEABLE,
    DUPLICATE_INPUT,
    MEMPOOL_FULL,
    NEGATIVE_FEE,
    ORPHAN_INPUT,
    Mempool,
)
from brc20sim.sim import SimConfig

RBF_ON = 0xFFFFFFFD
RBF_OFF = 0xFFFFFFFF


def make_pool(**overrides) -> tuple[Mempool, Chain]:
    defaults = dict(
        mempool_capacity_vbytes=1_000_000,
        block_capacity_vbytes=2_000,
        min_relay_fee_rate=1,
        congestion_normal_count=1000,
    )
    defaults.update(overrides)
    chain = Chain()
    return Mempool(SimConfig(**defaults), chain), chain


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
        pool, chain = make_pool(min_relay_fee_rate=10)
        result = pool.submit(spend(chain, 500, fee=500, vsize=100, tag="low"), 0.0)
        assert not result.accepted and result.reason == BELOW_MIN_RELAY_FEE

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

    def test_in_pool_parent_resolves(self):
        pool, chain = make_pool()
        parent = spend(chain, 1000, fee=5_000, tag="p")
        assert pool.submit(parent, 0.0).accepted
        child = child_of(parent, 0, 1000, fee=400)
        result = pool.submit(child, 1.0)
        assert result.accepted
        assert pool.entries[child.txid].depends_on == {parent.txid}


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


class TestExpiry:
    def test_expiry_boundaries(self):
        pool, chain = make_pool(expiry=14 * 86400.0)
        old = spend(chain, 500, fee=10_000, tag="old")
        fresh = spend(chain, 500, fee=10_000, tag="fresh")
        boundary = spend(chain, 500, fee=10_000, tag="edge")
        pool.submit(old, 0.0)
        pool.submit(boundary, 86400.0)
        pool.submit(fresh, 15 * 86400.0 - 1.0)
        dropped = pool.tick_expiry(15 * 86400.0)
        assert [t.txid for t in dropped] == [old.txid]
        assert boundary.txid in pool  # aged exactly 14 days: retained (strict >)
        assert fresh.txid in pool

    def test_expiry_cascades_to_children(self):
        pool, chain = make_pool()
        parent = spend(chain, 1000, fee=5_000, tag="p")
        pool.submit(parent, 0.0)
        child = child_of(parent, 0, 1000, fee=400)
        pool.submit(child, 13 * 86400.0)
        dropped = pool.tick_expiry(14 * 86400.0 + 1.0)
        assert {t.txid for t in dropped} == {parent.txid, child.txid}


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
