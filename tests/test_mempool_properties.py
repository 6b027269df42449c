"""Pool invariants under random submit, bump, child, resubmit, expiry and mining sequences,
and batch admission against one submit per transaction."""

from collections import Counter
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from brc20sim.chain import Transaction, TxInput, TxOutput, make_txid  # noqa: E402
from brc20sim.mempool import EXPIRY  # noqa: E402
from test_mempool import RBF_OFF, RBF_ON, check_pool_invariants, fund, make_pool  # noqa: E402

VSIZES = (100, 150, 250, 400)
PICK = st.integers(0, 10**6)  # an index into whatever the step picks from
RATE = st.integers(1, 60)
# 600 s: the steps' clock, in these units, expires an entry 2,016 units after it arrived
UNIT = EXPIRY / 2_016

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.booleans(), RATE, st.sampled_from(VSIZES),
                  st.booleans(), st.integers(1, 2)),
        st.tuples(st.just("bump"), PICK, st.integers(-5, 80)),
        st.tuples(st.just("child"), PICK, st.integers(1, 2), RATE, st.sampled_from(VSIZES)),
        st.tuples(st.just("resubmit"), PICK),
        st.tuples(st.just("expire"), st.integers(0, 3_000)),
        st.tuples(st.just("mine"),),
    ),
    min_size=20,
    max_size=60,
)


def check(pool, coins):
    """The structural invariants, one spender per outpoint, and each entry's fee and funding."""
    check_pool_invariants(pool)
    spent = Counter(inp.outpoint for e in pool.entries.values() for inp in e.tx.inputs)
    assert all(count == 1 for count in spent.values())
    for entry in pool.entries.values():
        paid_in = sum(coins[inp.outpoint][0] for inp in entry.tx.inputs)
        assert entry.fee == paid_in - entry.tx.output_total
        # value-only and ordinal-tracked coins never mix in one entry, and a
        # value-only entry spends funded coins alone: its parents' outputs left the model
        kinds = {coins[inp.outpoint][1] for inp in entry.tx.inputs}
        assert len(kinds) == 1
        if kinds == {True}:
            assert all(inp.outpoint in pool.chain.utxo_set.plain for inp in entry.tx.inputs)


@hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
@hypothesis.given(
    capacity=st.integers(500, 3_000), block=st.integers(300, 1_200), steps=STEPS
)
def test_pool_invariants_hold_after_every_step(capacity, block, steps):
    pool, chain = make_pool(mempool_capacity_vbytes=capacity, block_capacity_vbytes=block)
    coins: dict[tuple[str, int], tuple[int, bool]] = {}  # outpoint -> (value, value-only)
    gone: list[Transaction] = []  # left the pool unmined
    now = 0.0

    def build(outpoints, vsize, fee, sequence, outputs=1):
        total = sum(coins[op][0] for op in outpoints)
        plain = all(coins[op][1] for op in outpoints)
        fee = min(fee, total)
        share = (total - fee) // outputs
        values_out = [share] * (outputs - 1) + [total - fee - share * (outputs - 1)]
        inputs = tuple(TxInput(op, sequence) for op in outpoints)
        outs = tuple(TxOutput(v, "x") for v in values_out)
        tx = Transaction(make_txid(inputs, outs, vsize, tag=f"{len(coins)}"), inputs, outs,
                         vsize)
        for i, v in enumerate(values_out):
            coins[(tx.txid, i)] = (v, plain)
        return tx

    for step in steps:
        kind = step[0]
        before = dict(pool.entries)
        now += 10 * UNIT
        tx = None
        if kind == "submit":
            _, plain, rate, vsize, rbf, outputs = step
            coin = fund(chain, 100_000) if plain else chain.utxo_set.grant("funder", 100_000).serial
            coins[coin] = (100_000, plain)
            tx = build([coin], vsize, rate * vsize, RBF_ON if rbf else RBF_OFF, outputs)
        elif kind == "bump" and pool.entries:
            target = before[list(before)[step[1] % len(before)]]
            outpoints = [inp.outpoint for inp in target.tx.inputs]
            tx = build(outpoints, target.tx.vsize, target.fee + step[2] * 100, RBF_ON)
        elif kind == "child":
            free = [
                (txid, i)
                for txid, e in pool.entries.items()
                for i, out in enumerate(e.tx.outputs)
                if out.value and (txid, i) not in pool.spends
            ]
            if free:
                picks = [free[(step[1] + k) % len(free)] for k in range(step[2])]
                tx = build(sorted(set(picks)), step[4], step[3] * step[4], RBF_ON)
        elif kind == "resubmit" and gone:
            tx = gone.pop(step[1] % len(gone))
        elif kind == "expire":
            now += step[1] * UNIT
            gone.extend(pool.tick_expiry(now))
        elif kind == "mine":
            now += 600 * UNIT
            pool.mine_block(now)
        if tx is not None:
            result = pool.submit(tx, now)
            gone.extend(e.tx for t, e in before.items() if t not in pool.entries)
            if result.accepted and result.replaced:
                # BIP125 rule 3: more than the fees of everything evicted
                assert pool.entries[tx.txid].fee > sum(before[t].fee for t in result.replaced)
            if not result.accepted and tx.txid not in pool.entries:
                gone.append(tx)
        check(pool, coins)


# Batch admission: submit_batch against one submit per transaction, on twin pools.
BATCH_VSIZES = st.sampled_from((150, 400, 600))  # Tx1, the market's size, Tx2
# in half sat/vB: 0 and 1 fall below the relay floor, a negative fee pays out more than in
HALF_RATE = st.integers(-2, 60)
COIN = 100_000

ITEM = st.one_of(
    st.tuples(st.just("fresh"), st.integers(1, 6), BATCH_VSIZES, HALF_RATE),
    st.tuples(st.just("granted"), BATCH_VSIZES, HALF_RATE, st.booleans()),
    st.tuples(st.just("inscribed"), st.booleans(), BATCH_VSIZES, HALF_RATE),
    # a second coin of 1,000 sat leaves the first alone able to pay the outputs
    st.tuples(st.just("pair"), st.sampled_from(("plain", "granted", "orphan", "same")),
              st.sampled_from((1_000, COIN)), BATCH_VSIZES, HALF_RATE),
    st.tuples(st.just("child"), PICK, BATCH_VSIZES, HALF_RATE),
    st.tuples(st.just("conflict"), PICK, HALF_RATE, st.booleans()),
    st.tuples(st.just("resend"), PICK),
    st.tuples(st.just("clash"), PICK, BATCH_VSIZES, HALF_RATE),
    st.tuples(st.just("orphan"), BATCH_VSIZES),
)


class Twins:
    """Two pools on two chains given the same coins and the same history."""

    def __init__(self, capacity: int, block: int):
        self.pools = [make_pool(mempool_capacity_vbytes=capacity, block_capacity_vbytes=block)[0]
                      for _ in range(2)]
        self.values: dict[tuple[str, int], int] = {}  # every coin and output built, by outpoint
        self.sent: list[Transaction] = []  # every transaction built, in order

    def coin(self, plain: bool, value: int = COIN) -> tuple[str, int]:
        if plain:
            serial = (f"coin-{len(self.values)}", 0)  # each coin, orphan and output adds a value
            for pool in self.pools:
                pool.chain.utxo_set.fund([(serial, value)])
        else:
            (serial,) = {pool.chain.utxo_set.grant("funder", value).serial for pool in self.pools}
        self.values[serial] = value
        return serial

    def orphan(self, value: int = COIN) -> tuple[str, int]:
        outpoint = ("missing", len(self.values))
        self.values[outpoint] = value
        return outpoint

    def tx(self, outpoints, vsize, half_rate, sequence=RBF_ON, inscription=None, txid=None):
        total = sum(self.values[op] for op in outpoints)
        fee = min(half_rate * vsize // 2, total - 1)
        inputs = tuple(TxInput(op, sequence) for op in outpoints)
        outputs = (TxOutput(total - fee, "x", inscription),)
        tx = Transaction(txid or make_txid(inputs, outputs, vsize, tag=str(len(self.sent))),
                         inputs, outputs, vsize)
        self.values[(tx.txid, 0)] = total - fee
        self.sent.append(tx)
        return tx

    def build(self, item) -> list[Transaction]:
        """The transactions one drawn item stands for, their coins funded on both chains."""
        kind, sent = item[0], self.sent
        if kind == "fresh":  # a run of fast-pass candidates
            _, count, vsize, rate = item
            return [self.tx([self.coin(True)], vsize, rate) for _ in range(count)]
        if kind == "granted":
            _, vsize, rate, rbf = item
            return [self.tx([self.coin(False)], vsize, rate, RBF_ON if rbf else RBF_OFF)]
        if kind == "inscribed":
            _, plain, vsize, rate = item
            return [self.tx([self.coin(plain)], vsize, rate, inscription="ins")]
        if kind == "pair":  # a fresh value-only coin first, then another input
            _, second, value, vsize, rate = item
            first = self.coin(True)
            if second == "same":
                other = first
            elif second == "orphan":
                other = self.orphan(value)
            else:
                other = self.coin(second == "plain", value)
            return [self.tx([first, other], vsize, rate)]
        if kind == "orphan":
            return [self.tx([self.orphan()], item[1], 10)]
        if not sent:
            return []
        earlier = sent[item[1] % len(sent)]
        if kind == "child":
            return [self.tx([(earlier.txid, 0)], item[2], item[3])]
        if kind == "conflict":  # the same inputs at another fee
            _, _, rate, rbf = item
            return [self.tx([i.outpoint for i in earlier.inputs], earlier.vsize, rate,
                            RBF_ON if rbf else RBF_OFF)]
        if kind == "resend":
            return [earlier]
        # clash: a fresh value-only spend under the txid of one already pooled or confirmed
        _, _, vsize, rate = item
        return [self.tx([self.coin(True)], vsize, rate, txid=earlier.txid)]


def pool_state(pool):
    """Everything a pool holds, lazily deleted heap items included."""
    return (
        [(t, e.arrival, e.fee, set(e.depends_on)) for t, e in pool.entries.items()],
        pool.spends,
        pool.total_vsize,
        {vsize: sorted(heap) for vsize, heap in pool._ready.items()},
        None if pool._by_rate is None else sorted(pool._by_rate),
        pool._removed,
        pool._oldest,
    )


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
# after one of two entries is mined, replacing the other removes enough to rebuild the
# ready heaps (``_forget``) while the fresh spend before it waits in the batch: without
# a flush first, its key would then be pushed twice
@hypothesis.example(
    capacity=6_000, block=600,
    history=[("granted", 400, 20, True), ("granted", 400, 20, True), ("mine",)],
    batch=[(1, 150, 10, ("conflict", 1, 60, True), 0)],
)
@hypothesis.given(
    capacity=st.integers(800, 6_000),
    block=st.integers(600, 2_500),
    history=st.lists(st.one_of(ITEM, st.tuples(st.just("mine"))), max_size=25),
    # each step: a run of fast-pass candidates, then any item, all at one time
    batch=st.lists(st.tuples(st.integers(0, 4), BATCH_VSIZES, HALF_RATE, ITEM, st.integers(0, 3)),
                   min_size=1, max_size=20),
)
def test_a_batch_equals_one_submit_per_transaction(capacity, block, history, batch):
    twins = Twins(capacity, block)
    pools = twins.pools
    now = 0.0
    for item in history:
        now += 10 * UNIT
        if item[0] == "mine":
            assert len({tuple(p.mine_block(now).transactions) for p in pools}) == 1
            continue
        for tx in twins.build(item):
            assert len({p.submit(tx, now) for p in pools}) == 1
    assert pool_state(pools[0]) == pool_state(pools[1])

    now += 10 * UNIT
    txs, times = [], []
    for run, vsize, rate, item, late in batch:
        built = twins.build(("fresh", run, vsize, rate)) + twins.build(item)
        txs += built
        times += [now + late * UNIT] * len(built)
    one_by_one, batched = pools
    expected = [one_by_one.submit(tx, at) for tx, at in zip(txs, times)]
    assert batched.submit_batch(txs, times) == expected
    assert pool_state(batched) == pool_state(one_by_one)

    for _ in range(2):
        now += 600 * UNIT
        assert ([tx.txid for tx in batched.mine_block(now).transactions]
                == [tx.txid for tx in one_by_one.mine_block(now).transactions])
    # a forced capacity eviction pops the eviction heaps
    for pool in pools:
        pool.config = replace(pool.config, mempool_capacity_vbytes=max(1, pool.total_vsize // 3))
    assert batched._enforce_capacity() == one_by_one._enforce_capacity()
    assert pool_state(batched) == pool_state(one_by_one)
