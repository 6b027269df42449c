"""Pool invariants under random submit, bump, child, resubmit, expiry and mining sequences,
a copy of the pool run on beside it, and batch admission of market entries against one
single-entry batch per entry."""

from collections import Counter
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from brc20sim.chain import MarketTx, Transaction, TxInput, TxOutput, make_txid  # noqa: E402
from brc20sim.mempool import ACCEPTED, EXPIRY, FULL  # noqa: E402
from test_mempool import RBF_OFF, RBF_ON, check_pool_invariants, make_pool  # noqa: E402

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
    """The structural invariants, one spender per outpoint, and each entry's fee."""
    check_pool_invariants(pool)
    spent = Counter(inp.outpoint for e in pool.entries.values() for inp in e.tx.inputs)
    assert all(count == 1 for count in spent.values())
    for entry in pool.entries.values():
        if type(entry.tx) is MarketTx:  # no coin: it pays the fee it carries
            assert entry.fee == entry.tx.fee and entry.depends_on == set()
            continue
        paid_in = sum(coins[inp.outpoint] for inp in entry.tx.inputs)
        assert entry.fee == paid_in - entry.tx.output_total


class Stepper:
    """Runs steps on one pool: its coins, its clock, what left it unmined, and the
    txids of each block it mined."""

    def __init__(self, pool, chain):
        self.pool, self.chain = pool, chain
        self.coins: dict[tuple[str, int], int] = {}  # outpoint -> value
        self.gone: list[Transaction | MarketTx] = []  # left the pool unmined
        self.mined: list[list[str]] = []
        self.now = 0.0
        self.markets = 0  # market entries made, which number their txids

    def fork(self) -> "Stepper":
        """A stepper in this one's state, on a copy of its pool and chain."""
        chain = self.chain.copy()
        dup = Stepper(self.pool.copy(chain), chain)
        dup.coins, dup.gone, dup.mined = dict(self.coins), list(self.gone), list(self.mined)
        dup.now, dup.markets = self.now, self.markets
        return dup

    def build(self, outpoints, vsize, fee, sequence, outputs=1):
        coins = self.coins
        total = sum(coins[op] for op in outpoints)
        fee = min(fee, total)
        share = (total - fee) // outputs
        values_out = [share] * (outputs - 1) + [total - fee - share * (outputs - 1)]
        inputs = tuple(TxInput(op, sequence) for op in outpoints)
        outs = tuple(TxOutput(v, "x") for v in values_out)
        tx = Transaction(make_txid(inputs, outs, vsize, tag=f"{len(coins)}"), inputs, outs,
                         vsize)
        for i, v in enumerate(values_out):
            coins[(tx.txid, i)] = v
        return tx

    def run(self, step):
        """Take one step, then check the pool."""
        pool, gone = self.pool, self.gone
        kind = step[0]
        before = dict(pool.entries)
        self.now += 10 * UNIT
        tx = None
        if kind == "submit":
            _, plain, rate, vsize, rbf, outputs = step
            if plain:  # a market entry
                self.markets += 1
                tx = MarketTx(f"mkt-{self.markets}", rate * vsize, vsize, self.now)
            else:
                coin = self.chain.utxo_set.grant("funder", 100_000).serial
                self.coins[coin] = 100_000
                tx = self.build([coin], vsize, rate * vsize, RBF_ON if rbf else RBF_OFF, outputs)
        elif kind == "bump" and (spenders := [t for t, e in before.items() if e.tx.inputs]):
            target = before[spenders[step[1] % len(spenders)]]
            outpoints = [inp.outpoint for inp in target.tx.inputs]
            tx = self.build(outpoints, target.tx.vsize, target.fee + step[2] * 100, RBF_ON)
        elif kind == "child":
            free = [
                (txid, i)
                for txid, e in pool.entries.items()
                for i, out in enumerate(e.tx.outputs)
                if out.value and (txid, i) not in pool.spends
            ]
            if free:
                picks = [free[(step[1] + k) % len(free)] for k in range(step[2])]
                tx = self.build(sorted(set(picks)), step[4], step[3] * step[4], RBF_ON)
        elif kind == "resubmit" and gone:
            tx = gone.pop(step[1] % len(gone))
            if type(tx) is MarketTx:  # the same entry, arriving now
                tx = MarketTx(tx.txid, tx.fee, tx.vsize, self.now)
        elif kind == "expire":
            self.now += step[1] * UNIT
            gone.extend(pool.tick_expiry(self.now))
        elif kind == "mine":
            self.now += 600 * UNIT
            self.mined.append([tx.txid for tx in pool.mine_block(self.now).transactions])
        if tx is not None:
            if type(tx) is MarketTx:
                (result,) = pool.submit_batch([tx])
            else:
                result = pool.submit(tx, self.now)
            gone.extend(e.tx for t, e in before.items() if t not in pool.entries)
            if result.accepted and result.replaced:
                # BIP125 rule 3: more than the fees of everything evicted
                assert pool.entries[tx.txid].fee > sum(before[t].fee for t in result.replaced)
            if not result.accepted and tx.txid not in pool.entries:
                gone.append(tx)
        check(pool, self.coins)

    def state(self):
        """Everything the pool holds, and the chain's height and coins."""
        return pool_state(self.pool), self.chain.height, dict(self.chain.utxo_set.utxos)


@hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
@hypothesis.given(
    capacity=st.integers(500, 3_000), block=st.integers(300, 1_200), steps=STEPS
)
def test_pool_invariants_hold_after_every_step(capacity, block, steps):
    stepper = Stepper(*make_pool(mempool_capacity_vbytes=capacity, block_capacity_vbytes=block))
    for step in steps:
        stepper.run(step)


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
# a child whose parent is mined after the copy: mining prunes the child's depends_on,
# which the copy must not share
@hypothesis.example(capacity=3_000, block=1_200, at=2,
                    steps=[("submit", False, 10, 250, True, 1), ("child", 0, 1, 20, 150),
                           ("mine",)])
@hypothesis.given(
    capacity=st.integers(500, 3_000), block=st.integers(300, 1_200), at=st.integers(0, 60),
    steps=STEPS,
)
def test_a_copy_runs_on_as_its_source_does_and_apart_from_it(capacity, block, at, steps):
    source = Stepper(*make_pool(mempool_capacity_vbytes=capacity, block_capacity_vbytes=block))
    at %= len(steps) + 1
    for step in steps[:at]:
        source.run(step)
    fork = source.fork()
    forked = fork.state()
    for step in steps[at:]:
        source.run(step)
    assert fork.state() == forked  # the source's steps left the copy alone
    ran = source.state()
    for step in steps[at:]:
        fork.run(step)
    assert source.state() == ran  # and the copy's steps left the source alone
    assert fork.state() == ran and fork.mined == source.mined


def test_an_entry_a_later_entry_of_its_batch_evicts_was_accepted():
    # capacity is checked after each entry, as submit checks it: the first entry
    # is accepted, then evicted by the third; the fourth is evicted on arrival
    pool, _ = make_pool(mempool_capacity_vbytes=1_000)
    fees = {"low": 800, "high": 4_000, "higher": 4_400, "lowest": 400}
    low, high, higher, lowest = (MarketTx(txid, fee, 400, 0.0) for txid, fee in fees.items())
    assert pool.submit_batch([low, high, higher, lowest]) == [ACCEPTED] * 3 + [FULL]
    assert list(pool.entries) == ["high", "higher"] and pool.total_vsize == 800
    # so a single trim at the batch's end could not tell "low" from "lowest"
    twin, _ = make_pool(mempool_capacity_vbytes=1_000)
    assert [twin.submit_batch([e])[0] for e in (low, high, higher, lowest)] == (
        [ACCEPTED] * 3 + [FULL])
    assert pool_state(twin) == pool_state(pool)


# Batch admission: one submit_batch per run of market entries against one single-entry
# batch per entry, with transactions that have inputs submitted between runs, on twin pools.
BATCH_VSIZES = st.sampled_from((150, 400, 600))  # Tx1, the market's size, Tx2
# in half sat/vB: 0 and 1 fall below the relay floor, a negative fee pays out more than in
HALF_RATE = st.integers(-2, 60)
COIN = 100_000

ITEM = st.one_of(
    st.tuples(st.just("fresh"), st.integers(1, 6), BATCH_VSIZES, HALF_RATE),
    st.tuples(st.just("granted"), BATCH_VSIZES, HALF_RATE, st.booleans()),
    st.tuples(st.just("inscribed"), BATCH_VSIZES, HALF_RATE),
    # a second coin of 1,000 sat leaves the first alone able to pay the outputs
    st.tuples(st.just("pair"), st.sampled_from(("market", "granted", "orphan", "same")),
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
        self.sent: list[Transaction | MarketTx] = []  # every transaction and entry built, in order

    def coin(self, value: int = COIN) -> tuple[str, int]:
        (serial,) = {pool.chain.utxo_set.grant("funder", value).serial for pool in self.pools}
        self.values[serial] = value
        return serial

    def orphan(self, value: int = COIN) -> tuple[str, int]:
        outpoint = ("missing", len(self.values))
        self.values[outpoint] = value
        return outpoint

    def entry(self, vsize, half_rate, at, txid=None) -> MarketTx:
        """A market entry arriving at ``at``; a negative fee pays nothing."""
        entry = MarketTx(txid or f"mkt-{len(self.sent)}", max(0, half_rate * vsize // 2), vsize,
                         at)
        self.values.setdefault((entry.txid, 0), COIN)  # an output it does not have
        self.sent.append(entry)
        return entry

    def tx(self, outpoints, vsize, half_rate, sequence=RBF_ON, inscription=None):
        total = sum(self.values[op] for op in outpoints)
        fee = min(half_rate * vsize // 2, total - 1)
        inputs = tuple(TxInput(op, sequence) for op in outpoints)
        outputs = (TxOutput(total - fee, "x", inscription),)
        tx = Transaction(make_txid(inputs, outputs, vsize, tag=str(len(self.sent))),
                         inputs, outputs, vsize)
        self.values[(tx.txid, 0)] = total - fee
        self.sent.append(tx)
        return tx

    def build(self, item, at) -> list[Transaction | MarketTx]:
        """The transactions and market entries one drawn item stands for, to be sent
        at ``at``, their coins granted on both chains."""
        kind, sent = item[0], self.sent
        if kind == "fresh":  # a run of market entries
            _, count, vsize, rate = item
            return [self.entry(vsize, rate, at) for _ in range(count)]
        if kind == "granted":
            _, vsize, rate, rbf = item
            return [self.tx([self.coin()], vsize, rate, RBF_ON if rbf else RBF_OFF)]
        if kind == "inscribed":
            _, vsize, rate = item
            return [self.tx([self.coin()], vsize, rate, inscription="ins")]
        if kind == "pair":  # a fresh granted coin first, then another input
            _, second, value, vsize, rate = item
            first = self.coin()
            if second == "same":
                other = first
            elif second == "orphan":
                other = self.orphan(value)
            elif second == "market":  # an output no market entry has
                other = (self.entry(400, 10, at).txid, 0)
            else:
                other = self.coin(value)
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
            if not earlier.inputs:
                return []
            return [self.tx([i.outpoint for i in earlier.inputs], earlier.vsize, rate,
                            RBF_ON if rbf else RBF_OFF)]
        if kind == "resend":  # a market entry arrives again at ``at``
            if type(earlier) is MarketTx:
                return [MarketTx(earlier.txid, earlier.fee, earlier.vsize, at)]
            return [earlier]
        # clash: a market entry under the txid of one already pooled or confirmed
        _, _, vsize, rate = item
        return [self.entry(vsize, rate, at, txid=earlier.txid)]


def pool_state(pool):
    """Everything a pool holds, lazily deleted heap items included."""
    return (
        [(t, e.arrival, e.fee, set(e.depends_on)) for t, e in pool.entries.items()],
        dict(pool.spends),
        pool.total_vsize,
        {vsize: sorted(heap) for vsize, heap in pool._ready.items()},
        None if pool._by_rate is None else sorted(pool._by_rate),
        pool._removed,
        pool._oldest,
    )


def submit_all(pool, txs, times, batched: bool):
    """Each transaction with inputs through ``submit`` at its time, and the market
    entries between them, which carry theirs, as one batch per run (``batched``) or
    one single-entry batch each."""
    results, run = [], []
    for tx, at in [*zip(txs, times), (None, None)]:
        if type(tx) is MarketTx:
            assert tx.arrival == at
            run.append(tx)
            if batched:
                continue
        if run:
            results += pool.submit_batch(run)
            run = []
        if tx is not None and type(tx) is not MarketTx:
            results.append(pool.submit(tx, at))
    return results


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
# a run of market entries whose evictions rebuild the ready heaps (``_forget``) while two
# of its keys are pending: without a flush first, they would then be pushed twice
@hypothesis.example(
    capacity=800, block=600,
    history=[("fresh", 4, 150, 20), ("fresh", 2, 150, 40), ("mine",)],
    batch=[(3, 600, 40, ("fresh", 3, 400, 60), 0), (3, 400, 10, ("fresh", 1, 600, 10), 0)],
)
@hypothesis.given(
    capacity=st.integers(800, 6_000),
    block=st.integers(600, 2_500),
    history=st.lists(st.one_of(ITEM, st.tuples(st.just("mine"))), max_size=25),
    # each step: a run of market entries, then any item, all at one time
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
        built = twins.build(item, now)
        assert len({tuple(submit_all(p, built, [now] * len(built), False)) for p in pools}) == 1
    assert pool_state(pools[0]) == pool_state(pools[1])

    now += 10 * UNIT
    txs, times = [], []
    for run, vsize, rate, item, late in batch:
        at = now + late * UNIT
        built = twins.build(("fresh", run, vsize, rate), at) + twins.build(item, at)
        txs += built
        times += [at] * len(built)
    one_by_one, batched = pools
    expected = submit_all(one_by_one, txs, times, batched=False)
    assert submit_all(batched, txs, times, batched=True) == expected
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
