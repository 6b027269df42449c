"""Pool invariants under random submit, bump, child, resubmit, expiry and mining sequences."""

from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from brc20sim.chain import Transaction, TxInput, TxOutput, make_txid  # noqa: E402
from brc20sim.mempool import EXPIRY  # noqa: E402
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
    """The structural invariants, one spender per outpoint, and each entry's fee and funding."""
    check_pool_invariants(pool)
    spent = Counter(inp.outpoint for e in pool.entries.values() for inp in e.tx.inputs)
    assert all(count == 1 for count in spent.values())
    for entry in pool.entries.values():
        paid_in = sum(coins[inp.outpoint][0] for inp in entry.tx.inputs)
        assert entry.fee == paid_in - entry.tx.output_total
        # value-only and ordinal-tracked coins never mix in one entry
        assert {coins[inp.outpoint][1] for inp in entry.tx.inputs} == {entry.plain}


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
            coin = (chain.utxo_set.fund([100_000])[0] if plain
                    else chain.utxo_set.grant("funder", 100_000).serial)
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
