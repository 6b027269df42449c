"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines.  The sweep criterion is the long pole (a few minutes single
threaded); everything else finishes in seconds.
"""

import itertools
import math
import os
import random
import time
from contextlib import contextmanager

import pytest

from scenario_tools import (
    FeeBand,
    Scenario,
    band_profile,
    inscribed_tx,
    move_tx,
    pick_fee,
    random_scenario,
)
from test_chain import flatten, oracle_assign
from test_mempool import child_of, make_pool, oracle_greedy, spend

from brc20sim.attack import ToleranceInputs, tolerance
from brc20sim.chain import OrdinalBurned, OrdinalRange, Transaction, TxInput, TxOutput, UtxoSet, assign_ordinals, make_txid
from brc20sim.harness import (
    TARGET,
    TICK,
    inscription_tx,
    run_binance_replay,
    run_sweep,
)
from brc20sim.indexer import deploy_inscription, mint_inscription, replay, transfer_inscription
from brc20sim.mempool import CONFLICT_NOT_REPLACEABLE
from brc20sim.sim import SimConfig, Simulation
from brc20sim.wallet import TransferRequest

SEEDS = 50
HOUR = 3600.0


@contextmanager
def criterion(number: int, description: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE {number}] FAIL - {description}")
        raise
    print(f"\n[ACCEPTANCE {number}] PASS - {description} ({time.time() - start:.1f}s)")


def test_criterion_1_tolerance_exactness(capsys):
    with criterion(1, "operational tolerance reproduces the 3.0h and 0.5h bounds"):
        upper = tolerance(ToleranceInputs(5_000_000, 2_000_000, 1_000_000, HOUR))
        lower = tolerance(ToleranceInputs(2_500_000, 2_000_000, 1_000_000, HOUR))
        assert abs(upper - 3.0 * HOUR) / (3.0 * HOUR) < 1e-9
        assert abs(lower - 0.5 * HOUR) / (0.5 * HOUR) < 1e-9

        from brc20sim.cli import main

        assert main(["tolerance", "--avail", "5000000", "--req", "2000000",
                     "--vol", "1000000", "--period", "1h"]) == 0
        out = capsys.readouterr().out
        assert "3.000000 h" in out


def test_criterion_2_ordinal_fifo():
    with criterion(2, "FIFO golden case plus 1000 random txs against the per-sat oracle"):
        # golden: 8 sats #1..#8 split 3/2/2 with 1 sat fee
        state = UtxoSet()
        state.grant("spacer", 1)  # shifts ordinals so the coin spans #1..#8
        funding = state.grant("sender", 8)
        assert funding.first_ordinal() == 1
        spend_tx = Transaction(
            "golden",
            (TxInput(funding.serial),),
            (TxOutput(3, "A"), TxOutput(2, "B"), TxOutput(2, "sender")),
            vsize=100,
        )
        state.apply_transaction(spend_tx)
        assert flatten(state.utxos[("golden", 0)].ordinals) == [1, 2, 3]
        assert flatten(state.utxos[("golden", 1)].ordinals) == [4, 5]
        assert flatten(state.utxos[("golden", 2)].ordinals) == [6, 7]
        assert state.locate_ordinal(4).owner == "B"
        with pytest.raises(OrdinalBurned):
            state.locate_ordinal(8)

        rng = random.Random(20_240_000)
        for _ in range(1000):
            total = rng.randint(1, 16)
            cuts = sorted(rng.sample(range(1, total), rng.randint(0, total - 1)))
            bounds = [0, *cuts, total]
            base = rng.randint(0, 99)
            ranges = [
                [OrdinalRange(base + lo, hi - lo)] for lo, hi in zip(bounds, bounds[1:])
            ]
            fee = rng.randint(0, total)
            remaining = total - fee
            values = []
            while remaining:
                v = rng.randint(1, remaining)
                values.append(v)
                remaining -= v
            got = assign_ordinals(ranges, values, fee)
            assert [flatten(r) for r in got] == oracle_assign(ranges, values, fee)


def test_criterion_3_two_step_transfer_conformance():
    with criterion(3, "two-step transfer balance transitions, exact integers"):
        init, m = 1000, 100
        sc = Scenario()
        sc.apply(inscribed_tx(sc, "sender", deploy_inscription("tok", 10_000, 10_000), "d"))
        sc.apply(inscribed_tx(sc, "sender", mint_inscription("tok", init), "m"))
        tx1 = inscribed_tx(sc, "sender", transfer_inscription("tok", m), "tx1")
        sc.apply(tx1)
        assert sc.indexer.balance("tok", "sender") == (init - m, m, init)
        assert sc.indexer.balance("tok", "recipient") == (0, 0, 0)
        utxo = sc.work.utxos[(tx1.txid, 0)]
        sc.apply(move_tx(sc, utxo, "recipient", "tx2"))
        assert sc.indexer.balance("tok", "sender") == (init - m, 0, init - m)
        assert sc.indexer.balance("tok", "recipient") == (m, 0, m)


def test_criterion_4_replay_determinism_and_conservation():
    with criterion(4, "200 random 50-block scenarios: replay == incremental, supply conserved"):
        def conserved(sc: Scenario) -> None:
            assert sc.indexer.supply_is_conserved()

        for seed in range(200):
            sc = random_scenario(seed, blocks=50, on_block=conserved)
            rebuilt = replay(sc.blocks, sc.genesis())
            assert rebuilt == sc.indexer


def test_criterion_5_exchange_incident_replay():
    with criterion(5, "scripted incident replay: pin and recovery balances exact"):
        transcript = run_binance_replay()
        by_step = {row["step"]: row for row in transcript}
        assert all(row["ok"] for row in transcript)
        assert by_step["attempt-2-pinned-entire-balance"]["balance"] == (0, 8_210_108, 8_210_108)
        assert by_step["recovery-restores-liquidity"]["balance"] == (8_218_890, 0, 8_218_890)


def _pinning_sim(seed: int, band: FeeBand) -> Simulation:
    profile = band_profile(band.f_min, band.f_sf, 0.75, seed=seed)
    sim = Simulation(SimConfig(), profile)
    for _ in range(4):
        sim.grant(TARGET, 50_000_000)
    sim.submit(inscription_tx(sim, TARGET, deploy_inscription(TICK, 21_000_000, 21_000_000), 500, "d"))
    sim.run_blocks(1)
    sim.submit(inscription_tx(sim, TARGET, mint_inscription(TICK, 1_000_000), 500, "m"))
    sim.run_blocks(1)
    return sim


def _bundle_at(sim: Simulation, fee: int):
    req = TransferRequest(100_000, sender=TARGET, recipient=TARGET, fee_rate=fee)
    bundle, r1, r2 = sim.send_transfer(req)
    assert r1.accepted and r2.accepted
    return bundle


def test_criterion_6_pinning_mechanics():
    with criterion(6, "in-band fee pins tx2 >=10 blocks while tx1 confirms; 2x f_sf clears"):
        band = FeeBand.from_floor(10)
        in_band_fee = pick_fee(band, congestion=0.75)
        assert band.f_min < in_band_fee < band.f_sf
        control_fee = math.ceil(2 * band.f_sf)

        pinned_ok = 0
        for seed in range(SEEDS):
            sim = _pinning_sim(seed, band)
            bundle = _bundle_at(sim, in_band_fee)
            sim.run_blocks(1)
            tx1_fast = sim.chain.confirmation_time(bundle.tx1.txid) == sim.now
            sim.run_blocks(10)
            tx2_pinned = not sim.chain.confirmed(bundle.tx2.txid)
            if tx1_fast and tx2_pinned:
                pinned_ok += 1
        assert pinned_ok >= 0.9 * SEEDS, f"pinned in only {pinned_ok}/{SEEDS} seeds"

        for seed in range(SEEDS):
            sim = _pinning_sim(seed, band)
            bundle = _bundle_at(sim, control_fee)
            sim.run_blocks(2)
            assert sim.chain.confirmed(bundle.tx2.txid), f"control stuck at seed {seed}"


def test_criterion_7_sweep_trends():
    with criterion(7, "81-scenario sweep: monotone trends and the attempts gap"):
        workers = min(8, os.cpu_count() or 1)
        rows = run_sweep(seeds=tuple(range(SEEDS)), workers=workers)
        assert len(rows) == 81
        key = {(r.fraction, r.fee, r.congestion, r.attempts): r for r in rows}
        fractions, fees, levels, attempts = (
            (0.10, 0.50, 1.00), (100, 200, 500), (0.25, 0.50, 0.75), (2, 5, 10),
        )
        for r in rows:
            assert r.sample_count == SEEDS * r.attempts

        # (a) success rate never decreases in attempts or congestion
        for f, fee, c in itertools.product(fractions, fees, levels):
            series = [key[(f, fee, c, n)].success_rate for n in attempts]
            assert series == sorted(series), (f, fee, c, series)
        for f, fee, n in itertools.product(fractions, fees, attempts):
            series = [key[(f, fee, c, n)].success_rate for c in levels]
            assert series == sorted(series), (f, fee, n, series)

        # (b) mean delay never increases in the fee level
        for f, c, n in itertools.product(fractions, levels, attempts):
            series = [key[(f, fee, c, n)].mean_delay for fee in fees]
            assert series == sorted(series, reverse=True), (f, c, n, series)

        # (c) attempts move the needle at high congestion
        s10 = sum(key[(f, fee, 0.75, 10)].success_rate
                  for f in fractions for fee in fees) / 9
        s2 = sum(key[(f, fee, 0.75, 2)].success_rate
                 for f in fractions for fee in fees) / 9
        assert s10 - s2 >= 0.10, f"gap {s10 - s2:.3f}"

        # under load, the 100->200 fee step buys the largest delay reduction
        # (soft property: a single combo is allowed to miss it)
        misses = 0
        for f, c, n in itertools.product(fractions, (0.50, 0.75), attempts):
            drop_low = key[(f, 100, c, n)].mean_delay - key[(f, 200, c, n)].mean_delay
            drop_high = key[(f, 200, c, n)].mean_delay - key[(f, 500, c, n)].mean_delay
            misses += drop_low < drop_high
        assert misses <= 1, f"{misses} combos missed the 100->200 dominance"


def test_criterion_8_mining_oracle_equivalence():
    with criterion(8, "500 random pools: block selection equals the greedy oracle"):
        rng = random.Random(424_242)
        for case in range(500):
            capacity = rng.randint(200, 1200)
            pool, chain = make_pool(block_capacity_vbytes=capacity)
            made = []
            for i in range(rng.randint(1, 8)):
                vsize = rng.randint(80, 600)
                fee = rng.randint(vsize, 40_000)
                if made and rng.random() < 0.45:
                    parent = rng.choice(made)
                    value = parent.outputs[0].value
                    if value > fee:
                        tx = child_of(parent, 0, value, fee=fee, vsize=vsize,
                                      tag=f"ac{case}-{i}")
                        if pool.submit(tx, float(i)).accepted:
                            made.append(tx)
                        continue
                tx = spend(chain, 50_000, fee=fee, vsize=vsize, tag=f"at{case}-{i}")
                if pool.submit(tx, float(i)).accepted:
                    made.append(tx)
            expected = oracle_greedy(dict(pool.entries), chain, capacity)
            block = pool.mine_block(600.0)
            assert [t.txid for t in block.transactions] == expected


def test_criterion_9_pinning_techniques():
    with criterion(9, "low-fee lingering, RBF opt-out, dependency chaining"):
        band = FeeBand.from_floor(10)

        # (i) a low-fee transaction lingers under congestion
        sim = _pinning_sim(0, band)
        fund = sim.grant("lowball", 546 + 14 * 600)
        inputs = (TxInput(fund.serial),)
        outputs = (TxOutput(546, "lowball"),)
        lingerer = Transaction(make_txid(inputs, outputs, 600, tag="linger"),
                               inputs, outputs, 600)
        assert sim.submit(lingerer).accepted
        sim.run_blocks(10)
        assert not sim.chain.confirmed(lingerer.txid)

        # (ii) sequence 0xFFFFFFFF opts out of replacement
        pool, chain = make_pool()
        coin = chain.utxo_set.grant("u", 100_000)
        fixed = Transaction("fixed", (TxInput(coin.serial, 0xFFFFFFFF),),
                            (TxOutput(500, "a"),), 100)
        assert pool.submit(fixed, 0.0).accepted
        bump = Transaction("bump", (TxInput(coin.serial, 0xFFFFFFFD),),
                           (TxOutput(1, "a"),), 100)
        result = pool.submit(bump, 1.0)
        assert not result.accepted and result.reason == CONFLICT_NOT_REPLACEABLE
        assert "fixed" in pool

        # (iii) a child cannot confirm before its pinned parent
        sim = _pinning_sim(1, band)
        fund = sim.grant("chain-user", 1_000_000)
        p_in = (TxInput(fund.serial),)
        p_out = (TxOutput(1_000_000 - 14 * 600, "chain-user"),)
        parent = Transaction(make_txid(p_in, p_out, 600, tag="pin-parent"),
                             p_in, p_out, 600)
        assert sim.submit(parent).accepted
        c_in = (TxInput((parent.txid, 0)),)
        c_out = (TxOutput(p_out[0].value - 1000 * 150, "chain-user"),)
        child = Transaction(make_txid(c_in, c_out, 150, tag="pin-child"),
                            c_in, c_out, 150)
        assert sim.submit(child).accepted  # 1000 sat/vB, far above the market
        sim.run_blocks(8)
        assert not sim.chain.confirmed(parent.txid)
        assert not sim.chain.confirmed(child.txid)
        assert sim.pool.entries[child.txid].depends_on == {parent.txid}
