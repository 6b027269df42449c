"""Scenario runner, sweep aggregation, scripted incident replay."""

import math
import multiprocessing
from dataclasses import replace

import pytest

import brc20sim.harness as harness
from brc20sim.background import MARKET_TX_VSIZE
from brc20sim.harness import (
    SETUP_S,
    ReplayDivergence,
    ScenarioConfig,
    default_grid,
    run_binance_replay,
    run_scenario,
    run_sweep,
    sweep_csv,
)
from brc20sim.mempool import EXPIRY, Mempool
from brc20sim.sim import SimConfig
from brc20sim.wallet import TX1_VSIZE, TX2_VSIZE


class TestScenario:
    def test_result_shape(self):
        config = ScenarioConfig(fraction=0.5, fee_rate=100, congestion=0.75, attempts=3)
        result = run_scenario(config, seed=1)
        assert len(result.delays) == 3
        assert 0.0 <= result.pinned_pct <= 100.0
        assert abs(result.congestion_measured - 0.75) < 0.05

    def test_logging_changes_no_result(self, tmp_path):
        # the `brc20sim sim` default cell, run with and without an exported log
        config = ScenarioConfig(fraction=1.0, fee_rate=100, congestion=0.75, attempts=5)
        for seed in range(3):
            unlogged = run_scenario(config, seed)
            logged = run_scenario(config, seed, log_path=str(tmp_path / f"{seed}.jsonl"))
            assert repr(logged) == repr(unlogged)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(fraction=1.5, fee_rate=100, congestion=0.5, attempts=2)
        with pytest.raises(ValueError):
            ScenarioConfig(fraction=0.5, fee_rate=0, congestion=0.5, attempts=2)
        with pytest.raises(ValueError):
            ScenarioConfig(fraction=0.5, fee_rate=100, congestion=0.5, attempts=0)
        # 0 is the no-market control; a negative, NaN or infinite level is refused
        for congestion in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="congestion"):
                ScenarioConfig(fraction=0.5, fee_rate=100, congestion=congestion, attempts=2)
        # a horizon that ends past mempool.EXPIRY, after the set-up, is refused
        # before anything runs
        for attempts, tolerance_s in ((2, 1e12), (10**9, 3600.0), (672, 0.0), (10**400, 0.0),
                                      (668, 3600.0)):
            with pytest.raises(ValueError, match="horizon must be at most"):
                ScenarioConfig(fraction=0.5, fee_rate=100, congestion=0.5, attempts=attempts,
                               tolerance_s=tolerance_s)
        edge = ScenarioConfig(fraction=0.5, fee_rate=100, congestion=0.5, attempts=667)
        assert SETUP_S + edge.horizon_s() <= EXPIRY

    def test_the_largest_horizon_expires_nothing(self, monkeypatch):
        # the horizon starts after the set-up's blocks; counted from time 0, where
        # the sediment is sent, it ends past EXPIRY in the first config
        with pytest.raises(ValueError, match="horizon must be at most"):
            ScenarioConfig(fraction=0.1, fee_rate=100, congestion=0.75, attempts=1,
                           tolerance_s=EXPIRY - 4_200)
        largest = ScenarioConfig(fraction=0.1, fee_rate=100, congestion=0.75, attempts=1,
                                 tolerance_s=EXPIRY - 6_000)
        expired, ticks, tick_expiry = [], [], Mempool.tick_expiry

        def recorded(pool, now):
            ticks.append(now)
            dropped = tick_expiry(pool, now)
            expired.extend(dropped)
            return dropped

        monkeypatch.setattr(Mempool, "tick_expiry", recorded)
        run_scenario(largest, seed=0)
        assert ticks[-1] == SETUP_S + largest.horizon_s() == EXPIRY
        assert expired == []

    def test_a_settled_cell_stops_before_its_horizon(self, monkeypatch):
        # at fee 500 every attempt confirms in the next block: the sweep's cell
        # reads its numbers there, and run_scenario mines on to the horizon
        config = ScenarioConfig(fraction=0.5, fee_rate=500, congestion=0.75, attempts=2)
        runs, original = [], harness.execute

        def execute(config, sim, *rest):
            outcome = original(config, sim, *rest)
            runs.append((sim, sim.now, outcome.horizon))
            return outcome

        monkeypatch.setattr(harness, "execute", execute)
        harness._histories.clear()
        cell = harness._run_cell((config, 3))
        result = run_scenario(config, 3)
        assert [stop < horizon for _, stop, horizon in runs] == [True, True]
        sim, _, horizon = runs[1]
        assert sim.now == horizon and sim.chain.blocks[-1].timestamp == horizon
        assert cell == (result.success, result.delays, result.pinned_pct, result.outage_s)

    def test_control_condition_no_success(self):
        # no congestion and a market-beating fee: the attack cannot stick
        config = ScenarioConfig(fraction=1.0, fee_rate=500, congestion=0.0, attempts=2)
        for seed in range(3):
            assert not run_scenario(config, seed).success


class TestSweep:
    def test_fractions_010_and_050_differ_only_in_pinned_pct(self):
        # an attempt's amount changes its inscription payload, and through it the
        # txids, but not which blocks take which transactions
        rows = run_sweep(default_grid(fractions=(0.10, 0.50)), seeds=tuple(range(5)))
        low, high = rows[:27], rows[27:]
        assert {r.fraction for r in low} == {0.10} and {r.fraction for r in high} == {0.50}
        for a, b in zip(low, high):
            assert replace(a, fraction=b.fraction, pinned_pct=b.pinned_pct) == b
        assert any(a.pinned_pct != b.pinned_pct for a, b in zip(low, high))

    def test_p95_is_the_nearest_rank(self):
        # the smallest delay that at least 95% of the delays do not exceed
        for delays, p95 in (([], 0.0), ([7.0], 7.0), (list(range(1, 11)), 10),
                            (list(range(1, 21)), 19), (list(range(100, 0, -1)), 95)):
            assert harness._percentile_95(delays) == p95, delays

    def test_default_grid_is_81(self):
        assert len(default_grid()) == 81

    def test_grid_of_given_levels_and_settings(self):
        sim = SimConfig(block_capacity_vbytes=10_400)
        grid = default_grid((1.0,), (100, 200), (0.5,), (2,), sim)
        assert [(c.fee_rate, c.sim) for c in grid] == [(100, sim), (200, sim)]

    def test_single_cell_grid(self):
        grid = [ScenarioConfig(fraction=1.0, fee_rate=100, congestion=0.25, attempts=2)]
        rows = run_sweep(grid, seeds=(0, 1))
        assert len(rows) == 1
        assert rows[0].sample_count == 2 * 2

    def test_a_repeated_seed_counts_twice(self):
        grid = [
            ScenarioConfig(fraction=1.0, fee_rate=100, congestion=c, attempts=2)
            for c in (0.25, 0.75)
        ]
        once, twice = run_sweep(grid, seeds=(1,)), run_sweep(grid, seeds=(1, 1))
        assert [r.sample_count for r in twice] == [2 * r.sample_count for r in once]
        assert sweep_csv(twice) == sweep_csv(once)  # the same results, averaged

    def test_csv_deterministic(self):
        grid = [
            ScenarioConfig(fraction=1.0, fee_rate=fee, congestion=0.75, attempts=2)
            for fee in (100, 500)
        ]
        a = sweep_csv(run_sweep(grid, seeds=(0, 1, 2)))
        b = sweep_csv(run_sweep(grid, seeds=(0, 1, 2)))
        assert a == b
        header, *rows = a.strip().splitlines()
        assert header.startswith("fraction,fee,congestion,attempts,success_rate")
        assert len(rows) == 2

    def test_pool_is_capped_at_one_process_per_cell(self, monkeypatch):
        requested = []

        class SerialPool:
            """Records the requested size and maps in this process: nothing is forked."""

            def __init__(self, size):
                requested.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, tasks):
                return [func(task) for task in tasks]

        class Context:
            Pool = SerialPool

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
        cell = ScenarioConfig(fraction=1.0, fee_rate=100, congestion=0.25, attempts=2)
        rows = run_sweep([cell], seeds=(0,), workers=10_000)
        assert all(size <= 1 for size in requested)
        assert rows == run_sweep([cell], seeds=(0,), workers=1)

    def test_fewer_than_one_worker_is_rejected(self):
        cell = ScenarioConfig(fraction=1.0, fee_rate=100, congestion=0.25, attempts=2)
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                run_sweep([cell], seeds=(0,), workers=workers)

    def test_grouped_sweep_equals_one_call_per_cell(self):
        # the grid in one call equals one call per cell: two congestion levels,
        # two attempt counts, and a cell whose market key differs from its
        # neighbour's only by its SimConfig
        grid = [
            ScenarioConfig(fraction=1.0, fee_rate=100, congestion=c, attempts=n)
            for c in (0.25, 0.75)
            for n in (2, 5)
        ]
        grid.append(replace(grid[-1], sim=SimConfig(congestion_normal_count=600)))
        seeds = (0, 1, 2)
        grouped = sweep_csv(run_sweep(grid, seeds=seeds))
        rows = [row for cell in grid for row in run_sweep([cell], seeds=seeds)]
        assert grouped == sweep_csv(rows)
        assert grouped == sweep_csv(run_sweep(grid, seeds=seeds, workers=2))

    def test_rows_sorted_by_scenario_key(self):
        grid = [
            ScenarioConfig(fraction=f, fee_rate=100, congestion=0.25, attempts=n)
            for f in (1.0, 0.1)
            for n in (5, 2)
        ]
        rows = run_sweep(grid, seeds=(0,))
        keys = [(r.fraction, r.fee, r.congestion, r.attempts) for r in rows]
        assert keys == sorted(keys)


class TestBinanceReplay:
    def test_all_steps_pass(self):
        transcript = run_binance_replay()
        assert all(row["ok"] for row in transcript)
        steps = [row["step"] for row in transcript]
        assert "attempt-2-pinned-entire-balance" in steps
        assert "recovery-restores-liquidity" in steps

    def test_transcripts_identical_across_runs(self):
        assert run_binance_replay() == run_binance_replay()

    def test_divergence_raises(self, monkeypatch):
        import brc20sim.harness as harness

        broken = dict(harness.REPLAY)
        broken["interval_deposit"] = 1  # wallet can no longer reach the pin amount
        monkeypatch.setattr(harness, "REPLAY", broken)
        with pytest.raises(ReplayDivergence):
            run_binance_replay()


class TestLeftoverGap:
    """Pinning rests on the space a full market batch leaves in a block.

    ``BackgroundLoad`` fills each block with ``capacity // MARKET_TX_VSIZE``
    market transactions, so ``capacity % MARKET_TX_VSIZE`` is left.  With the
    market floor above the bundle's rate, Tx1 is mined only into that gap, and
    Tx2 never fits it.  On seeds 0-4 the split is exact; on more seeds a
    capacity without the gap pins a little (README, "Why Tx1 confirms and Tx2
    does not").
    """

    CELL = dict(fraction=1.0, fee_rate=100, congestion=0.75, attempts=5)

    def run_cell(self, capacity, monkeypatch):
        runs = []
        execute = harness.execute

        def recording_execute(config, sim, *resumed):
            outcome = execute(config, sim, *resumed)
            runs.append((sim, outcome))
            return outcome

        monkeypatch.setattr(harness, "execute", recording_execute)
        config = ScenarioConfig(**self.CELL, sim=SimConfig(block_capacity_vbytes=capacity))
        results = [run_scenario(config, seed) for seed in range(5)]
        return results, runs

    @pytest.mark.parametrize("capacity", [10_000, 10_149, 10_150, 10_399, 10_400])
    def test_pins_iff_tx1_fits_the_gap_and_tx2_does_not(self, capacity, monkeypatch):
        gap = capacity % MARKET_TX_VSIZE
        pins = TX1_VSIZE <= gap < TX2_VSIZE
        results, _ = self.run_cell(capacity, monkeypatch)
        assert [(r.success, r.pinned_pct) for r in results] == [(pins, 100.0 * pins)] * 5

    def test_pinned_tx1_fills_the_gap_beside_a_full_market_batch(self, monkeypatch):
        _, runs = self.run_cell(10_150, monkeypatch)
        for sim, outcome in runs:
            pinned = [r for r in outcome.per_attempt if r.pinned]
            assert pinned
            for record in pinned:
                block = next(
                    b for b in sim.chain.blocks
                    if any(tx.txid == record.tx1 for tx in b.transactions)
                )
                sizes = [tx.vsize for tx in block.transactions]
                assert sizes.count(MARKET_TX_VSIZE) == 25
                assert sum(sizes) == 10_150
