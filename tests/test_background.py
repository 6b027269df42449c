"""Background load calibration and determinism, and its place off the ledger."""

import itertools
import math
import random
from collections import Counter

import pytest
from scenario_tools import band_profile, count_builds, floor_path, warm_run

from brc20sim import background, harness
from brc20sim.background import (
    MARKET_ADDRESS,
    MARKET_TX_VSIZE,
    RATE_SPREAD,
    SEDIMENT_RATE_HI,
    BackgroundLoad,
    CongestionProfile,
    stream,
)
from brc20sim.chain import (
    BLOCK_INTERVAL,
    DUST,
    EMPTY_RECEIPT,
    MarketTx,
    Transaction,
    TxInput,
    TxOutput,
    make_txid,
)
from brc20sim.cli import main
from brc20sim.harness import (
    CONGESTION_LEVELS,
    ScenarioConfig,
    default_grid,
    inscription_tx,
    run_scenario,
    run_sweep,
)
from brc20sim.indexer import Indexer, deploy_inscription, mint_inscription
from brc20sim.mempool import ORPHAN_INPUT, MempoolEntry
from brc20sim.sim import SimConfig, Simulation
from brc20sim.wallet import TICK, InsufficientFunds, TransferRequest


def test_steady_state_congestion_tracks_target():
    for level in (0.25, 0.50, 0.75):
        sim = Simulation(SimConfig(), CongestionProfile.for_level(level, seed=1))
        sim.run_until(sim.now + 20 * 600.0)
        assert abs(sim.mean_congestion() - level) < 0.05


def test_zero_target_leaves_pool_to_foreground():
    sim = Simulation(SimConfig(), CongestionProfile.for_level(0.0, seed=1))
    sim.run_blocks(5)
    assert len(sim.pool) == 0
    assert sim.mean_congestion() == 0.0


@pytest.mark.parametrize("target", [float("nan"), float("inf")])
def test_a_target_no_block_passes_raises_before_the_loop(target):
    sim = Simulation(SimConfig(), CongestionProfile.for_level(0.75, seed=1))
    logged = len(sim.event_log)
    with pytest.raises(ValueError, match="finite target"):
        sim.run_until(target)
    # the loop never started: no window was funded and no block mined
    assert len(sim.event_log) == logged and sim.chain.blocks == [] and sim.now == 0.0


def test_same_seed_identical_trajectories():
    def trace(seed):
        sim = Simulation(SimConfig(), CongestionProfile.for_level(0.5, seed))
        sim.run_blocks(10)
        return [
            [tx.txid for tx in block.transactions] for block in sim.chain.blocks
        ]

    assert trace(9) == trace(9)
    assert trace(9) != trace(10)


def test_background_txids_hash_their_content():
    # each market txid is the hash of what bg{k} was when it spent coin fund-{k - 1}
    # and paid DUST to the market, so ties in the pool break as they did then
    load = BackgroundLoad(CongestionProfile.for_level(0.75, seed=3), normal_count=400,
                          block_capacity=10_150)
    made = list(load.sediment())
    for w in range(1, 4):
        made += load.market_batch(w)
    assert load.sediment_count and len(made) == load.sediment_count + 3 * load.flight
    old = {make_txid((TxInput((f"fund-{k - 1}", 0)),), (TxOutput(DUST, MARKET_ADDRESS),),
                     MARKET_TX_VSIZE, tag=f"bg{k}"): k for k in range(1, len(made) + 1)}
    assert sorted(old[tx.txid] for tx in made) == sorted(old.values())
    assert all(type(tx) is MarketTx and tx.vsize == MARKET_TX_VSIZE for tx in made)


def test_a_deep_pool_set_up_builds_one_object_per_sediment_transaction(monkeypatch):
    # the benchmark's deep pool, whose capacity binds within its sediment: each
    # sediment transaction is one MarketTx, which the pool and the log hold as it is;
    # the only others are window 1's, drawn at construction
    built = count_builds(monkeypatch, MarketTx, MempoolEntry)
    config = SimConfig(congestion_normal_count=8_000, mempool_capacity_vbytes=2_300_000)
    sim = Simulation(config, CongestionProfile.for_level(0.75, seed=3))
    sediment = sim.background.sediment()
    assert len(sediment) == sim.background.sediment_count == 5_975
    assert built == {"MarketTx": 5_975 + sim.background.flight} == {"MarketTx": 6_000}
    logged = [event[2] for event in sim.event_log]
    assert all(x is y for x, y in zip(logged, sediment, strict=True))
    pooled = [entry for entry in sediment if entry.txid in sim.pool]
    assert len(pooled) == 5_750 and all(sim.pool.entries[e.txid] is e for e in pooled)


class TestSharedMarket:
    """Every load shares the market and sediment transactions, and a simulation's
    forks share its load, whatever ran in between; what they return is what a cold
    load returns."""

    SEED = 2

    class Hashed:
        """How many market txids were hashed, rather than taken from the shared
        list, since the last ``clear()``."""

        def __init__(self):
            self.clear()

        def clear(self):
            self.start = len(background._market_txids)

        def __len__(self):
            return len(background._market_txids) - self.start

    @pytest.fixture
    def builds(self):
        return self.Hashed()

    @pytest.fixture
    def cold(self):
        """Lets every held history and market transaction go, as a new process has
        none; call it again for another cold start."""
        def reset():
            harness._histories.clear()
            background._market_txids.clear()

        reset()
        return reset

    def run(self, config, tmp_path, seed=SEED, runner=run_scenario):
        """The log and result of a scenario run cold (``run_scenario``) or from
        the held histories (``warm_run``)."""
        log = tmp_path / "events.jsonl"
        result = runner(config, seed, log_path=str(log))
        return log.read_bytes(), repr(result)

    def run_cell(self, congestion, attempts, tmp_path, runner=run_scenario):
        config = ScenarioConfig(fraction=1.0, fee_rate=100, congestion=congestion,
                                attempts=attempts)
        return self.run(config, tmp_path, runner=runner)

    @staticmethod
    def load(congestion, seed=SEED, sim=SimConfig()):
        profile = CongestionProfile.for_level(congestion, seed)
        return BackgroundLoad(profile, sim.congestion_normal_count, sim.block_capacity_vbytes)

    def sediment_count(self, congestion, seed=SEED, sim=SimConfig()):
        return self.load(congestion, seed, sim).sediment_count

    def test_warm_runs_equal_cold_runs(self, builds, cold, tmp_path):
        cells = [(0.75, 2), (0.75, 2), (0.75, 10), (0.75, 2), (0.5, 5), (0.75, 5)]
        cold_runs, cold_builds = {}, {}
        for cell in dict.fromkeys(cells):
            cold()
            builds.clear()
            cold_runs[cell] = self.run_cell(*cell, tmp_path)
            cold_builds[cell] = len(builds)
        cold()
        made = []
        for cell in cells:
            builds.clear()
            assert self.run_cell(*cell, tmp_path, warm_run) == cold_runs[cell], cell
            made.append(len(builds))
        # a cold load hashes each of its txids once: the sediment, then whole windows
        for (congestion, _), built in cold_builds.items():
            assert built > self.sediment_count(congestion)
            assert (built - self.sediment_count(congestion)) % self.load(congestion).flight == 0
        # cold, hit, extension (2 then 10) hashing only the longer run's new
        # windows, shorter (10 then 2), a second level whose every txid the
        # first level hashed, and a hit on the first level after the second
        assert made[0] == cold_builds[0.75, 2] and made[1] == 0
        assert made[2] == cold_builds[0.75, 10] - cold_builds[0.75, 2] > 0 and made[3] == 0
        assert cold_builds[0.5, 5] < cold_builds[0.75, 10]
        assert made[4] == 0 and made[5] == 0

    def test_a_seeds_grid_cells_replay_its_held_markets(self, builds, cold, tmp_path):
        cells = default_grid()[::7]  # 12 cells, congestion levels interleaved
        cold_runs = []
        for config in cells:
            cold()
            cold_runs.append(self.run(config, tmp_path))
        cold()
        assert [self.run(config, tmp_path, runner=warm_run) for config in cells] == cold_runs
        builds.clear()
        assert [self.run(config, tmp_path, runner=warm_run) for config in cells] == cold_runs
        assert len(builds) == 0

    def test_sediment_transactions_are_shared_across_seeds_and_levels(self, cold):
        # their txids are: each entry carries its own load's fee
        def sediment(congestion, seed):
            sim = Simulation(SimConfig(), CongestionProfile.for_level(congestion, seed))
            txs = [event[2] for event in sim.event_log if event[0] == "submit"]
            assert len(txs) == self.sediment_count(congestion, seed)
            return txs

        loads = [sediment(level, seed) for seed in (1, 2) for level in (0.5, 0.75)]
        # and window 1's, drawn at construction
        assert len(background._market_txids) == self.sediment_count(0.75) + self.load(0.75).flight
        for a, b in itertools.combinations(loads, 2):
            assert all(x.txid is y.txid for x, y in zip(a, b))
        assert [tx.fee for tx in loads[0]] != [tx.fee for tx in loads[2]]

    def test_a_binding_capacity_replays_across_seeds(self, cold, tmp_path):
        # a sediment larger than the pool: eviction picks among shared transactions
        config = ScenarioConfig(
            fraction=1.0, fee_rate=100, congestion=0.75, attempts=2,
            sim=SimConfig(congestion_normal_count=2000, mempool_capacity_vbytes=400_000),
        )
        sediment = self.sediment_count(0.75, sim=config.sim)
        assert sediment * MARKET_TX_VSIZE > config.sim.mempool_capacity_vbytes
        cold_runs = {}
        for seed in (4, 5):
            cold()
            cold_runs[seed] = self.run(config, tmp_path, seed)
        cold()
        for seed in (4, 5, 4):
            assert self.run(config, tmp_path, seed, warm_run) == cold_runs[seed], seed

    def test_grants_leave_every_market_txid_unchanged(self, cold):
        # bg{k}'s txid depends on k alone, however many grants came first
        profile = CongestionProfile.for_level(0.75, seed=3)

        def market_txids(grant_before):
            sim = Simulation(SimConfig())
            load = BackgroundLoad(profile, normal_count=400, block_capacity=10_150)
            txids = []
            for w in range(4):  # the sediment, then three windows
                if w in grant_before:
                    sim.grant("x", 1)
                batch = load.sediment() if w == 0 else load.market_batch(w)
                sim.submit_batch(batch)
                txids += [tx.txid for tx in batch]
            return txids

        plain = market_txids(())
        load = BackgroundLoad(profile, normal_count=400, block_capacity=10_150)
        assert len(set(plain)) == load.sediment_count + 3 * load.flight
        cold()
        assert market_txids((0, 2)) == plain  # a grant before the sediment, one between windows

    def test_market_transactions_are_shared_objects_across_seeds_and_keys(self, cold):
        # the txids are shared across loads, and each load's entries across its forks
        def submitted(congestion, seed):
            sim = Simulation(SimConfig(), CongestionProfile.for_level(congestion, seed))
            sim.run_blocks(3)
            fork = sim.fork()
            sim.run_blocks(1)
            fork.run_blocks(1)
            entries = [event[2] for event in sim.event_log if event[0] == "submit"]
            assert all(x is y for x, y in zip(entries, [e[2] for e in fork.event_log
                                                         if e[0] == "submit"], strict=True))
            return {entry.txid: entry.txid for entry in entries}

        runs = [submitted(level, seed) for seed in (1, 2) for level in (0.5, 0.75)]
        assert len({len(run) for run in runs}) == 2  # the two keys load different counts
        for a, b in itertools.combinations(runs, 2):
            small, large = sorted((a, b), key=len)
            assert small.keys() <= large.keys()
            assert all(small[txid] is large[txid] for txid in small)

    def test_a_fork_shares_its_sources_load(self, cold, tmp_path):
        # the fork draws windows 3 to 6 into the shared load, and its source then
        # reads them: both give a fresh simulation's bytes
        profile = CongestionProfile.for_level(0.75, self.SEED)
        sim = Simulation(SimConfig(), profile)
        sim.run_blocks(2)
        fork = sim.fork()
        assert fork.background is sim.background
        fresh = Simulation(SimConfig(), profile)
        logs = []
        for run, blocks in ((fork, 4), (sim, 4), (fresh, 6)):
            run.run_blocks(blocks)
            run.export_event_log(str(tmp_path / "events.jsonl"))
            logs.append((tmp_path / "events.jsonl").read_bytes())
        assert logs[0] == logs[1] == logs[2]
        # each window drawn once: the sediment and windows 1 to 7, as the fresh one drew
        assert len(sim.background.windows) == len(fresh.background.windows) == 8

    def test_one_default_grid_seed_constructs_3_loads(self, cold, monkeypatch):
        # a congestion level's first request builds the set-up the sweep holds,
        # which every cell of the level forks
        loads = []
        init = BackgroundLoad.__init__

        def counted(load, *args):
            loads.append(load)
            init(load, *args)

        monkeypatch.setattr(BackgroundLoad, "__init__", counted)
        run_sweep(default_grid(), seeds=(self.SEED,))
        assert Counter(load.profile.target_level for load in loads) == dict.fromkeys(
            CONGESTION_LEVELS, 1)


def test_sediment_draw_equals_randint():
    # 5,975 is the deep-pool sediment; the bulk draw must neither over- nor under-draw
    for count, seeds in ((0, 10), (1, 100), (300, 100), (5_975, 10)):
        for seed in range(seeds):
            fast, slow = stream(seed, "sediment"), stream(seed, "sediment")
            expected = [slow.randint(1, SEDIMENT_RATE_HI) * MARKET_TX_VSIZE
                        for _ in range(count)]
            assert list(background._draw_sediment(fast, count)) == expected, (count, seed)
            assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("level", CONGESTION_LEVELS)
@pytest.mark.parametrize("seed", [0, 7, 401])
def test_market_rates_equal_the_uniform_draw(level, seed):
    # market_batch draws ln_spread * random(), which must give the fees and times
    # that uniform(0.0, ln_spread) gave
    load = BackgroundLoad(CongestionProfile.for_level(level, seed), normal_count=400,
                          block_capacity=10_150)
    rates, times = stream(seed, "rates"), stream(seed, "times")
    for w, floor in enumerate(floor_path(load.profile, 40), start=1):
        window = load.market_batch(w)
        drawn = []
        for _ in range(load.flight):
            rate = floor * math.exp(rates.uniform(0.0, math.log(RATE_SPREAD)))
            drawn.append((BLOCK_INTERVAL * (w - 1) + BLOCK_INTERVAL * times.random(),
                          math.ceil(rate * MARKET_TX_VSIZE)))
        expected = sorted(drawn, key=lambda pair: pair[0])  # stable, as market_batch sorts
        assert [(e.arrival, e.fee) for e in window] == expected, (level, seed, w)


def assert_rates_clamped(profile: CongestionProfile, windows: int) -> None:
    """Each window's market pays at least the floor's lower clamp, and below its cap
    times the rate spread (plus the fee's rounding up to a whole satoshi)."""
    load = BackgroundLoad(profile, normal_count=400, block_capacity=10_150)
    for w in range(1, windows + 1):
        fees = [e.fee for e in load.market_batch(w)]
        assert len(fees) == load.flight
        assert profile.floor_lo * MARKET_TX_VSIZE <= min(fees), w
        assert max(fees) <= profile.floor_cap * RATE_SPREAD * MARKET_TX_VSIZE + 1, w


def test_band_profile_floor_confined():
    profile = band_profile(10, 22.5, 0.75, seed=4)
    assert (profile.floor_lo, profile.floor_cap) == (1.15 * 22.5, 1.55 * 22.5)
    assert_rates_clamped(profile, 200)


def test_level_profile_respects_hard_cap():
    profile = CongestionProfile.for_level(0.75, seed=2)
    assert profile.floor_cap <= CongestionProfile.HARD_CAP
    assert_rates_clamped(profile, 500)
    # market never outbids the top sweep fee level
    assert profile.floor_cap * RATE_SPREAD < 500


def test_a_market_output_cannot_be_spent_and_mining_goes_on(tmp_path):
    # a market entry has no outputs, whether it is pooled or mined
    sim = Simulation(SimConfig(), CongestionProfile.for_level(0.75, seed=3))
    sim.run_blocks(1)
    mined = sim.chain.blocks[-1].transactions[0]
    pooled = next(iter(sim.pool.entries.values())).tx
    for market_tx in (mined, pooled):
        assert type(market_tx) is MarketTx and market_tx.outputs == ()
        inputs = (TxInput((market_tx.txid, 0)),)
        spend = Transaction(make_txid(inputs, (), 100, tag="spend"), inputs, (), 100)
        assert sim.submit(spend).reason == ORPHAN_INPUT
    sim.run_blocks(2)
    assert sim.chain.height == 2 and all(block.transactions for block in sim.chain.blocks)
    assert sim.chain.utxo_set.utxos == {}
    log = tmp_path / "events.jsonl"
    sim.export_event_log(str(log))
    assert main(["replay", str(log)]) == 0


def test_level_scale_monotone_in_congestion():
    scales = [CongestionProfile.for_level(c, seed=0).floor_base for c in (0.25, 0.5, 0.75)]
    assert scales[0] < scales[1] < scales[2]


def test_higher_fee_never_confirms_later():
    # identical seed and schedule: only the probe's fee rate differs
    from brc20sim.chain import Transaction, TxInput, TxOutput, make_txid

    def probe_delay(rate: int, seed: int) -> float:
        sim = Simulation(SimConfig(), CongestionProfile.for_level(0.75, seed))
        sim.run_blocks(2)
        fund = sim.grant("probe", 546 + rate * 600)
        inputs = (TxInput(fund.serial),)
        outputs = (TxOutput(546, "probe"),)
        tx = Transaction(make_txid(inputs, outputs, 600, tag="probe"), inputs, outputs, 600)
        sent = sim.now
        assert sim.submit(tx).accepted
        sim.run_blocks(25)
        confirmed_at = sim.chain.confirmation_time(tx.txid)
        return float("inf") if confirmed_at is None else confirmed_at - sent

    for seed in range(5):
        delays = [probe_delay(rate, seed) for rate in (60, 120, 240, 480)]
        assert delays == sorted(delays, reverse=True) or all(
            a >= b for a, b in zip(delays, delays[1:])
        )


def congested_run(seed: int, blocks: int, after_block) -> Simulation:
    """A congested scenario with random transfers; ``after_block(sim)`` follows every block.

    Transfers at random fee rates, some below the market floor, inscribe,
    move and burn ordinals beside the market traffic.
    """
    rng = random.Random(seed)
    sim = Simulation(SimConfig(), CongestionProfile.for_level(0.75, seed))
    users = ("alice", "bob", "carol")
    for user in users:
        sim.grant(user, 50_000_000)
    sim.submit(inscription_tx(sim, "alice", deploy_inscription(TICK, 10**6, 10**6), 600, "d"))
    sim.run_blocks(1)
    after_block(sim)
    for user in users:
        sim.submit(inscription_tx(sim, user, mint_inscription(TICK, 1_000), 600, f"m-{user}"))
    for _ in range(blocks):
        if rng.random() < 0.6:
            sender, recipient = rng.sample(users, 2)
            request = TransferRequest(rng.randint(1, 400), sender, recipient,
                                      fee_rate=rng.choice((2, 40, 150, 600)))
            try:
                sim.send_transfer(request)
            except InsufficientFunds:
                sim.grant(sender, 50_000_000)
        sim.run_blocks(1)
        after_block(sim)
    return sim


class LedgerCheck:
    """Walks the mined blocks, keeping its own record of every foreground coin's value.

    After every block it checks the ledger against that record, and sat
    conservation on the foreground ledger: the granted satoshis equal the
    UTXO values plus the fees burned, the ordinals allocated equal the
    granted satoshis, and no ordinal sits in two UTXOs.  Market entries
    carry their fee and move no satoshi, so they are counted apart.
    """

    def __init__(self) -> None:
        self.coins: dict[tuple[str, int], int] = {}  # serial -> value
        self.seen_events = 0
        self.grants = 0
        self.granted = 0
        self.seen_blocks = 0
        self.burned = 0
        self.market_txs = 0

    def __call__(self, sim: Simulation) -> None:
        for kind, _, *payload in sim.event_log[self.seen_events:]:
            if kind == "grant":
                self.coins[(f"genesis-{self.grants}", 0)] = payload[-1]
                self.grants += 1
                self.granted += payload[-1]
        self.seen_events = len(sim.event_log)
        for block in sim.chain.blocks[self.seen_blocks:]:
            for tx in block.transactions:
                if type(tx) is MarketTx:
                    self.market_txs += 1
                    continue
                fee = sum(self.coins.pop(inp.outpoint) for inp in tx.inputs) - tx.output_total
                assert fee >= 0
                self.burned += fee
                for index, out in enumerate(tx.outputs):
                    if out.value:
                        self.coins[(tx.txid, index)] = out.value
        self.seen_blocks = len(sim.chain.blocks)

        ledger = sim.chain.utxo_set
        assert {s: u.value for s, u in ledger.utxos.items()} == self.coins
        held = sum(u.value for u in ledger.utxos.values())
        assert held + self.burned == self.granted == ledger._next_ordinal
        ranges = sorted((r.start, r.end) for u in ledger.utxos.values() for r in u.ordinals)
        assert all(a_end <= b_start for (_, a_end), (b_start, _) in zip(ranges, ranges[1:]))


def test_conservation_after_every_block_of_a_congested_run():
    for seed in range(3):
        check = LedgerCheck()
        sim = congested_run(seed, blocks=25, after_block=check)
        assert check.market_txs > 500 and check.burned > 0
        assert sim.indexer.state.supply_is_conserved()


def test_carries_inscription_agrees_with_a_scan_of_every_inscribed_ordinal():
    ledger = congested_run(6, blocks=25, after_block=lambda sim: None).chain.utxo_set
    assert sorted(set(ledger.inscribed)) == ledger.inscribed
    utxos = list(ledger.utxos.values())
    verdicts = [ledger.carries_inscription(u) for u in utxos]
    assert verdicts == [any(u.holds(o) for o in ledger.inscribed) for u in utxos]
    assert any(verdicts) and not all(verdicts)
    assert [ledger.copy().carries_inscription(u) for u in utxos] == verdicts


def test_market_coins_stay_off_the_ordinal_ledger():
    sim = congested_run(5, blocks=25, after_block=lambda sim: None)
    ledger = sim.chain.utxo_set
    assert ledger.utxos and not hasattr(ledger, "plain")
    assert not [u for u in ledger.utxos.values() if u.owner == MARKET_ADDRESS]
    assert sim.replay_state() == sim.indexer.state


def market_txids(sim: Simulation) -> set[str]:
    return {event[2].txid for event in sim.event_log
            if event[0] == "submit" and type(event[2]) is MarketTx}


def test_market_entries_touch_no_utxo_and_share_the_empty_receipt(monkeypatch):
    mined = []
    apply_block = Indexer.apply_block

    def keep(indexer, block, receipts):
        mined.extend(zip(block.transactions, receipts, strict=True))
        apply_block(indexer, block, receipts)

    monkeypatch.setattr(Indexer, "apply_block", keep)
    sim = congested_run(4, blocks=10, after_block=lambda sim: None)
    txids = market_txids(sim)
    assert len(txids) > 500
    assert not {serial[0] for serial in sim.chain.utxo_set.utxos} & txids
    assert [tx for tx, _ in mined] == [tx for b in sim.chain.blocks for tx in b.transactions]
    market = [receipt for tx, receipt in mined if type(tx) is MarketTx]
    assert len(market) > 250 and all(receipt is EMPTY_RECEIPT for receipt in market)
    assert all(receipt.spent for tx, receipt in mined if type(tx) is not MarketTx)


def test_the_ledger_holds_only_funded_unspent_coins(monkeypatch):
    # the ledger holds the granted coins and foreground outputs no mined
    # transaction spent, as the grants and blocks alone rebuild it; no market coin
    sims = [congested_run(2, blocks=10, after_block=lambda sim: None)]
    execute = harness.execute

    def keep(config, sim, *resumed):
        sims.append(sim)
        return execute(config, sim, *resumed)

    monkeypatch.setattr(harness, "execute", keep)
    run_scenario(ScenarioConfig(fraction=1.0, fee_rate=100, congestion=0.75, attempts=5), 7)
    for sim in sims:
        check = LedgerCheck()
        check(sim)
        assert check.coins and check.market_txs > 0
        assert not {serial[0] for serial in sim.chain.utxo_set.utxos} & market_txids(sim)
