"""Background load calibration and determinism, and its place off the ordinal ledger."""

import itertools
import random

import pytest
from scenario_tools import band_profile

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
from brc20sim.chain import DUST, Transaction, TxInput, UtxoSet, fund_serial, make_txid
from brc20sim.cli import main
from brc20sim.harness import (
    CONGESTION_LEVELS,
    ScenarioConfig,
    default_grid,
    inscription_tx,
    run_scenario,
)
from brc20sim.indexer import deploy_inscription, mint_inscription
from brc20sim.mempool import ORPHAN_INPUT
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
    # the txid tail is formatted once, for the one market vsize; each txid
    # must still be the hash of its whole content
    load = BackgroundLoad(CongestionProfile.for_level(0.75, seed=3), normal_count=400,
                          block_capacity=10_150)
    fund = UtxoSet().fund
    made = load.sediment(fund)
    for _ in range(3):
        made += [tx for _, tx in load.market_batch(fund)]
    assert load.sediment_count and len(made) == load.sediment_count + 3 * load.flight
    tags = {fund_serial(k - 1): k for k in range(1, len(made) + 1)}  # bg{k} spends coin k
    assert sorted(tags[tx.inputs[0].outpoint] for tx in made) == sorted(tags.values())
    for tx in made:
        k = tags[tx.inputs[0].outpoint]
        assert tx.vsize == MARKET_TX_VSIZE
        assert tx.txid == make_txid(tx.inputs, tx.outputs, tx.vsize, tag=f"bg{k}")


class TestSharedMarket:
    """Loads of one market key replay one tape, and every load shares the market and
    sediment transactions, whatever was loaded in between; what they return is what
    a cold load returns."""

    SEED = 2

    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts the market transactions built rather than replayed from a tape."""
        made = []
        build = background.txid_with_tail

        def counting(*args, **kwargs):
            made.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(background, "txid_with_tail", counting)
        return made

    @pytest.fixture
    def cold(self):
        """Lets every held tape and market transaction go, as a new process has
        none; call it again for another cold start."""
        def reset():
            background._held.clear()
            background._market_txs.clear()

        reset()
        return reset

    def run(self, config, tmp_path, seed=SEED):
        log = tmp_path / "events.jsonl"
        result = run_scenario(config, seed, log_path=str(log))
        return log.read_bytes(), repr(result)

    def run_cell(self, congestion, attempts, tmp_path):
        config = ScenarioConfig(fraction=1.0, fee_rate=100, congestion=congestion,
                                attempts=attempts)
        return self.run(config, tmp_path)

    @staticmethod
    def market_key(congestion, seed=SEED, sim=SimConfig()):
        profile = CongestionProfile.for_level(congestion, seed)
        return background.market_key(
            profile, sim.congestion_normal_count, sim.block_capacity_vbytes
        )

    def sediment_count(self, congestion, seed=SEED, sim=SimConfig()):
        return self.market_key(congestion, seed, sim)[2]

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
            assert self.run_cell(*cell, tmp_path) == cold_runs[cell], cell
            made.append(len(builds))
        # a cold load builds each of its transactions once: the sediment, then
        # whole windows
        for (congestion, _), built in cold_builds.items():
            assert built > self.sediment_count(congestion)
            assert (built - self.sediment_count(congestion)) % self.market_key(congestion)[1] == 0
        # cold, hit, extension (2 then 10) building only the longer run's new
        # windows, shorter (10 then 2), a second key whose every transaction the
        # first key built, and a hit on the first key after the second
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
        assert [self.run(config, tmp_path) for config in cells] == cold_runs
        assert len(background._held) == len(CONGESTION_LEVELS)
        builds.clear()
        assert [self.run(config, tmp_path) for config in cells] == cold_runs
        assert builds == []

    def test_sediment_transactions_are_shared_across_seeds_and_levels(self, cold):
        def sediment(congestion, seed):
            sim = Simulation(SimConfig(), CongestionProfile.for_level(congestion, seed))
            txs = [event[2] for event in sim.event_log if event[0] == "submit"]
            assert len(txs) == self.sediment_count(congestion, seed)
            return txs

        loads = [sediment(level, seed) for seed in (1, 2) for level in (0.5, 0.75)]
        assert len(background._market_txs) == self.sediment_count(0.75)
        for a, b in itertools.combinations(loads, 2):
            assert all(x is y for x, y in zip(a, b))

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
            assert self.run(config, tmp_path, seed) == cold_runs[seed], seed

    def test_grants_leave_every_market_txid_unchanged(self, cold):
        # bg{k} spends the k-th funded coin, however many grants came first
        profile = CongestionProfile.for_level(0.75, seed=3)

        def market_txids(grant_before):
            sim = Simulation(SimConfig())
            load = BackgroundLoad(profile, normal_count=400, block_capacity=10_150)
            txids = []
            for batch in range(4):  # the sediment, then three windows
                if batch in grant_before:
                    sim.grant("x", 1)
                txs = (load.sediment(sim.fund) if batch == 0
                       else [tx for _, tx in load.market_batch(sim.fund)])
                txids += [tx.txid for tx in txs]
            return txids

        plain = market_txids(())
        _, flight, sediment = background.market_key(profile, 400, 10_150)
        assert len(set(plain)) == sediment + 3 * flight
        cold()
        assert market_txids((0, 2)) == plain  # a grant before the sediment, one between windows

    def test_market_transactions_are_shared_objects_across_seeds_and_keys(self, cold):
        def submitted(congestion, seed):
            sim = Simulation(SimConfig(), CongestionProfile.for_level(congestion, seed))
            sim.run_blocks(3)
            return {event[2].txid: event[2] for event in sim.event_log if event[0] == "submit"}

        runs = [submitted(level, seed) for seed in (1, 2) for level in (0.5, 0.75)]
        assert len({len(run) for run in runs}) == 2  # the two keys load different counts
        for a, b in itertools.combinations(runs, 2):
            small, large = sorted((a, b), key=len)
            assert small.keys() <= large.keys()
            assert all(small[txid] is large[txid] for txid in small)

    def test_another_seed_drops_the_held_tapes(self, cold):
        for level in CONGESTION_LEVELS:
            Simulation(SimConfig(), CongestionProfile.for_level(level, seed=1))
        assert len(background._held) == len(CONGESTION_LEVELS)
        market = list(background._market_txs)
        Simulation(SimConfig(), CongestionProfile.for_level(0.5, seed=2))
        assert [profile.seed for profile, _, _ in background._held] == [2]
        assert all(a is b for a, b in zip(background._market_txs, market, strict=True))

    def test_a_simulation_without_a_market_keeps_the_tapes(self, cold):
        for level in CONGESTION_LEVELS:
            Simulation(SimConfig(), CongestionProfile.for_level(level, seed=1))
        held, market = dict(background._held), list(background._market_txs)
        assert held and market
        Simulation(SimConfig())  # as `brc20sim replay` builds one
        assert background._held == held and background._market_txs == market


def test_sediment_draw_equals_randint():
    # 5,975 is the deep-pool sediment; the bulk draw must neither over- nor under-draw
    for count, seeds in ((0, 10), (1, 100), (300, 100), (5_975, 10)):
        for seed in range(seeds):
            fast, slow = stream(seed, "sediment"), stream(seed, "sediment")
            expected = [slow.randint(1, SEDIMENT_RATE_HI) * MARKET_TX_VSIZE + DUST
                        for _ in range(count)]
            assert list(background._draw_sediment(fast, count)) == expected, (count, seed)
            assert fast.getstate() == slow.getstate()


def test_band_profile_floor_confined():
    profile = band_profile(10, 22.5, 0.75, seed=4)
    load = BackgroundLoad(profile, normal_count=400, block_capacity=10_150)
    fund = UtxoSet().fund
    load.sediment(fund)
    for _ in range(200):
        load.market_batch(fund)
        assert 1.15 * 22.5 <= load.floor <= 1.55 * 22.5


def test_level_profile_respects_hard_cap():
    profile = CongestionProfile.for_level(0.75, seed=2)
    assert profile.floor_cap <= CongestionProfile.HARD_CAP
    load = BackgroundLoad(profile, normal_count=400, block_capacity=10_150)
    fund = UtxoSet().fund
    load.sediment(fund)
    for _ in range(500):
        load.market_batch(fund)
        assert profile.floor_lo <= load.floor <= profile.floor_cap
    # market never outbids the top sweep fee level
    assert profile.floor_cap * RATE_SPREAD < 500


def test_a_market_output_cannot_be_spent_and_mining_goes_on(tmp_path):
    # a market transaction's outputs leave the model, whether it is pooled or mined
    sim = Simulation(SimConfig(), CongestionProfile.for_level(0.75, seed=3))
    sim.run_blocks(1)
    mined = sim.chain.blocks[-1].transactions[0]
    pooled = next(iter(sim.pool.entries.values())).tx
    for market_tx in (mined, pooled):
        assert market_tx.outputs[0].owner == MARKET_ADDRESS
        inputs = (TxInput((market_tx.txid, 0)),)
        spend = Transaction(make_txid(inputs, (), 100, tag="spend"), inputs, (), 100)
        assert sim.submit(spend).reason == ORPHAN_INPUT
    sim.run_blocks(2)
    assert sim.chain.height == 2 and all(block.transactions for block in sim.chain.blocks)
    assert sim.chain.utxo_set.plain == unspent_funds(sim)
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


def unspent_funds(sim: Simulation) -> dict[tuple[str, int], int]:
    """The funded coins, by the simulation's event log, that no mined transaction spent."""
    funded = {event[2]: event[3] for event in sim.event_log if event[0] == "fund"}
    for block in sim.chain.blocks:
        for tx in block.transactions:
            for inp in tx.inputs:
                funded.pop(inp.outpoint, None)
    return funded


class LedgerCheck:
    """Walks the mined blocks, keeping its own record of every coin's value and kind.

    After every block it checks the two conservation identities:
    - ordinal ledger: UTXO values plus burned satoshis equal the allocated
      ordinals, and no ordinal sits in two UTXOs;
    - value-only coins: the value funded equals the funded coins still
      unspent, plus the fees of mined value-only transactions, plus the
      value their outputs paid out of the model.
    """

    def __init__(self) -> None:
        self.coins: dict[tuple[str, int], tuple[int, bool]] = {}  # serial -> (value, plain)
        self.seen_events = 0
        self.grants = 0
        self.funded = 0
        self.seen_blocks = 0
        self.burned = 0
        self.plain_fees = 0
        self.paid_out = 0  # by value-only transactions' outputs, which make no coin
        self.plain_txs = 0

    def __call__(self, sim: Simulation) -> None:
        for kind, _, *payload in sim.event_log[self.seen_events:]:
            if kind == "grant":
                self.coins[(f"genesis-{self.grants}", 0)] = (payload[-1], False)
                self.grants += 1
            elif kind == "fund":
                serial, value = payload
                self.coins[serial] = (value, True)
                self.funded += value
        self.seen_events = len(sim.event_log)
        for block in sim.chain.blocks[self.seen_blocks:]:
            for tx in block.transactions:
                spent = [self.coins.pop(inp.outpoint) for inp in tx.inputs]
                plain = spent[0][1]
                assert all(kind == plain for _, kind in spent)
                fee = sum(value for value, _ in spent) - tx.output_total
                assert fee >= 0
                if plain:
                    self.plain_fees += fee
                    self.paid_out += tx.output_total
                    self.plain_txs += 1
                    continue
                self.burned += fee
                for index, out in enumerate(tx.outputs):
                    if out.value:
                        self.coins[(tx.txid, index)] = (out.value, False)
        self.seen_blocks = len(sim.chain.blocks)

        ledger = sim.chain.utxo_set
        assert ledger.plain == {s: v for s, (v, plain) in self.coins.items() if plain}
        assert {s: u.value for s, u in ledger.utxos.items()} == {
            s: v for s, (v, plain) in self.coins.items() if not plain
        }
        held = sum(u.value for u in ledger.utxos.values())
        assert held + self.burned == ledger._next_ordinal
        ranges = sorted((r.start, r.end) for u in ledger.utxos.values() for r in u.ordinals)
        assert all(a_end <= b_start for (_, a_end), (b_start, _) in zip(ranges, ranges[1:]))
        assert self.funded == sum(ledger.plain.values()) + self.plain_fees + self.paid_out


def test_conservation_after_every_block_of_a_congested_run():
    for seed in range(3):
        check = LedgerCheck()
        sim = congested_run(seed, blocks=25, after_block=check)
        assert check.plain_txs > 500 and check.burned > 0
        assert sim.indexer.state.supply_is_conserved()


def test_carries_inscription_agrees_with_a_scan_of_every_inscribed_ordinal():
    ledger = congested_run(6, blocks=25, after_block=lambda sim: None).chain.utxo_set
    assert sorted(ledger.inscribed) == ledger._inscribed_sorted
    utxos = list(ledger.utxos.values())
    verdicts = [ledger.carries_inscription(u) for u in utxos]
    assert verdicts == [any(u.holds(o) for o in ledger.inscribed) for u in utxos]
    assert any(verdicts) and not all(verdicts)
    assert [ledger.copy().carries_inscription(u) for u in utxos] == verdicts


def test_market_coins_stay_off_the_ordinal_ledger():
    sim = congested_run(5, blocks=25, after_block=lambda sim: None)
    ledger = sim.chain.utxo_set
    assert ledger.plain and ledger.utxos
    assert not [u for u in ledger.utxos.values() if u.owner == MARKET_ADDRESS]
    assert sim.replay_state() == sim.indexer.state


def test_the_ledger_holds_only_funded_unspent_coins(monkeypatch):
    sims = [congested_run(2, blocks=10, after_block=lambda sim: None)]
    execute = harness.execute

    def keep(config, sim):
        sims.append(sim)
        return execute(config, sim)

    monkeypatch.setattr(harness, "execute", keep)
    run_scenario(ScenarioConfig(fraction=1.0, fee_rate=100, congestion=0.75, attempts=5), 7)
    for sim in sims:
        plain = sim.chain.utxo_set.plain
        funded = [event[2] for event in sim.event_log if event[0] == "fund"]
        assert plain == unspent_funds(sim) and 0 < len(plain) < len(funded)
        # each coin is named by the very outpoint its market transaction spends
        spent = {id(tx.inputs[0].outpoint) for tx in background._market_txs}
        assert all(id(serial) in spent for serial in funded)
