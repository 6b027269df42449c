"""Held histories: a fork runs apart from its source, a scenario started from a
held set-up or checkpoint gives what a cold one gives, in any order, and only
the sweep holds them."""

import dataclasses
from collections import Counter
from pathlib import Path

import pytest
from scenario_tools import count_builds, warm_run

from brc20sim import attack, background, harness
from brc20sim.attack import TARGET
from brc20sim.background import BackgroundLoad, CongestionProfile
from brc20sim.chain import MarketTx
from brc20sim.harness import ATTEMPT_LEVELS, ScenarioConfig, default_grid, run_scenario, run_sweep
from brc20sim.mempool import NO_PARENTS, Mempool, MempoolEntry
from brc20sim.sim import SimConfig, Simulation
from brc20sim.wallet import TX1_VSIZE, TransferRequest

GRID = default_grid()
SEEDS = (3, 8, 13)
IMMUTABLE = (str, bytes, int, float, bool, type(None))


def cold_run(config, seed, log_path=None):
    """A scenario run as in a new process: no market txid hashed yet."""
    background._market_txids.clear()
    return run_scenario(config, seed, log_path)


def held(histories=harness._histories) -> list[Simulation]:
    sims = list(histories.setups.values())
    return sims + ([histories.checkpoint.sim] if histories.checkpoint is not None else [])


# -- what a fork may share with its source --------------------------------------


def frozen(obj) -> bool:
    return dataclasses.is_dataclass(obj) and type(obj).__dataclass_params__.frozen


def may_share(obj) -> bool:
    """The allow-list: what nothing mutates once made."""
    return (
        isinstance(obj, (*IMMUTABLE, tuple, frozenset))
        or frozen(obj)  # transactions, blocks, receipts, submit results, attempt records
        # an entry with no in-pool parent: only mining a parent changes an entry,
        # and a market entry is written once, when its load builds it
        or (type(obj) in (MempoolEntry, MarketTx) and obj.depends_on is NO_PARENTS)
    )


def attributes(obj) -> dict:
    slots = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
    return {**getattr(obj, "__dict__", {}), **{name: getattr(obj, name) for name in slots}}


def reachable(root) -> dict[int, tuple[object, str]]:
    """Every object reachable from ``root`` by id, with a path to it; a background
    load is not entered."""
    found: dict[int, tuple[object, str]] = {}
    stack = [(root, "sim")]
    while stack:
        obj, path = stack.pop()
        if id(obj) in found:
            continue
        found[id(obj)] = (obj, path)
        if isinstance(obj, (*IMMUTABLE, BackgroundLoad)):
            continue
        if isinstance(obj, dict):
            stack += [(key, f"{path} key {key!r}") for key in obj]
            stack += [(value, f"{path}[{key!r}]") for key, value in obj.items()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack += [(item, f"{path}[{i}]") for i, item in enumerate(obj)]
        else:
            stack += [(value, f"{path}.{name}") for name, value in attributes(obj).items()]
    return found


def shared_mutables(source: Simulation, fork: Simulation, load_exempt: bool = True) -> list[str]:
    """Paths to the objects both reach that something could still mutate, but for
    the one object shared on purpose: the source's background load, which asks
    every reader for a window by number (unless ``load_exempt`` is false)."""
    mine, theirs = reachable(source), reachable(fork)
    return sorted(
        mine[i][1] for i in mine.keys() & theirs.keys()
        if not may_share(mine[i][0]) and not (load_exempt and mine[i][0] is source.background)
    )


def drive(sim: Simulation) -> None:
    """Steps the scenario never takes: a grant, blocks, and a transfer at another fee."""
    sim.grant(TARGET, 50_000_000)
    sim.run_blocks(2)
    sim.send_transfer(TransferRequest(1_000, sender=TARGET, recipient="elsewhere", fee_rate=700))
    sim.run_blocks(3)


class TestFork:
    CONFIG = ScenarioConfig(fraction=0.5, fee_rate=100, congestion=0.75, attempts=3)
    SEED = 1  # every attempt pins at this seed

    def test_a_fork_and_its_source_share_nothing_either_changes(self, monkeypatch, tmp_path):
        launched, forks = [], []
        launch = attack._launch_attempt

        def launch_and_fork(sim, index, amount, fee):
            record = launch(sim, index, amount, fee)
            # Tx2 waits on its unconfirmed Tx1: the kind of entry a block changes;
            # at the second launch the first Tx2 is pinned, its parent mined
            assert sim.pool.entries[record.tx2].depends_on == {record.tx1}
            assert all(r.tx2 in sim.pool and sim.chain.confirmed(r.tx1) for r in launched)
            launched.append(record)
            fork = sim.fork()
            assert set(vars(fork)) == set(vars(sim))
            assert shared_mutables(sim, fork) == []
            drive(fork)  # mines Tx1 in the fork only
            assert fork.chain.confirmed(record.tx1) and not sim.chain.confirmed(record.tx1)
            forks.append((sim, fork))
            return record

        harness._histories.clear()
        monkeypatch.setattr(attack, "_launch_attempt", launch_and_fork)
        warm = warm_run(self.CONFIG, self.SEED, log_path=str(tmp_path / "warm.jsonl"))
        monkeypatch.undo()
        assert len(forks) == self.CONFIG.attempts
        for source, fork in forks:
            drive(fork)  # again, once the source is done
            assert shared_mutables(source, fork) == []
        source.export_event_log(str(tmp_path / "source.jsonl"))

        cold = cold_run(self.CONFIG, self.SEED, log_path=str(tmp_path / "cold.jsonl"))
        assert repr(warm) == repr(cold)
        log = (tmp_path / "cold.jsonl").read_bytes()
        assert (tmp_path / "warm.jsonl").read_bytes() == log
        assert (tmp_path / "source.jsonl").read_bytes() == log

    def test_the_walk_finds_a_shared_container(self):
        # what the check above would report of a copy that forgot a container
        sim = Simulation(GRID[0].sim, CongestionProfile.for_level(0.75, self.SEED))
        sim.run_blocks(2)
        fork = sim.fork()
        assert shared_mutables(sim, fork, load_exempt=False) == ["sim.background"]
        fork.congestion_samples = sim.congestion_samples
        assert shared_mutables(sim, fork) == ["sim.congestion_samples"]


# -- warm runs against cold runs ---------------------------------------------------


@pytest.fixture(scope="module")
def cold_results():
    results = {(config, seed): cold_run(config, seed) for seed in SEEDS for config in GRID}
    harness._histories.clear()
    return results


def warm_reprs(order, logs=None) -> list[str]:
    """Each scenario of ``order`` in turn, from no held history, on the sweep's
    path; ``logs`` maps a (config, seed) pair to the path its event log is
    written to."""
    harness._histories.clear()
    logs = logs or {}
    return [repr(warm_run(config, seed, logs.get((config, seed)))) for config, seed in order]


def cold_reprs(cold_results, order) -> list[str]:
    return [repr(cold_results[key]) for key in order]


class TestWarmEqualsCold:
    def test_the_grid_in_order_with_two_logged_cells(self, cold_results, tmp_path):
        order = [(config, seed) for seed in SEEDS for config in GRID]
        # the 5-attempt cell resumes from the 2-attempt one, the 10 from the 5
        logged = [(c, SEEDS[0]) for c in GRID[-9:] if (c.fee_rate, c.congestion) == (500, 0.75)]
        logs = {key: str(tmp_path / f"warm-{key[0].attempts}") for key in logged[1:]}
        assert warm_reprs(order, logs) == cold_reprs(cold_results, order)
        for key, path in logs.items():
            cold_run(*key, log_path=str(tmp_path / "cold"))
            assert (tmp_path / "cold").read_bytes() == Path(path).read_bytes(), key

    def test_attempts_in_descending_order(self, cold_results):
        grid = default_grid(attempts=ATTEMPT_LEVELS[::-1])
        order = [(config, seed) for seed in SEEDS for config in grid]
        assert warm_reprs(order) == cold_reprs(cold_results, order)

    def test_a_repeated_cell(self, cold_results):
        row = GRID[:9]  # one fraction and fee at each congestion level
        cells = [row[0], row[0], row[1], row[2], row[1], row[0], *row[3:], row[4]]
        order = [(config, seed) for seed in SEEDS for config in cells]
        assert warm_reprs(order) == cold_reprs(cold_results, order)

    def test_seeds_interleaved(self, cold_results):
        chunks = [GRID[i:i + 4] for i in range(0, 27, 4)]
        order = [(config, seed) for chunk in chunks for seed in SEEDS for config in chunk]
        assert warm_reprs(order) == cold_reprs(cold_results, order)

    def test_fees_innermost(self, cold_results):
        # each longer attempt level follows a checkpoint of another fee
        grid = sorted(GRID, key=lambda c: (c.fraction, c.congestion, c.attempts, c.fee_rate))
        order = [(config, seed) for seed in SEEDS for config in grid]
        assert warm_reprs(order) == cold_reprs(cold_results, order)

    def test_another_sim_config_at_the_same_level(self, cold_results):
        # its set-up replaces the level's held one, which the next cell replaces back
        other = dataclasses.replace(GRID[0], sim=SimConfig(congestion_normal_count=600))
        order = [(config, SEEDS[0]) for config in (GRID[0], other, GRID[1])]
        expected = cold_reprs(cold_results, [order[0], order[2]])
        expected.insert(1, repr(cold_run(*order[1])))
        assert warm_reprs(order) == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_sweep_at_workers(self, cold_results, workers):
        # each cell's row read where execute stops, against run_scenario at the horizon
        harness._histories.clear()
        rows = run_sweep(GRID, seeds=SEEDS, workers=workers)
        expected = [
            harness._row(config, [
                (r.success, r.delays, r.pinned_pct, r.outage_s)
                for r in (cold_results[config, seed] for seed in SEEDS)
            ])
            for config in GRID
        ]
        assert rows == expected


def test_one_seed_of_the_grid_builds_3_simulations_and_mines_903_blocks(monkeypatch):
    # cell by cell, as the benchmark runs it: 81 set-ups and 2,430 blocks without
    # held histories, and 1,656 with them when every cell runs to its horizon.
    # One set-up per congestion level, held from its first request; every cell
    # leaves a checkpoint, a fork, so each longer attempt level resumes from the
    # shorter one, taking the checkpoint as it is; the 27 cells that start from
    # a set-up fork it; and each cell stops once every attempt has settled.
    counts = Counter()
    init, mine, fork = Simulation.__init__, Mempool.mine_block, Simulation.fork

    def counted_init(self, *args, **kwargs):
        counts["fresh"] += 1
        init(self, *args, **kwargs)

    def counted_mine(self, *args, **kwargs):
        counts["mined"] += 1
        return mine(self, *args, **kwargs)

    def counted_fork(self):
        counts["forks"] += 1
        return fork(self)

    monkeypatch.setattr(Simulation, "__init__", counted_init)
    monkeypatch.setattr(Mempool, "mine_block", counted_mine)
    monkeypatch.setattr(Simulation, "fork", counted_fork)
    harness._histories.clear()
    for config in GRID:
        run_sweep([config], seeds=(7,))
    assert counts == {"fresh": 3, "mined": 903, "forks": 108}  # 27 set-up starts, 81 holds
    seed_7 = held()
    assert len(seed_7) == len(harness.CONGESTION_LEVELS) + 1
    # a cell of another seed drops them, and holds its own set-up and checkpoint
    run_sweep([GRID[0]], seeds=(8,))
    assert harness._histories.seed == 8 and len(held()) == 2
    assert not {id(sim) for sim in held()} & {id(sim) for sim in seed_7}


def test_a_set_up_that_cannot_confirm_is_never_held():
    # no block has room for the deploy; asked twice, the set-up is run twice
    config = dataclasses.replace(GRID[0], sim=SimConfig(block_capacity_vbytes=TX1_VSIZE - 1))
    harness._histories.clear()
    for _ in range(2):
        with pytest.raises(harness.SetupFailed, match="set-up step 'deploy' did not confirm"):
            harness._run_cell((config, 7))
        assert harness._histories.setups == {} and held() == []


class Interrupted(Exception):
    pass


def test_a_resumed_cell_that_raises_leaves_no_checkpoint_held(monkeypatch, cold_results):
    # the cell takes the checkpoint as it is and sends a bundle before it raises:
    # nothing is held that it changed, so the cell run again starts from the
    # set-up and gives its cold result
    short, longer, seed = GRID[0], GRID[1], SEEDS[0]  # 2 and 5 attempts, one row
    harness._histories.clear()
    warm_run(short, seed)
    assert harness._histories.checkpoint.launches.records
    setups = list(harness._histories.setups.items())
    launch, launched = attack._launch_attempt, []

    def launch_then_raise_once(*args):
        record = launch(*args)
        launched.append(record)
        if len(launched) == 1:
            raise Interrupted
        return record

    monkeypatch.setattr(attack, "_launch_attempt", launch_then_raise_once)
    with pytest.raises(Interrupted):
        warm_run(longer, seed)
    assert launched[0].index == short.attempts + 1
    assert harness._histories.checkpoint is None
    assert list(harness._histories.setups.items()) == setups
    assert repr(warm_run(longer, seed)) == repr(cold_results[longer, seed])


def test_one_seed_of_the_grid_builds_520_pool_entries_and_3_275_market_entries(monkeypatch):
    # a market entry is built once per load and pooled as it is: only a
    # transaction with inputs gets a MempoolEntry (a fork's copy of one with a
    # pooled parent counts too); the 3 loads, one per congestion level, build
    # the market entries
    counts = count_builds(monkeypatch, MempoolEntry, MarketTx)
    harness._histories.clear()
    for config in GRID:
        run_sweep([config], seeds=(7,))
    assert counts == {"MempoolEntry": 520, "MarketTx": 3_275}


def test_run_scenario_leaves_the_held_histories_as_it_found_them(monkeypatch):
    # it runs from a fresh set-up and forks nothing, whether or not the sweep
    # holds its seed, its set-up or a checkpoint it could resume from
    harness._histories.clear()
    for config in GRID[:4]:  # two congestion levels; the checkpoint is GRID[3]'s
        run_sweep([config], seeds=(7,))

    def state():
        h = harness._histories
        return h.seed, list(h.setups.items()), h.checkpoint, [len(s.event_log) for s in held()]

    before = state()
    forks = Counter()
    fork = Simulation.fork

    def counted_fork(self):
        forks["forks"] += 1
        return fork(self)

    monkeypatch.setattr(Simulation, "fork", counted_fork)
    for config, seed in ((GRID[0], 7), (GRID[4], 7), (GRID[0], 8)):
        assert repr(run_scenario(config, seed)) == repr(cold_run(config, seed))
    assert forks == {} and state() == before


def fields(entry: MarketTx) -> tuple:
    return (entry.txid, entry.fee, entry.vsize, entry.arrival, entry.rate_key, entry.key)


def test_no_market_entry_changes_while_held_histories_share_it(monkeypatch):
    # the premise on which may_share lets a fork share a market entry: nothing
    # writes to one after its load builds it
    built, forks = [], Counter()
    init, fork = MarketTx.__init__, Simulation.fork

    def recorded_init(self, *args):
        init(self, *args)
        built.append((self, fields(self)))

    def counted_fork(self):
        forks["fork"] += 1
        return fork(self)

    monkeypatch.setattr(MarketTx, "__init__", recorded_init)
    monkeypatch.setattr(Simulation, "fork", counted_fork)
    harness._histories.clear()
    # one fraction at one congestion level, run by the sweep: the level's set-up
    # is held from its first request, and each longer attempt level resumes from
    # a checkpoint
    cells = [config for config in GRID[:27] if config.congestion == 0.75]
    for seed in SEEDS[:2]:
        for config in cells:
            harness._run_cell((config, seed))
    assert forks["fork"] >= len(cells) and len(built) > 1_000
    assert [fields(entry) for entry, _ in built] == [snapshot for _, snapshot in built]
