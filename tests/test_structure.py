"""Module structure: the block step, and each fixed fact of the model, live in one place."""

import ast
import dataclasses
import importlib
import json
import pkgutil
from collections import Counter
from pathlib import Path

import pytest
from scenario_tools import pinned_transfer

import brc20sim
from brc20sim.background import BackgroundLoad, CongestionProfile
from brc20sim.chain import Block, UtxoSet
from brc20sim.cli import MARKET_FIELDS, REPLAY_FIELDS
from brc20sim.mempool import Mempool
from brc20sim.sim import SETTINGS, SimConfig, Simulation
from brc20sim.wallet import build_recovery

SRC = Path(brc20sim.__file__).resolve().parent


def called_names(path: Path) -> set[str]:
    """Names of the functions and methods a module calls."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    return names


def callers(*names: str) -> set[str]:
    return {
        path.name for path in SRC.glob("*.py") if called_names(path) & set(names)
    }


def runs_the_pool(source: str) -> bool:
    """Whether code calls ``mine_block``, ``tick_expiry`` or ``Mempool(...)``, or
    ``submit``/``submit_batch`` on a pool: a receiver whose last name says pool, as
    ``self.pool``, ``sim.pool``, ``pool`` or ``Mempool`` do and ``sim`` does not."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "Mempool":
            return True
        if isinstance(func, ast.Attribute):
            if func.attr in ("mine_block", "tick_expiry", "Mempool"):
                return True
            receiver = getattr(func.value, "attr", getattr(func.value, "id", ""))
            if func.attr in ("submit", "submit_batch") and "pool" in receiver.lower():
                return True
    return False


@pytest.mark.parametrize("call, runs", [
    ("sim.pool.submit(tx, 0.0)", True),
    ("self.pool.submit_batch(txs, times)", True),
    ("pool.submit_batch(txs, times)", True),
    ("Mempool.submit(pool, tx, 0.0)", True),
    ("mempool.Mempool(config, chain)", True),
    ("Mempool(config, chain)", True),
    ("sim.pool.mine_block(600.0)", True),
    ("sim.pool.tick_expiry(600.0)", True),
    ("sim.submit(tx, 0.0)", False),
    ("sim.submit_batch(txs, times)", False),
    ("self.submit_batch(txs, times)", False),
])
def test_the_pool_check_tells_the_simulations_door_from_the_pools(call, runs):
    assert runs_the_pool(call) is runs


def test_only_the_simulation_runs_the_pool():
    # the simulation's submit and submit_batch are the doors (replay uses both);
    # the pool's own are called in sim.py and mempool.py alone
    runs = {path.name for path in SRC.glob("*.py")
            if runs_the_pool(path.read_text(encoding="utf-8"))}
    assert runs == {"sim.py", "mempool.py"}


def test_only_the_simulation_and_replay_feed_the_indexer():
    assert callers("apply_block") <= {"sim.py", "indexer.py"}


def test_background_traffic_stays_off_the_ordinal_ledger():
    # market entries carry a fee and no coin: the chain, the pool and the
    # simulation keep no value-only coin store and make no fund call, the load
    # calls into no ledger, and only the chain runs the ordinal pass
    for name in ("chain.py", "mempool.py", "sim.py", "background.py", "cli.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        named = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)}
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not {"plain", "fund", "fund_serial"} & (named | defined), name
    assert set(vars(UtxoSet())) == {"utxos", "inscribed", "_next_ordinal", "_grant_count"}
    assert not {name for name in called_names(SRC / "background.py") if name and "grant" in name}
    assert callers("assign_ordinals") == {"chain.py"}


def test_the_simulation_holds_no_fact_another_layer_holds():
    # the sent foreground is pool.spends, the window is next_block_time's, and the
    # watched balance is sampled as the one amount its reader reads
    sim = Simulation(SimConfig(), CongestionProfile.for_level(0.75, 1))
    assert set(vars(sim)) == {
        "config", "chain", "pool", "indexer", "now", "next_block_time", "_arrivals",
        "_next_arrival", "congestion_samples", "_watch", "balance_samples", "event_log",
        "background",
    }


def calls_of(name: str) -> set[tuple[str, str]]:
    """Where ``src/`` calls ``name(...)``: each call's module, and the innermost
    class or function around it, as ``Class.method``."""
    where = set()

    def visit(node, scope: str, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == name:
                    where.add((module, scope))
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner, module)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path.name)
    return where


def test_only_the_sweep_starts_from_held_histories():
    # run_scenario runs from a fresh set-up; a sweep cell alone reads and forks
    # the held set-ups and checkpoints
    assert calls_of("start") == {("harness.py", "_run_cell")}
    assert calls_of("fork") == {("harness.py", "_Histories.start"),
                                ("harness.py", "_Histories.start.hold")}


def test_each_kind_of_pool_entry_is_built_in_one_place():
    # a transaction with inputs becomes a MempoolEntry on admission; a market
    # entry is built by its load, or by replay from a log line, and pooled as it is
    assert calls_of("MempoolEntry") == {("mempool.py", "Mempool.submit")}
    assert calls_of("MarketTx") == {("background.py", "_entries"), ("cli.py", "_replay")}


def test_dust_and_transaction_sizes_are_each_set_once():
    facts = {"DUST": 546, "TX1_VSIZE": 150, "TX2_VSIZE": 600, "MARKET_TX_VSIZE": 400,
             "BLOCK_INTERVAL": 600.0, "EXPIRY": None, "MIN_RELAY_FEE_RATE": 1}  # EXPIRY = 14 * DAY
    assigned, literals = Counter(), Counter()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                assigned.update(
                    (t.id, getattr(node.value, "value", None))
                    for t in node.targets
                    if getattr(t, "id", None) in facts
                )
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                literals[node.value] += 1
    assert assigned == Counter(facts.items())
    # 400 is also the default congestion_normal_count, so only the others are counted
    assert [literals[v] for v in (546, 150, 600)] == [1, 1, 1]


def test_the_fund_serial_format_is_written_once():
    # market txid bg{k} hashes the name of the coin bg{k} once spent,
    # fund-{k - 1}, which is written in one place, apart from the grants'
    written = [
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.startswith("fund-")
    ]
    assert written == ["background.py"]


def test_settable_values_are_counted():
    # a new knob has to change this count on purpose
    classes = {
        name: obj
        for info in pkgutil.iter_modules(brc20sim.__path__)
        for name, obj in vars(importlib.import_module(f"brc20sim.{info.name}")).items()
        if isinstance(obj, type) and obj.__module__ == f"brc20sim.{info.name}"
    }
    assert {name for name in classes if name.endswith("Config")} == {"SimConfig", "ScenarioConfig"}
    configs = ("SimConfig", "ScenarioConfig", "CongestionProfile", "TransferRequest")
    counts = {name: len(dataclasses.fields(classes[name])) for name in configs}
    assert sum(counts.values()) == 19, counts


def test_no_module_reads_the_environment():
    # behaviour, market sharing included, is fixed by the code and the
    # config objects, never switched by an environment variable
    reads = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                reads.append((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [(path.name, a.name) for a in node.names if a.name in ("environ", "getenv")]
    assert reads == []


def test_the_log_writer_and_replay_share_one_vocabulary(tmp_path):
    # the simulation writes the event log and the CLI replays it: every line
    # is the header or a kind replay reads, with each field it reads, typed; a
    # submit line is a foreground one, with "tx", or a market entry's
    sim, bundle, pending = pinned_transfer()
    recovery = build_recovery(
        pending, sim.chain.utxo_set, "alice", fee_rate=404, exclude=set(sim.pool.spends),
    )
    assert bundle.tx2.txid in sim.submit(recovery).replaced
    sim.run_blocks(1)
    log = tmp_path / "recovery.jsonl"
    sim.export_event_log(str(log))
    header, *events = [json.loads(line) for line in log.read_text().splitlines()]
    assert header == {"event": "header", "config": {n: getattr(sim.config, n) for n in SETTINGS},
                      "events": len(sim.event_log)}
    assert len(events) == len(sim.event_log)
    assert {event["event"] for event in events} == set(REPLAY_FIELDS)
    market = [event["event"] == "submit" and "tx" not in event for event in events]
    assert 0 < market.count(True) < sum(event["event"] == "submit" for event in events)
    for event, is_market in zip(events, market):
        fields = MARKET_FIELDS if is_market else REPLAY_FIELDS[event["event"]]
        assert set(event) == {"event", *fields}, event
        for key, types in fields.items():
            assert type(event[key]) in types, (event, key)


def test_replay_reads_each_kinds_fields_in_a_fixed_order():
    # cli._replay unpacks each line's values by position: reordering a kind's
    # fields would have it read one field as another with every type check passed
    assert {kind: tuple(fields) for kind, fields in REPLAY_FIELDS.items()} == {
        "grant": ("t", "owner", "value"),
        "submit": ("t", "tx", "accepted", "reason"),
        "mine": ("t", "height", "txids"),
    }
    assert tuple(MARKET_FIELDS) == ("t", "txid", "fee", "vsize", "accepted", "reason")


def test_the_background_holds_no_state_but_the_market_transactions():
    # a load owns its draws and windows, and a simulation owns its load: the
    # one module-level container is the memo of bg{k}'s txid, the same in every run
    tree = ast.parse((SRC / "background.py").read_text(encoding="utf-8"))
    assigned = {
        target.id
        for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    }
    module = vars(importlib.import_module("brc20sim.background"))
    frozen = (int, float, str, bytes, tuple, frozenset)
    mutable = {
        name for name in assigned
        if not isinstance(module[name], frozen)
        and not (dataclasses.is_dataclass(module[name])
                 and type(module[name]).__dataclass_params__.frozen)
    }
    assert mutable == {"_market_txids"}


def test_only_the_background_names_its_private_names():
    # the market's internals are one module's: no other module reaches into them
    module = importlib.import_module("brc20sim.background")
    private = {name for name in vars(module) if name.startswith("_") and not name.startswith("__")}
    assert {"_market_txids", "_txids", "_entries", "_draw_sediment"} <= private
    named = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        and private & {getattr(node, a, None) for a in ("id", "attr", "name")}
    }
    assert named == {"background.py"}


def test_every_name_the_benchmark_traces_exists():
    # bench/tracing.py wraps these names by lookup; a rename in src/ should
    # fail here, not only in the benchmark's traced run
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    patches = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "patches")
    wrapped = [
        (ast.unparse(call.args[0]), call.args[1].value)
        for call in ast.walk(patches)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Patch"
    ]
    assert {("harness", "run_scenario"), ("sim.Simulation", "export_event_log"),
            ("cli", "cmd_replay_log")} <= set(wrapped)
    missing = []
    for owner_path, attr in wrapped:
        module, *rest = owner_path.split(".")
        owner = importlib.import_module(f"brc20sim.{module}")
        for name in rest:
            owner = getattr(owner, name)
        if attr not in vars(owner):  # tracing.traced() reads vars(owner)[attr]
            missing.append(f"{owner_path}.{attr}")
    assert missing == []


def test_the_shapes_the_benchmark_counts_hold(monkeypatch):
    # bench/tracing.py's post hooks count what these calls return: a change of
    # return shape should fail here, not skew the traced counts unseen
    returned = {}

    def recording(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            returned.setdefault(name, []).append((args[0], result))
            return result

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((BackgroundLoad, "market_batch"), (BackgroundLoad, "sediment"),
                        (Mempool, "mine_block"), (Mempool, "_enforce_capacity")):
        recording(owner, name)
    # a sediment of 275 market transactions, 110,000 vB, overfills the pool
    config = SimConfig(mempool_capacity_vbytes=100_000)
    sim = Simulation(config, CongestionProfile.for_level(0.75, seed=1))
    sim.run_blocks(3)
    assert [len(txs) == load.sediment_count > 0 for load, txs in returned["sediment"]] == [True]
    windows = [len(window) == load.flight > 0 for load, window in returned["market_batch"]]
    assert len(windows) >= 3 and all(windows)
    assert [type(block) for _, block in returned["mine_block"]] == [Block] * 3
    evicted = [txids for _, txids in returned["_enforce_capacity"]]
    assert evicted and all(type(txids) is list for txids in evicted)
    # with no replacement or expiry, every submission that is neither pooled nor
    # mined was evicted, whether accepted first or refused as mempool-full
    mined = {tx.txid for block in sim.chain.blocks for tx in block.transactions}
    gone = {event[2].txid for event in sim.event_log if event[0] == "submit"} - mined
    gone -= sim.pool.entries.keys()
    assert sorted(t for txids in evicted for t in txids) == sorted(gone) and gone
