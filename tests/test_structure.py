"""Module structure: the block step, and each fixed fact of the model, live in one place."""

import ast
import dataclasses
import importlib
import json
import pkgutil
from collections import Counter
from pathlib import Path

from scenario_tools import pinned_transfer

import brc20sim
from brc20sim.cli import REPLAY_FIELDS
from brc20sim.sim import SETTINGS
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


def test_only_the_simulation_runs_the_pool():
    runs = callers("mine_block", "tick_expiry", "Mempool", "submit_batch")
    assert runs <= {"sim.py", "mempool.py"}


def test_only_the_simulation_and_replay_feed_the_indexer():
    assert callers("apply_block") <= {"sim.py", "indexer.py"}


def test_background_traffic_stays_off_the_ordinal_ledger():
    # market and sediment coins are value-only: the load calls no grant
    # function, the simulation hands it ``fund``, only the simulation funds
    # coins in the ledger, and only the chain runs the ordinal pass
    assert not {name for name in called_names(SRC / "background.py") if name and "grant" in name}
    funded_on = {
        path.name: {
            ast.unparse(node.func.value)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "fund"
        }
        for path in SRC.glob("*.py")
    }
    # UtxoSet.fund is called in sim.py alone; `brc20sim replay` funds through its Simulation
    assert {name: on for name, on in funded_on.items() if on} == {
        "sim.py": {"self.chain.utxo_set", "genesis"}, "cli.py": {"sim"}}
    tree = ast.parse((SRC / "sim.py").read_text(encoding="utf-8"))
    handed = [
        node.args[0].attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) in ("sediment", "market_batch")
    ]
    assert handed == ["fund", "fund"]
    assert callers("assign_ordinals") == {"chain.py"}


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
    # market transaction bg{k} spends the k-th funded coin by name, so the
    # name's format is written in one place, apart from the grants'
    written = [
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.startswith("fund-")
    ]
    assert written == ["chain.py"]


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
    # is the header or a kind replay reads, with each field it reads, typed
    sim, bundle, pending = pinned_transfer()
    recovery = build_recovery(
        pending, sim.chain.utxo_set, "alice", fee_rate=404, exclude=set(sim.pool.spends),
    )
    assert bundle.tx2.txid in sim.submit(recovery).replaced
    sim.run_blocks(1)
    log = tmp_path / "recovery.jsonl"
    sim.export_event_log(str(log))
    header, *events = [json.loads(line) for line in log.read_text().splitlines()]
    assert header == {"event": "header", "config": {n: getattr(sim.config, n) for n in SETTINGS}}
    assert len(events) == len(sim.event_log)
    assert {event["event"] for event in events} == set(REPLAY_FIELDS)
    for event in events:
        for key, types in REPLAY_FIELDS[event["event"]].items():
            assert type(event[key]) in types, (event, key)


def test_only_the_background_names_its_market_key_and_tapes():
    # which loads share a market is one module's decision: no other module
    # keys work by market, or reaches into the held tapes and sediment
    private = {"market_key", "_held", "_market_txs"}
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
