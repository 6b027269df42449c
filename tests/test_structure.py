"""Module structure: the block step, and each fixed fact of the model, live in one place."""

import ast
import dataclasses
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import brc20sim

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
    assert callers("mine_block", "tick_expiry", "Mempool") <= {"sim.py", "mempool.py"}


def test_only_the_simulation_and_replay_feed_the_indexer():
    assert callers("apply_block") <= {"sim.py", "indexer.py"}


def test_background_traffic_stays_off_the_ordinal_ledger():
    # market and sediment coins are value-only: the load calls no grant
    # function, the simulation hands it ``fund``, and only the chain runs
    # the ordinal pass
    assert not {name for name in called_names(SRC / "background.py") if name and "grant" in name}
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
    facts = {"DUST": 546, "TX1_VSIZE": 150, "TX2_VSIZE": 600, "MARKET_TX_VSIZE": 400}
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
    assert sum(counts.values()) == 24, counts
