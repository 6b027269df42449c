"""Module structure: the block step lives in one place."""

import ast
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
