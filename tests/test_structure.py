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
