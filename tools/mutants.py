"""One-line mutants of the model's rules, each of which the tests must kill.

Usage (from the checkout root)::

    python3 tools/mutants.py                      # every mutant
    python3 tools/mutants.py mint-limit p95-rank  # the named ones

Each mutant is a name, a file under ``src/brc20sim``, the one text it replaces
(which must occur exactly once there), the text it puts in its place, and the
test files expected to kill it.  The runner first runs every listed test file
on an unmutated copy, which must pass, so that a kill is the mutant's doing.
Then, for each mutant, it copies ``src`` and ``tests`` into a temporary
directory, applies the one edit and runs ``pytest -x`` on the mutant's test
files there, at most two mutants at a time.  It prints one JSON line per
mutant, in list order: its name, whether it was killed, the first failing
test (or ``"timeout"``), and the seconds it took.  It exits 1 if any mutant
survived, and 2, running none, if the list is faulty or the unmutated copy
fails.  Standard library and pytest only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # a mutant that makes a loop run on is killed by the clock
JOBS = 2  # mutants run at a time


class Mutant(NamedTuple):
    name: str
    file: str  # under src/brc20sim
    old: str
    new: str
    tests: tuple[str, ...]  # under tests/


MUTANTS = (
    # BIP125 and Bitcoin Core's replacement rules
    Mutant("bip125-rule2-new-unconfirmed-parent", "mempool.py",
           "if depends_on and not depends_on <= {", "if False and not depends_on <= {",
           ("test_mempool.py",)),
    Mutant("bip125-rule4-relay-on-top", "mempool.py",
           "if fee - evicted_fees < MIN_RELAY_FEE_RATE * tx.vsize:",
           "if fee - evicted_fees < 0:", ("test_mempool.py",)),
    Mutant("bip125-rule5-eviction-cap", "mempool.py",
           "if len(evicted) > MAX_REPLACEMENT_EVICTIONS:",
           "if len(evicted) > MAX_REPLACEMENT_EVICTIONS + 1:", ("test_mempool.py",)),
    Mutant("core-feerate-rule", "mempool.py",
           "if any(fee * self.entries[c].tx.vsize <= self.entries[c].fee * tx.vsize",
           "if any(fee * self.entries[c].tx.vsize < self.entries[c].fee * tx.vsize",
           ("test_mempool.py",)),
    # the pool's admission, expiry, eviction and mining
    Mutant("batch-relay-floor", "mempool.py",
           "if entry.fee < MIN_RELAY_FEE_RATE * vsize:", "if entry.fee < 0:",
           ("test_mempool.py",)),
    Mutant("expiry-boundary", "mempool.py",
           "if now - entry.arrival > EXPIRY", "if now - entry.arrival >= EXPIRY",
           ("test_mempool.py",)),
    Mutant("eviction-order", "mempool.py",
           "self._by_rate = [(e.rate_key, -e.arrival, t)",
           "self._by_rate = [(e.rate_key, e.arrival, t)",
           ("test_mempool.py", "test_mempool_properties.py")),
    Mutant("mining-break-on-freed-child", "mempool.py",
           "if freed or best_vsize > remaining:", "if best_vsize > remaining:",
           ("test_mempool.py", "test_mempool_properties.py")),
    # the indexer's rules
    Mutant("first-deploy-wins", "indexer.py",
           "if op.tick in state.ticks:", "if False:", ("test_indexer.py",)),
    Mutant("mint-limit", "indexer.py",
           "if op.amt > info.lim or info.minted", "if info.minted", ("test_indexer.py",)),
    Mutant("mint-to-max-supply", "indexer.py",
           "info.minted + op.amt > info.max", "info.minted + op.amt >= info.max",
           ("test_indexer.py",)),
    Mutant("transfer-cover", "indexer.py",
           "if entry.available < op.amt or bound_ordinal", "if bound_ordinal",
           ("test_indexer.py",)),
    Mutant("fee-slice-returns-to-inscriber", "indexer.py",
           "pending.inscriber,  # fee slice", "pending.tick,  # fee slice",
           ("test_indexer.py",)),
    Mutant("protocol-alias", "indexer.py",
           "not in PROTOCOL_NAMES and proto.lower() != tick:", "not in PROTOCOL_NAMES:",
           ("test_indexer.py",)),
    Mutant("undecodable-payload-is-void", "indexer.py",
           "except (ValueError, TypeError, RecursionError):", "except (ValueError, TypeError):",
           ("test_indexer_properties.py",)),
    # scoring
    Mutant("strict-tolerance", "attack.py",
           "return any(delay > t_bar for delay in delays)",
           "return any(delay >= t_bar for delay in delays)", ("test_attack.py",)),
    Mutant("p95-rank", "harness.py",
           "rank = max(0, math.ceil(0.95 * len(ordered)) - 1)",
           "rank = max(0, math.floor(0.95 * len(ordered)) - 1)",
           ("test_harness.py",)),
    Mutant("outage-count", "harness.py",
           "for trans in samples if trans > 0)", "for trans in samples if trans >= 0)",
           ("test_harness.py", "test_attack.py")),
    Mutant("horizon-counts-the-set-up", "harness.py",
           "SETUP_S + self.horizon_s() > EXPIRY", "self.horizon_s() > EXPIRY",
           ("test_harness.py",)),
    # replay
    Mutant("replay-block-time", "cli.py",
           "if t != sim.next_block_time:", "if t > sim.next_block_time:", ("test_cli.py",)),
    Mutant("replay-block-count", "cli.py",
           "{len(sim.chain.blocks)} blocks", "{len(sim.chain.blocks) + 1} blocks",
           ("test_cli.py",)),
    Mutant("replay-event-count", "cli.py",
           "if len(sim.event_log) != events:", "if len(sim.event_log) > events:",
           ("test_cli.py",)),
    Mutant("replay-run-check", "cli.py",
           "if results == expected else", "if len(results) == len(expected) else",
           ("test_cli.py",)),
    Mutant("replay-blank-line-skip", "cli.py",
           "if line.isspace():", "if False:", ("test_cli.py",)),
    Mutant("replay-line-number", "cli.py",
           "fh, number + 1, events)", "fh, number, events)", ("test_cli.py",)),
    Mutant("replay-market-clock-upper-bound", "cli.py",
           "if not clock <= t <= sim.next_block_time:\n                raise "
           "ReplayDivergence(f\"divergence at t={t}: a market",
           "if not clock <= t:\n                raise "
           "ReplayDivergence(f\"divergence at t={t}: a market", ("test_cli.py",)),
    # settings and transaction rules
    Mutant("normal-count-ceiling", "sim.py",
           "if self.congestion_normal_count > MAX_NORMAL_COUNT:",
           "if self.congestion_normal_count > MAX_NORMAL_COUNT + 1:", ("test_cli.py",)),
    Mutant("rbf-signal-boundary", "chain.py",
           "inp.sequence <= RBF_SEQUENCE", "inp.sequence < RBF_SEQUENCE",
           ("test_chain.py", "test_wallet.py")),
    # one place for each fact: what the simulation reads from the other layers
    Mutant("foreground-pooled-reads-spends", "sim.py",
           "return bool(self.pool.spends)", "return bool(self.pool.entries)",
           ("test_attack.py",)),
    Mutant("inscribed-ordinal-listed-once", "chain.py",
           "if i == len(inscribed) or inscribed[i] != ordinal:", "if True:",
           ("test_chain.py",)),
    Mutant("window-1-drawn-at-construction", "sim.py",
           "self._arrivals = self.background.market_batch(1)", "pass",
           ("test_background.py",)),
    Mutant("transferable-balance-sampled", "sim.py",
           "self.balance_samples.append(self.indexer.balance(*self._watch)[1])",
           "self.balance_samples.append(self.indexer.balance(*self._watch)[0])",
           ("test_harness.py",)),
)

_FAILED = re.compile(r"^FAILED (\S+)", re.MULTILINE)
_ERROR = re.compile(r"^ERROR (\S+)", re.MULTILINE)


def copy_tree(into: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))


def pytest(tree: Path, tests: tuple[str, ...]) -> tuple[int | None, str]:
    """``pytest -x`` on ``tests`` in ``tree``: its exit code (None on timeout) and output."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *(f"tests/{name}" for name in tests)],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout + proc.stderr


def run_mutant(mutant: Mutant) -> dict:
    began = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        path = tree / "src" / "brc20sim" / mutant.file
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(mutant.old, mutant.new, 1), encoding="utf-8")
        code, out = pytest(tree, mutant.tests)
    if code is None:
        by = "timeout"
    else:
        found = _FAILED.search(out) or _ERROR.search(out)
        by = found[1] if found else (None if code == 0 else f"pytest exit {code}")
    return {"name": mutant.name, "killed": by is not None, "by": by,
            "seconds": round(time.monotonic() - began, 1)}


def check_list(mutants=MUTANTS) -> list[str]:
    """The problems of the list itself: an old text that does not occur exactly once
    in its file, an edit that changes nothing, a test file that is not there, or a
    name used twice."""
    problems = []
    names = [m.name for m in mutants]
    problems += [f"{name}: listed twice" for name in sorted(set(names)) if names.count(name) > 1]
    for m in mutants:
        count = (ROOT / "src" / "brc20sim" / m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.file}")
        if m.old == m.new:
            problems.append(f"{m.name}: the edit changes nothing")
        problems += [f"{m.name}: no tests/{t}" for t in m.tests
                     if not (ROOT / "tests" / t).is_file()]
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"no mutant named {', '.join(sorted(unknown))}")
    problems = check_list()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    with tempfile.TemporaryDirectory(prefix="unmutated-") as tmp:
        copy_tree(Path(tmp))
        files = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        code, out = pytest(Path(tmp), files)
    if code != 0:
        print(f"the unmutated copy fails its tests, so no kill would count:\n{out}",
              file=sys.stderr)
        return 2
    survived = 0
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for line in pool.map(run_mutant, chosen):
            print(json.dumps(line), flush=True)
            survived += not line["killed"]
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
