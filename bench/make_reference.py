"""Regenerate ``bench/reference.json``: the expected output of every benchmark item.

Run from the checkout root after a change that alters simulation output on
purpose (and say so in CHANGES.md)::

    python3 bench/make_reference.py [--workers 2]

For each workload and each item seed below its ``table`` size it stores the
item's output digest and its number of ``Mempool.submit`` calls (the count
behind ``sim_tx_per_s``), plus the digest of the set-up warm-up scenario.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import shutil
from contextlib import contextmanager

import program
import workloads as wl
from hostspeed import Unscaled
from brc20sim.mempool import Mempool

SCRATCH = program.OUT / "make-reference"  # per-worker event logs


@contextmanager
def counting_submits():
    """Count Mempool.submit calls for the block's duration."""
    original = Mempool.submit
    calls = [0]

    def counted(self, tx, now):
        calls[0] += 1
        return original(self, tx, now)

    Mempool.submit = counted
    try:
        yield calls
    finally:
        Mempool.submit = original


def entry(task: tuple[str, int]) -> tuple[str, int, dict]:
    name, item_seed = task
    out_dir = SCRATCH / str(multiprocessing.current_process().pid)
    with counting_submits() as calls:
        item = wl.WORKLOADS[name].run_item(item_seed, out_dir, Unscaled())
    return name, item_seed, {"digest": item.digest, "submissions": calls[0]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    tasks = [(w.name, s) for w in wl.WORKLOADS.values() for s in range(w.table)]
    with multiprocessing.get_context("spawn").Pool(args.workers) as pool:
        done = pool.map(entry, tasks, chunksize=4)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    reference: dict = {name: {} for name in wl.WORKLOADS}
    for name, item_seed, values in done:
        reference[name][str(item_seed)] = values
    warm = wl.harness.run_scenario(wl.LOGGED, wl.WARMUP_SEED)
    reference["warmup"] = {"digest": wl.scenario_digest(warm)}
    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")


if __name__ == "__main__":
    main()
