"""The benchmark's workloads, their inputs and their correctness gates.

Every workload is a closed loop of *items* run back to back by one client
through brc20sim's public API.  Item ``k`` of a run with seed ``n`` uses the
item seed ``(n * stride + k) % table``; ``reference.json`` holds, for each
item seed, the sha256 of the item's output and the number of
``Mempool.submit`` calls it makes.  ``make_reference.py`` regenerates it.

* ``sweep``: the 81-cell ``default_grid()`` at ``workers=1`` for one scenario
  seed, as 81 single-cell ``run_sweep`` calls (each call's time is one
  scenario latency); the gate is the sha256 of the joined sweep CSV.
* ``deep-pool``: one ``run_scenario`` on a ~6,000-entry pool whose capacity
  binds; the gate is the sha256 of ``(success, delays, pinned_pct, outage_s)``.
* ``log-replay``: one scenario with its event log exported, then
  ``cli.main(["replay", log])``; the gate is exit code 0, the printed
  submission/block counts against the log's own, and the sha256 of the result
  with those counts.

``sweep`` and ``deep-pool`` also export and replay scenarios of the grid's
``LOGGED`` cell between items (``probe_configs``), so that every workload
reports the replay metrics; those probes are not part of the item times.  On
``deep-pool`` these replays are a control: its pool depth does not reach them.
A ``deep-pool`` run also replays one deep-pool log, untimed, as a gate.

Every timed segment (a scenario, a group of sweep cells, a scenario with its
replay) is followed by a ``HostSpeed.scale()`` probe, and the segment's times
are scaled to the reference host speed (see ``hostspeed.py``); ``raw_s``
keeps the unscaled item time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import program  # noqa: F401  (puts the checkout's src on sys.path)
from brc20sim import cli, harness
from brc20sim.harness import ScenarioConfig
from brc20sim.sim import SimConfig
from hostspeed import Unscaled

REFERENCE = Path(__file__).resolve().parent / "reference.json"

GRID = harness.default_grid()
DEEP_POOL = ScenarioConfig(
    fraction=1.0, fee_rate=100, congestion=0.75, attempts=5,
    sim=SimConfig(congestion_normal_count=8000, mempool_capacity_vbytes=2_300_000),
)
# the `brc20sim sim` defaults: mid fee, high congestion, five attempts
LOGGED = ScenarioConfig(fraction=1.0, fee_rate=100, congestion=0.75, attempts=5)
CELLS_PER_SCALE = 9  # sweep cells timed between two host-speed probes
WARMUP_SEED = 0

_REPLAY_OK = re.compile(r"replay OK: (\d+) submissions, (\d+) blocks verified")


class GateFailure(Exception):
    """An output differs from its reference or a replay did not verify."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def scenario_digest(result, *extra) -> str:
    fields = [result.success, result.delays, result.pinned_pct, result.outage_s, *extra]
    return sha256(json.dumps(fields))


@dataclass
class ItemResult:
    seed: int
    digest: str
    scenarios: int
    scenario_s: list[float]  # one latency per scenario, scaled
    item_s: float  # time of the measured calls, scaled
    raw_s: float  # the same time, unscaled
    replay_s: list[float] = field(default_factory=list)
    replay_events: int = 0


@dataclass
class ReplayResult:
    scenario: object
    scenario_s: float  # scaled, like replay_s
    replay_s: float
    raw_s: float  # scenario plus replay, unscaled
    events: int
    submissions: int
    blocks: int


def replay_logged(config: ScenarioConfig, seed: int, out_dir: Path, speed) -> ReplayResult:
    """Run one scenario with its event log, then verify the log with ``brc20sim replay``.

    The scenario (with its export) and the replay are timed apart and both
    scaled by the ``speed`` probe that follows them; checking the log
    afterwards is not timed.  Raises GateFailure unless replay exits 0 and
    reports exactly the log's submit and mine events.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    log = out_dir / "events.jsonl"
    printed = io.StringIO()
    began = perf_counter()
    result = harness.run_scenario(config, seed, log_path=str(log))
    scenario_done = perf_counter()
    with contextlib.redirect_stdout(printed):
        code = cli.main(["replay", str(log)])
    replay_done = perf_counter()
    scale = speed.scale()
    match = _REPLAY_OK.search(printed.getvalue())
    if code != 0 or match is None:
        raise GateFailure(f"replay of seed {seed} exited {code}: {printed.getvalue()!r}")
    kinds = [json.loads(line)["event"] for line in log.read_text(encoding="utf-8").splitlines()]
    submissions, blocks = int(match[1]), int(match[2])
    if (submissions, blocks) != (kinds.count("submit"), kinds.count("mine")):
        raise GateFailure(f"replay of seed {seed} verified {submissions}/{blocks} "
                          f"of {kinds.count('submit')}/{kinds.count('mine')} events")
    return ReplayResult(result, (scenario_done - began) * scale,
                        (replay_done - scenario_done) * scale, replay_done - began,
                        len(kinds), submissions, blocks)


class Workload:
    name: str
    why: str
    stride: int  # item seeds a run of one seed may use before the next seed's
    table: int  # item seeds with a reference entry
    probe_every = 0  # export-and-replay probes follow every n-th item (0: none)
    probes = 0  # export-and-replay probes at each probe point
    scenarios_per_item = 1

    def item_seed(self, seed: int, k: int) -> int:
        return (seed * self.stride + k) % self.table

    def probes_after(self, k: int) -> bool:
        return bool(self.probe_every) and k % self.probe_every == self.probe_every - 1

    def run_item(self, item_seed: int, out_dir: Path, speed) -> ItemResult:
        raise NotImplementedError

    def probe_configs(self, item_seed: int) -> list[tuple[ScenarioConfig, int]]:
        """Probes after an item, config and scenario seed: the grid's LOGGED cell throughout,
        so that every replay sample has the same shape."""
        return [(LOGGED, item_seed * self.probes + j) for j in range(self.probes)]

    def params(self) -> dict:
        return {"stride": self.stride, "table": self.table, "probe_every": self.probe_every,
                "probes": self.probes}


class Sweep(Workload):
    name = "sweep"
    why = "the 81-cell grid users run; work spreads over chain, indexer, mempool and background"
    stride, table, probe_every, probes = 4, 32, 1, 6
    scenarios_per_item = len(GRID)

    def run_item(self, item_seed, out_dir, speed):
        rows, times, raw = [], [], 0.0
        for start in range(0, len(GRID), CELLS_PER_SCALE):
            group = []
            for cell in GRID[start:start + CELLS_PER_SCALE]:
                began = perf_counter()
                rows.extend(harness.run_sweep([cell], seeds=(item_seed,), workers=1))
                group.append(perf_counter() - began)
            scale = speed.scale()
            times.extend(t * scale for t in group)
            raw += sum(group)
        csv = harness.sweep_csv(rows)
        return ItemResult(item_seed, sha256(csv), len(GRID), times, sum(times), raw)

    def params(self):
        return {**super().params(), "cells": len(GRID), "workers": 1, "seeds_per_item": 1}


class DeepPool(Workload):
    name = "deep-pool"
    why = "a ~6,000-entry pool where eviction binds in set-up and every block, so mempool dominates"
    # a deep-pool log costs as much to make and to replay as a scenario, so the
    # timed probes use the LOGGED cell; check_logged() replays one deep-pool log
    stride, table, probe_every, probes = 24, 192, 2, 3

    def run_item(self, item_seed, out_dir, speed):
        began = perf_counter()
        result = harness.run_scenario(DEEP_POOL, item_seed)
        took = perf_counter() - began
        scaled = took * speed.scale()
        return ItemResult(item_seed, scenario_digest(result), 1, [scaled], scaled, took)

    def check_logged(self, item: ItemResult, out_dir: Path) -> None:
        """Untimed gate: logging leaves the item's result unchanged and its log replays."""
        replayed = replay_logged(DEEP_POOL, item.seed, out_dir, Unscaled())
        if scenario_digest(replayed.scenario) != item.digest:
            raise GateFailure(f"logging changed the deep-pool result of seed {item.seed}")

    def params(self):
        return {**super().params(), "scenario": describe(DEEP_POOL)}


class LogReplay(Workload):
    name = "log-replay"
    why = "event-log writes and JSON export beside a replay that re-mines through mempool and chain only"
    stride, table = 128, 1024

    def run_item(self, item_seed, out_dir, speed):
        replayed = replay_logged(LOGGED, item_seed, out_dir, speed)
        took = replayed.scenario_s + replayed.replay_s
        digest = scenario_digest(replayed.scenario, replayed.submissions, replayed.blocks)
        return ItemResult(item_seed, digest, 1, [took], took, replayed.raw_s,
                          [replayed.replay_s], replayed.events)

    def params(self):
        return {**super().params(), "scenario": describe(LOGGED)}


WORKLOADS = {w.name: w for w in (Sweep(), DeepPool(), LogReplay())}


def describe(config: ScenarioConfig) -> dict:
    return {
        "fraction": config.fraction, "fee": config.fee_rate,
        "congestion": config.congestion, "attempts": config.attempts,
        "congestion_normal_count": config.sim.congestion_normal_count,
        "mempool_capacity_vbytes": config.sim.mempool_capacity_vbytes,
    }


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check_item(reference: dict, workload: str, item: ItemResult) -> None:
    expected = reference[workload][str(item.seed)]["digest"]
    if item.digest != expected:
        raise GateFailure(f"{workload} item seed {item.seed}: digest {item.digest[:16]} "
                          f"!= reference {expected[:16]}")


def submissions(reference: dict, workload: str, item_seed: int) -> int:
    return reference[workload][str(item_seed)]["submissions"]


def set_up(reference: dict) -> None:
    """The set-up gates: the scripted incident replay and one warm-up scenario.

    Raises GateFailure (or whatever the program raises) on any mismatch.
    """
    transcript = harness.run_binance_replay()
    bad = [row["step"] for row in transcript if not row["ok"]]
    if bad or not transcript:
        raise GateFailure(f"incident replay steps failed: {bad}")
    warm = harness.run_scenario(LOGGED, WARMUP_SEED)
    if scenario_digest(warm) != reference["warmup"]["digest"]:
        raise GateFailure("warm-up scenario digest differs from the reference")

