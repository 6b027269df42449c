"""Spans around calls into each brc20sim layer, and the per-layer metrics they give.

``traced(tracer)`` replaces every name a caller looks up for the functions
below with a wrapper that records one span: name, parent span, start and end.
Module globals are patched where callers resolve them at call time
(``brc20sim.chain.assign_ordinals``, ``build_transfer`` as imported into
``attack`` and ``harness``), methods on their class.  Leaving the block
restores the originals.  Spans stay in memory until ``Tracer.write`` dumps
them once the run is over.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded and nested, so children never overlap and
self time is exact.  A layer is the prefix of a span name before the first dot.
"""

from __future__ import annotations

import functools
import gzip
import math
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import program  # noqa: F401  (puts the checkout's src on sys.path)
from brc20sim import attack, background, chain, cli, harness, indexer, mempool, sim, wallet

ITEM = "bench.item"  # root span the benchmark opens around each measured item
LAYERS = ("chain", "indexer", "mempool", "background", "wallet", "attack", "sim", "harness", "cli")


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish(idx)

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """Dump every span as gzipped CSV: index, parent, name, start_us, end_us."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,parent,name,start_us,end_us\n")
            for i in range(len(self)):
                fh.write(
                    f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{(self.start[i] - origin) * 1e6:.3f},{(self.end[i] - origin) * 1e6:.3f}\n"
                )


# -- patch table -------------------------------------------------------------


@dataclass(frozen=True)
class Patch:
    owner: object  # module or class whose attribute callers look up
    attr: str
    span: str
    pre: Callable | None = None  # (args) -> value, taken before the call
    post: Callable | None = None  # (counts, args, result, pre_value)


def _submit_post(counts, args, result, _pre):
    counts["mempool.submit.accepted"] += bool(result.accepted)


def _evict_post(counts, args, result, _pre):
    counts["mempool.evicted"] += len(result)


def _pool_size(args):
    return len(args[0].entries)


def _mine_post(counts, args, block, pool_entries):
    counts["mempool.mine_block.pool_entries"] += pool_entries
    counts["mempool.mine_block.selected"] += len(block.transactions)


def _generated_post(counts, args, result, _pre):
    counts["background.txs_generated"] += len(result)


def _utxo_set_size(args):
    # coin selection walks the whole set (UtxoSet.owned_by) on every call
    return len(args[1].utxos)


def _build_post(counts, args, result, scanned):
    counts["wallet.build_transfer.utxos_scanned"] += scanned


def _execute_post(counts, args, outcome, _pre):
    counts["attack.attempts_launched"] += sum(r.tx1 is not None for r in outcome.per_attempt)


def patches() -> list[Patch]:
    return [
        Patch(harness, "run_scenario", "harness.run_scenario"),
        Patch(harness, "run_sweep", "harness.run_sweep"),
        Patch(sim.Simulation, "__init__", "sim.setup"),
        Patch(sim.Simulation, "grant", "sim.grant"),
        Patch(sim.Simulation, "run_until", "sim.run_until"),
        Patch(sim.Simulation, "export_event_log", "sim.export_event_log"),
        Patch(chain.UtxoSet, "apply_transaction", "chain.apply_transaction"),
        Patch(chain, "assign_ordinals", "chain.assign_ordinals"),
        Patch(chain.Chain, "append_block", "chain.append_block"),
        Patch(indexer.Indexer, "apply_block", "indexer.apply_block"),
        Patch(mempool.Mempool, "submit", "mempool.submit", post=_submit_post),
        Patch(mempool.Mempool, "_enforce_capacity", "mempool.evict", post=_evict_post),
        Patch(mempool.Mempool, "mine_block", "mempool.mine_block", _pool_size, _mine_post),
        Patch(mempool.Mempool, "tick_expiry", "mempool.tick_expiry"),
        Patch(background.BackgroundLoad, "market_batch", "background.market_batch",
              post=_generated_post),
        Patch(background.BackgroundLoad, "sediment", "background.sediment",
              post=_generated_post),
        Patch(wallet, "build_transfer", "wallet.build_transfer", _utxo_set_size, _build_post),
        Patch(attack, "build_transfer", "wallet.build_transfer", _utxo_set_size, _build_post),
        Patch(harness, "build_transfer", "wallet.build_transfer", _utxo_set_size, _build_post),
        Patch(attack, "execute", "attack.execute", post=_execute_post),
        Patch(harness, "execute", "attack.execute", post=_execute_post),
        Patch(cli, "cmd_replay_log", "cli.replay"),
    ]


def _wrap(tracer: Tracer, patch: Patch, original: Callable) -> Callable:
    nid = tracer.name_id(patch.span)
    begin, finish, counts = tracer.begin, tracer.finish, tracer.counts
    pre, post = patch.pre, patch.post

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        before = pre(args) if pre is not None else None
        idx = begin(nid)
        try:
            result = original(*args, **kwargs)
        finally:
            finish(idx)
        if post is not None:
            post(counts, args, result, before)
        return result

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Install span wrappers for the block's duration, then restore the originals."""
    saved: list[tuple[object, str, object]] = []
    try:
        for patch in patches():
            original = vars(patch.owner)[patch.attr]
            saved.append((patch.owner, patch.attr, original))
            setattr(patch.owner, patch.attr, _wrap(tracer, patch, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- span arithmetic -----------------------------------------------------------


def self_times(tracer: Tracer) -> array:
    """Each span's duration minus the durations of its direct children."""
    own = array("d", (e - s for s, e in zip(tracer.start, tracer.end)))
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            own[p] -= tracer.end[i] - tracer.start[i]
    return own


@dataclass
class SpanTotals:
    calls: Counter
    total: Counter  # inclusive seconds per span name
    own: Counter  # self seconds per span name
    under: Counter  # inclusive seconds per (child name, parent name)
    setup: float  # run_scenario time before its attack.execute child starts
    covered: float  # run_scenario time covered by direct child spans


def totals(tracer: Tracer) -> SpanTotals:
    n = len(tracer.names)
    calls, total, own_by = [0] * n, [0.0] * n, [0.0] * n
    under: Counter = Counter()
    own = self_times(tracer)
    scenario = tracer.ids.get("harness.run_scenario", -1)
    execute = tracer.ids.get("attack.execute", -1)
    covered = 0.0
    execute_start: dict[int, float] = {}
    for i, nid in enumerate(tracer.name):
        dur = tracer.end[i] - tracer.start[i]
        calls[nid] += 1
        total[nid] += dur
        own_by[nid] += own[i]
        p = tracer.parent[i]
        if p >= 0:
            under[nid, tracer.name[p]] += dur
            if tracer.name[p] == scenario:
                covered += dur
                if nid == execute:
                    execute_start.setdefault(p, tracer.start[i])
    names = tracer.names
    return SpanTotals(
        calls=Counter(dict(zip(names, calls))),
        total=Counter(dict(zip(names, total))),
        own=Counter(dict(zip(names, own_by))),
        under=Counter({(names[c], names[p]): v for (c, p), v in under.items()}),
        setup=sum(began - tracer.start[p] for p, began in execute_start.items()),
        covered=covered,
    )


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the ceil(q * n)-th smallest value, q in (0, 1]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(values: list[float], threshold: float) -> int:
    """Samples strictly above a percentile value."""
    return sum(v > threshold for v in values)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(main: Tracer, replay: Tracer, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics of a traced pass.

    ``main`` holds the measured items, each under a ``bench.item`` root span;
    shares are taken against their summed duration.  Counts named ``calls``
    and the like are per scenario.  ``replay`` holds the spans of the
    export-and-replay probes (the items themselves on ``log-replay``).
    """
    t = totals(main)
    r = totals(replay)
    items = t.total[ITEM]
    scenarios = t.calls["harness.run_scenario"]
    c = main.counts

    def per_call_us(name):
        return 1e6 * _ratio(t.total[name], t.calls[name])

    def per_scenario(value):
        return _ratio(value, scenarios)

    def share(name):
        return _ratio(t.own[name], items)

    m = {
        "chain.apply_transaction.calls": per_scenario(t.calls["chain.apply_transaction"]),
        "chain.apply_transaction.us_per_call": per_call_us("chain.apply_transaction"),
        "chain.apply_transaction.self_share": share("chain.apply_transaction"),
        "chain.assign_ordinals.calls": per_scenario(t.calls["chain.assign_ordinals"]),
        "chain.assign_ordinals.us_per_call": per_call_us("chain.assign_ordinals"),
        "chain.append_block.us_per_call": per_call_us("chain.append_block"),
        "indexer.apply_block.us_per_call": per_call_us("indexer.apply_block"),
        "indexer.apply_block.self_share": share("indexer.apply_block"),
        "indexer.shadow_apply_share": _ratio(
            t.under["chain.apply_transaction", "indexer.apply_block"],
            t.total["chain.apply_transaction"],
        ),
        "mempool.submit.calls": per_scenario(t.calls["mempool.submit"]),
        "mempool.submit.us_per_call": per_call_us("mempool.submit"),
        "mempool.submit.accept_ratio": _ratio(c["mempool.submit.accepted"], t.calls["mempool.submit"]),
        "mempool.evicted": per_scenario(c["mempool.evicted"]),
        "mempool.evict.self_share": share("mempool.evict"),
        "mempool.mine_block.calls": per_scenario(t.calls["mempool.mine_block"]),
        "mempool.mine_block.us_per_call": per_call_us("mempool.mine_block"),
        "mempool.mine_block.self_share": share("mempool.mine_block"),
        "mempool.mine_block.pool_entries_mean": _ratio(
            c["mempool.mine_block.pool_entries"], t.calls["mempool.mine_block"]
        ),
        "mempool.mine_block.selected_per_entry": _ratio(
            c["mempool.mine_block.selected"], c["mempool.mine_block.pool_entries"]
        ),
        "mempool.tick_expiry.us_per_call": per_call_us("mempool.tick_expiry"),
        "background.market_batch.calls": per_scenario(t.calls["background.market_batch"]),
        "background.market_batch.us_per_call": per_call_us("background.market_batch"),
        "background.sediment.ms_per_call": per_call_us("background.sediment") / 1e3,
        "background.txs_generated": per_scenario(c["background.txs_generated"]),
        "wallet.build_transfer.calls": per_scenario(t.calls["wallet.build_transfer"]),
        "wallet.build_transfer.us_per_call": per_call_us("wallet.build_transfer"),
        "wallet.build_transfer.utxos_scanned_mean": _ratio(
            c["wallet.build_transfer.utxos_scanned"], t.calls["wallet.build_transfer"]
        ),
        "attack.execute.self_share": share("attack.execute"),
        "attack.attempts_launched": per_scenario(c["attack.attempts_launched"]),
        "sim.grant.calls": per_scenario(t.calls["sim.grant"]),
        "sim.grant.us_per_call": per_call_us("sim.grant"),
        "sim.run_until.self_share": share("sim.run_until"),
        "sim.setup_share": _ratio(t.setup, t.total["harness.run_scenario"]),
        "cli.replay.ms_per_log": 1e3 * _ratio(r.total["cli.replay"], r.calls["cli.replay"]),
        "cli.replay.events_per_log": _ratio(replay.counts["cli.replay.events"], r.calls["cli.replay"]),
        "sim.export_event_log.ms_per_log": 1e3 * _ratio(
            r.total["sim.export_event_log"], r.calls["sim.export_event_log"]
        ),
        "harness.trace_coverage": _ratio(t.covered, t.total["harness.run_scenario"]),
        "trace.overhead_pct": 100.0 * (_ratio(traced_s, untraced_s) - 1.0),
    }
    for layer in LAYERS:
        own = sum(v for name, v in t.own.items() if name.split(".", 1)[0] == layer)
        m[f"layer.{layer}.self_share"] = _ratio(own, items)
    return m
