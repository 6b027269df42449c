"""brc20sim benchmark: one closed-loop client running seeded scenarios back to back.

Usage (from the checkout root)::

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload deep-pool --seed 1 --seconds 30 --trace 1

``--trace 0`` measures with no wrapper installed and reports the end-to-end
metrics named in ``BENCHMARK.json``.  ``--trace 1`` runs the same items twice,
untraced then traced (see ``tracing.py``), checks that both give the same
output digests, and reports the per-layer metrics.  Every time is host time;
the end-to-end times are scaled to a reference host speed by the calibration
probes of ``hostspeed.py``, and the notes line gives their unscaled values.

Each run prints a manifest line, one ``metric`` line per metric with its
unit, the gate tally, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans and the full report go to
``bench/out/``.  The exit code is 0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

try:
    import program
    import tracing
    import workloads as wl
    from hostspeed import HostSpeed, Unscaled
except ImportError as exc:  # no brc20sim source tree in this checkout
    sys.exit(f"error: {exc}")

SETUP_PROBES = 5


class Gates:
    """Tally of correctness checks: each failure counts against its weight."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextlib.contextmanager
    def check(self, label: str, weight: int = 1):
        self.attempted += weight
        try:
            yield
        except Exception as exc:  # a failed gate is recorded and the run goes on
            self.failed += weight
            self.errors.append(f"{label}: {exc!r}")
            traceback.print_exc(file=sys.stderr)


def measure(workload, seed: int, seconds: float, reference: dict, gates: Gates, speed
            ) -> tuple[list[wl.ItemResult], list[wl.ReplayResult], float]:
    """Run items back to back until ``seconds`` have passed (at least one item).

    The workload's export-and-replay probes run between items and are not
    part of the item times.  Peak RSS (MB) is read before the first probe, so
    that it reflects the scenarios and not a probe's event log.
    """
    results: list[wl.ItemResult] = []
    replays: list[wl.ReplayResult] = []
    rss_mb = None
    began = perf_counter()
    for k in itertools.count():
        if k and perf_counter() - began >= seconds:
            break
        item_seed = workload.item_seed(seed, k)
        with gates.check(f"{workload.name} item {item_seed}", weight=workload.scenarios_per_item):
            item = workload.run_item(item_seed, program.OUT, speed)
            wl.check_item(reference, workload.name, item)
            results.append(item)
        if workload.probes_after(k):
            rss_mb = rss_mb or peak_rss_mb()
            replays.extend(run_probes(workload, item_seed, gates, speed))
    if rss_mb is None:
        rss_mb = peak_rss_mb()
        if workload.probe_every:  # the run ended before its first probe point
            replays.extend(run_probes(workload, item_seed, gates, speed))
    return results, replays, rss_mb


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_probes(workload, item_seed: int, gates: Gates, speed) -> list[wl.ReplayResult]:
    done = []
    for config, scenario_seed in workload.probe_configs(item_seed):
        with gates.check(f"{workload.name} replay probe {scenario_seed}"):
            done.append(wl.replay_logged(config, scenario_seed, program.OUT, speed))
    return done


def setup_seconds(workload: str, gates: Gates, speed) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters from start to the end of set-up: scaled, raw."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload]
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        began = perf_counter()
        proc = subprocess.run(cmd, cwd=program.ROOT, capture_output=True, text=True, timeout=170)
        took = perf_counter() - began
        scale = speed.scale()
        with gates.check("set-up probe"):
            if proc.returncode != 0:
                raise wl.GateFailure(f"set-up probe exited {proc.returncode}: {proc.stderr[-400:]}")
            times.append(took * scale)
            raw.append(took)
    return times, raw


def check_workers(first: wl.ItemResult, gates: Gates) -> str:
    """The sweep CSV from ``workers=2`` must be byte-identical to the ``workers=1`` one."""
    if (os.cpu_count() or 1) < 2:
        return "skipped: fewer than 2 cpus"
    with gates.check("workers=2 sweep", weight=len(wl.GRID)):
        rows = wl.harness.run_sweep(wl.GRID, seeds=(first.seed,), workers=2)
        if wl.sha256(wl.harness.sweep_csv(rows)) != first.digest:
            raise wl.GateFailure(f"workers=2 CSV differs for seed {first.seed}")
    return f"checked seed {first.seed}"


def run_untraced(workload, args, reference, gates) -> tuple[dict, dict]:
    speed = HostSpeed()
    setup_s, setup_raw = setup_seconds(workload.name, gates, speed)
    results, probes, rss_mb = measure(workload, args.seed, args.seconds, reference, gates, speed)
    notes = {}
    if workload.name == "sweep" and results:
        notes["workers_2_csv"] = check_workers(results[0], gates)
    if workload.name == "deep-pool" and results:
        with gates.check("deep-pool logged replay"):
            workload.check_logged(results[0], program.OUT)
    if any(r.replay_s for r in results):  # log-replay: the items are the replays
        replay_s = [t for r in results for t in r.replay_s]
        events = sum(r.replay_events for r in results)
    else:
        replay_s = [p.replay_s for p in probes]
        events = sum(p.events for p in probes)
    if not (results and setup_s and replay_s):
        return {}, notes

    busy = sum(r.item_s for r in results)
    latencies = [1e3 * t for r in results for t in r.scenario_s]
    p90 = tracing.percentile(latencies, 0.90)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "scenarios_per_s": sum(r.scenarios for r in results) / busy,
        "scenario_ms_p50": tracing.percentile(latencies, 0.50),
        "scenario_ms_p90": p90,
        "sim_tx_per_s": sum(wl.submissions(reference, workload.name, r.seed) for r in results) / busy,
        "peak_rss_mb": rss_mb,
        "replay_events_per_s": events / sum(replay_s),
        "replay_ms_p50": tracing.percentile([1e3 * t for t in replay_s], 0.50),
    }
    raw_busy = sum(r.raw_s for r in results)
    notes.update({
        "host_speed": speed.summary(),
        "raw_setup_s": statistics.median(setup_raw),
        "raw_scenarios_per_s": sum(r.scenarios for r in results) / raw_busy,
        "items": len(results),
        "measured_s": raw_busy,
        "scenario_samples": len(latencies),
        "scenario_samples_beyond_p90": tracing.beyond(latencies, p90),
        "replay_samples": len(replay_s),
        "setup_samples": len(setup_s),
    })
    return metrics, notes


def run_traced(workload, args, reference, gates) -> tuple[dict, dict]:
    """Half the time untraced, then the same items traced; the traced outputs must match.

    Per-layer times are unscaled: no calibration probe runs inside a traced
    item.  For the overhead, each traced item is scaled as a whole by a probe
    taken after its span closes.
    """
    plain, _, _ = measure(workload, args.seed, args.seconds / 2, reference, gates, HostSpeed())
    if not plain:
        return {}, {}
    main, replay = tracing.Tracer(), tracing.Tracer()
    traced, traced_s = [], 0.0
    speed = HostSpeed()
    with tracing.traced(main):
        for item in plain:
            with gates.check(f"traced {workload.name} item {item.seed}",
                             weight=workload.scenarios_per_item):
                with main.span(tracing.ITEM):
                    again = workload.run_item(item.seed, program.OUT, Unscaled())
                scale = speed.scale()
                main.counts["cli.replay.events"] += again.replay_events
                if again.digest != item.digest:
                    raise wl.GateFailure(f"tracing changed the output of item {item.seed}")
                traced.append(again)
                traced_s += again.raw_s * scale
    if not traced:
        return {}, {}
    if workload.probe_every:
        points = [k for k in range(len(plain)) if workload.probes_after(k)] or [len(plain) - 1]
        with tracing.traced(replay):
            for k in points:
                for probe in run_probes(workload, plain[k].seed, gates, Unscaled()):
                    replay.counts["cli.replay.events"] += probe.events
    else:
        replay = main
    kept = {t.seed for t in traced}
    plain_s = sum(r.item_s for r in plain if r.seed in kept)
    metrics = tracing.layer_metrics(main, replay, plain_s, traced_s)
    spans = program.OUT / f"spans-{workload.name}-seed{args.seed}.csv.gz"
    main.write(spans)
    if replay is not main:
        replay.write(spans.with_name(f"spans-{workload.name}-seed{args.seed}-replay.csv.gz"))
    return metrics, {"items": len(traced), "spans": len(main), "spans_file": str(spans),
                     "untraced_s": plain_s, "traced_s": traced_s}


def git_rev() -> str | None:
    if not (program.ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=program.ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(program.SRC.rglob("*.py")):
        h.update(path.relative_to(program.SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def manifest(workload, args) -> dict:
    return {
        "workload": workload.name,
        "seed_base": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="run the set-up gates only (used to time set-up)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    reference = wl.load_reference()
    if args.setup_probe:
        wl.set_up(reference)
        return 0
    workload = wl.WORKLOADS[args.workload]
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    info = manifest(workload, args)
    gates = Gates()
    with gates.check("set-up"):
        wl.set_up(reference)
    run = run_traced if args.trace else run_untraced
    measured, notes = run(workload, args, reference, gates)
    info["loadavg_end"] = os.getloadavg()
    print("manifest " + json.dumps(info, sort_keys=True))

    metrics = {}
    for spec_metric in wanted:
        name = spec_metric["name"]
        if name in measured:
            metrics[name] = {"value": measured[name], "unit": spec_metric["unit"]}
            print(f"metric {name} {measured[name]:.6g} {spec_metric['unit']}")
    correct = gates.failed == 0 and len(metrics) == len(wanted)
    print(f"notes {json.dumps(notes, sort_keys=True)}")
    print(f"gates attempted={gates.attempted} failed={gates.failed} "
          f"failed_frac={gates.failed / max(gates.attempted, 1):.6g}")
    for error in gates.errors:
        print(f"gate failure: {error}")
    report = {"correct": correct, "attempted": max(gates.attempted, 1),
              "failed": gates.failed, "metrics": metrics}
    program.OUT.mkdir(parents=True, exist_ok=True)
    (program.OUT / f"report-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**report, "manifest": info, "notes": notes, "errors": gates.errors},
                   indent=2, sort_keys=True), encoding="utf-8")
    print(json.dumps(report, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
