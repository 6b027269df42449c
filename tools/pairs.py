"""Paired benchmark runs of a parent revision and this checkout, written to one JSON file.

Usage (from the checkout root)::

    python3 tools/pairs.py --parent HEAD~1 --out BENCH_31.json
    python3 tools/pairs.py --parent HEAD~1 --workloads log-replay --pairs 3 --seconds 10
    python3 tools/pairs.py --from BENCH_31.json --claim replay_ms_p50 log-replay

The parent's committed files are extracted with ``git archive`` into a
temporary directory; the change is this checkout as it stands.  Both trees
are byte-compiled first (``python -m compileall``): under
``PYTHONDONTWRITEBYTECODE`` a tree without fresh bytecode recompiles in every
new interpreter, which reads as a slower set-up and a larger peak RSS.

Pair k runs ``bench/run.py --workload W --seed S --seconds T --trace 0`` once
from each tree, the parent first when k is odd and the change first when it is
even, for each workload in turn; both runs of a pair use the same seed.
``--pairs`` defaults to 10: on a 2-vCPU host, 5 pairs could not resolve a 5%
move on ``sweep``, and fewer than ten cannot back a claim.  Each
run's manifest and final JSON line are kept.  The output holds every run,
and per workload and metric the medians and quartiles of both trees, the
ratio of the medians (change / parent) and how many of the n pairs the change
won, by the metric's ``better`` direction in ``BENCHMARK.json``; and whether
every correctness gate of every run passed.  ``summarize`` computes that from
the runs alone.

``--claim METRIC WORKLOAD`` also prints one line that states the change's
claim on that metric (``claim_line``: both medians, their ratio, the pairs
won and whether every gate passed), after the runs or, with ``--from``, from
a file written before.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("parent", "change")


def extract(rev: str, into: Path) -> None:
    """The committed files of ``rev`` of this repository, written under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True, timeout=120).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def compile_tree(tree: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"], cwd=tree,
                   check=True, capture_output=True, timeout=300)


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run from ``tree``: its manifest, final JSON line and exit code."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=seconds * 20 + 300,
    )
    lines = proc.stdout.splitlines()
    manifest = next((json.loads(line.split(" ", 1)[1]) for line in lines
                     if line.startswith("manifest ")), None)
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                  "stderr": proc.stderr[-2000:]}
    return {"manifest": manifest, "report": report, "exit_code": proc.returncode}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric, both trees' medians and quartiles, the ratio of
    the medians, and the pairs the change won; and whether every gate passed.

    ``runs`` holds one entry per run: its ``workload``, ``pair``, ``tree``
    (``"parent"`` or ``"change"``) and ``report`` (the final JSON line of
    ``bench/run.py``).  ``better`` maps each metric to ``"higher"`` or
    ``"lower"``; other metrics are left out.  A pair ties when both values
    are equal, and a tie is no win.
    """
    by_workload: dict[str, dict] = {}
    for run in runs:
        pairs = by_workload.setdefault(run["workload"], {})
        pairs.setdefault(run["pair"], {})[run["tree"]] = run["report"]
    summary = {}
    for workload, pairs in sorted(by_workload.items()):
        complete = [p for _, p in sorted(pairs.items()) if set(p) == set(TREES)]
        metrics = {}
        for name, direction in sorted(better.items()):
            values = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                      for p in complete
                      if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
            if not values:
                continue
            parent, change = [v[0] for v in values], [v[1] for v in values]
            wins = sum((c > p) if direction == "higher" else (c < p) for p, c in values)
            medians = statistics.median(parent), statistics.median(change)
            metrics[name] = {
                "better": direction,
                "parent_median": medians[0],
                "change_median": medians[1],
                "parent_quartiles": _quartiles(parent),
                "change_quartiles": _quartiles(change),
                "ratio": medians[1] / medians[0] if medians[0] else None,
                "wins": wins,
                "n": len(values),
            }
        summary[workload] = {
            "pairs": len(complete),
            "all_gates_passed": all(
                report.get("correct") is True and report.get("failed") == 0
                for p in pairs.values() for report in p.values()
            ),
            "metrics": metrics,
        }
    return summary


def claim_line(summary: dict, metric: str, workload: str) -> str:
    """``metric`` on ``workload`` in one line, from ``summarize``'s output: the
    parent's and the change's medians, their ratio, the pairs the change won,
    and whether every gate of the workload's runs passed."""
    stats = summary[workload]["metrics"][metric]
    ratio = "n/a" if stats["ratio"] is None else f"{stats['ratio']:.3f}"
    gates = "all" if summary[workload]["all_gates_passed"] else "not all"
    return (f"{metric} on {workload}: {stats['parent_median']:.2f} → "
            f"{stats['change_median']:.2f} (parent → change medians), ratio {ratio}, "
            f"{stats['better']} is better, change won {stats['wins']} of {stats['n']} "
            f"pairs, {gates} gates passed")


def parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="the revision to compare against")
    parser.add_argument("--from", dest="source", type=Path, default=None,
                        help="read the runs' summary from this file instead of running")
    parser.add_argument("--claim", nargs=2, metavar=("METRIC", "WORKLOAD"),
                        help="print the claim line of METRIC on WORKLOAD")
    parser.add_argument("--workloads", default=",".join(names),
                        type=lambda text: [w for w in text.split(",") if w])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=401, help="pair k runs seed + k - 1")
    parser.add_argument("--out", type=Path, default=None, help="write the JSON here")
    args = parser.parse_args(argv)
    if (args.parent is None) == (args.source is None):
        parser.error("give --parent, or --from with --claim")
    if args.source is not None and args.claim is None:
        parser.error("--from needs --claim")
    unknown = set(args.workloads) - set(names)
    if unknown or args.pairs < 1:
        parser.error(f"unknown workloads {sorted(unknown)}" if unknown else "--pairs must be >= 1")
    return args, spec


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    result = (json.loads(args.source.read_text(encoding="utf-8")) if args.source is not None
              else run_pairs(args, spec))
    if args.claim is not None:
        try:
            print(claim_line(result["summary"], *args.claim))
        except KeyError:
            print(f"no {args.claim[0]} on {args.claim[1]} in the summary", file=sys.stderr)
            return 2
    return 0 if all(s["all_gates_passed"] for s in result["summary"].values()) else 1


def run_pairs(args, spec) -> dict:
    """The paired runs and their summary, written to ``--out`` (or stdout)."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent_rev = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip()
    runs = []
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        extract(parent_rev, trees["parent"])
        for tree in trees.values():
            compile_tree(tree)
        for pair in range(1, args.pairs + 1):
            order = TREES if pair % 2 else TREES[::-1]
            for workload in args.workloads:
                for tree in order:
                    run = bench_run(trees[tree], workload, args.seed + pair - 1, args.seconds)
                    runs.append({"workload": workload, "pair": pair, "tree": tree, **run})
                    print(f"pair {pair} {workload} {tree}: "
                          f"{json.dumps(run['report'].get('metrics', {}), sort_keys=True)}",
                          file=sys.stderr, flush=True)
    result = {
        "parent": parent_rev,
        "change": "working tree of " + subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip(),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed": args.seed,
        "summary": summarize(runs, better),
        "runs": runs,
    }
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return result


if __name__ == "__main__":
    sys.exit(main())
