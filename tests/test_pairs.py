"""tools/pairs.py's summary of paired benchmark runs, on a fixed run list."""

import importlib.util
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", PAIRS)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def report(correct=True, failed=0, **values):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": v, "unit": "ms"} for name, v in values.items()}}


def run(workload, pair, tree, **kwargs):
    return {"workload": workload, "pair": pair, "tree": tree, "report": report(**kwargs)}


RUNS = [
    # pair 1, parent first; pair 2, change first; pair 3 ties on replay_ms_p50
    run("log-replay", 1, "parent", replay_ms_p50=10.0, scenarios_per_s=50.0),
    run("log-replay", 1, "change", replay_ms_p50=8.0, scenarios_per_s=55.0),
    run("log-replay", 2, "change", replay_ms_p50=7.0, scenarios_per_s=49.0),
    run("log-replay", 2, "parent", replay_ms_p50=9.0, scenarios_per_s=50.0),
    run("log-replay", 3, "parent", replay_ms_p50=8.0, scenarios_per_s=52.0),
    run("log-replay", 3, "change", replay_ms_p50=8.0, scenarios_per_s=60.0),
    # a sweep pair whose change run failed a gate, and a pair with one run only
    run("sweep", 1, "parent", scenarios_per_s=400.0),
    run("sweep", 1, "change", correct=False, failed=1, scenarios_per_s=500.0),
    run("sweep", 2, "parent", scenarios_per_s=410.0),
]
BETTER = {"replay_ms_p50": "lower", "scenarios_per_s": "higher", "setup_s": "lower"}


def test_medians_quartiles_ratio_and_wins_per_metric():
    summary = pairs.summarize(RUNS, BETTER)
    replay = summary["log-replay"]
    assert (replay["pairs"], replay["all_gates_passed"]) == (3, True)
    assert set(replay["metrics"]) == {"replay_ms_p50", "scenarios_per_s"}  # no setup_s values
    assert replay["metrics"]["replay_ms_p50"] == {
        "better": "lower", "n": 3, "wins": 2,  # the tie in pair 3 is no win
        "parent_median": 9.0, "change_median": 8.0,
        "parent_quartiles": [8.5, 9.0, 9.5], "change_quartiles": [7.5, 8.0, 8.0],
        "ratio": pytest.approx(8.0 / 9.0),
    }
    rate = replay["metrics"]["scenarios_per_s"]
    assert (rate["wins"], rate["parent_median"], rate["change_median"]) == (2, 50.0, 55.0)


def test_a_failed_gate_shows_and_an_unpaired_run_is_not_compared():
    sweep = pairs.summarize(RUNS, BETTER)["sweep"]
    assert (sweep["pairs"], sweep["all_gates_passed"]) == (1, False)
    assert sweep["metrics"]["scenarios_per_s"]["n"] == 1
    assert sweep["metrics"]["scenarios_per_s"]["parent_quartiles"] == [400.0] * 3


def test_the_claim_line_states_both_medians_the_ratio_the_wins_and_the_gates():
    summary = pairs.summarize(RUNS, BETTER)
    assert pairs.claim_line(summary, "replay_ms_p50", "log-replay") == (
        "replay_ms_p50 on log-replay: 9.00 → 8.00 (parent → change medians), ratio 0.889, "
        "lower is better, change won 2 of 3 pairs, all gates passed")
    assert pairs.claim_line(summary, "scenarios_per_s", "sweep") == (
        "scenarios_per_s on sweep: 400.00 → 500.00 (parent → change medians), ratio 1.250, "
        "higher is better, change won 1 of 1 pairs, not all gates passed")
