"""Tests of the benchmark's own machinery: ``python3 -m pytest bench/test_bench.py``."""

import pytest

import hostspeed
import tracing
import workloads as wl
from brc20sim import harness


def hand_built(spans):
    """A tracer holding (name, parent index, start, end) spans as given."""
    t = tracing.Tracer()
    for name, parent, start, end in spans:
        t.name.append(t.name_id(name))
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    return t


# item [0, 20]
#   run_scenario [1, 19]
#     sim.setup [2, 5]
#       background.sediment [3, 4]
#     attack.execute [6, 18]
#       indexer.apply_block [7, 12]
#         chain.apply_transaction [8, 11]
#           chain.assign_ordinals [9, 10]
#       chain.apply_transaction [13, 15]
TREE = [
    ("bench.item", -1, 0.0, 20.0),
    ("harness.run_scenario", 0, 1.0, 19.0),
    ("sim.setup", 1, 2.0, 5.0),
    ("background.sediment", 2, 3.0, 4.0),
    ("attack.execute", 1, 6.0, 18.0),
    ("indexer.apply_block", 4, 7.0, 12.0),
    ("chain.apply_transaction", 5, 8.0, 11.0),
    ("chain.assign_ordinals", 6, 9.0, 10.0),
    ("chain.apply_transaction", 4, 13.0, 15.0),
]


class TestSpanArithmetic:
    def test_self_time_subtracts_direct_children_only(self):
        own = tracing.self_times(hand_built(TREE))
        assert list(own) == [2.0, 3.0, 2.0, 1.0, 5.0, 2.0, 2.0, 1.0, 2.0]

    def test_self_times_sum_to_root_duration(self):
        assert sum(tracing.self_times(hand_built(TREE))) == 20.0

    def test_totals(self):
        t = tracing.totals(hand_built(TREE))
        assert t.calls["chain.apply_transaction"] == 2
        assert t.total["chain.apply_transaction"] == 5.0
        assert t.own["chain.apply_transaction"] == 4.0
        assert t.under["chain.apply_transaction", "indexer.apply_block"] == 3.0
        assert t.setup == 5.0  # scenario start 1 -> execute start 6
        assert t.covered == 15.0  # sim.setup 3 + attack.execute 12

    def test_layer_metrics(self):
        t = hand_built(TREE)
        m = tracing.layer_metrics(t, t, untraced_s=10.0, traced_s=15.0)
        assert m["indexer.shadow_apply_share"] == pytest.approx(3.0 / 5.0)
        assert m["chain.apply_transaction.calls"] == 2.0  # one scenario
        assert m["chain.apply_transaction.self_share"] == pytest.approx(4.0 / 20.0)
        assert m["chain.apply_transaction.us_per_call"] == pytest.approx(2.5e6)
        assert m["sim.setup_share"] == pytest.approx(5.0 / 18.0)
        assert m["harness.trace_coverage"] == pytest.approx(15.0 / 18.0)
        assert m["layer.chain.self_share"] == pytest.approx(5.0 / 20.0)
        assert m["layer.harness.self_share"] == pytest.approx(3.0 / 20.0)
        assert m["trace.overhead_pct"] == pytest.approx(50.0)


class TestPercentiles:
    def test_nearest_rank(self):
        values = [float(v) for v in range(10, 0, -1)]
        assert tracing.percentile(values, 0.5) == 5.0
        assert tracing.percentile(values, 0.9) == 9.0
        assert tracing.percentile(values, 1.0) == 10.0
        assert tracing.percentile([7.0], 0.9) == 7.0

    def test_ten_beyond_p90_of_a_hundred(self):
        values = [float(v) for v in range(1, 101)]
        p90 = tracing.percentile(values, 0.9)
        assert p90 == 90.0
        assert tracing.beyond(values, p90) == 10

    def test_empty(self):
        with pytest.raises(ValueError):
            tracing.percentile([], 0.5)


class TestWrappers:
    def test_restores_every_original(self):
        table = tracing.patches()
        before = [vars(p.owner)[p.attr] for p in table]
        with tracing.traced(tracing.Tracer()):
            during = [vars(p.owner)[p.attr] for p in table]
            assert all(d is not b and d.__wrapped__ is b for d, b in zip(during, before))
        assert [vars(p.owner)[p.attr] for p in table] == before
        assert harness.build_transfer is vars(harness)["build_transfer"]

    def test_restores_after_an_error(self):
        table = tracing.patches()
        before = [vars(p.owner)[p.attr] for p in table]
        with pytest.raises(RuntimeError):
            with tracing.traced(tracing.Tracer()):
                raise RuntimeError("boom")
        assert [vars(p.owner)[p.attr] for p in table] == before

    def test_tracing_changes_no_output_and_nests_spans(self):
        config = harness.ScenarioConfig(fraction=1.0, fee_rate=100, congestion=0.25, attempts=2)
        plain = wl.scenario_digest(harness.run_scenario(config, 3))
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            traced = wl.scenario_digest(harness.run_scenario(config, 3))
        assert traced == plain
        t = tracing.totals(tracer)
        assert t.calls["harness.run_scenario"] == 1
        assert t.under["chain.apply_transaction", "indexer.apply_block"] > 0
        assert t.under["chain.apply_transaction", "chain.append_block"] > 0
        assert t.calls["chain.assign_ordinals"] >= t.calls["chain.apply_transaction"]
        assert t.calls["wallet.build_transfer"] == 2  # one per attempt, via attack
        assert tracer.counts["attack.attempts_launched"] == 2
        assert not tracer._open


class TestHostSpeed:
    def test_scale_uses_the_probes_around_each_segment(self, monkeypatch):
        readings = iter([0.070, 0.030, 0.035])
        monkeypatch.setattr(hostspeed, "probe", lambda: next(readings))
        speed = hostspeed.HostSpeed()
        assert speed.scale() == pytest.approx(hostspeed.REFERENCE_S / 0.050)
        assert speed.scale() == pytest.approx(hostspeed.REFERENCE_S / 0.0325)
        assert speed.summary()["probes"] == 3

    def test_kernel_is_fixed_work(self):
        assert hostspeed.kernel() == hostspeed.kernel()
        assert hostspeed.probe() > 0.0
        assert hostspeed.Unscaled().scale() == 1.0
