"""Background load calibration and determinism."""

from brc20sim.background import BackgroundLoad, CongestionProfile
from brc20sim.sim import SimConfig, Simulation


def test_steady_state_congestion_tracks_target():
    for level in (0.25, 0.50, 0.75):
        sim = Simulation(SimConfig(), CongestionProfile.for_level(level, seed=1))
        sim.run_until(sim.now + 20 * 600.0)
        assert abs(sim.mean_congestion() - level) < 0.05


def test_zero_target_leaves_pool_to_foreground():
    sim = Simulation(SimConfig(), CongestionProfile.for_level(0.0, seed=1))
    sim.run_blocks(5)
    assert len(sim.pool) == 0
    assert sim.mean_congestion() == 0.0


def test_same_seed_identical_trajectories():
    def trace(seed):
        sim = Simulation(SimConfig(), CongestionProfile.for_level(0.5, seed))
        sim.run_blocks(10)
        return [
            [tx.txid for tx in block.transactions] for block in sim.chain.blocks
        ]

    assert trace(9) == trace(9)
    assert trace(9) != trace(10)


class _Grant:
    serial = ("stub", 0)


def test_band_profile_floor_confined():
    profile = CongestionProfile.for_band(10, 22.5, 0.75, seed=4)
    load = BackgroundLoad(profile, normal_count=400, block_capacity=10_150)
    for _ in range(200):
        load.market_batch(lambda owner, value: _Grant(), 0.0, 600.0)
        assert 1.15 * 22.5 <= load.floor <= 1.55 * 22.5


def test_level_profile_respects_hard_cap():
    profile = CongestionProfile.for_level(0.75, seed=2)
    assert profile.floor_cap <= CongestionProfile.HARD_CAP
    load = BackgroundLoad(profile, normal_count=400, block_capacity=10_150)
    for _ in range(500):
        load.advance_floor()
        assert profile.floor_lo <= load.floor <= profile.floor_cap
    # market never outbids the top sweep fee level
    assert profile.floor_cap * profile.spread < 500


def test_level_scale_monotone_in_congestion():
    scales = [CongestionProfile.for_level(c, seed=0).floor_base for c in (0.25, 0.5, 0.75)]
    assert scales[0] < scales[1] < scales[2]


def test_higher_fee_never_confirms_later():
    # identical seed and schedule: only the probe's fee rate differs
    from brc20sim.chain import Transaction, TxInput, TxOutput, make_txid

    def probe_delay(rate: int, seed: int) -> float:
        sim = Simulation(SimConfig(), CongestionProfile.for_level(0.75, seed))
        sim.run_blocks(2)
        fund = sim.grant("probe", 546 + rate * 600)
        inputs = (TxInput(fund.serial),)
        outputs = (TxOutput(546, "probe"),)
        tx = Transaction(make_txid(inputs, outputs, 600, tag="probe"), inputs, outputs, 600)
        assert sim.submit(tx).accepted
        sim.run_blocks(25)
        delay = sim.confirmation_delay(tx.txid)
        return delay if delay is not None else float("inf")

    for seed in range(5):
        delays = [probe_delay(rate, seed) for rate in (60, 120, 240, 480)]
        assert delays == sorted(delays, reverse=True) or all(
            a >= b for a, b in zip(delays, delays[1:])
        )
