"""Attack engine: tolerance math, fee picking, execution semantics."""

import pytest

from scenario_tools import FeeBand, band_profile, pick_fee

from brc20sim.attack import (
    TARGET,
    TICK,
    TargetEmpty,
    ToleranceInputs,
    evaluate_success,
    execute,
    tolerance,
)
from brc20sim.harness import ScenarioConfig, _set_up, inscription_tx, run_scenario
from brc20sim.indexer import deploy_inscription, mint_inscription
from brc20sim.sim import SimConfig, Simulation
from brc20sim.wallet import TransferRequest, build_transfer

HOUR = 3600.0


class TestTolerance:
    def test_upper_bound_three_hours(self):
        inputs = ToleranceInputs(5_000_000, 2_000_000, 1_000_000, HOUR)
        assert abs(tolerance(inputs) - 3 * HOUR) < 1e-9 * 3 * HOUR

    def test_lower_bound_half_hour(self):
        inputs = ToleranceInputs(2_500_000, 2_000_000, 1_000_000, HOUR)
        assert abs(tolerance(inputs) - 0.5 * HOUR) < 1e-9 * HOUR

    def test_zero_surplus(self):
        assert tolerance(ToleranceInputs(2_000_000, 2_000_000, 1_000_000, HOUR)) == 0.0

    def test_linear_in_surplus(self):
        base = tolerance(ToleranceInputs(1_100_000, 1_000_000, 500_000, HOUR))
        scaled = tolerance(ToleranceInputs(1_400_000, 1_000_000, 500_000, HOUR))
        assert abs(scaled - 4 * base) < 1e-9

    def test_inverse_in_volume(self):
        slow = tolerance(ToleranceInputs(2_000_000, 1_000_000, 250_000, HOUR))
        fast = tolerance(ToleranceInputs(2_000_000, 1_000_000, 1_000_000, HOUR))
        assert abs(slow - 4 * fast) < 1e-9

    def test_invariants(self):
        with pytest.raises(ValueError):
            ToleranceInputs(1, 2, 1, HOUR)  # required above available
        with pytest.raises(ValueError):
            ToleranceInputs(2, 1, 0, HOUR)  # zero volume


class TestFeeBand:
    def test_default_multiplier(self):
        band = FeeBand.from_floor(10)
        assert band.f_sf == 22.5

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            FeeBand(5, 4)
        with pytest.raises(ValueError):
            FeeBand(0, 4)


class TestPickFee:
    def test_low_congestion_floor_plus_step(self):
        assert pick_fee(FeeBand(10, 25), congestion=0.1) == 11

    def test_collapsed_band(self):
        assert pick_fee(FeeBand(7, 7), congestion=0.9) == 7

    def test_practical_regime_band(self):
        fee = pick_fee(FeeBand(30, 75), congestion=0.8)
        assert 30 <= fee <= 80

    def test_always_inside_band(self):
        import random

        rng = random.Random(3)
        for _ in range(200):
            f_min = rng.randint(1, 50)
            band = FeeBand(f_min, f_min * rng.uniform(1.0, 2.5))
            fee = pick_fee(band, rng.uniform(0, 2))
            assert band.f_min <= fee <= band.f_sf


class TestEvaluateSuccess:
    def test_short_delay_fails(self):
        assert evaluate_success([300.0], 1800.0) is False

    def test_pending_past_tolerance_succeeds(self):
        assert evaluate_success([14_400.0], 10_800.0) is True

    def test_exactly_tolerance_is_failure(self):
        assert evaluate_success([1800.0], 1800.0) is False

    def test_monotone_in_delays(self):
        delays = [100.0, 900.0]
        assert not evaluate_success(delays, 1000.0)
        assert evaluate_success(delays + [1500.0], 1000.0)


def pinned_sim(seed=0, minted=1_000_000):
    """Simulation under a band-aligned congested market, token funded."""
    band = FeeBand.from_floor(10)
    profile = band_profile(band.f_min, band.f_sf, 0.75, seed=seed)
    sim = Simulation(SimConfig(), profile)
    for _ in range(10):
        sim.grant(TARGET, 100_000_000)
    sim.submit(inscription_tx(sim, TARGET, deploy_inscription(TICK, 21_000_000, 21_000_000), 500, "d"))
    sim.run_blocks(1)
    sim.submit(inscription_tx(sim, TARGET, mint_inscription(TICK, minted), 500, "m"))
    sim.run_blocks(2)
    sim.watch_balance(TICK, TARGET)
    return sim, band


def attack_config(fee, fraction=1.0, attempts=2, t_bar=3600.0):
    """The scenario ``execute`` reads; its horizon is derived from attempts and t_bar."""
    return ScenarioConfig(
        fraction=fraction, fee_rate=fee, congestion=0.75, attempts=attempts, tolerance_s=t_bar
    )


class TestExecute:
    def test_full_drain_pins_and_succeeds(self):
        sim, _ = pinned_sim()
        outcome = execute(attack_config(fee=14), sim)
        assert outcome.success
        assert sim.balance(TICK, TARGET)[:2] == (0, 1_000_000)
        assert outcome.per_attempt[0].pinned

    def test_high_fee_control_confirms_fast(self):
        sim, _ = pinned_sim()
        outcome = execute(attack_config(fee=45), sim)  # twice the band's top, 22.5
        assert not outcome.success
        assert all(r.effective_delay <= 1200.0 for r in outcome.per_attempt)
        # tokens returned: confirmed self-transfers restore available balance
        assert sim.balance(TICK, TARGET)[0] == 1_000_000

    def test_fee_picked_from_band_when_unset(self):
        sim, band = pinned_sim()
        outcome = execute(attack_config(fee=pick_fee(band, sim.pool.congestion())), sim)
        assert outcome.success
        assert all(band.f_min <= r.fee_rate <= band.f_sf for r in outcome.per_attempt)

    def test_target_empty_raises(self):
        sim, _ = pinned_sim(minted=0)  # a mint of 0 is void: the target holds no tokens
        assert sim.balance(TICK, TARGET) == (0, 0, 0)
        with pytest.raises(TargetEmpty):
            execute(attack_config(fee=14, attempts=1), sim)

    def test_fraction_zero_pins_nothing(self):
        sim, _ = pinned_sim()
        outcome = execute(attack_config(fee=14, fraction=0.0, attempts=1), sim)
        assert not outcome.success
        assert sim.balance(TICK, TARGET)[1] == 0
        assert outcome.per_attempt[0].amount == 0

    def test_concurrent_withdrawal_voids_attempt(self):
        sim, _ = pinned_sim()
        # a user withdrawal lands in the same block as the attack inscription
        wd = TransferRequest(600_000, sender=TARGET, recipient="user", fee_rate=500)
        sim.send_transfer(wd)
        outcome = execute(attack_config(fee=14, attempts=1), sim)
        record = outcome.per_attempt[0]
        assert record.voided
        assert record.effective_delay == 0.0
        assert not outcome.success
        assert sim.balance(TICK, "user")[0] == 600_000

    def test_a_pooled_transfer_outside_the_attack_keeps_it_running(self):
        # at fee 500 both attempts confirm in the next block, and alone the attack
        # stops there; another holder's 1 sat/vB transfer, sent first, stays
        # pinned in this market, so the attack runs to its horizon
        config = ScenarioConfig(fraction=0.5, fee_rate=500, congestion=0.75, attempts=2)
        sims = []
        for _ in range(2):
            sim = _set_up(config, seed=3)
            sim.grant("user", 10_000_000)
            sim.send_transfer(TransferRequest(1_000, sender=TARGET, recipient="user", fee_rate=500))
            sim.run_blocks(2)
            assert sim.balance(TICK, "user")[0] == 1_000
            sims.append(sim)
        alone, sim = sims
        assert alone.now < execute(config, alone).horizon
        transfer, _, _ = sim.send_transfer(
            TransferRequest(1_000, sender="user", recipient="elsewhere", fee_rate=1)
        )
        outcome = execute(config, sim)
        assert all(sim.chain.confirmed(r.tx1) and sim.chain.confirmed(r.tx2)
                   for r in outcome.per_attempt)
        assert sim.balance(TICK, TARGET)[1] == 0
        assert transfer.tx2.txid in sim.pool
        assert sim.now == outcome.horizon

    def test_a_lone_inscription_keeps_it_running(self):
        # a transfer inscription whose Tx2 is never sent leaves tokens transferable
        # with nothing pooled, and every block adds to the target's outage
        config = ScenarioConfig(fraction=0.5, fee_rate=500, congestion=0.75, attempts=2)
        sim = _set_up(config, seed=3)
        request = TransferRequest(1_000, sender=TARGET, recipient="user", fee_rate=500)
        sim.submit(build_transfer(request, sim.chain.utxo_set, exclude=sim.pool.spends).tx1)
        sim.run_blocks(1)
        assert sim.balance(TICK, TARGET)[1] == 1_000
        outcome = execute(config, sim)
        assert not sim.foreground_pooled()
        assert sim.now == outcome.horizon

    def test_an_attempt_confirmed_in_its_tx1s_block_is_no_success(self):
        # at 10,400 vB attempt 4's Tx1 and Tx2 confirm in one block after Tx2
        # waited past the tolerance; no token was ever transferable, so the
        # attempt keeps its delay and the cell is no success
        config = ScenarioConfig(fraction=1.0, fee_rate=100, congestion=0.75, attempts=5,
                                sim=SimConfig(block_capacity_vbytes=10_400))
        sim = _set_up(config, seed=5)
        outcome = execute(config, sim)
        same_block = [r for r in outcome.per_attempt
                      if r.confirm_time == sim.chain.confirmation_time(r.tx1)]
        late = [r for r in outcome.per_attempt if r.effective_delay > config.tolerance_s]
        assert [r.index for r in late] == [4] and late[0] in same_block
        assert late[0].effective_delay == 5_399.0
        assert not outcome.success
        result = run_scenario(config, seed=5)
        assert (result.success, result.pinned_pct, result.outage_s) == (False, 0.0, 0.0)
        assert max(result.delays) == 5_399.0

    def test_survey_mode_runs_every_attempt(self):
        sim, _ = pinned_sim()
        outcome = execute(attack_config(fee=14, attempts=4, fraction=0.25), sim)
        assert len(outcome.per_attempt) == 4

    def test_more_attempts_never_pin_less(self):
        results = []
        for attempts in (1, 3):
            config = ScenarioConfig(
                fraction=0.10, fee_rate=100, congestion=0.75, attempts=attempts
            )
            results.append(run_scenario(config, seed=5))
        assert results[0].pinned_pct <= results[1].pinned_pct

    def test_total_balance_invariant_during_pin(self):
        sim, _ = pinned_sim()
        before = sim.balance(TICK, TARGET)
        outcome = execute(attack_config(fee=14), sim)
        after = sim.balance(TICK, TARGET)
        assert outcome.success
        assert after[2] == before[2]  # overall balance unchanged by the pin
        assert after[0] + after[1] == before[0]
