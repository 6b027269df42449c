"""Transfer bundle construction, sending, fee bumping, recovery."""

import pytest

from brc20sim.attack import FeeBand
from brc20sim.background import CongestionProfile
from brc20sim.chain import RBF_SEQUENCE, MAX_SEQUENCE
from brc20sim.cli import main
from brc20sim.indexer import parse_envelope, InscribeTransfer
from brc20sim.sim import SimConfig, Simulation
from brc20sim.wallet import (
    ConflictNotReplaceable,
    InsufficientFunds,
    NotOwner,
    RetriesExhausted,
    TransferRequest,
    WalletConfig,
    build_recovery,
    build_transfer,
    bumped_rate,
    retry_with_fee_bump,
)

CFG = WalletConfig()


def fresh_sim(balance=10_000_000, owner="alice", **settings):
    """A simulation without background load, one address funded."""
    sim = Simulation(SimConfig(block_capacity_vbytes=10_400, **settings))
    sim.grant(owner, balance)
    return sim


def request(**overrides):
    base = dict(tick="ordi", amount=100, sender="alice", recipient="bob", fee_rate=200)
    base.update(overrides)
    return TransferRequest(**base)


class TestBuildTransfer:
    def test_fee_split_matches_vsizes(self):
        chain = fresh_sim().chain
        bundle = build_transfer(request(), chain.utxo_set, CFG)
        assert bundle.tx1_fee == 30_000
        assert bundle.tx2_fee == 120_000
        assert bundle.tx2_fee / bundle.tx1_fee == 4.0
        assert bundle.tx1.vsize == 150 and bundle.tx2.vsize == 600

    def test_ratio_inside_observed_band_for_any_rate(self):
        chain = fresh_sim().chain
        for rate in (1, 7, 100, 201, 404, 999):
            bundle = build_transfer(request(fee_rate=rate), chain.utxo_set, CFG)
            if bundle.tx1_fee:
                assert 3 <= bundle.tx2_fee / bundle.tx1_fee <= 5

    def test_envelope_on_first_output_to_sender(self):
        chain = fresh_sim().chain
        bundle = build_transfer(request(), chain.utxo_set, CFG)
        out0 = bundle.tx1.outputs[0]
        assert out0.owner == "alice"
        assert parse_envelope(out0.inscription) == InscribeTransfer("ordi", 100)

    def test_tx2_spends_tx1_first_output_to_recipient(self):
        chain = fresh_sim().chain
        bundle = build_transfer(request(), chain.utxo_set, CFG)
        assert bundle.tx2.inputs[0].outpoint == (bundle.tx1.txid, 0)
        assert bundle.tx2.outputs[0].owner == "bob"

    def test_self_transfer_is_valid(self):
        chain = fresh_sim().chain
        bundle = build_transfer(request(recipient="alice"), chain.utxo_set, CFG)
        assert bundle.tx2.outputs[0].owner == "alice"

    def test_zero_amount_rejected_at_request(self):
        with pytest.raises(ValueError):
            request(amount=0)

    def test_insufficient_funds(self):
        chain = fresh_sim(balance=1_000).chain
        with pytest.raises(InsufficientFunds):
            build_transfer(request(), chain.utxo_set, CFG)

    def test_pure_construction(self):
        chain = fresh_sim().chain
        a = build_transfer(request(), chain.utxo_set, CFG)
        b = build_transfer(request(), chain.utxo_set, CFG)
        assert a.tx1 == b.tx1 and a.tx2 == b.tx2

    def test_rbf_flag_sets_sequences(self):
        chain = fresh_sim().chain
        on = build_transfer(request(rbf=True), chain.utxo_set, CFG)
        off = build_transfer(request(rbf=False), chain.utxo_set, CFG)
        assert all(i.sequence == RBF_SEQUENCE for i in on.tx2.inputs)
        assert all(i.sequence == MAX_SEQUENCE for i in off.tx2.inputs)
        assert on.tx2.rbf_enabled and not off.tx2.rbf_enabled

    def test_never_funds_with_inscribed_coins(self):
        sim = fresh_sim(balance=300_000)
        first, r1, r2 = sim.send_transfer(request())
        assert r1.accepted and r2.accepted
        sim.run_blocks(1)  # both legs confirm; inscription at bob
        # bob now owns the inscribed dust; a transfer from bob must not use it
        sim.grant("bob", 200_000)
        bundle, _, _ = sim.send_transfer(request(sender="bob", recipient="alice"))
        inscribed = {
            u.serial for u in sim.chain.utxo_set.owned_by("bob")
            if sim.chain.utxo_set.carries_inscription(u)
        }
        assert inscribed
        assert all(i.outpoint not in inscribed for i in bundle.tx1.inputs)


class TestSubmitBundle:
    def test_both_accepted_and_dependency_tracked(self):
        sim = fresh_sim()
        sim.run_until(5.0)
        bundle, r1, r2 = sim.send_transfer(request())
        assert r1.accepted and r2.accepted
        assert bundle.tx1_submit == 5.0
        assert bundle.tx2_submit == 5.0 + CFG.bundle_gap
        assert sim.submit_times[bundle.tx2.txid] == bundle.tx2_submit
        assert sim.pool.entries[bundle.tx2.txid].depends_on == {bundle.tx1.txid}
        sim.run_blocks(1)
        assert sim.chain.confirmed(bundle.tx1.txid)

    def test_tx2_below_min_relay_is_retriable(self):
        sim = fresh_sim(min_relay_fee_rate=100)
        bundle, r1, r2 = sim.send_transfer(request(fee_rate=50))
        assert not r1.accepted and not r2.accepted

    def test_skips_coins_the_pool_already_spends(self):
        sim = fresh_sim()
        sim.grant("alice", 10_000_000)
        first, _, _ = sim.send_transfer(request())
        second, r1, r2 = sim.send_transfer(request())
        assert r1.accepted and r2.accepted
        assert not {i.outpoint for i in first.tx1.inputs} & {
            i.outpoint for i in second.tx1.inputs
        }


class TestFeeBump:
    def test_bump_steps_by_quarter_rounded_up(self):
        assert bumped_rate(200) == 250
        assert bumped_rate(201) == 252  # 251.25 rounds up
        assert bumped_rate(1) == 2

    def test_replacement_accepted(self):
        sim = fresh_sim()
        bundle, _, _ = sim.send_transfer(request(max_retries=3))
        sim.run_until(10.0)
        bumped = retry_with_fee_bump(bundle, sim)
        assert bumped.fee_rate == 250
        assert bumped.retries == 1
        assert bumped.tx2_submit == 10.0
        assert bumped.tx2.txid in sim.pool and bundle.tx2.txid not in sim.pool
        assert sim.pool.entries[bumped.tx2.txid].fee == 250 * 600

    def test_retries_exhausted_aborts(self):
        sim = fresh_sim()
        bundle, _, _ = sim.send_transfer(request(max_retries=2))
        for at in (10.0, 20.0):
            sim.run_until(at)
            bundle = retry_with_fee_bump(bundle, sim)
        sim.run_until(30.0)
        with pytest.raises(RetriesExhausted):
            retry_with_fee_bump(bundle, sim)

    def test_non_replaceable_tx2(self):
        sim = fresh_sim()
        bundle, _, _ = sim.send_transfer(request(rbf=False))
        sim.run_until(10.0)
        with pytest.raises(ConflictNotReplaceable):
            retry_with_fee_bump(bundle, sim)

    def test_logged_bump_is_timed_and_replays(self, tmp_path, capsys):
        sim = fresh_sim(log_events=True)
        bundle, _, _ = sim.send_transfer(request())
        sim.run_until(10.0)
        bumped = retry_with_fee_bump(bundle, sim)
        sim.run_blocks(1)
        assert sim.chain.confirmed(bumped.tx2.txid)
        assert sim.effective_delay(bumped.tx2.txid) == 600.0 - 10.0
        log = tmp_path / "bump.jsonl"
        sim.export_event_log(str(log))
        assert main(["replay", str(log)]) == 0
        assert "3 submissions, 1 blocks verified" in capsys.readouterr().out


class TestRecovery:
    def make_pinned(self):
        """Sim with one in-band bundle pinned under a congested market."""
        band = FeeBand.from_floor(100)  # (100, 225)
        profile = CongestionProfile.for_band(band.f_min, band.f_sf, 0.75, seed=3)
        sim = Simulation(SimConfig(), profile)
        for _ in range(4):
            sim.grant("alice", 10_000_000)
        bundle, r1, r2 = sim.send_transfer(request(fee_rate=201, recipient="bob"))
        assert r1.accepted and r2.accepted
        sim.run_blocks(3)
        assert sim.chain.confirmed(bundle.tx1.txid)
        assert not sim.chain.confirmed(bundle.tx2.txid)
        utxo = sim.chain.utxo_set.utxos[(bundle.tx1.txid, 0)]
        from brc20sim.indexer import PendingTransfer

        pending = PendingTransfer(utxo.first_ordinal(), "ordi", 100, "alice")
        return sim, bundle, pending

    def test_recovery_outbids_pin(self):
        sim, bundle, pending = self.make_pinned()
        recovery = build_recovery(
            pending, sim.chain.utxo_set, "alice", fee_rate=404,
            cfg=CFG, exclude=set(sim.pool.spends),
        )
        result = sim.submit(recovery)
        assert result.accepted and bundle.tx2.txid in result.replaced
        sim.run_blocks(1)
        assert sim.chain.confirmed(recovery.txid)
        # the inscribed satoshi is back with its owner
        assert sim.chain.utxo_set.locate_ordinal(pending.inscription_ordinal).owner == "alice"

    def test_recovery_at_pinned_rate_stays_pinned(self):
        sim, bundle, pending = self.make_pinned()
        recovery = build_recovery(
            pending, sim.chain.utxo_set, "alice", fee_rate=202,
            cfg=CFG, exclude=set(sim.pool.spends),
        )
        result = sim.submit(recovery)
        assert result.accepted  # replaces the 201 pin, but still below market
        sim.run_blocks(5)
        assert not sim.chain.confirmed(recovery.txid)

    def test_not_owner(self):
        sim, bundle, pending = self.make_pinned()
        with pytest.raises(NotOwner):
            build_recovery(pending, sim.chain.utxo_set, "mallory", 404, CFG)
