"""Transfer bundle construction, fee bumping, recovery."""

import pytest

from brc20sim.attack import FeeBand
from brc20sim.background import CongestionProfile
from brc20sim.chain import Chain, RBF_SEQUENCE, MAX_SEQUENCE
from brc20sim.indexer import parse_envelope, InscribeTransfer
from brc20sim.mempool import Mempool
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
    submit_bundle,
)

CFG = WalletConfig()


def fresh_wallet(balance=10_000_000, owner="alice"):
    chain = Chain()
    chain.utxo_set.grant(owner, balance)
    pool = Mempool(SimConfig(block_capacity_vbytes=10_400), chain)
    return chain, pool


def request(**overrides):
    base = dict(tick="ordi", amount=100, sender="alice", recipient="bob", fee_rate=200)
    base.update(overrides)
    return TransferRequest(**base)


class TestBuildTransfer:
    def test_fee_split_matches_vsizes(self):
        chain, _ = fresh_wallet()
        bundle = build_transfer(request(), chain.utxo_set, CFG)
        assert bundle.tx1_fee == 30_000
        assert bundle.tx2_fee == 120_000
        assert bundle.tx2_fee / bundle.tx1_fee == 4.0
        assert bundle.tx1.vsize == 150 and bundle.tx2.vsize == 600

    def test_ratio_inside_observed_band_for_any_rate(self):
        chain, _ = fresh_wallet()
        for rate in (1, 7, 100, 201, 404, 999):
            bundle = build_transfer(request(fee_rate=rate), chain.utxo_set, CFG)
            if bundle.tx1_fee:
                assert 3 <= bundle.tx2_fee / bundle.tx1_fee <= 5

    def test_envelope_on_first_output_to_sender(self):
        chain, _ = fresh_wallet()
        bundle = build_transfer(request(), chain.utxo_set, CFG)
        out0 = bundle.tx1.outputs[0]
        assert out0.owner == "alice"
        assert parse_envelope(out0.inscription) == InscribeTransfer("ordi", 100)

    def test_tx2_spends_tx1_first_output_to_recipient(self):
        chain, _ = fresh_wallet()
        bundle = build_transfer(request(), chain.utxo_set, CFG)
        assert bundle.tx2.inputs[0].outpoint == (bundle.tx1.txid, 0)
        assert bundle.tx2.outputs[0].owner == "bob"

    def test_self_transfer_is_valid(self):
        chain, _ = fresh_wallet()
        bundle = build_transfer(request(recipient="alice"), chain.utxo_set, CFG)
        assert bundle.tx2.outputs[0].owner == "alice"

    def test_zero_amount_rejected_at_request(self):
        with pytest.raises(ValueError):
            request(amount=0)

    def test_insufficient_funds(self):
        chain, _ = fresh_wallet(balance=1_000)
        with pytest.raises(InsufficientFunds):
            build_transfer(request(), chain.utxo_set, CFG)

    def test_pure_construction(self):
        chain, _ = fresh_wallet()
        a = build_transfer(request(), chain.utxo_set, CFG)
        b = build_transfer(request(), chain.utxo_set, CFG)
        assert a.tx1 == b.tx1 and a.tx2 == b.tx2

    def test_rbf_flag_sets_sequences(self):
        chain, _ = fresh_wallet()
        on = build_transfer(request(rbf=True), chain.utxo_set, CFG)
        off = build_transfer(request(rbf=False), chain.utxo_set, CFG)
        assert all(i.sequence == RBF_SEQUENCE for i in on.tx2.inputs)
        assert all(i.sequence == MAX_SEQUENCE for i in off.tx2.inputs)
        assert on.tx2.rbf_enabled and not off.tx2.rbf_enabled

    def test_never_funds_with_inscribed_coins(self):
        chain, pool = fresh_wallet(balance=300_000)
        first = build_transfer(request(), chain.utxo_set, CFG)
        submit_bundle(first, pool, 0.0, CFG)
        pool.mine_block(600.0)  # both legs confirm; inscription at bob
        # bob now owns the inscribed dust; a transfer from bob must not use it
        chain.utxo_set.grant("bob", 200_000)
        bundle = build_transfer(request(sender="bob", recipient="alice"),
                                chain.utxo_set, CFG)
        inscribed = {
            u.serial for u in chain.utxo_set.owned_by("bob")
            if chain.utxo_set.carries_inscription(u)
        }
        assert inscribed
        assert all(i.outpoint not in inscribed for i in bundle.tx1.inputs)


class TestSubmitBundle:
    def test_both_accepted_and_dependency_tracked(self):
        chain, pool = fresh_wallet()
        bundle = build_transfer(request(), chain.utxo_set, CFG)
        r1, r2 = submit_bundle(bundle, pool, 5.0, CFG)
        assert r1.accepted and r2.accepted
        assert bundle.tx2_submit == 5.0 + CFG.bundle_gap
        assert pool.entries[bundle.tx2.txid].depends_on == {bundle.tx1.txid}
        pool.mine_block(600.0)
        assert chain.confirmed(bundle.tx1.txid)

    def test_tx2_below_min_relay_is_retriable(self):
        chain = Chain()
        chain.utxo_set.grant("alice", 10_000_000)
        pool = Mempool(SimConfig(block_capacity_vbytes=10_400, min_relay_fee_rate=100), chain)
        bundle = build_transfer(request(fee_rate=50), chain.utxo_set, CFG)
        r1, r2 = submit_bundle(bundle, pool, 0.0, CFG)
        assert not r1.accepted and not r2.accepted


class TestFeeBump:
    def test_bump_steps_by_quarter_rounded_up(self):
        assert bumped_rate(200) == 250
        assert bumped_rate(201) == 252  # 251.25 rounds up
        assert bumped_rate(1) == 2

    def test_replacement_accepted(self):
        chain, pool = fresh_wallet()
        bundle = build_transfer(request(max_retries=3), chain.utxo_set, CFG)
        submit_bundle(bundle, pool, 0.0, CFG)
        bumped = retry_with_fee_bump(bundle, pool, 10.0, CFG)
        assert bumped.fee_rate == 250
        assert bumped.retries == 1
        assert bumped.tx2.txid in pool and bundle.tx2.txid not in pool
        assert pool.entries[bumped.tx2.txid].fee == 250 * 600

    def test_retries_exhausted_aborts(self):
        chain, pool = fresh_wallet()
        bundle = build_transfer(request(max_retries=2), chain.utxo_set, CFG)
        submit_bundle(bundle, pool, 0.0, CFG)
        bundle = retry_with_fee_bump(bundle, pool, 10.0, CFG)
        bundle = retry_with_fee_bump(bundle, pool, 20.0, CFG)
        with pytest.raises(RetriesExhausted):
            retry_with_fee_bump(bundle, pool, 30.0, CFG)

    def test_non_replaceable_tx2(self):
        chain, pool = fresh_wallet()
        bundle = build_transfer(request(rbf=False), chain.utxo_set, CFG)
        submit_bundle(bundle, pool, 0.0, CFG)
        with pytest.raises(ConflictNotReplaceable):
            retry_with_fee_bump(bundle, pool, 10.0, CFG)


class TestRecovery:
    def make_pinned(self):
        """Sim with one in-band bundle pinned under a congested market."""
        band = FeeBand.from_floor(100)  # (100, 225)
        profile = CongestionProfile.for_band(band.f_min, band.f_sf, 0.75, seed=3)
        sim = Simulation(SimConfig(), profile)
        for _ in range(4):
            sim.grant("alice", 10_000_000)
        req = request(fee_rate=201, recipient="bob")
        bundle = build_transfer(req, sim.chain.utxo_set, CFG)
        r1, r2 = submit_bundle(bundle, sim.pool, sim.now, CFG)
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
