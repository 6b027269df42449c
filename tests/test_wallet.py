"""Transfer bundle construction, sending, recovery."""

import pytest
from scenario_tools import pinned_transfer, send_times

from brc20sim.chain import RBF_SEQUENCE
from brc20sim.cli import main
from brc20sim.indexer import parse_envelope, InscribeTransfer
from brc20sim.sim import SimConfig, Simulation
from brc20sim.wallet import (
    BUNDLE_GAP,
    TX1_VSIZE,
    TX2_VSIZE,
    InsufficientFunds,
    NotOwner,
    TransferRequest,
    build_recovery,
    build_transfer,
)


def fresh_sim(balance=10_000_000, owner="alice", **settings):
    """A simulation without background load, one address funded."""
    sim = Simulation(SimConfig(block_capacity_vbytes=10_400, **settings))
    sim.grant(owner, balance)
    return sim


def request(**overrides):
    base = dict(amount=100, sender="alice", recipient="bob", fee_rate=200)
    base.update(overrides)
    return TransferRequest(**base)


def pool_fees(sim, bundle):
    return sim.pool.entries[bundle.tx1.txid].fee, sim.pool.entries[bundle.tx2.txid].fee


class TestBuildTransfer:
    def test_fee_split_matches_vsizes(self):
        sim = fresh_sim()
        bundle, _, _ = sim.send_transfer(request())
        assert pool_fees(sim, bundle) == (30_000, 120_000)
        assert (bundle.tx1.vsize, bundle.tx2.vsize) == (TX1_VSIZE, TX2_VSIZE) == (150, 600)

    def test_ratio_inside_observed_band_for_any_rate(self):
        for rate in (1, 7, 100, 201, 404, 999):
            sim = fresh_sim()
            bundle, _, _ = sim.send_transfer(request(fee_rate=rate))
            tx1_fee, tx2_fee = pool_fees(sim, bundle)
            assert 3 <= tx2_fee / tx1_fee <= 5

    def test_envelope_on_first_output_to_sender(self):
        chain = fresh_sim().chain
        bundle = build_transfer(request(), chain.utxo_set)
        out0 = bundle.tx1.outputs[0]
        assert out0.owner == "alice"
        assert parse_envelope(out0.inscription) == InscribeTransfer("ordi", 100)

    def test_tx2_spends_tx1_first_output_to_recipient(self):
        chain = fresh_sim().chain
        bundle = build_transfer(request(), chain.utxo_set)
        assert bundle.tx2.inputs[0].outpoint == (bundle.tx1.txid, 0)
        assert bundle.tx2.outputs[0].owner == "bob"

    def test_self_transfer_is_valid(self):
        chain = fresh_sim().chain
        bundle = build_transfer(request(recipient="alice"), chain.utxo_set)
        assert bundle.tx2.outputs[0].owner == "alice"

    def test_zero_amount_rejected_at_request(self):
        with pytest.raises(ValueError):
            request(amount=0)

    def test_insufficient_funds(self):
        chain = fresh_sim(balance=1_000).chain
        with pytest.raises(InsufficientFunds):
            build_transfer(request(), chain.utxo_set)

    def test_pure_construction(self):
        chain = fresh_sim().chain
        a = build_transfer(request(), chain.utxo_set)
        b = build_transfer(request(), chain.utxo_set)
        assert a.tx1 == b.tx1 and a.tx2 == b.tx2

    def test_every_bundle_input_signals_rbf(self):
        # build_recovery replaces a pinned Tx2, which BIP125 allows only if it signals
        chain = fresh_sim().chain
        bundle = build_transfer(request(), chain.utxo_set)
        assert len(bundle.tx1.inputs) >= 1 and len(bundle.tx2.inputs) == 2
        for tx in (bundle.tx1, bundle.tx2):
            assert all(i.sequence == RBF_SEQUENCE for i in tx.inputs)
            assert tx.rbf_enabled

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
        sent = send_times(sim)
        assert sent[bundle.tx1.txid] == 5.0
        assert sent[bundle.tx2.txid] == 5.0 + BUNDLE_GAP == sim.now
        assert sim.pool.entries[bundle.tx2.txid].depends_on == {bundle.tx1.txid}
        sim.run_blocks(1)
        assert sim.chain.confirmed(bundle.tx1.txid)

    def test_tx2_is_sent_after_a_block_that_falls_in_the_gap(self):
        sim = fresh_sim()
        sim.run_until(599.5)  # the first block is at 600.0, inside BUNDLE_GAP
        bundle, r1, r2 = sim.send_transfer(request())
        assert r1.accepted and r2.accepted
        sent = send_times(sim)
        assert sent[bundle.tx2.txid] == 600.5
        sim.run_blocks(1)
        confirmed_at = sim.chain.confirmation_time
        assert confirmed_at(bundle.tx1.txid) - sent[bundle.tx1.txid] == 0.5
        assert confirmed_at(bundle.tx2.txid) - sent[bundle.tx2.txid] == 599.5

    def test_tx2_below_min_relay_is_retriable(self):
        sim = fresh_sim()
        bundle, r1, r2 = sim.send_transfer(request(fee_rate=0))  # under the 1 sat/vB floor
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


class TestRecovery:
    def test_recovery_outbids_pin(self):
        sim, bundle, pending = pinned_transfer()
        recovery = build_recovery(
            pending, sim.chain.utxo_set, "alice", fee_rate=404, exclude=set(sim.pool.spends),
        )
        result = sim.submit(recovery)
        assert result.accepted and bundle.tx2.txid in result.replaced
        sim.run_blocks(1)
        assert sim.chain.confirmed(recovery.txid)
        # the inscribed satoshi is back with its owner
        assert sim.chain.utxo_set.locate_ordinal(pending.inscription_ordinal).owner == "alice"

    def test_logged_recovery_is_timed_and_replays(self, tmp_path, capsys):
        sim, bundle, pending = pinned_transfer()
        sent = sim.now
        recovery = build_recovery(
            pending, sim.chain.utxo_set, "alice", fee_rate=404, exclude=set(sim.pool.spends),
        )
        result = sim.submit(recovery)
        assert result.accepted and bundle.tx2.txid in result.replaced
        sim.run_blocks(1)
        assert sim.chain.confirmed(recovery.txid)
        assert send_times(sim)[recovery.txid] == sent
        assert sim.chain.confirmation_time(recovery.txid) == sim.now
        log = tmp_path / "recovery.jsonl"
        sim.export_event_log(str(log))
        assert main(["replay", str(log)]) == 0
        assert "replay OK" in capsys.readouterr().out

    def test_recovery_at_pinned_rate_stays_pinned(self):
        sim, bundle, pending = pinned_transfer()
        recovery = build_recovery(
            pending, sim.chain.utxo_set, "alice", fee_rate=202, exclude=set(sim.pool.spends),
        )
        result = sim.submit(recovery)
        assert result.accepted  # replaces the 201 pin, but still below market
        sim.run_blocks(5)
        assert not sim.chain.confirmed(recovery.txid)

    def test_not_owner(self):
        sim, bundle, pending = pinned_transfer()
        with pytest.raises(NotOwner):
            build_recovery(pending, sim.chain.utxo_set, "mallory", 404)
