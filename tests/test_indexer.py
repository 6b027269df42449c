"""BRC20 state machine: parsing, balances, pending transfers, replay."""

import json
import random

import pytest
from scenario_tools import Scenario, inscribed_tx, move_tx, random_scenario

from brc20sim.chain import (
    OrdinalRange, Receipt, Transaction, TxInput, Utxo, UtxoSet, make_txid,
)
from brc20sim.indexer import (
    Deploy,
    InscribeTransfer,
    Indexer,
    Mint,
    PendingTransfer,
    deploy_inscription,
    mint_inscription,
    parse_envelope,
    replay,
    transfer_inscription,
)


class TestParseEnvelope:
    def test_deploy_sample(self):
        raw = '{"p":"brc20","op":"deploy","tick":"ordi","max":"2100000","lim":"1000"}'
        assert parse_envelope(raw) == Deploy("ordi", 2_100_000, 1_000)

    def test_transfer_with_tick_as_protocol(self):
        raw = '{"p":"ordi","op":"transfer","tick":"ordi","amt":"100"}'
        assert parse_envelope(raw) == InscribeTransfer("ordi", 100)

    def test_plain_text_is_foreign(self):
        assert parse_envelope("hello world") is None

    def test_unrelated_protocol(self):
        assert parse_envelope('{"p":"xyz","op":"mint","tick":"abc","amt":"5"}') is None

    def test_mint(self):
        assert parse_envelope(
            '{"p":"brc-20","op":"mint","tick":"ORDI","amt":"1000"}'
        ) == Mint("ordi", 1_000)

    def test_lim_defaults_to_max(self):
        op = parse_envelope('{"p":"brc20","op":"deploy","tick":"t","max":"500"}')
        assert op == Deploy("t", 500, 500)

    def test_bad_numbers_rejected(self):
        assert parse_envelope('{"p":"brc20","op":"mint","tick":"t","amt":"-5"}') is None
        assert parse_envelope('{"p":"brc20","op":"mint","tick":"t","amt":"1.5"}') is None
        assert parse_envelope('{"p":"brc20","op":"mint","tick":"t","amt":true}') is None
        assert parse_envelope('{"p":"brc20","op":"deploy","tick":"t"}') is None

    def test_big_integers_survive(self):
        big = str(10**30)
        op = parse_envelope(
            json.dumps({"p": "brc20", "op": "mint", "tick": "t", "amt": big})
        )
        assert op == Mint("t", 10**30)

    def test_canonical_builders_round_trip(self):
        assert parse_envelope(deploy_inscription("t", 100, 10)) == Deploy("t", 100, 10)
        assert parse_envelope(mint_inscription("t", 5)) == Mint("t", 5)
        assert parse_envelope(transfer_inscription("t", 5)) == InscribeTransfer("t", 5)


@pytest.mark.parametrize("raw", [
    "[" * 5000 + "]" * 5000,  # once RecursionError out of the decoder
    '{"p":"brc20","op":"mint","tick":"t","amt":' + "1" * 5000 + "}",  # past int()'s digit limit
    '{"p":"brc20","op":"mint","tick":"t","amt":"' + "1" * 5000 + '"}',
    '{"p":"brc20","op":"mint","tick":"t","amt":"\u00b2"}',  # a digit to isdigit(), not to int()
], ids=["nested", "huge-int", "huge-digit-string", "superscript-digit"])
def test_a_payload_that_cannot_be_decoded_is_not_brc20(raw):
    # each once raised out of parse_envelope, and so out of the indexer's block step
    assert parse_envelope(raw) is None

class TestStateMachine:
    def setup_scenario(self, minted=1000):
        sc = Scenario()
        sc.apply(inscribed_tx(sc, "minter", deploy_inscription("ordi", 10_000, 10_000), "dep"))
        sc.apply(inscribed_tx(sc, "minter", mint_inscription("ordi", minted), "mint"))
        return sc

    def test_deploy_then_mint_credits_available(self):
        sc = self.setup_scenario()
        assert sc.indexer.balance("ordi", "minter") == (1000, 0, 1000)

    def test_first_deploy_wins(self):
        sc = self.setup_scenario()
        sc.apply(inscribed_tx(sc, "other", deploy_inscription("ordi", 5, 5), "dep2"))
        assert sc.indexer.ticks["ordi"].max == 10_000

    def test_mint_over_lim_void(self):
        sc = Scenario()
        sc.apply(inscribed_tx(sc, "m", deploy_inscription("t", 100, 10), "d"))
        sc.apply(inscribed_tx(sc, "m", mint_inscription("t", 11), "m1"))
        assert sc.indexer.balance("t", "m") == (0, 0, 0)

    def test_mint_past_max_void_in_full(self):
        sc = Scenario()
        sc.apply(inscribed_tx(sc, "m", deploy_inscription("t", 15, 10), "d"))
        sc.apply(inscribed_tx(sc, "m", mint_inscription("t", 10), "m1"))
        sc.apply(inscribed_tx(sc, "m", mint_inscription("t", 10), "m2"))
        assert sc.indexer.balance("t", "m") == (10, 0, 10)
        assert sc.indexer.ticks["t"].minted == 10

    def test_a_mint_to_max_supply_exactly_is_credited(self):
        sc = Scenario()
        sc.apply(inscribed_tx(sc, "m", deploy_inscription("t", 15, 10), "d"))
        sc.apply(inscribed_tx(sc, "m", mint_inscription("t", 10), "m1"))
        sc.apply(inscribed_tx(sc, "m", mint_inscription("t", 6), "m2"))  # 1 past max: void whole
        assert sc.indexer.ticks["t"].minted == 10
        sc.apply(inscribed_tx(sc, "m", mint_inscription("t", 5), "m3"))  # max exactly
        assert sc.indexer.balance("t", "m") == (15, 0, 15)
        assert sc.indexer.ticks["t"].minted == 15

    def test_two_step_transfer_balances(self):
        # inscribe: available -> transferable, totals unchanged; recipient untouched
        sc = self.setup_scenario()
        tx1 = inscribed_tx(sc, "minter", transfer_inscription("ordi", 100), "tx1")
        block = sc.apply(tx1)
        assert sc.indexer.balance("ordi", "minter") == (900, 100, 1000)
        assert sc.indexer.balance("ordi", "recipient") == (0, 0, 0)
        # execute: inscribed satoshi moves to the recipient
        utxo = sc.work.utxos[(tx1.txid, 0)]
        sc.apply(move_tx(sc, utxo, "recipient", "tx2"))
        assert sc.indexer.balance("ordi", "minter") == (900, 0, 900)
        assert sc.indexer.balance("ordi", "recipient") == (100, 0, 100)

    def test_self_send_restores_available(self):
        sc = self.setup_scenario()
        tx1 = inscribed_tx(sc, "minter", transfer_inscription("ordi", 100), "tx1")
        sc.apply(tx1)
        utxo = sc.work.utxos[(tx1.txid, 0)]
        sc.apply(move_tx(sc, utxo, "minter", "tx2"))
        assert sc.indexer.balance("ordi", "minter") == (1000, 0, 1000)
        assert not sc.indexer.pending

    def test_insufficient_available_voids_inscription(self):
        sc = self.setup_scenario(minted=50)
        tx1 = inscribed_tx(sc, "minter", transfer_inscription("ordi", 100), "tx1")
        sc.apply(tx1)
        assert sc.indexer.balance("ordi", "minter") == (50, 0, 50)
        assert not sc.indexer.pending

    def test_unknown_tick_voids_inscription(self):
        sc = Scenario()
        sc.apply(inscribed_tx(sc, "m", transfer_inscription("ghost", 5), "tx1"))
        assert sc.indexer.balance("ghost", "m") == (0, 0, 0)

    def test_fee_burn_returns_to_inscriber(self):
        sc = self.setup_scenario()
        tx1 = inscribed_tx(sc, "minter", transfer_inscription("ordi", 100), "tx1")
        sc.apply(tx1)
        utxo = sc.work.utxos[(tx1.txid, 0)]
        burn = Transaction(  # no outputs: every input satoshi becomes fee
            make_txid((TxInput(utxo.serial),), (), 100, tag="burn"),
            (TxInput(utxo.serial),),
            (),
            100,
        )
        sc.apply(burn)
        assert sc.indexer.balance("ordi", "minter") == (1000, 0, 1000)
        assert not sc.indexer.pending

    def test_consumed_pending_stays_consumed(self):
        sc = self.setup_scenario()
        tx1 = inscribed_tx(sc, "minter", transfer_inscription("ordi", 100), "tx1")
        sc.apply(tx1)
        utxo = sc.work.utxos[(tx1.txid, 0)]
        tx2 = move_tx(sc, utxo, "recipient", "tx2")
        sc.apply(tx2)
        # moving the same satoshi again has no further token effect
        moved = sc.work.utxos[(tx2.txid, 0)]
        sc.apply(move_tx(sc, moved, "third", "tx3"))
        assert sc.indexer.balance("ordi", "recipient") == (100, 0, 100)
        assert sc.indexer.balance("ordi", "third") == (0, 0, 0)

    def test_transfers_records_each_opened_transfer_by_txid(self):
        # a covered inscription maps its txid to the ordinal it bound, and keeps
        # it once consumed; a void one (amount above available) gets no entry
        sc = self.setup_scenario()
        valid = inscribed_tx(sc, "minter", transfer_inscription("ordi", 100), "valid")
        void = inscribed_tx(sc, "minter", transfer_inscription("ordi", 5_000), "void")
        sc.apply(valid, void)
        utxo = sc.work.utxos[(valid.txid, 0)]
        assert sc.indexer.transfers == {valid.txid: utxo.first_ordinal()}
        assert list(sc.indexer.pending) == [utxo.first_ordinal()]
        sc.apply(move_tx(sc, utxo, "recipient", "tx2"))
        assert sc.indexer.transfers == {valid.txid: utxo.first_ordinal()}
        assert not sc.indexer.pending
        assert replay(sc.blocks, sc.genesis()).transfers == sc.indexer.transfers

    def test_balance_defaults_to_zero(self):
        assert Indexer().balance("none", "nobody") == (0, 0, 0)


def spent_coins(rng: random.Random) -> tuple[Utxo, ...]:
    """Coins of one to three ranges each, in no ordinal order, with gaps of zero
    to three satoshis between ranges, so that one range may end where the next
    begins."""
    coins, ordinal = [], rng.randint(0, 3)
    for n in range(rng.randint(0, 4)):
        ranges = []
        for _ in range(rng.randint(1, 3)):
            length = rng.randint(1, 6)
            ranges.append(OrdinalRange(ordinal, length))
            ordinal += length + rng.randint(0, 3)
        rng.shuffle(ranges)
        coins.append(Utxo(("spent", n), sum(r.length for r in ranges), "owner", tuple(ranges)))
    rng.shuffle(coins)
    return tuple(coins)


def pending_ordinals(rng: random.Random, coins: tuple[Utxo, ...]) -> set[int]:
    """Ordinals at and next to each range's edges (its start, its last satoshi,
    ``start - 1`` and ``start + length``), and a few others."""
    edges = [o for u in coins for r in u.ordinals
             for o in (r.start - 1, r.start, r.end - 1, r.end)]
    picked = rng.sample(edges, rng.randint(0, len(edges))) if edges else []
    return {o for o in picked if o >= 0} | {rng.randint(0, 60) for _ in range(rng.randint(0, 3))}


class TestPendingInInputs:
    def test_agrees_with_a_scan_of_every_pending_transfer(self):
        rng, hits = random.Random(11), 0
        for _ in range(500):
            spent = spent_coins(rng)
            indexer = Indexer()
            for o in pending_ordinals(rng, spent):
                indexer.pending[o] = PendingTransfer(o, "ordi", 1, "inscriber")
            receipt = Receipt(spent, (), None)
            expected = [indexer.pending[o] for o in sorted(indexer.pending)
                        if any(u.holds(o) for u in spent)]
            assert indexer._pending_in_inputs(receipt) == expected
            hits += len(expected)
        assert hits > 500

    def test_a_range_holds_its_start_and_not_its_end(self):
        coin = Utxo(("spent", 0), 8, "owner", (OrdinalRange(20, 3), OrdinalRange(10, 5)))
        indexer = Indexer()
        for o in (9, 10, 14, 15, 19, 20, 22, 23):
            indexer.pending[o] = PendingTransfer(o, "ordi", 1, "inscriber")
        found = indexer._pending_in_inputs(Receipt((coin,), (), None))
        assert [p.inscription_ordinal for p in found] == [10, 14, 20, 22]
        assert Indexer()._pending_in_inputs(Receipt((coin,), (), None)) == []


class TestReplay:
    def test_empty_chain(self):
        assert replay([], UtxoSet()) == Indexer()

    def test_replay_leaves_genesis_unchanged(self):
        sc = random_scenario(3, blocks=10)
        genesis = sc.genesis()
        before = vars(genesis.copy())
        assert replay(sc.blocks, genesis) == sc.indexer
        assert vars(genesis) == before
        # a second replay from the same genesis starts from the same set
        assert replay(sc.blocks, genesis) == sc.indexer

    def test_replay_equals_incremental_and_conserves(self):
        for seed in range(20):
            sc = random_scenario(seed)
            assert sc.indexer.supply_is_conserved()
            rebuilt = replay(sc.blocks, sc.genesis())
            assert rebuilt == sc.indexer

    def test_conservation_after_every_block(self):
        sc = Scenario()
        rng = random.Random(123)
        addr = "solo"
        sc.apply(inscribed_tx(sc, addr, deploy_inscription("t", 10_000, 1_000), "d"))
        for i in range(30):
            amt = rng.randint(1, 500)
            sc.apply(inscribed_tx(sc, addr, mint_inscription("t", amt), f"m{i}"))
            assert sc.indexer.supply_is_conserved()
