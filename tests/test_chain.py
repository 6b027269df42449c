"""UTXO ledger and ordinal FIFO tests."""

import json
import random
from collections import Counter
from dataclasses import fields, replace

import pytest

from brc20sim import chain as chain_module
from brc20sim.background import BackgroundLoad, CongestionProfile
from brc20sim.chain import (
    EMPTY_RECEIPT,
    Chain,
    Block,
    LengthMismatch,
    MarketTx,
    MissingInput,
    NegativeFee,
    OrdinalBurned,
    OrdinalUnknown,
    OrdinalRange,
    Transaction,
    TxInput,
    TxOutput,
    UtxoSet,
    assign_ordinals,
    make_txid,
)
from brc20sim.mempool import ACCEPTED
from brc20sim.sim import log_line
from brc20sim.wallet import TransferRequest, build_transfer


def flatten(ranges):
    """Expand ordinal ranges into the explicit satoshi list."""
    return [r.start + i for r in ranges for i in range(r.length)]


def oracle_assign(input_ranges, output_values, fee):
    """Per-satoshi brute-force FIFO: independent of the range arithmetic."""
    sats = [s for ranges in input_ranges for s in flatten(ranges)]
    assert len(sats) == sum(output_values) + fee
    out, pos = [], 0
    for value in output_values:
        out.append(sats[pos : pos + value])
        pos += value
    return out


def tx(txid, inputs, outputs, vsize=100):
    return Transaction(txid=txid, inputs=tuple(inputs), outputs=tuple(outputs), vsize=vsize)


class TestAssignOrdinals:
    def test_eight_sat_split_with_fee_tail(self):
        # 8 sats #1..#8 -> 3 to A, 2 to B, 2 back, 1 sat fee burned off the tail
        out = assign_ordinals([[OrdinalRange(1, 8)]], [3, 2, 2], 1)
        assert out == [
            [OrdinalRange(1, 3)],
            [OrdinalRange(4, 2)],
            [OrdinalRange(6, 2)],
        ]

    def test_empty(self):
        assert assign_ordinals([], [], 0) == []

    def test_straddling_input_boundary(self):
        out = assign_ordinals([[OrdinalRange(5, 2), OrdinalRange(9, 1)]], [1, 2], 0)
        assert out == [[OrdinalRange(5, 1)], [OrdinalRange(6, 1), OrdinalRange(9, 1)]]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            assign_ordinals([[OrdinalRange(0, 4)]], [3], 2)

    def test_negative_fee_rejected(self):
        with pytest.raises(LengthMismatch):
            assign_ordinals([[OrdinalRange(0, 4)]], [5], -1)

    def test_matches_per_satoshi_oracle(self):
        rng = random.Random(0xF1F0)
        for _ in range(1000):
            total = rng.randint(1, 16)
            # carve the satoshis into random disjoint input ranges
            cuts = sorted(rng.sample(range(1, total), rng.randint(0, total - 1)))
            bounds = [0, *cuts, total]
            base = rng.randint(0, 50)
            ranges = [
                [OrdinalRange(base + lo, hi - lo)]
                for lo, hi in zip(bounds, bounds[1:])
            ]
            fee = rng.randint(0, total)
            remaining = total - fee
            values = []
            while remaining:
                v = rng.randint(1, remaining)
                values.append(v)
                remaining -= v
            got = assign_ordinals(ranges, values, fee)
            assert [flatten(r) for r in got] == oracle_assign(ranges, values, fee)

    def test_pure_and_deterministic(self):
        args = ([[OrdinalRange(3, 5)], [OrdinalRange(20, 4)]], [2, 6], 1)
        assert assign_ordinals(*args) == assign_ordinals(*args)


class TestApplyTransaction:
    def setup_method(self):
        self.state = UtxoSet()

    def test_fig_split_ownership(self):
        funding = self.state.grant("sender", 8)
        spend = tx(
            "t1",
            [TxInput(funding.serial)],
            [TxOutput(3, "A"), TxOutput(2, "B"), TxOutput(2, "sender")],
        )
        self.state.apply_transaction(spend)
        first = funding.first_ordinal()
        # ordinals are 0-based here; the split pattern is what matters
        assert self.state.locate_ordinal(first + 0).owner == "A"
        assert self.state.locate_ordinal(first + 3).owner == "B"
        assert self.state.locate_ordinal(first + 5).owner == "sender"
        with pytest.raises(OrdinalBurned):
            self.state.locate_ordinal(first + 7)

    def test_single_in_single_out_identity(self):
        funding = self.state.grant("alice", 5)
        spend = tx("t1", [TxInput(funding.serial)], [TxOutput(5, "alice")])
        self.state.apply_transaction(spend)
        assert self.state.utxos[("t1", 0)].ordinals == funding.ordinals

    def test_two_inputs_fifo(self):
        a = self.state.grant("x", 3)  # ordinals 0..2
        b = self.state.grant("x", 2)  # ordinals 3..4
        spend = tx("t1", [TxInput(a.serial), TxInput(b.serial)],
                   [TxOutput(4, "y"), TxOutput(1, "z")])
        self.state.apply_transaction(spend)
        assert flatten(self.state.utxos[("t1", 0)].ordinals) == [0, 1, 2, 3]
        assert flatten(self.state.utxos[("t1", 1)].ordinals) == [4]

    def test_missing_input(self):
        with pytest.raises(MissingInput):
            self.state.apply_transaction(
                tx("t1", [TxInput(("nope", 0))], [TxOutput(1, "a")])
            )

    def test_double_spend_across_sequence(self):
        funding = self.state.grant("a", 10)
        first = tx("t1", [TxInput(funding.serial)], [TxOutput(10, "b")])
        self.state.apply_transaction(first)
        replay = tx("t2", [TxInput(funding.serial)], [TxOutput(10, "c")])
        with pytest.raises(MissingInput):
            self.state.apply_transaction(replay)

    def test_duplicate_input_within_tx(self):
        funding = self.state.grant("a", 10)
        bad = tx("t1", [TxInput(funding.serial), TxInput(funding.serial)],
                 [TxOutput(20, "b")])
        with pytest.raises(MissingInput):
            self.state.apply_transaction(bad)

    def test_negative_fee(self):
        funding = self.state.grant("a", 5)
        with pytest.raises(NegativeFee):
            self.state.apply_transaction(
                tx("t1", [TxInput(funding.serial)], [TxOutput(9, "b")])
            )

    def test_satoshi_conservation_random(self):
        rng = random.Random(7)
        state = UtxoSet()
        live = [state.grant("w", rng.randint(1, 12)) for _ in range(6)]
        burned: set[int] = set()
        for i in range(200):
            take = rng.sample(live, rng.randint(1, min(3, len(live))))
            total = sum(u.value for u in take)
            fee = rng.randint(0, total - 1) if total > 1 else 0
            remaining = total - fee
            values = []
            while remaining:
                v = rng.randint(1, remaining)
                values.append(v)
                remaining -= v
            stream = [s for u in take for s in flatten(u.ordinals)]  # input order
            spend = tx(
                f"t{i}",
                [TxInput(u.serial) for u in take],
                [TxOutput(v, "w") for v in values],
            )
            receipt = state.apply_transaction(spend)
            live = [u for u in live if u not in take]
            created = [
                state.utxos[(f"t{i}", j)] for j in range(len(values)) if values[j] > 0
            ]
            after = [s for u in created for s in flatten(u.ordinals)]
            # satoshi stream preserved in order, minus the burned tail
            assert after == stream[: len(stream) - fee]
            burned.update(stream[len(stream) - fee :])
            # the receipt reports exactly what the set spent and created
            assert list(receipt.spent) == take
            assert list(receipt.created) == created
            assert sum(u.value for u in receipt.spent) == (
                sum(u.value for u in receipt.created) + fee
            )
            assert receipt.envelope is None
            live.extend(created)
            if not live:
                live = [state.grant("w", rng.randint(1, 12))]
        # every allocated satoshi sits in exactly one UTXO unless a fee burned it
        held = Counter(s for u in state.utxos.values() for s in flatten(u.ordinals))
        assert burned and set(held.values()) == {1}
        for ordinal in range(state._next_ordinal):
            if ordinal in burned:
                assert ordinal not in held
                with pytest.raises(OrdinalBurned):
                    state.locate_ordinal(ordinal)
            else:
                assert state.locate_ordinal(ordinal).holds(ordinal)
        with pytest.raises(OrdinalUnknown):
            state.locate_ordinal(state._next_ordinal)


class TestInscriptions:
    def test_binds_to_first_sat_of_first_output(self):
        state = UtxoSet()
        funding = state.grant("alice", 1000)
        spend = tx(
            "t1",
            [TxInput(funding.serial)],
            [TxOutput(546, "alice", inscription="{}"), TxOutput(400, "alice")],
        )
        envelope = state.apply_transaction(spend).envelope
        assert envelope is not None
        assert envelope.bound_ordinal == funding.first_ordinal()
        assert state.locate_ordinal(envelope.bound_ordinal).owner == "alice"

    def test_envelope_rejected_off_first_output(self):
        with pytest.raises(ValueError):
            tx("t1", [TxInput(("x", 0))],
               [TxOutput(5, "a"), TxOutput(5, "b", inscription="{}")])
        with pytest.raises(ValueError):
            tx("t1", [TxInput(("x", 0))], [TxOutput(0, "a", inscription="{}")])

    def test_unknown_ordinal(self):
        with pytest.raises(OrdinalUnknown):
            UtxoSet().locate_ordinal(5)

    def test_carries_inscription_per_range(self):
        state = UtxoSet()
        a, b, c = (state.grant("a", 10) for _ in range(3))  # [0, 10), [10, 20), [20, 30)
        state.apply_transaction(tx("i", [TxInput(b.serial)], [TxOutput(10, "a", inscription="{}")]))
        state.apply_transaction(tx("m", [TxInput(a.serial), TxInput(c.serial)], [TxOutput(20, "a")]))
        merged, inscribed = state.utxos[("m", 0)], state.utxos[("i", 0)]
        assert [(r.start, r.end) for r in merged.ordinals] == [(0, 10), (20, 30)]
        # ordinal 10 sits just past the first range and before the second
        assert not state.carries_inscription(merged) and state.carries_inscription(inscribed)
        state.apply_transaction(tx("j", [TxInput(merged.serial)], [TxOutput(20, "a", inscription="{}")]))
        assert state.inscribed == [0, 10]
        assert state.carries_inscription(state.utxos[("j", 0)])
        # an ordinal inscribed twice is listed once
        state.apply_transaction(tx("k", [TxInput(("j", 0))], [TxOutput(20, "a", inscription="{}")]))
        assert state.inscribed == [0, 10]


def mined_market_entry(chain: Chain, txid: str = "p") -> tuple[str, int]:
    """The outpoint a coin at output 0 of a market entry mined on ``chain`` would have."""
    chain.append_block(Block(chain.height + 1, 600.0, (MarketTx(txid, 1_000, 100, 0.0),)))
    return (txid, 0)


class TestValueOnly:
    """Market entries are value-only: a fee and a vsize, with no coin; mined, they
    spend nothing, create nothing and take no ordinal."""

    @pytest.fixture(autouse=True)
    def no_ordinal_pass(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a market entry reached assign_ordinals")

        monkeypatch.setattr(chain_module, "assign_ordinals", refuse)

    def test_outputs_leave_the_model(self):
        chain = Chain()
        utxo = chain.utxo_set.grant("a", 10)
        coin = mined_market_entry(chain)
        assert chain.tip_receipts == [EMPTY_RECEIPT] and chain.confirmation_time("p") == 600.0
        assert chain.utxo_set.utxos == {utxo.serial: utxo} and chain.utxo_set._next_ordinal == 10
        # so nothing can spend them
        for index in (0, 1):
            with pytest.raises(MissingInput):
                chain.utxo_set.apply_transaction(tx("c", [TxInput((coin[0], index))],
                                                    [TxOutput(1, "z")]))

    def test_unknown_input(self):
        chain = Chain()
        utxo = chain.utxo_set.grant("a", 100)
        coin = mined_market_entry(chain)
        for inputs in ([utxo.serial, coin], [coin, utxo.serial]):
            with pytest.raises(MissingInput):
                chain.utxo_set.apply_transaction(tx("t", [TxInput(o) for o in inputs],
                                                    [TxOutput(1, "a")]))
        assert chain.utxo_set.utxos == {utxo.serial: utxo}

    def test_overspent(self):
        # an entry's fee is all it pays: none is negative, and none has no size
        for fee, vsize in ((-1, 100), (0, 0), (5, -1)):
            with pytest.raises(ValueError, match="market entry needs"):
                MarketTx("t", fee, vsize, 0.0)
        assert MarketTx("t", 0, 1, 0.0).fee == 0

    def test_copy_is_independent(self):
        chain = Chain()
        chain.utxo_set.grant("a", 10)
        dup = chain.copy()
        mined_market_entry(chain)
        assert chain.confirmed("p") and not dup.confirmed("p")
        assert dup.blocks == [] and dup.tip_receipts == []
        # the copy carries the grant count
        assert (dup.utxo_set.grant("b", 1).serial == chain.utxo_set.grant("b", 1).serial
                == ("genesis-1", 0))


# Bad spends, each as (inputs, outputs, error); "coin" is the outpoint output 0 of a
# mined market entry would have, and "utxo" a granted coin of 1,000 sat.
BAD_VALUE_ONLY_SPENDS = {
    "unknown-beside": (["utxo", ("nope", 0)], [TxOutput(1, "a")], MissingInput),
    "unknown-alone": ([("nope", 0)], [TxOutput(1, "a")], MissingInput),
    "spent-twice": (["utxo", "utxo"], [TxOutput(1, "a")], MissingInput),
    "overspent": (["utxo"], [TxOutput(1_001, "a")], NegativeFee),
    "coin-then-utxo": (["coin", "utxo"], [TxOutput(5, "a")], MissingInput),
    "utxo-then-coin": (["utxo", "coin"], [TxOutput(5, "a")], MissingInput),
    "inscribed": (["coin"], [TxOutput(546, "a", inscription="{}")], MissingInput),
}


class TestValueOnlyInABlock:
    """``Chain.append_block`` takes market entries in its own loop: a block must
    raise, and leave the ledger, exactly as ``UtxoSet.apply_transaction`` does."""

    @staticmethod
    def ledger() -> tuple[Chain, dict[str, tuple[str, int]]]:
        chain = Chain()
        coin = mined_market_entry(chain)
        return chain, {"coin": coin, "utxo": chain.utxo_set.grant("a", 1_000).serial}

    @pytest.mark.parametrize("case", sorted(BAD_VALUE_ONLY_SPENDS))
    def test_a_block_raises_as_the_ledger_does(self, case):
        inputs, outputs, error = BAD_VALUE_ONLY_SPENDS[case]
        for through_block in (False, True):
            chain, named = self.ledger()
            state = chain.utxo_set
            before = dict(state.utxos)
            bad = tx("bad", [TxInput(named.get(o, o)) for o in inputs], outputs)
            with pytest.raises(error):
                if through_block:
                    chain.append_block(Block(1, 1_200.0, (MarketTx("q", 500, 100, 0.0), bad)))
                else:
                    state.apply_transaction(bad)
            assert state.utxos == before, (case, through_block)
            assert len(chain.blocks) == 1 and not chain.confirmed("bad")

    def test_a_block_spending_one_coin_twice_raises(self):
        chain, named = self.ledger()
        first, second = (tx(t, [TxInput(named["utxo"])], [TxOutput(50, "a")]) for t in "xy")
        with pytest.raises(MissingInput):
            chain.append_block(Block(1, 1_200.0, (first, second)))
        assert len(chain.blocks) == 1

    def test_value_only_spends_take_no_ledger_call(self, monkeypatch):
        chain, named = self.ledger()
        calls = []
        apply = UtxoSet.apply_transaction
        monkeypatch.setattr(UtxoSet, "apply_transaction",
                            lambda state, t: calls.append(t.txid) or apply(state, t))
        block = (MarketTx("q", 1_000, 100, 0.0), MarketTx("r", 600, 250, 0.0),
                 tx("g", [TxInput(named["utxo"])], [TxOutput(900, "b")]))
        receipts = chain.append_block(Block(1, 1_200.0, block))
        # the two market entries stayed in the block loop; the granted coin did not
        assert calls == ["g"]
        assert receipts[:2] == [EMPTY_RECEIPT] * 2 and receipts == chain.tip_receipts
        assert all(receipt is EMPTY_RECEIPT for receipt in receipts[:2])
        assert list(chain.utxo_set.utxos) == [("g", 0)]
        assert all(chain.confirmation_time(t.txid) == 1_200.0 for t in block)


def logged_tx(t: Transaction) -> dict:
    """The "tx" object of the event-log line that records a submission of ``t``."""
    return json.loads(log_line(("submit", 0.0, t, ACCEPTED)))["tx"]


class TestSerialization:
    def test_transaction_round_trip(self):
        t = tx("t9", [TxInput(("g", 0), 0xFFFFFFFD)],
               [TxOutput(1, "a", inscription="x")], vsize=150)
        assert Transaction.from_dict(logged_tx(t)) == t

    @pytest.mark.parametrize(
        "path, bad",
        [
            (("inputs", 0, "outpoint"), [["a"], 0]),
            (("inputs", 0, "outpoint"), ["g", True]),
            (("inputs", 0, "sequence"), 1.0),
            (("outputs", 0, "value"), "1"),
            (("outputs", 0, "owner"), 5),
            (("outputs", 0, "inscription"), {}),
            (("txid",), None),
            (("vsize",), 150.0),
            (("outputs", 0, "value"), True),  # a bool is no count
        ],
    )
    def test_from_dict_rejects_wrong_types(self, path, bad):
        data = logged_tx(tx("t9", [TxInput(("g", 0))], [TxOutput(1, "a", inscription="x")]))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bad
        with pytest.raises(TypeError):
            Transaction.from_dict(data)


class TestChain:
    def test_blocks_confirm_and_index(self):
        chain = Chain()
        funding = chain.utxo_set.grant("a", 5)
        spend = tx("t1", [TxInput(funding.serial)], [TxOutput(5, "b")])
        chain.append_block(Block(height=0, timestamp=600.0, transactions=(spend,)))
        assert chain.confirmed("t1")
        assert chain.confirmation_time("t1") == 600.0
        assert not chain.confirmed("t2")

    def test_txid_derivation_is_content_addressed(self):
        a = make_txid((TxInput(("x", 0)),), (TxOutput(1, "a"),), 100)
        b = make_txid((TxInput(("x", 0)),), (TxOutput(1, "a"),), 100)
        c = make_txid((TxInput(("x", 0)),), (TxOutput(2, "a"),), 100)
        assert a == b != c


class TestIdentity:
    """Txids and the derived ``output_total``/``rbf_enabled`` fields."""

    def test_txids_pinned(self):
        coins = UtxoSet()
        load = BackgroundLoad(CongestionProfile.for_level(0.5, seed=1), 10, 800)
        market = load.sediment()
        assert [t.txid for t in market] == ["86bc14281c5f9565", "48184ba5752356a8",
                                            "aaa9dc9010ec7fa0"]
        coins.grant("alice", 100_000)
        request = TransferRequest(10, "alice", "bob", fee_rate=20)
        bundle = build_transfer(request, coins)
        assert bundle.tx1.txid == "61e78e2e5ffabc62"
        assert bundle.tx2.txid == "9a3748c5c2b63609"
        # the txid is the hash of the content, so the pins also pin make_txid; a
        # market txid hashes what bg{k} was when it spent coin fund-{k - 1} and paid DUST to mkt
        assert bundle.tx1.txid == make_txid(bundle.tx1.inputs, bundle.tx1.outputs, 150, tag="tx1")
        assert market[0].txid == make_txid((TxInput(("fund-0", 0)),), (TxOutput(546, "mkt"),), 400,
                                           tag="bg1")

    @pytest.mark.parametrize("sequences, values", [
        ((), ()),
        ((0xFFFFFFFF,), (0, 7)),
        ((0xFFFFFFFF, 0xFFFFFFFD), (546, 1, 99)),
        ((0xFFFFFFFE,), (5,)),
        ((0,), ()),
    ])
    def test_derived_fields_match_fresh_values(self, sequences, values):
        t = tx("d", [TxInput(("g", i), s) for i, s in enumerate(sequences)],
               [TxOutput(v, "a") for v in values])
        assert t.output_total == sum(o.value for o in t.outputs)
        assert t.rbf_enabled == any(i.sequence <= 0xFFFFFFFD for i in t.inputs)

    def test_derived_fields_stay_out_of_identity(self):
        t = tx("t9", [TxInput(("g", 0), 0xFFFFFFFD)], [TxOutput(5, "a"), TxOutput(6, "b")])
        assert {f.name for f in fields(Transaction) if f.compare} == {
            "txid", "inputs", "outputs", "vsize"}
        assert repr(t) == (
            "Transaction(txid='t9', inputs=(TxInput(outpoint=('g', 0), sequence=4294967293),),"
            " outputs=(TxOutput(value=5, owner='a', inscription=None),"
            " TxOutput(value=6, owner='b', inscription=None)), vsize=100)"
        )
        assert set(logged_tx(t)) == {"txid", "inputs", "outputs", "vsize"}
        back = Transaction.from_dict(logged_tx(t))
        assert back == t and hash(back) == hash(t)
        assert (back.output_total, back.rbf_enabled) == (11, True)
        # replace() builds a new transaction, so the derived fields follow the content
        bumped = replace(t, inputs=(TxInput(("g", 0)),), outputs=(TxOutput(2, "a"),))
        assert (bumped.output_total, bumped.rbf_enabled) == (2, False)
        with pytest.raises(TypeError):  # computed, not a field
            replace(t, output_total=0)
