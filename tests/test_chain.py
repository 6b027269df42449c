"""UTXO ledger and ordinal FIFO tests."""

import json
import random
from collections import Counter
from dataclasses import fields, replace

import pytest

from brc20sim import chain as chain_module
from brc20sim.background import BackgroundLoad, CongestionProfile
from brc20sim.chain import (
    VALUE_ONLY_RECEIPT,
    Chain,
    Block,
    LengthMismatch,
    MissingInput,
    MixedFunding,
    NegativeFee,
    OrdinalBurned,
    OrdinalUnknown,
    OrdinalRange,
    Transaction,
    TxInput,
    TxOutput,
    UtxoSet,
    assign_ordinals,
    fund_serial,
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
        assert state._inscribed_sorted == [0, 10]
        assert state.carries_inscription(state.utxos[("j", 0)])
        # an ordinal inscribed twice is listed once
        state.apply_transaction(tx("k", [TxInput(("j", 0))], [TxOutput(20, "a", inscription="{}")]))
        assert state._inscribed_sorted == sorted(state.inscribed) == [0, 10]


def funded(state: UtxoSet, value: int, serial=fund_serial(0)) -> tuple[str, int]:
    """A value-only coin of ``value`` on ``state``, under ``serial``."""
    state.fund([(serial, value)])
    return serial


class TestValueOnly:
    """Value-only coins: funded, spent and checked without ordinals."""

    @pytest.fixture(autouse=True)
    def no_ordinal_pass(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a value-only spend reached assign_ordinals")

        monkeypatch.setattr(chain_module, "assign_ordinals", refuse)

    def test_fund_counts_its_own_serials_and_allocates_no_ordinal(self):
        # fund serials are a sequence of their own, apart from the grant count
        serials = [fund_serial(n) for n in range(3)]
        assert serials == [("fund-0", 0), ("fund-1", 0), ("fund-2", 0)]
        state = UtxoSet()
        first = state.grant("a", 10)
        assert funded(state, 7) == fund_serial(0)
        assert state.grant("a", 5).serial == ("genesis-1", 0)
        assert first.serial == ("genesis-0", 0)
        assert state.plain == {("fund-0", 0): 7}
        assert state._next_ordinal == 15
        assert ("fund-0", 0) not in state.utxos
        with pytest.raises(ValueError):
            state.fund([(fund_serial(1), 0)])
        assert state.plain == {("fund-0", 0): 7}

    def test_a_batch_takes_consecutive_serials_or_none(self):
        state = UtxoSet()
        state.grant("a", 10)
        coins = [(fund_serial(n), value) for n, value in enumerate([7, 8, 9])]
        state.fund(coins)
        assert state.plain == {("fund-0", 0): 7, ("fund-1", 0): 8, ("fund-2", 0): 9}
        assert state.grant("a", 5).serial == ("genesis-1", 0)
        state.fund([])
        for bad in ([5, 0, 6], [-1], [3, 4, -2]):
            with pytest.raises(ValueError):
                state.fund([(fund_serial(3 + n), value) for n, value in enumerate(bad)])
        # nothing was funded by an empty or refused batch
        assert state.plain == dict(coins)
        # a batch may name any coin its spending transaction holds
        state.fund([(("bg-input", 0), 1)])
        assert state.plain == {**dict(coins), ("bg-input", 0): 1}
        assert state._next_ordinal == 15 and not state.plain.keys() & state.utxos.keys()

    def test_outputs_leave_the_model(self):
        state = UtxoSet()
        coin = funded(state, 1_000)
        outputs = [TxOutput(600, "mkt"), TxOutput(0, "x"), TxOutput(300, "y")]
        spend = tx("p", [TxInput(coin)], outputs)
        assert state.apply_transaction(spend) is VALUE_ONLY_RECEIPT
        assert state.plain == {} and state.utxos == {} and state._next_ordinal == 0
        # so nothing can spend them
        for index in (0, 2):
            with pytest.raises(MissingInput):
                state.apply_transaction(tx("c", [TxInput(("p", index))], [TxOutput(1, "z")]))

    def test_unknown_input(self):
        state = UtxoSet()
        coin = funded(state, 100)
        with pytest.raises(MissingInput):
            state.apply_transaction(
                tx("t", [TxInput(coin), TxInput(("nope", 0))], [TxOutput(1, "a")])
            )
        assert state.plain == {coin: 100}

    def test_spent_twice(self):
        state = UtxoSet()
        coin = funded(state, 100)
        with pytest.raises(MissingInput):
            state.apply_transaction(tx("t", [TxInput(coin), TxInput(coin)], [TxOutput(1, "a")]))
        state.apply_transaction(tx("t1", [TxInput(coin)], [TxOutput(50, "a")]))
        with pytest.raises(MissingInput):
            state.apply_transaction(tx("t2", [TxInput(coin)], [TxOutput(50, "a")]))

    def test_overspent(self):
        state = UtxoSet()
        coin = funded(state, 100)
        with pytest.raises(NegativeFee):
            state.apply_transaction(tx("t", [TxInput(coin)], [TxOutput(101, "a")]))
        assert state.plain == {coin: 100}

    def test_mixed_funding_and_inscriptions_raise(self):
        state = UtxoSet()
        coin = funded(state, 1_000)
        utxo = state.grant("a", 1_000)
        for inputs in ([coin, utxo.serial], [utxo.serial, coin]):
            with pytest.raises(MixedFunding):
                state.apply_transaction(tx("m", [TxInput(o) for o in inputs], [TxOutput(5, "a")]))
        with pytest.raises(MixedFunding):
            state.apply_transaction(
                tx("i", [TxInput(coin)], [TxOutput(546, "a", inscription="{}")])
            )
        assert state.plain == {coin: 1_000} and state.utxos == {utxo.serial: utxo}

    def test_copy_is_independent(self):
        state = UtxoSet()
        state.grant("a", 10)
        coin = funded(state, 100)
        dup = state.copy()
        state.apply_transaction(tx("t", [TxInput(coin)], [TxOutput(50, "a")]))
        assert dup.plain == {coin: 100} and state.plain == {}
        # the copy carries the grant count
        assert dup.grant("b", 1).serial == state.grant("b", 1).serial == ("genesis-1", 0)


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
        chain.append_block(Block(height=0, timestamp=600.0, transactions=[spend]))
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
        market = load.sediment(coins.fund)
        assert [t.txid for t in market] == ["86bc14281c5f9565", "48184ba5752356a8",
                                            "aaa9dc9010ec7fa0"]
        coins.grant("alice", 100_000)
        request = TransferRequest(10, "alice", "bob", fee_rate=20)
        bundle = build_transfer(request, coins)
        assert bundle.tx1.txid == "61e78e2e5ffabc62"
        assert bundle.tx2.txid == "9a3748c5c2b63609"
        # the funded coins took no grant serial, so the bundle is the one without them
        unfunded = UtxoSet()
        unfunded.grant("alice", 100_000)
        assert build_transfer(request, unfunded) == bundle
        # the txid is the hash of the content, so the pins also pin make_txid
        for t, tag in ((market[0], "bg1"), (bundle.tx1, "tx1")):
            assert make_txid(t.inputs, t.outputs, t.vsize, tag=tag) == t.txid

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
        with pytest.raises(ValueError):
            replace(t, output_total=0)
