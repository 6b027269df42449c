"""The event-log writer against json.dumps, and its submit lines back to the transaction."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from brc20sim.chain import MAX_SEQUENCE, Block, Transaction, TxInput, TxOutput  # noqa: E402
from brc20sim.mempool import SubmitResult  # noqa: E402
from brc20sim.sim import log_line  # noqa: E402


def tx_object(tx: Transaction) -> dict:
    """The object a submit line holds under "tx"."""
    return {
        "txid": tx.txid,
        "inputs": [{"outpoint": list(i.outpoint), "sequence": i.sequence} for i in tx.inputs],
        "outputs": [
            {"value": o.value, "owner": o.owner, "inscription": o.inscription}
            for o in tx.outputs
        ],
        "vsize": tx.vsize,
    }


def log_object(event: tuple) -> dict:
    """The object one recorded event's log line holds: the reference for ``log_line``."""
    match event:
        case ("grant", t, owner, value):
            return {"event": "grant", "t": t, "owner": owner, "value": value}
        case ("fund", t, _, value):  # the coin's serial is not written
            return {"event": "fund", "t": t, "value": value}
        case ("submit", t, tx, result):
            return {"event": "submit", "t": t, "tx": tx_object(tx),
                    "accepted": result.accepted, "reason": result.reason}
        case ("mine", t, block):
            return {"event": "mine", "t": t, "height": block.height,
                    "txids": [tx.txid for tx in block.transactions]}


# quotes, backslashes, control characters, line separators and non-ASCII text
# (lone surrogates included) come up often, beside any other character
CHARS = st.sampled_from('"\\\x00\x1f\x7f\n\t\u00e9 \u2028\ud800\U0001f600') | st.characters(
    exclude_categories=()
)
TEXT = st.text(CHARS)
OWNER = st.text(CHARS, min_size=1)  # an output's owner is never empty

# json writes the non-finite floats as Infinity, -Infinity and NaN, which repr spells inf and nan
TIME = st.integers() | st.floats() | st.sampled_from([float("inf"), float("-inf"), float("nan")])
AMOUNT = st.integers(0, 10**16)

INPUT = st.builds(TxInput, st.tuples(TEXT, st.integers(0, 2**32)), st.integers(0, MAX_SEQUENCE))
FIRST_OUTPUT = st.builds(TxOutput, st.integers(1, 10**16), OWNER, st.none() | TEXT)
OTHER_OUTPUT = st.builds(TxOutput, AMOUNT, OWNER)
OUTPUTS = st.just(()) | st.builds(
    lambda first, rest: (first, *rest), FIRST_OUTPUT, st.lists(OTHER_OUTPUT, max_size=3)
)
TX = st.builds(
    Transaction, TEXT, st.lists(INPUT, max_size=3).map(tuple), OUTPUTS, st.integers(1, 10**6)
)
RESULT = st.builds(SubmitResult, st.booleans(), st.none() | TEXT)

EVENTS = st.one_of(
    st.tuples(st.just("grant"), TIME, TEXT, st.integers()),
    st.tuples(st.just("fund"), TIME, st.tuples(TEXT, st.integers()), st.integers()),
    st.tuples(st.just("submit"), TIME, TX, RESULT),
    st.tuples(st.just("mine"), TIME,
              st.builds(Block, st.integers(0, 10**6), st.floats(), st.lists(TX, max_size=3))),
)

SETTINGS = hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)


@SETTINGS
@hypothesis.given(event=EVENTS)
def test_each_line_is_json_dumps_of_its_object(event):
    assert log_line(event) == json.dumps(log_object(event), sort_keys=True)


@SETTINGS
@hypothesis.given(t=TIME, tx=TX, result=RESULT)
def test_a_submit_line_gives_back_its_transaction(t, tx, result):
    line = log_line(("submit", t, tx, result))
    assert Transaction.from_dict(json.loads(line)["tx"]) == tx
