"""The event-log writer against json.dumps, its submit lines back to the transaction
or market entry, and replay's strict reader of market lines against the JSON decoder."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from brc20sim.cli import _market_values, _replay_fields  # noqa: E402
from brc20sim.chain import (  # noqa: E402
    MAX_SEQUENCE, Block, MarketTx, Transaction, TxInput, TxOutput,
)
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
        case ("submit", t, MarketTx() as entry, result):  # no "tx": the entry's own fields
            return {"event": "submit", "t": t, "txid": entry.txid, "fee": entry.fee,
                    "vsize": entry.vsize, "accepted": result.accepted, "reason": result.reason}
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
MARKET = st.builds(MarketTx, TEXT, AMOUNT, st.integers(1, 10**6), TIME)
RESULT = st.builds(SubmitResult, st.booleans(), st.none() | TEXT)

EVENTS = st.one_of(
    st.tuples(st.just("grant"), TIME, TEXT, st.integers()),
    st.tuples(st.just("submit"), TIME, TX | MARKET, RESULT),
    st.tuples(st.just("mine"), TIME, st.builds(Block, st.integers(0, 10**6), st.floats(),
                                               st.lists(TX | MARKET, max_size=3))),
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


def entry_fields(entry: MarketTx) -> str:
    """Every field of a market entry, derived keys included; by repr, so NaN equals NaN."""
    return repr((entry.txid, entry.fee, entry.vsize, entry.arrival, entry.rate_key, entry.key))


@SETTINGS
@hypothesis.given(entry=MARKET, result=RESULT)
def test_a_market_line_gives_back_its_entry(entry, result):
    # the simulation records a market entry at its arrival, and replay rebuilds it there
    line = json.loads(log_line(("submit", entry.arrival, entry, result)))
    back = MarketTx(line["txid"], line["fee"], line["vsize"], line["t"])
    assert "tx" not in line and entry_fields(back) == entry_fields(entry)


# -- the strict reader of market lines (cli._market_values) -----------------------

def decoded_values(line: str) -> tuple:
    """What replay reads from a market line through the JSON decoder."""
    shape, values = _replay_fields(json.loads(line), 2)
    assert shape == "market"
    return values


def plain(text: str | None) -> bool:
    """Printable ASCII with no quote or backslash: text the strict reader reads."""
    return text is None or all(" " <= c <= "~" and c not in '"\\' for c in text)


def within_bound(value) -> bool:
    """An int of at most 18 digits, or no int at all (a float time)."""
    return type(value) is not int or abs(value) < 10**18


@SETTINGS
@hypothesis.given(entry=MARKET, result=RESULT, newline=st.booleans())
def test_the_strict_reader_reads_every_plain_market_line_as_the_decoder_does(
    entry, result, newline
):
    line = log_line(("submit", entry.arrival, entry, result)) + "\n" * newline
    values = _market_values(line)
    fits = plain(entry.txid) and plain(result.reason) and all(
        map(within_bound, (entry.arrival, entry.fee, entry.vsize)))
    assert (values is not None) == fits
    if values is not None:  # by repr: the same values of the same types, NaN included
        assert repr(values) == repr(decoded_values(line))


# what a one-character edit of a market line inserts or writes over: the
# characters of its grammar, and others it must refuse
EDIT_CHARS = st.sampled_from("0123456789-+.eE") | st.sampled_from(
    '"\\{}[]:, \nntfrueals\x00\x7f\u00e9\u0661') | CHARS
# beside MARKET and RESULT, entries and decisions of printable ASCII, whose lines
# the strict reader reads before the edit
PLAIN = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E))
PLAIN_MARKET = st.builds(MarketTx, PLAIN, AMOUNT, st.integers(1, 10**6), TIME)
PLAIN_RESULT = st.builds(SubmitResult, st.booleans(), st.none() | PLAIN)


def one_character_edits(line: str, char: str):
    """``line`` with one character deleted, replaced by ``char`` or ``char`` inserted,
    at every position."""
    for i in range(len(line) + 1):
        yield line[:i] + char + line[i:]
        yield line[:i] + line[i + 1:]
        yield line[:i] + char + line[i + 1:]


@SETTINGS
@hypothesis.given(entry=MARKET | PLAIN_MARKET, result=RESULT | PLAIN_RESULT, char=EDIT_CHARS)
def test_every_line_the_strict_reader_reads_decodes_to_the_same_values(entry, result, char):
    line = log_line(("submit", entry.arrival, entry, result))
    for edited in one_character_edits(line, char):
        values = _market_values(edited)
        if values is not None:
            assert repr(values) == repr(decoded_values(edited))


@pytest.mark.parametrize("text, values", [
    ('{"accepted": false, "event": "submit", "fee": -0, "reason": "", "t": -0, '
     '"txid": " !#[]~", "vsize": 999999999999999999}\n',
     (0, " !#[]~", 0, 999999999999999999, False, "")),
    ('{"accepted": true, "event": "submit", "fee": 1, "reason": null, "t": -1.5E+3, '
     '"txid": "a", "vsize": 1}', (-1500.0, "a", 1, 1, True, None)),
    ('{"accepted": true, "event": "submit", "fee": 1, "reason": null, "t": -Infinity, '
     '"txid": "a", "vsize": 1}', (float("-inf"), "a", 1, 1, True, None)),
])
def test_the_strict_reader_types_numbers_as_json_does(text, values):
    assert repr(_market_values(text)) == repr(values) == repr(decoded_values(text))


@pytest.mark.parametrize("text", [
    # 19 digits, an escape, non-ASCII text, other spacing or key order, a second
    # newline, a leading zero, a point with no digits after it, a bare sign, -NaN
    '{"accepted": true, "event": "submit", "fee": 1000000000000000000, "reason": null, '
    '"t": 0.0, "txid": "a", "vsize": 1}',
    '{"accepted": true, "event": "submit", "fee": 1, "reason": null, "t": 0.0, '
    '"txid": "a\\u0041", "vsize": 1}',
    '{"accepted": true, "event": "submit", "fee": 1, "reason": null, "t": 0.0, '
    '"txid": "é", "vsize": 1}',
    '{"accepted": true, "event": "submit", "fee": 1, "reason": null, "t": 0.0, '
    '"txid": "a", "vsize":1}',
    '{"event": "submit", "accepted": true, "fee": 1, "reason": null, "t": 0.0, '
    '"txid": "a", "vsize": 1}',
    '{"accepted": true, "event": "submit", "fee": 1, "reason": null, "t": 0.0, '
    '"txid": "a", "vsize": 1}\n\n',
    '{"accepted": true, "event": "submit", "fee": 01, "reason": null, "t": 0.0, '
    '"txid": "a", "vsize": 1}',
    '{"accepted": true, "event": "submit", "fee": 1, "reason": null, "t": 1.e5, '
    '"txid": "a", "vsize": 1}',
    '{"accepted": true, "event": "submit", "fee": -, "reason": null, "t": 0.0, '
    '"txid": "a", "vsize": 1}',
    '{"accepted": true, "event": "submit", "fee": 1, "reason": null, "t": -NaN, '
    '"txid": "a", "vsize": 1}',
])
def test_any_other_line_is_left_to_the_decoder(text):
    assert _market_values(text) is None
