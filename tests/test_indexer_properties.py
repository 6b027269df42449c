"""The indexer on arbitrary inscription text: whatever output 0 carries after a valid
deploy and mint, ``Indexer.apply_block`` never raises, token supply stays conserved,
and replay rebuilds the state the blocks built."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from brc20sim.indexer import deploy_inscription, mint_inscription, replay  # noqa: E402
from scenario_tools import Scenario, inscribed_tx, move_tx  # noqa: E402

TICK = "ordi"
DIGITS = "0123456789²³¹٣৪०"  # ASCII digits and digits int() reads but BRC-20 does not
# any JSON value: scalars, strings of any digits, and nesting
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(DIGITS, max_size=6)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8,
)
HUGE = "9" * 4_301  # past int()'s 4,300-digit limit
AMOUNTS = (st.text(DIGITS, min_size=1, max_size=8) | st.integers(0, 10**7).map(str)
           | st.just(HUGE) | VALUES)
# a well-formed operation, with up to two fields rewritten to any value or left out
WELL_FORMED = st.fixed_dictionaries({
    "p": st.sampled_from(["brc20", "brc-20", "BRC20", TICK]),
    "op": st.sampled_from(["deploy", "mint", "transfer"]),
    "tick": st.sampled_from([TICK, "ORDI", "newt"]),
    "amt": st.integers(0, 2_000).map(str),
    "max": st.integers(0, 10**6).map(str),
    "lim": st.integers(0, 2_000).map(str),
})
LEFT_OUT = object()


def edited(op: dict, edits: list) -> str:
    op = dict(op)
    for field, value in edits:
        if value is LEFT_OUT:
            del op[field]
        else:
            op[field] = value
    return json.dumps(op)


EDITS = st.lists(st.tuples(st.sampled_from(["p", "op", "tick", "amt", "max", "lim"]),
                           AMOUNTS | st.just(LEFT_OUT)), max_size=2, unique_by=lambda e: e[0])
OPS = st.builds(edited, WELL_FORMED, EDITS)
# text the decoder refuses: nesting past its depth and integer literals past the limit
RAW = st.sampled_from([
    "[" * 5_000 + "]" * 5_000,
    '{"a": ' * 5_000 + "0" + "}" * 5_000,
    HUGE,
    f'{{"p": "brc20", "op": "mint", "tick": "{TICK}", "amt": {HUGE}}}',
    f'{{"p": "brc20", "op": "transfer", "tick": "{TICK}", "amt": ' + "[" * 5_000 + "]" * 5_000
    + "}",
])
PAYLOADS = st.text() | VALUES.map(json.dumps) | OPS | RAW


@hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
@hypothesis.given(payloads=st.lists(PAYLOADS, min_size=1, max_size=3))
def test_any_inscribed_text_leaves_supply_conserved(payloads):
    sc = Scenario()
    sc.apply(inscribed_tx(sc, "alice", deploy_inscription(TICK, 1_000_000, 1_000), "deploy"))
    sc.apply(inscribed_tx(sc, "alice", mint_inscription(TICK, 1_000), "mint"))
    inscribed = [inscribed_tx(sc, "alice", payload, f"x{i}") for i, payload in enumerate(payloads)]
    sc.apply(*inscribed)
    # then each inscription moves on, which executes any transfer it made
    sc.apply(*[move_tx(sc, sc.work.utxos[(tx.txid, 0)], "bob", f"move{i}")
               for i, tx in enumerate(inscribed)])
    assert sc.indexer.state.supply_is_conserved()
    assert replay(sc.blocks, sc.genesis()) == sc.indexer.state
