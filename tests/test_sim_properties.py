"""Simulation timing under random send times: nothing is mined before it was sent."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from scenario_tools import send_times  # noqa: E402

from brc20sim.sim import BLOCK_INTERVAL, SimConfig, Simulation  # noqa: E402
from brc20sim.wallet import BUNDLE_GAP, TransferRequest  # noqa: E402

# each send: blocks to let pass, then how long before the next block to send;
# half the leads fall within BUNDLE_GAP of a block
SENDS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.one_of(st.floats(0.0, BUNDLE_GAP), st.floats(0.0, BLOCK_INTERVAL, exclude_max=True)),
    ),
    min_size=1,
    max_size=6,
)


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(sends=SENDS)
def test_no_confirmed_tx_was_sent_after_its_block(sends):
    sim = Simulation(SimConfig())
    for skip, lead in sends:
        sim.run_until(max(sim.now, sim.next_block_time + skip * BLOCK_INTERVAL - lead))
        sim.grant("alice", 1_000_000)
        _, r1, r2 = sim.send_transfer(TransferRequest(1, "alice", "bob", fee_rate=10))
        assert r1.accepted and r2.accepted
    sim.run_blocks(2)
    mined = [(tx.txid, block.timestamp) for block in sim.chain.blocks for tx in block.transactions]
    assert len(mined) == 2 * len(sends)
    sent = send_times(sim)
    for txid, confirmed_at in mined:
        assert sent[txid] <= sim.chain.confirmation_time(txid) == confirmed_at
