"""Simulation timing under random send times and run targets: nothing is mined before it
was sent, and nothing is recorded before what was recorded already."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from scenario_tools import send_times  # noqa: E402

from brc20sim.background import CongestionProfile  # noqa: E402
from brc20sim.chain import MarketTx  # noqa: E402
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


# each run_until target: below now, anywhere up to three blocks ahead, or on a block time
TARGETS = st.lists(
    st.one_of(
        st.tuples(st.just("below"), st.floats(0.0, BLOCK_INTERVAL)),
        st.tuples(st.just("ahead"), st.floats(0.0, 3 * BLOCK_INTERVAL)),
        st.tuples(st.just("block"), st.integers(0, 2)),
    ),
    max_size=8,
)


def drive(sim: Simulation, targets) -> None:
    for kind, amount in targets:
        if kind == "below":
            sim.run_until(sim.now - amount)
        elif kind == "ahead":
            sim.run_until(sim.now + amount)
        else:
            sim.run_until(sim.next_block_time + amount * BLOCK_INTERVAL)


def check_times(sim: Simulation) -> None:
    """Recorded times never decrease, and each market entry is recorded at its arrival."""
    times = [event[1] for event in sim.event_log]
    assert times == sorted(times)
    market = [event for event in sim.event_log
              if event[0] == "submit" and type(event[2]) is MarketTx]
    assert market and all(t == entry.arrival for _, t, entry, _ in market)


@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(seed=st.integers(0, 10**6), before=TARGETS, source=TARGETS, fork=TARGETS)
def test_every_arrival_is_submitted_at_its_own_time(seed, before, source, fork):
    # no arrival is ever earlier than the clock, so none needs moving to it
    sim = Simulation(SimConfig(), CongestionProfile.for_level(0.75, seed))
    drive(sim, before)
    twin = sim.fork()
    drive(sim, source)
    drive(twin, fork)
    for each in (sim, twin):
        check_times(each)
