"""Shared builders for indexer-level scenarios and pinned simulations (used by
unit, structure and acceptance tests), and the fee band those simulations
price from."""

import math
import random
from dataclasses import dataclass

from brc20sim.background import CongestionProfile
from brc20sim.chain import Block, Transaction, TxInput, TxOutput, UtxoSet, make_txid
from brc20sim.indexer import (
    Indexer,
    PendingTransfer,
    deploy_inscription,
    mint_inscription,
    transfer_inscription,
)
from brc20sim.sim import SimConfig, Simulation
from brc20sim.wallet import TransferRequest


@dataclass(frozen=True, slots=True)
class FeeBand:
    """Rates above the relay floor but below prompt mining."""

    f_min: float
    f_sf: float

    def __post_init__(self) -> None:
        if not 0 < self.f_min <= self.f_sf:
            raise ValueError(f"invalid fee band [{self.f_min}, {self.f_sf}]")

    DEFAULT_SF_RATIO = 2.25  # midpoint of the observed 2x..2.5x span

    @classmethod
    def from_floor(cls, f_min: float) -> "FeeBand":
        return cls(f_min, f_min * cls.DEFAULT_SF_RATIO)


def pick_fee(
    band: FeeBand,
    congestion: float,
    step: int = 1,
    high_congestion: float = 0.5,
) -> int:
    """A rate inside the band: just above the floor, deeper when congested."""
    if band.f_min == band.f_sf:
        return int(band.f_min)
    bump = step
    if congestion >= high_congestion:
        bump = max(step, math.ceil(0.25 * (band.f_sf - band.f_min)))
    return int(min(band.f_min + bump, band.f_sf))


def band_profile(f_min: float, f_sf: float, level: float, seed: int) -> CongestionProfile:
    """Profile whose market sits strictly between f_sf and 2*f_sf.

    Fees inside (f_min, f_sf) are then pinned for as long as the load
    runs, while anything at or above 2*f_sf clears immediately.
    """
    return CongestionProfile(
        target_level=level,
        seed=seed,
        floor_base=1.30 * f_sf,
        floor_lo=1.15 * f_sf,
        floor_cap=1.55 * f_sf,
        sigma=0.10,
    )


def send_times(sim: Simulation) -> dict[str, float]:
    """Each transaction's first send time, read from the simulation's event log."""
    times: dict[str, float] = {}
    for event in sim.event_log:
        if event[0] == "submit":
            times.setdefault(event[2].txid, event[1])
    return times


def pinned_transfer():
    """Sim with one in-band bundle pinned under a congested market.

    Returns the simulation, the bundle (Tx1 confirmed, Tx2 pending) and the
    pending transfer a recovery re-spends.
    """
    band = FeeBand.from_floor(100)  # (100, 225)
    profile = band_profile(band.f_min, band.f_sf, 0.75, seed=3)
    sim = Simulation(SimConfig(), profile)
    for _ in range(4):
        sim.grant("alice", 10_000_000)
    bundle, r1, r2 = sim.send_transfer(TransferRequest(100, "alice", "bob", fee_rate=201))
    assert r1.accepted and r2.accepted
    sim.run_blocks(3)
    assert sim.chain.confirmed(bundle.tx1.txid)
    assert not sim.chain.confirmed(bundle.tx2.txid)
    utxo = sim.chain.utxo_set.utxos[(bundle.tx1.txid, 0)]
    pending = PendingTransfer(utxo.first_ordinal(), "ordi", 100, "alice")
    return sim, bundle, pending


class Scenario:
    """Block builder with an incremental indexer and a grants ledger.

    Each block is applied to ``work`` and the indexer consumes the receipts
    (the same contract the simulation keeps); ``genesis()`` rebuilds the
    starting set from the grants ledger for pure block replay.
    """

    def __init__(self):
        self.indexer = Indexer()
        self.blocks: list[Block] = []
        self.work = UtxoSet()
        self.grants: list[tuple[str, int]] = []

    def grant(self, owner: str, value: int):
        self.grants.append((owner, value))
        return self.work.grant(owner, value)

    def genesis(self) -> UtxoSet:
        rebuilt = UtxoSet()
        for owner, value in self.grants:
            rebuilt.grant(owner, value)
        return rebuilt

    def apply(self, *txs: Transaction) -> Block:
        height = len(self.blocks)
        block = Block(height=height, timestamp=600.0 * (height + 1), transactions=list(txs))
        receipts = [self.work.apply_transaction(tx) for tx in txs]
        self.blocks.append(block)
        self.indexer.apply_block(block, receipts)
        return block


def inscribed_tx(sc: Scenario, owner: str, payload: str, tag: str) -> Transaction:
    funding = sc.grant(owner, 546 + 100)
    inputs = (TxInput(funding.serial),)
    outputs = (TxOutput(546, owner, inscription=payload),)
    return Transaction(make_txid(inputs, outputs, 150, tag=tag), inputs, outputs, 150)


def move_tx(sc: Scenario, utxo, recipient: str, tag: str) -> Transaction:
    fee_coin = sc.grant(utxo.owner, 200)
    inputs = (TxInput(utxo.serial), TxInput(fee_coin.serial))
    outputs = (TxOutput(utxo.value, recipient),)
    return Transaction(make_txid(inputs, outputs, 200, tag=tag), inputs, outputs, 200)


def random_scenario(seed: int, blocks: int = 50, on_block=None) -> Scenario:
    """Random mix of deploys, mints, transfers, moves and fee burns.

    The mix deliberately includes invalid operations (overdrawn transfers,
    over-limit mints) and inscription satoshis burned whole as fees.
    """
    rng = random.Random(seed)
    sc = Scenario()
    addrs = [f"addr{i}" for i in range(4)]
    ticks: list[str] = []
    inscription_utxos: list[tuple[str, int]] = []
    for height in range(blocks):
        txs = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.12 or not ticks:
                tick = f"tk{rng.randint(0, 2)}"
                txs.append(
                    inscribed_tx(
                        sc,
                        rng.choice(addrs),
                        deploy_inscription(tick, rng.randint(50, 400), rng.randint(10, 100)),
                        f"d{height}-{len(txs)}-{seed}",
                    )
                )
                ticks.append(tick)
            elif roll < 0.45:
                txs.append(
                    inscribed_tx(
                        sc,
                        rng.choice(addrs),
                        mint_inscription(rng.choice(ticks), rng.randint(1, 120)),
                        f"m{height}-{len(txs)}-{seed}",
                    )
                )
            elif roll < 0.75:
                owner = rng.choice(addrs)
                tx1 = inscribed_tx(
                    sc,
                    owner,
                    transfer_inscription(rng.choice(ticks), rng.randint(1, 80)),
                    f"t{height}-{len(txs)}-{seed}",
                )
                txs.append(tx1)
                inscription_utxos.append((tx1.txid, 0))
            elif inscription_utxos:
                serial = rng.choice(inscription_utxos)
                utxo = sc.work.utxos.get(serial)
                if utxo is None:
                    continue
                if rng.random() < 0.2:  # burn it all as fee
                    tx = Transaction(
                        make_txid((TxInput(serial),), (), 100,
                                  tag=f"b{height}-{len(txs)}-{seed}"),
                        (TxInput(serial),),
                        (),
                        100,
                    )
                else:
                    tx = move_tx(sc, utxo, rng.choice(addrs),
                                 f"x{height}-{len(txs)}-{seed}")
                txs.append(tx)
                inscription_utxos.remove(serial)
        sc.apply(*txs)
        if on_block is not None:
            on_block(sc)
    return sc
