"""Shared builders for indexer-level scenarios and pinned simulations (used by
unit, structure and acceptance tests), the fee band those simulations price
from, and a whole scenario run on the sweep's held histories."""

import math
import random
from collections import Counter
from dataclasses import dataclass

from brc20sim import harness
from brc20sim.background import FLOOR_RHO, CongestionProfile, stream
from brc20sim.chain import Block, Transaction, TxInput, TxOutput, UtxoSet, make_txid
from brc20sim.indexer import (
    Indexer,
    PendingTransfer,
    deploy_inscription,
    mint_inscription,
    transfer_inscription,
)
from brc20sim.harness import ScenarioConfig, ScenarioResult
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


def floor_path(profile: CongestionProfile, windows: int) -> list[float]:
    """The market's floor in windows 1 to ``windows``, redrawn from the profile's
    ``"floor"`` stream: a start from the AR(1)'s stationary spread, one step per
    window, and each floor the scale times the exponential, clamped."""
    rng = stream(profile.seed, "floor")
    g = rng.gauss(0.0, profile.sigma / math.sqrt(1.0 - FLOOR_RHO**2))
    floors = []
    for _ in range(windows):
        g = FLOOR_RHO * g + rng.gauss(0.0, profile.sigma)
        floors.append(min(max(profile.floor_base * math.exp(g), profile.floor_lo),
                          profile.floor_cap))
    return floors


def count_builds(monkeypatch, *classes) -> Counter:
    """A counter, by class name, of the objects of ``classes`` built from now on."""
    built = Counter()

    def counting(cls):
        init = cls.__init__

        def counted_init(self, *args, **kwargs):
            built[cls.__name__] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted_init)

    for cls in classes:
        counting(cls)
    return built


def warm_run(config: ScenarioConfig, seed: int, log_path: str | None = None) -> ScenarioResult:
    """``run_scenario``'s result and log for a scenario started as the sweep starts a
    cell, from ``harness._histories``, and then mined to its horizon, so that it
    can be held to a cold ``run_scenario``."""
    sim, resume, hold = harness._histories.start(config, seed)
    outcome = harness.execute(config, sim, resume, hold)
    sim.run_until(outcome.horizon)
    if log_path is not None:
        sim.export_event_log(log_path)
    pinned_pct, outage_s = harness._lockup(sim)
    return ScenarioResult(
        seed=seed,
        success=outcome.success,
        delays=[r.effective_delay for r in outcome.per_attempt],
        pinned_pct=pinned_pct,
        outage_s=outage_s,
        congestion_measured=sim.mean_congestion(),
        transcript=outcome.transcript(),
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
        block = Block(height=height, timestamp=600.0 * (height + 1), transactions=txs)
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
