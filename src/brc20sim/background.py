"""Synthetic network load that creates a congestion-dependent mining floor.

The model keeps the pool at a target fraction of the "normal" unconfirmed
count with two ingredient streams:

* a one-shot *sediment* of very-low-fee transactions that pads the pool to the
  target congestion level and is never attractive to miners, and
* a per-block-interval *market batch* sized to fill block capacity exactly
  (leaving one inscription-sized gap), whose fee rates ride a slowly wandering
  AR(1) floor.

A foreign transaction is mined promptly when its fee rate beats the current
floor, and stays pinned while the floor stays above it: each block is packed
with market transactions that outbid it, and the leftover capacity gap is too
small for anything but a small inscription transaction.  Raising congestion
raises the floor scale, which is what makes low-fee pinning easier under load.

Everything is driven by named, seed-derived RNG streams, so two runs with the
same seed produce identical pools, and runs that differ only in congestion
level share the same floor path up to a monotone scale factor.

What varies between profiles is the congestion level, the seed, the floor's
scale and clamps and its innovation ``sigma``.  The rest of the model is
fixed here as module constants: the floor's AR(1) persistence
``FLOOR_RHO``, the per-transaction rate spread ``RATE_SPREAD``, the one
``MARKET_TX_VSIZE`` and the sediment's top rate ``SEDIMENT_RATE_HI``.

Background transactions spend value-only coins (``Simulation.fund``): the
model needs only each one's fee, vsize and arrival, so none of them allocates
ordinals or leaves a coin on the chain.  They all pay ``MARKET_OUTPUTS`` at
``MARKET_TX_VSIZE``, so the end of their txid hash text (``chain.txid_tail``)
is formatted once, as ``MARKET_TXID_TAIL``, and each txid is one sha256 call
over its tag, its input and that tail.

``bg{k}`` spends coin ``chain.fund_serial(k - 1)`` in every simulation,
whatever the seed, market key or foreground, so its bytes are fixed (the
coin's value lives in the UTXO set).  One process-wide list holds them,
``bg{k}`` at entry ``k - 1``, each built once.  A batch, the sediment or one
window's market, is funded with one ``fund_fn`` call whose coins are named by
the very outpoint objects of the transactions that spend them.

The draws depend only on the *market key* (``market_key``: the profile, the
transactions per window and the sediment count), not on the foreground, so
loads of one key share them.  The module holds a tape for each key of the
current seed: its draws and each window's time-sorted arrivals, built when
the window is first drawn.  A load of a held key replays its windows,
whatever keys were loaded in between; a load of another seed's key drops
every tape, and nothing else does.  Either way a load returns the same bytes
as a fresh draw.
"""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from dataclasses import dataclass
from operator import itemgetter

from .chain import (BLOCK_INTERVAL, DUST, Transaction, TxInput, TxOutput, fund_serial, txid_tail,
                    txid_with_tail)

MARKET_ADDRESS = "mkt"
MARKET_OUTPUTS = (TxOutput(DUST, MARKET_ADDRESS),)  # every market and sediment tx pays this
MARKET_TX_VSIZE = 400  # vsize of every market and sediment tx
MARKET_TXID_TAIL = txid_tail(MARKET_OUTPUTS, MARKET_TX_VSIZE)
FLOOR_RHO = 0.9  # AR(1) persistence of the mining floor per block
RATE_SPREAD = 1.15  # per-tx rate multiplier in [1, RATE_SPREAD]
SEDIMENT_RATE_HI = 5  # sediment rates are uniform in 1..SEDIMENT_RATE_HI sat/vB


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def stream(seed: int, label: str) -> random.Random:
    return random.Random(derive_seed(seed, label))


@dataclass(frozen=True, slots=True)
class CongestionProfile:
    """Background load shape for one congestion level."""

    target_level: float
    seed: int
    floor_base: float  # stationary scale of the mining floor, sat/vB
    floor_lo: float  # hard clamps on the floor
    floor_cap: float
    sigma: float = 0.22  # AR(1) innovation std-dev

    def __post_init__(self) -> None:
        if not 0.0 <= self.target_level:
            raise ValueError("target_level must be >= 0")
        if self.floor_lo > self.floor_cap:
            raise ValueError("floor_lo above floor_cap")

    # Default mapping from the sweep's congestion levels to floor scales,
    # anchored so a 100 sat/vB transaction sits inside the pinning band at
    # the 0.75 level while 500 sat/vB always clears the whole market.
    ANCHOR_LEVEL = 0.75
    ANCHOR_SCALE = 210.0
    SCALE_EXPONENT = 1.7
    HARD_CAP = 430.0
    FLOOR_LO_SHARE = 0.15  # of the scale
    # the highest level whose floor_lo stays at or under HARD_CAP (about 3.49)
    MAX_LEVEL = ANCHOR_LEVEL * (HARD_CAP / (FLOOR_LO_SHARE * ANCHOR_SCALE)) ** (1 / SCALE_EXPONENT)

    @classmethod
    def for_level(cls, level: float, seed: int) -> CongestionProfile:
        if level <= 0:
            return cls(0.0, seed, 0.0, 0.0, 0.0)
        scale = cls.ANCHOR_SCALE * (level / cls.ANCHOR_LEVEL) ** cls.SCALE_EXPONENT
        return cls(
            target_level=level,
            seed=seed,
            floor_base=scale,
            floor_lo=max(6.0, scale * cls.FLOOR_LO_SHARE),
            floor_cap=min(scale * math.e, cls.HARD_CAP),
        )


def market_key(
    profile: CongestionProfile, normal_count: int, block_capacity: int
) -> tuple[CongestionProfile, int, int]:
    """What a load's draws depend on: the profile, the market transactions per
    window (``flight``) and the one-shot sediment count."""
    batch_size = block_capacity // MARKET_TX_VSIZE if profile.target_level else 0
    target_count = round(profile.target_level * normal_count)
    flight = min(batch_size, target_count)
    return profile, flight, max(0, target_count - flight)


# A sediment draw is randint(1, SEDIMENT_RATE_HI) - 1, which CPython takes as the top
# SEDIMENT_RATE_HI.bit_length() bits of one 32-bit word, redrawn while >= SEDIMENT_RATE_HI,
# so it is decided by each word's top byte: a table keeps its top bits, and the top
# bytes of rejected words are deleted.
_TOP_BITS = bytes(b >> (8 - SEDIMENT_RATE_HI.bit_length()) for b in range(256))
_REJECTED = bytes(b for b in range(256) if _TOP_BITS[b] >= SEDIMENT_RATE_HI)
_SEDIMENT_VALUES = [(r + 1) * MARKET_TX_VSIZE + DUST for r in range(SEDIMENT_RATE_HI)]


def _draw_sediment(rng: random.Random, count: int) -> list[int]:
    """``count`` sediment coin values at ``randint(1, SEDIMENT_RATE_HI)`` sat/vB each, drawn as
    CPython's ``randint`` draws them, words and generator state included, but in bulk:
    ``getrandbits(32 * n)`` lays n words out little-endian, and each pass draws only as
    many words as values are still missing, so no word is drawn that ``randint`` would not.
    The list shares one int object per value."""
    values: list[int] = []
    while (need := count - len(values)) > 0:
        tops = rng.getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
        values += [_SEDIMENT_VALUES[r] for r in tops.translate(_TOP_BITS, _REJECTED)]
    return values


class _Tape:
    """A market key's draws and its market windows, extended on demand.

    The draws are the floor of each window and, per market transaction, its
    coin value; per sediment transaction, its coin value.  ``windows[w - 1]``
    holds window ``w``'s arrivals: its market transactions paired with their
    times in ``[(w - 1) * BLOCK_INTERVAL, w * BLOCK_INTERVAL)``, sorted by time.
    """

    __slots__ = ("key", "flight", "floors", "values", "sediment", "windows",
                 "_g", "_rng_floor", "_rng_rates", "_rng_times")

    def __init__(self, key: tuple[CongestionProfile, int, int]):
        profile, self.flight, sediment_count = self.key = key
        self._rng_floor = stream(profile.seed, "floor")
        self._rng_rates = stream(profile.seed, "rates")
        self._rng_times = stream(profile.seed, "times")
        self.sediment = _draw_sediment(stream(profile.seed, "sediment"), sediment_count)
        sigma_stat = profile.sigma / math.sqrt(1.0 - FLOOR_RHO**2)
        self._g = self._rng_floor.gauss(0.0, sigma_stat)
        self.floors = array("d", [self._floor() if profile.target_level else 0.0])
        self.values = array("q")  # market coin values, window after window
        self.windows: list[tuple[tuple[float, Transaction], ...]] = []

    def _floor(self) -> float:
        p = self.key[0]
        return min(max(p.floor_base * math.exp(self._g), p.floor_lo), p.floor_cap)

    def draw_windows(self, count: int) -> None:
        """Draw the market up to window ``count``, advancing the AR(1) floor once per window."""
        sigma = self.key[0].sigma
        ln_spread = math.log(RATE_SPREAD)
        while (w := len(self.floors)) <= count:  # w: the window being drawn
            self._g = FLOOR_RHO * self._g + self._rng_floor.gauss(0.0, sigma)
            floor = self._floor()
            self.floors.append(floor)
            start = (w - 1) * BLOCK_INTERVAL
            arrivals = []
            for _ in range(self.flight):
                rate = floor * math.exp(self._rng_rates.uniform(0.0, ln_spread))
                self.values.append(math.ceil(rate * MARKET_TX_VSIZE) + DUST)
                arrivals.append(start + BLOCK_INTERVAL * self._rng_times.random())
            end = self.key[2] + w * self.flight  # the sediment and windows 1..w
            txs = _build_market(end)[end - self.flight:end]
            self.windows.append(tuple(sorted(zip(arrivals, txs), key=itemgetter(0))))


# The tapes of the current seed, one per market key: a later load of a held
# key replays its tape, whatever keys were loaded in between.
_held: dict[tuple[CongestionProfile, int, int], _Tape] = {}

# Every load's market and sediment transactions: ``_market_txs[k - 1]`` is ``bg{k}``,
# which spends coin ``fund_serial(k - 1)``.
_market_txs: list[Transaction] = []


def _build_market(count: int) -> list[Transaction]:
    """``_market_txs``, built up to at least ``bg{count}``."""
    for k in range(len(_market_txs) + 1, count + 1):
        inputs = (TxInput(fund_serial(k - 1)),)
        _market_txs.append(Transaction(
            txid=txid_with_tail(inputs, MARKET_TXID_TAIL, tag=f"bg{k}"),
            inputs=inputs,
            outputs=MARKET_OUTPUTS,
            vsize=MARKET_TX_VSIZE,
        ))
    return _market_txs


def _tape(key: tuple[CongestionProfile, int, int]) -> _Tape:
    tape = _held.get(key)
    if tape is None:
        if any(held[0].seed != key[0].seed for held in _held):
            _held.clear()  # let the old seed's tapes go before the new one allocates
        tape = _held[key] = _Tape(key)
    return tape


def _coins(txs: list[Transaction], values) -> list[tuple[tuple[str, int], int]]:
    """The coins that fund ``txs``: each one's input outpoint, with its value."""
    return [(tx.inputs[0].outpoint, value) for tx, value in zip(txs, values)]


class BackgroundLoad:
    """Generates sediment and per-interval market batches for a simulation.

    Each batch, the sediment or one window's market, is funded with one
    ``fund_fn(coins)`` call (``Simulation.fund``), whose ``(serial, value)``
    pairs follow ``bg`` order, each serial the outpoint its transaction
    spends.  Loads of one market key share that key's held ``_Tape``, and
    every load shares ``_market_txs``; what a load returns is what a fresh
    draw would return, bit for bit.
    """

    def __init__(self, profile: CongestionProfile, normal_count: int, block_capacity: int):
        key = market_key(profile, normal_count, block_capacity)
        self.profile, self.flight, self.sediment_count = key
        self._tape = _tape(key)
        self._windows = 0  # market batches drawn
        self.floor = self._tape.floors[0]

    def sediment(self, fund_fn) -> list[Transaction]:
        """One-shot low-fee padding; rates far below any realistic foreground."""
        txs = _build_market(self.sediment_count)[:self.sediment_count]
        fund_fn(_coins(txs, self._tape.sediment))
        return txs

    def market_batch(self, fund_fn) -> tuple[tuple[float, Transaction], ...]:
        """Fee-bearing arrivals for the next block interval, by time; floor advanced once."""
        if not self.flight:
            return ()
        tape = self._tape
        w = self._windows = self._windows + 1
        tape.draw_windows(w)
        self.floor = tape.floors[w]
        start, end = (w - 1) * self.flight, w * self.flight  # this window's market values
        txs = _market_txs[self.sediment_count + start:self.sediment_count + end]
        fund_fn(_coins(txs, tape.values[start:end]))
        return tape.windows[w - 1]
