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

Background transactions are market entries (``chain.MarketTx``): the model
needs only each one's fee, vsize and arrival, so none of them has a coin,
allocates ordinals or touches the ledger.  Each keeps the txid it had when
``bg{k}`` spent a coin named ``fund-{k - 1}`` and paid ``DUST`` to
``MARKET_ADDRESS`` at ``MARKET_TX_VSIZE``, since the pool breaks rate and
arrival ties by txid.  Those txids depend on ``k`` alone, whatever the seed,
profile or foreground, so one process-wide list holds them, ``bg{k}``'s at
entry ``k - 1``, each hashed once.

A ``BackgroundLoad`` is one simulation's market: its RNG streams, the floor's
AR(1) state, and its batches, the sediment and then one window per block
interval, each built when first requested.  A batch is the tuple of its market
entries in ascending order of arrival, one object per transaction per load,
each built with its arrival time (the sediment's is 0.0).  The load never
touches the pool or the ledger: the simulation submits each batch, and the
pool stores each entry as it is.  A simulation's forks share its load
(``Simulation.fork``), and ask it for windows by number, so a window is
drawn once however many forks read it, and each gets the bytes a fresh draw
would give.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from .chain import BLOCK_INTERVAL, DUST, MAX_SEQUENCE, MarketTx

MARKET_ADDRESS = "mkt"  # named in each market txid's hash text
MARKET_TX_VSIZE = 400  # vsize of every market and sediment tx
# the end of each market txid's hash text (chain.make_txid's), after "bg{k}fund-{k - 1}"
MARKET_TXID_TAIL = f":0:{MAX_SEQUENCE}{DUST}:{MARKET_ADDRESS}:None{MARKET_TX_VSIZE}".encode()
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


# A sediment draw is randint(1, SEDIMENT_RATE_HI) - 1, which CPython takes as the top
# SEDIMENT_RATE_HI.bit_length() bits of one 32-bit word, redrawn while >= SEDIMENT_RATE_HI,
# so it is decided by each word's top byte: a table keeps its top bits, and the top
# bytes of rejected words are deleted.
_TOP_BITS = bytes(b >> (8 - SEDIMENT_RATE_HI.bit_length()) for b in range(256))
_REJECTED = bytes(b for b in range(256) if _TOP_BITS[b] >= SEDIMENT_RATE_HI)
_SEDIMENT_FEES = tuple((r + 1) * MARKET_TX_VSIZE for r in range(SEDIMENT_RATE_HI))


def _draw_sediment(rng: random.Random, count: int) -> list[int]:
    """``count`` sediment fees at ``randint(1, SEDIMENT_RATE_HI)`` sat/vB each, drawn as
    CPython's ``randint`` draws them, words and generator state included, but in bulk:
    ``getrandbits(32 * n)`` lays n words out little-endian, and each pass draws only as
    many words as values are still missing, so no word is drawn that ``randint`` would not.
    The list shares one int object per value."""
    values: list[int] = []
    while (need := count - len(values)) > 0:
        tops = rng.getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
        values += [_SEDIMENT_FEES[r] for r in tops.translate(_TOP_BITS, _REJECTED)]
    return values


NO_MARKET: tuple[MarketTx, ...] = ()  # what a load with no market returns for every window

# Every load's market and sediment txids: ``_market_txids[k - 1]`` is ``bg{k}``'s.
_market_txids: list[str] = []


def _entries(txids: list[str], fees: list[int], times: list[float]) -> tuple[MarketTx, ...]:
    """One load's market entries: each txid at its fee and time, at the one market vsize."""
    return tuple([MarketTx(txid, fee, MARKET_TX_VSIZE, t)
                  for txid, fee, t in zip(txids, fees, times)])


def _txids(count: int) -> list[str]:
    """``_market_txids``, hashed up to at least ``bg{count}``."""
    for k in range(len(_market_txids) + 1, count + 1):
        text = f"bg{k}fund-{k - 1}".encode() + MARKET_TXID_TAIL
        _market_txids.append(hashlib.sha256(text).hexdigest()[:16])
    return _market_txids


class BackgroundLoad:
    """One simulation's market, shared by its forks (see the module docstring).

    ``flight`` market transactions arrive per window, after a one-shot sediment
    of ``sediment_count``.  ``windows[0]`` is the sediment, all arriving at time 0,
    and ``windows[w]`` is window ``w``'s market, its times in
    ``[(w - 1) * BLOCK_INTERVAL, w * BLOCK_INTERVAL)``, drawn at that window's floor.
    """

    __slots__ = ("profile", "flight", "sediment_count", "windows",
                 "_g", "_rng_floor", "_rng_rates", "_rng_times")

    def __init__(self, profile: CongestionProfile, normal_count: int, block_capacity: int):
        batch_size = block_capacity // MARKET_TX_VSIZE if profile.target_level else 0
        target_count = round(profile.target_level * normal_count)
        self.profile = profile
        self.flight = min(batch_size, target_count)
        self.sediment_count = count = max(0, target_count - self.flight)
        self._rng_floor = stream(profile.seed, "floor")
        self._rng_rates = stream(profile.seed, "rates")
        self._rng_times = stream(profile.seed, "times")
        sigma_stat = profile.sigma / math.sqrt(1.0 - FLOOR_RHO**2)
        self._g = self._rng_floor.gauss(0.0, sigma_stat)
        fees = _draw_sediment(stream(profile.seed, "sediment"), count)
        self.windows = [_entries(_txids(count), fees, [0.0] * count)]

    def _floor(self) -> float:
        p = self.profile
        return min(max(p.floor_base * math.exp(self._g), p.floor_lo), p.floor_cap)

    def sediment(self) -> tuple[MarketTx, ...]:
        """One-shot low-fee padding; rates far below any realistic foreground."""
        return self.windows[0]

    def market_batch(self, w: int) -> tuple[MarketTx, ...]:
        """Window ``w``'s fee-bearing arrivals (``w >= 1``), drawing every window up
        to it not yet drawn, each advancing the AR(1) floor once."""
        if not self.flight:
            return NO_MARKET
        sigma, flight = self.profile.sigma, self.flight
        ln_spread = math.log(RATE_SPREAD)
        while (drawn := len(self.windows)) <= w:  # drawn: the window being drawn
            self._g = FLOOR_RHO * self._g + self._rng_floor.gauss(0.0, sigma)
            floor = self._floor()
            start = (drawn - 1) * BLOCK_INTERVAL
            fees, arrivals = [], []
            for _ in range(flight):
                rate = floor * math.exp(ln_spread * self._rng_rates.random())
                fees.append(math.ceil(rate * MARKET_TX_VSIZE))
                arrivals.append(start + BLOCK_INTERVAL * self._rng_times.random())
            end = self.sediment_count + drawn * flight  # the sediment and windows 1..drawn
            txids = _txids(end)[end - flight:end]
            # a stable sort, so tied times keep bg order
            order = sorted(range(flight), key=arrivals.__getitem__)
            self.windows.append(_entries([txids[i] for i in order], [fees[i] for i in order],
                                         [arrivals[i] for i in order]))
        return self.windows[w]
