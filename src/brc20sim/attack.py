"""Pinning attack engine and operational-tolerance calculator.

An attack attempt inscribes a falsified transfer against the target: the
inscription lands at the target's address (debiting available into
transferable when it confirms) while the follow-up execution transaction is
fee-priced inside the pinning band and lingers in the mempool.  An attempt
succeeds when the tokens stay locked longer than the victim's operational
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .sim import Simulation
from .wallet import TransferRequest, build_transfer, submit_bundle


class AttackError(Exception):
    pass


class TargetEmpty(AttackError):
    """Target had no available balance when the first attempt started."""


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
    def from_floor(cls, f_min: float) -> FeeBand:
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


@dataclass(frozen=True, slots=True)
class ToleranceInputs:
    available_liquidity: int
    required_liquidity: int
    volume_per_period: int
    period_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if not self.available_liquidity >= self.required_liquidity >= 0:
            raise ValueError("need available >= required >= 0")
        if self.volume_per_period <= 0:
            raise ValueError("volume must be positive")
        if self.period_seconds <= 0:
            raise ValueError("period must be positive")


def tolerance(inputs: ToleranceInputs) -> float:
    """Seconds a service absorbs locked liquidity before disruption.

    Surplus liquidity divided by the consumption rate (volume over its
    measurement period).
    """
    if inputs.volume_per_period == 0:
        raise ZeroDivisionError("volume is zero")
    surplus = inputs.available_liquidity - inputs.required_liquidity
    return surplus * inputs.period_seconds / inputs.volume_per_period


@dataclass(frozen=True, slots=True)
class AttackConfig:
    tick: str
    target: str
    fraction: float
    attempts: int
    tolerance_s: float
    horizon_s: float
    band: FeeBand
    fee_rate: int | None = None  # None: engine picks from the band
    rbf: bool = True
    attempt_spacing_s: float = 2400.0  # survey-mode submission cadence

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.fee_rate is not None and not (
            self.band.f_min <= self.fee_rate <= self.band.f_sf
        ):
            raise ValueError("fee_rate outside the configured band")


@dataclass(slots=True)
class AttemptRecord:
    index: int
    amount: int
    fee_rate: int
    submit_time: float
    tx1: str | None = None
    tx2: str | None = None
    confirm_time: float | None = None
    effective_delay: float = 0.0
    pinned: bool = False
    voided: bool = False

    def row(self) -> dict:
        return {
            "attempt": self.index,
            "amount": self.amount,
            "fee_rate": self.fee_rate,
            "submit_time": self.submit_time,
            "confirm_time": self.confirm_time,
            "effective_delay": self.effective_delay,
            "pinned": self.pinned,
            "voided": self.voided,
        }


@dataclass(slots=True)
class AttackOutcome:
    per_attempt: list[AttemptRecord] = field(default_factory=list)
    total_pinned: int = 0
    peak_pinned: int = 0
    target_available_at_end: int = 0
    success: bool = False

    def transcript(self) -> list[dict]:
        return [r.row() for r in self.per_attempt]


def evaluate_success(per_attempt, t_bar: float) -> bool:
    """True iff any attempt's effective delay strictly exceeds the tolerance."""
    for item in per_attempt:
        delay = item if isinstance(item, (int, float)) else item.effective_delay
        if delay > t_bar:
            return True
    return False


def _zero_attempt(index: int, fee: int, now: float) -> AttemptRecord:
    return AttemptRecord(index=index, amount=0, fee_rate=fee, submit_time=now)


def execute(config: AttackConfig, sim: Simulation, stop_on_success: bool = True) -> AttackOutcome:
    """Run the attack loop against a live simulation.

    ``stop_on_success`` selects the live-attacker behavior: wait out each
    attempt and exit as soon as one pins past the tolerance.  With it off,
    attempts are fired on a fixed cadence and all of them are measured, which
    is the survey/experiment mode.
    """
    fee = config.fee_rate
    if fee is None:
        fee = pick_fee(config.band, sim.pool.congestion())
    if not config.band.f_min <= fee <= config.band.f_sf:
        raise AttackError(f"fee {fee} escaped the band")

    outcome = AttackOutcome()
    horizon_time = sim.now + config.horizon_s
    start = sim.now

    for index in range(1, config.attempts + 1):
        if not stop_on_success:
            submit_at = min(start + (index - 1) * config.attempt_spacing_s, horizon_time)
            sim.run_until(submit_at)
        if sim.now >= horizon_time:
            outcome.per_attempt.append(_zero_attempt(index, fee, sim.now))
            continue

        available = sim.balance(config.tick, config.target)[0]
        if available == 0 and index == 1:
            raise TargetEmpty(f"{config.target} has no available {config.tick}")
        amount = math.floor(config.fraction * available)
        if amount == 0:
            outcome.per_attempt.append(_zero_attempt(index, fee, sim.now))
            continue

        record = _launch_attempt(config, sim, index, amount, fee)
        outcome.per_attempt.append(record)

        if stop_on_success:
            _resolve_attempt(config, sim, record, horizon_time)
            if not record.voided and record.effective_delay > config.tolerance_s:
                outcome.success = True
                break

    if not stop_on_success:
        sim.run_until(horizon_time)
        for record in outcome.per_attempt:
            if record.tx2 is not None:
                _finalize_record(sim, record)
        outcome.success = evaluate_success(outcome.per_attempt, config.tolerance_s)

    avail, trans, _ = sim.balance(config.tick, config.target)
    outcome.total_pinned = trans
    outcome.target_available_at_end = avail
    outcome.peak_pinned = max(
        (s[2] for s in sim.balance_samples), default=trans
    )
    return outcome


def _launch_attempt(config, sim, index: int, amount: int, fee: int) -> AttemptRecord:
    req = TransferRequest(
        tick=config.tick,
        amount=amount,
        sender=config.target,  # falsified: inscription lands at the target
        recipient=config.target,
        fee_rate=fee,
        rbf=config.rbf,
    )
    bundle = build_transfer(
        req,
        sim.chain.utxo_set,
        sim.config.wallet,
        exclude=set(sim.pool.spends),  # never double-spend pool-encumbered coins
    )
    r1, r2 = submit_bundle(bundle, sim.pool, sim.now, sim.config.wallet)
    sim.note_submitted(bundle.tx1, bundle.tx1_submit, r1)
    sim.note_submitted(bundle.tx2, bundle.tx2_submit, r2)
    return AttemptRecord(
        index=index,
        amount=amount,
        fee_rate=fee,
        submit_time=bundle.tx2_submit,
        tx1=bundle.tx1.txid,
        tx2=bundle.tx2.txid,
    )


def _finalize_record(sim: Simulation, record: AttemptRecord) -> None:
    """Score an attempt: the delay counts only if tokens were really locked."""
    record.confirm_time = sim.chain.confirmation_time(record.tx2)
    ordinal = sim.indexer.inscription_of(record.tx1)
    if ordinal is None:
        # inscription never confirmed, so no tokens were locked
        record.voided = False
        record.pinned = False
        record.effective_delay = 0.0
        return
    record.voided = ordinal not in sim.indexer.pending_created
    record.pinned = ordinal in sim.indexer.state.pending
    record.effective_delay = 0.0 if record.voided else sim.effective_delay(record.tx2)


def _resolve_attempt(config, sim, record: AttemptRecord, horizon_time: float) -> None:
    """Advance until the execution tx confirms or pends past the tolerance."""
    while True:
        if sim.chain.confirmed(record.tx2):
            break
        if sim.now - record.submit_time > config.tolerance_s:
            break
        if sim.now >= horizon_time:
            break
        sim.run_blocks(1)
    _finalize_record(sim, record)
