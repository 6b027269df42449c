"""Pinning attack engine and operational-tolerance calculator.

An attack attempt inscribes a falsified transfer of ``TICK`` against the
``TARGET`` wallet: the inscription lands at the target's address (debiting
available into transferable when it confirms) while the follow-up execution
transaction is fee-priced inside the pinning band and lingers in the mempool.
One attacker fires an attempt every ``ATTEMPT_SPACING_S`` seconds at the
scenario's fee rate, and every attempt is measured at the scenario's horizon.
The attack succeeds when some attempt's tokens stay locked longer than the
victim's operational tolerance.  ``execute`` reads all of this from the one
``harness.ScenarioConfig``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .sim import Simulation
# unused here, but bench/tracing.py wraps the build_transfer name in this module
from .wallet import TransferRequest, build_transfer

if TYPE_CHECKING:
    from .harness import ScenarioConfig

TICK = "ordi"  # the attacked token
TARGET = "hot-wallet"  # the attacked wallet
ATTEMPT_SPACING_S = 1800.0  # seconds between the starts of two attempts


class TargetEmpty(Exception):
    """Target had no available balance when the first attempt started."""


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
        if not 0 < self.period_seconds < math.inf:
            raise ValueError("period must be positive and finite")


def tolerance(inputs: ToleranceInputs) -> float:
    """Seconds a service absorbs locked liquidity before disruption.

    Surplus liquidity divided by the consumption rate (volume over its
    measurement period).
    """
    surplus = inputs.available_liquidity - inputs.required_liquidity
    return surplus * inputs.period_seconds / inputs.volume_per_period


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
    peak_pinned: int = 0
    success: bool = False

    def transcript(self) -> list[dict]:
        return [r.row() for r in self.per_attempt]


def evaluate_success(delays: list[float], t_bar: float) -> bool:
    """True iff any attempt's effective delay strictly exceeds the tolerance."""
    return any(delay > t_bar for delay in delays)


def _zero_attempt(index: int, fee: int, now: float) -> AttemptRecord:
    return AttemptRecord(index=index, amount=0, fee_rate=fee, submit_time=now)


def execute(config: ScenarioConfig, sim: Simulation) -> AttackOutcome:
    """Run the scenario's attack against a live simulation.

    Attempts are fired every ``ATTEMPT_SPACING_S`` seconds until the horizon,
    and all of them are scored once the horizon is reached.
    """
    fee = config.fee_rate
    outcome = AttackOutcome()
    horizon_time = sim.now + config.horizon_s()
    start = sim.now

    for index in range(1, config.attempts + 1):
        sim.run_until(min(start + (index - 1) * ATTEMPT_SPACING_S, horizon_time))
        if sim.now >= horizon_time:
            outcome.per_attempt.append(_zero_attempt(index, fee, sim.now))
            continue

        available = sim.balance(TICK, TARGET)[0]
        if available == 0 and index == 1:
            raise TargetEmpty(f"{TARGET} has no available {TICK}")
        amount = math.floor(config.fraction * available)
        if amount == 0:
            outcome.per_attempt.append(_zero_attempt(index, fee, sim.now))
            continue
        outcome.per_attempt.append(_launch_attempt(sim, index, amount, fee))

    sim.run_until(horizon_time)
    for record in outcome.per_attempt:
        if record.tx2 is not None:
            _finalize_record(sim, record)
    outcome.success = evaluate_success(
        [r.effective_delay for r in outcome.per_attempt], config.tolerance_s
    )

    _, trans, _ = sim.balance(TICK, TARGET)
    outcome.peak_pinned = max((s[2] for s in sim.balance_samples), default=trans)
    return outcome


def _launch_attempt(sim: Simulation, index: int, amount: int, fee: int) -> AttemptRecord:
    req = TransferRequest(
        tick=TICK,
        amount=amount,
        sender=TARGET,  # falsified: inscription lands at the target
        recipient=TARGET,
        fee_rate=fee,
    )
    bundle, _, _ = sim.send_transfer(req)
    return AttemptRecord(
        index=index,
        amount=amount,
        fee_rate=fee,
        submit_time=sim.now,  # Tx2's send time
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
    # Tx2's delay runs from its send time to its confirmation, or to now while pending
    end = sim.now if record.confirm_time is None else record.confirm_time
    record.effective_delay = 0.0 if record.voided else end - record.submit_time

