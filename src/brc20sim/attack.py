"""Pinning attack engine and operational-tolerance calculator.

An attack attempt inscribes a falsified transfer of ``wallet.TICK`` against the
``TARGET`` wallet: the inscription lands at the target's address (debiting
available into transferable when it confirms) while the follow-up execution
transaction is fee-priced inside the pinning band and lingers in the mempool.
One attacker fires an attempt every ``ATTEMPT_SPACING_S`` seconds at the
scenario's fee rate, and every attempt is measured at the scenario's horizon.
The attack succeeds when some attempt's tokens stay locked longer than the
victim's operational tolerance.  ``execute`` reads all of this from the one
``harness.ScenarioConfig``.

``execute`` returns once no later block can change that measure.  Only
foreground transactions move tokens, so past the attempt window it mines a
block at a time and stops when none of them is left in the pool and the
target holds no transferable tokens, or else at the horizon.  A caller that
wants the whole run, for its event log or congestion samples, runs on to
``AttackOutcome.horizon``; the blocks in between change no score, and the
balance samples they add hold no transferable tokens.

Attempt ``i`` launches at ``start + (i - 1) * ATTEMPT_SPACING_S`` whatever
the attempt count, and its amount reads only the state then, so a run of
``n`` attempts is, up to the time attempt ``n + 1`` would launch, the same
history as every longer run of the same fraction and fee.  ``execute`` can
hand that point over (``on_launched``) and resume a longer run from it
(``resume``): the attempts launched so far, as frozen ``AttemptRecord``s
that scoring replaces rather than fills in, and the start time.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .sim import Simulation
# build_transfer is unused here, but bench/tracing.py wraps the name in this module
from .wallet import TICK, TransferRequest, build_transfer

if TYPE_CHECKING:
    from .harness import ScenarioConfig

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


@dataclass(frozen=True, slots=True)
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
    horizon: float  # the time the scenario is measured to; ``execute`` may return earlier
    per_attempt: list[AttemptRecord] = field(default_factory=list)
    success: bool = False

    def transcript(self) -> list[dict]:
        return [r.row() for r in self.per_attempt]


@dataclass(frozen=True, slots=True)
class Launches:
    """An attack at the launch time of its next attempt: when it started, and the
    attempts launched so far, unscored."""

    start: float
    records: tuple[AttemptRecord, ...]


def evaluate_success(delays: list[float], t_bar: float) -> bool:
    """True iff any attempt's effective delay strictly exceeds the tolerance."""
    return any(delay > t_bar for delay in delays)


def _zero_attempt(index: int, fee: int, now: float) -> AttemptRecord:
    return AttemptRecord(index=index, amount=0, fee_rate=fee, submit_time=now)


def execute(
    config: ScenarioConfig,
    sim: Simulation,
    resume: Launches | None = None,
    on_launched: Callable[[Launches], None] | None = None,
) -> AttackOutcome:
    """Run the scenario's attack against a live simulation.

    Attempts are fired every ``ATTEMPT_SPACING_S`` seconds, and all of them are
    scored as they stand at the horizon.  Past the attempt window the
    simulation is mined a block at a time, and ``execute`` returns before the
    horizon once no later block can change the score (see ``_settled``); the
    outcome names the horizon.  With ``resume``, ``sim`` stands where a shorter
    run of the same fraction and fee handed over, and the attack goes on from
    its launches.  ``on_launched`` is called with this run's launches at the
    end of its attempt window, the time its next attempt would have launched.
    """
    fee = config.fee_rate
    start, records = (sim.now, []) if resume is None else (resume.start, list(resume.records))
    horizon = start + config.horizon_s()

    for index in range(len(records) + 1, config.attempts + 1):
        sim.run_until(start + (index - 1) * ATTEMPT_SPACING_S)
        available = sim.balance(TICK, TARGET)[0]
        if available == 0 and index == 1:
            raise TargetEmpty(f"{TARGET} has no available {TICK}")
        amount = math.floor(config.fraction * available)
        if amount == 0:
            records.append(_zero_attempt(index, fee, sim.now))
            continue
        records.append(_launch_attempt(sim, index, amount, fee))

    sim.run_until(start + config.attempts * ATTEMPT_SPACING_S)
    if on_launched is not None:
        on_launched(Launches(start, tuple(records)))
    while sim.now < horizon and not _settled(sim):
        sim.run_until(min(sim.next_block_time, horizon))
    per_attempt = [r if r.tx2 is None else _scored(sim, r, horizon) for r in records]
    # an attempt whose Tx1 and Tx2 confirm in one block locked no tokens: its
    # delay stands, but it counts toward no success
    locked = [r.effective_delay for r in per_attempt
              if r.confirm_time is None or r.confirm_time != sim.chain.confirmation_time(r.tx1)]
    success = evaluate_success(locked, config.tolerance_s)
    return AttackOutcome(horizon, per_attempt, success)


def _settled(sim: Simulation) -> bool:
    """Whether no later block can change the score or the target's balance samples.

    Only foreground transactions move tokens, so once none is left in the pool
    every attempt's record is final (``_scored`` counts a Tx2 that never
    confirms to the horizon), and so is the target's balance: each later
    sample repeats it, and adds to the outage while tokens are transferable.
    """
    return not sim.foreground_pooled() and sim.balance(TICK, TARGET)[1] == 0


def _launch_attempt(sim: Simulation, index: int, amount: int, fee: int) -> AttemptRecord:
    req = TransferRequest(
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


def _scored(sim: Simulation, record: AttemptRecord, horizon: float) -> AttemptRecord:
    """An attempt as scored at the horizon: the delay counts only if tokens were
    really locked."""
    confirm_time = sim.chain.confirmation_time(record.tx2)
    launched = (record.index, record.amount, record.fee_rate, record.submit_time,
                record.tx1, record.tx2, confirm_time)
    if not sim.chain.confirmed(record.tx1):
        # inscription never confirmed, so no tokens were locked
        return AttemptRecord(*launched)
    ordinal = sim.indexer.transfers.get(record.tx1)
    voided = ordinal is None
    # Tx2's delay runs from its send time to its confirmation, or to the horizon
    end = horizon if confirm_time is None else confirm_time
    return AttemptRecord(*launched, effective_delay=0.0 if voided else end - record.submit_time,
                         pinned=ordinal in sim.indexer.pending, voided=voided)
