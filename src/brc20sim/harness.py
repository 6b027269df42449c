"""Experiment harness: single scenarios, the 3x3x3x3 parameter sweep, and the
scripted exchange-hot-wallet incident replay.

The sweep crosses transfer fraction, fee rate, congestion level and attempt
count (three levels each, 81 scenarios) and aggregates per-seed results into
one CSV row per scenario.  All randomness is seed-derived, so a (grid, seeds)
pair fully determines every emitted byte.

Held histories.  ``run_scenario`` runs one scenario from a fresh set-up and
holds nothing.  The sweep, which repeats each set-up for every cell of a
congestion level, starts each cell (``_run_cell``) from the longest history
it holds that the cell shares:

* a *set-up*, the simulation at the end of ``_set_up``, which depends only on
  the ``SimConfig``, the congestion level and the seed;
* a *checkpoint*, a run of ``n`` attempts at the time its attempt ``n + 1``
  would have launched, which every longer run of the same set-up, fraction
  and fee passes through (see ``attack``); the longer run resumes from it.

A cell forks what it starts from (``Simulation.fork``), so what is held
never changes; the fork shares the held simulation's background load, so a
set-up's market is drawn once for all the cells that start from it.  Only
the current seed's histories are held, and a cell of another seed drops
them, and so their loads, first.  At most one set-up per congestion level is
held, from its first request, plus the latest checkpoint, which every cell
leaves.  A resumed cell gives what a fresh one gives, byte for byte, because
running to ``a`` and then to ``b`` is running to ``b``: the arrivals run to
``a`` and then the rest enter the pool as one batch of them would.

Where a cell stops.  ``attack.execute`` returns once no later block can
change the score (see ``attack``).  ``run_scenario`` then mines on to the
horizon, so its result, the ``sim`` report and every event log are those of
the whole run.  The sweep's ``_run_cell`` reads its four numbers where
``execute`` returns, through the helper ``run_scenario`` uses (``_lockup``),
since the blocks after it change none of them.
"""

from __future__ import annotations

import io
import math
from collections.abc import Callable
from dataclasses import dataclass, field

from .attack import ATTEMPT_SPACING_S, TARGET, Launches, execute
from .background import CongestionProfile
from .chain import DUST, Transaction, TxInput, TxOutput, make_txid
from .indexer import deploy_inscription, mint_inscription
from .mempool import EXPIRY, MIN_RELAY_FEE_RATE, SubmitResult
from .sim import BLOCK_INTERVAL, SimConfig, Simulation, collector_paused
# unused here, but bench/tracing.py wraps the build_transfer name in this module
from .wallet import TICK, TX1_VSIZE, TransferRequest, build_recovery, build_transfer

FRACTION_LEVELS = (0.10, 0.50, 1.00)
FEE_LEVELS = (100, 200, 500)
CONGESTION_LEVELS = (0.25, 0.50, 0.75)
ATTEMPT_LEVELS = (2, 5, 10)

SETUP_FEE_RATE = 500  # above every background rate: setup confirms next block
TARGET_INITIAL = 1_000_000  # the target's opening token balance in a scenario
HORIZON_MARGIN_S = 2400.0  # scored horizon: attempts, then tolerance, then this
SETUP_S = 3 * BLOCK_INTERVAL  # _fund_and_mint's three blocks, after which the horizon starts

CSV_HEADER = (
    "fraction,fee,congestion,attempts,success_rate,mean_delay,p95_delay,"
    "pinned_pct,outage_s"
)


class ReplayDivergence(AssertionError):
    """A replay assertion failed: the model diverged from the script or event log it replays."""


class SetupFailed(ValueError):
    """A set-up transaction did not confirm: the settings leave it no room."""


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """One scenario: the attack ``attack.execute`` runs and the market it runs in."""

    fraction: float
    fee_rate: int
    congestion: float
    attempts: int
    tolerance_s: float = 3600.0
    sim: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self) -> None:
        if not 0 <= self.fraction <= 1:
            raise ValueError("fraction must be in [0, 1]")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.fee_rate < MIN_RELAY_FEE_RATE:
            raise ValueError("fee below the relay floor")
        # CongestionProfile.for_level reads any level <= 0 as no market
        if not 0 <= self.congestion <= CongestionProfile.MAX_LEVEL:
            raise ValueError(f"congestion must be in [0, {CongestionProfile.MAX_LEVEL!r}], "
                             f"got {self.congestion!r}")
        if not 0 <= self.tolerance_s < math.inf:
            raise ValueError(f"tolerance must be >= 0 and finite, got {self.tolerance_s!r}")
        # past EXPIRY, counted from the set-up's start, the sediment sent then would
        # have left the pool, and a horizon of 1e12 s would mine 1.7e9 blocks.  The
        # attempts are bounded first, so that a huge count cannot overflow the float horizon.
        if self.attempts > EXPIRY // ATTEMPT_SPACING_S or SETUP_S + self.horizon_s() > EXPIRY:
            raise ValueError(f"horizon must be at most {EXPIRY - SETUP_S!r} s after the set-up, "
                             f"got {self.attempts} attempts and a {self.tolerance_s!r} s tolerance")

    def horizon_s(self) -> float:
        return self.attempts * ATTEMPT_SPACING_S + self.tolerance_s + HORIZON_MARGIN_S


@dataclass(slots=True)
class ScenarioResult:
    seed: int
    success: bool
    delays: list[float]
    pinned_pct: float
    outage_s: float
    congestion_measured: float
    transcript: list[dict]


@dataclass(slots=True)
class SweepRow:
    fraction: float
    fee: int
    congestion: float
    attempts: int
    success_rate: float
    mean_delay: float
    p95_delay: float
    pinned_pct: float
    outage_s: float
    sample_count: int

    def csv(self) -> str:
        return (
            f"{self.fraction:.2f},{self.fee},{self.congestion:.2f},{self.attempts},"
            f"{self.success_rate:.4f},{self.mean_delay:.1f},{self.p95_delay:.1f},"
            f"{self.pinned_pct:.2f},{self.outage_s:.1f}"
        )


def inscription_tx(
    sim: Simulation, owner: str, payload: str, fee_rate: int, tag: str
) -> Transaction:
    """Single self-send envelope transaction (deploy/mint setup plumbing)."""
    fund = sim.grant(owner, DUST + fee_rate * TX1_VSIZE)
    inputs = (TxInput(fund.serial),)
    outputs = (TxOutput(DUST, owner, inscription=payload),)
    return Transaction(make_txid(inputs, outputs, TX1_VSIZE, tag=tag), inputs, outputs, TX1_VSIZE)


def _require_confirmed(
    sim: Simulation, step: str, tx: Transaction, result: SubmitResult
) -> None:
    if not sim.chain.confirmed(tx.txid):
        why = "no block took it" if result.accepted else f"the pool refused it ({result.reason})"
        raise SetupFailed(f"set-up step {step!r} did not confirm: {why}")


def _fund_and_mint(sim: Simulation, holdings: dict[str, int], max_supply: int) -> None:
    """Deploy the tick and mint each address its opening balance, by time ``SETUP_S``."""
    deploy = inscription_tx(
        sim, TARGET, deploy_inscription(TICK, max_supply, max_supply), SETUP_FEE_RATE, "deploy"
    )
    deployed = sim.submit(deploy)
    sim.run_blocks(1)
    _require_confirmed(sim, "deploy", deploy, deployed)
    mints = []
    for addr, amount in holdings.items():
        mint = inscription_tx(sim, addr, mint_inscription(TICK, amount), SETUP_FEE_RATE,
                              f"mint-{addr}")
        mints.append((f"mint for {addr}", mint, sim.submit(mint)))
    sim.run_until(SETUP_S)
    for step, mint, minted in mints:
        _require_confirmed(sim, step, mint, minted)
    for addr, amount in holdings.items():
        if sim.balance(TICK, addr)[0] != amount:
            raise ReplayDivergence(f"setup mint failed for {addr}")


def _set_up(config: ScenarioConfig, seed: int) -> Simulation:
    """A fresh simulation of the scenario's market, at the end of its set-up: the
    target funded, the tick deployed and the target's opening balance minted."""
    sim = Simulation(config.sim, CongestionProfile.for_level(config.congestion, seed))
    for _ in range(10):
        sim.grant(TARGET, 100_000_000)
    _fund_and_mint(sim, {TARGET: TARGET_INITIAL}, max_supply=21_000_000)
    sim.watch_balance(TICK, TARGET)
    return sim


@dataclass(frozen=True, slots=True)
class _Checkpoint:
    """A scenario's history up to the launch time of the attempt after its last."""

    cell: tuple  # (SimConfig, congestion, fraction, fee_rate): what the history depends on
    sim: Simulation
    launches: Launches


class _Histories:
    """The current seed's held histories (see the module docstring)."""

    def __init__(self) -> None:
        self.clear()

    def clear(self, seed: int | None = None) -> None:
        self.seed = seed
        self.setups: dict[float, Simulation] = {}  # congestion -> its set-up, held
        self.checkpoint: _Checkpoint | None = None

    def start(
        self, config: ScenarioConfig, seed: int
    ) -> tuple[Simulation, Launches | None, Callable[[Launches], None]]:
        """A cell's simulation, forked from the longest held prefix of its history;
        the launches it resumes; and the hook that holds the cell's own checkpoint."""
        if seed != self.seed:
            self.clear(seed)
        cell = (config.sim, config.congestion, config.fraction, config.fee_rate)
        checkpoint = self.checkpoint
        if (checkpoint is not None and checkpoint.cell == cell
                and len(checkpoint.launches.records) < config.attempts):
            sim, resume = checkpoint.sim.fork(), checkpoint.launches
        else:
            held = self.setups.get(config.congestion)
            if held is None or held.config != config.sim:
                held = self.setups[config.congestion] = _set_up(config, seed)
            sim, resume = held.fork(), None

        def hold(launches: Launches) -> None:
            self.checkpoint = _Checkpoint(cell, sim.fork(), launches)

        return sim, resume, hold


_histories = _Histories()


@collector_paused()
def run_scenario(
    config: ScenarioConfig, seed: int, log_path: str | None = None
) -> ScenarioResult:
    """One seeded trial of the attack under the scenario's conditions, from a fresh
    set-up, run to its horizon; it holds no history (see the module docstring)."""
    sim = _set_up(config, seed)
    outcome = execute(config, sim)
    sim.run_until(outcome.horizon)
    if log_path is not None:
        sim.export_event_log(log_path)
    pinned_pct, outage_s = _lockup(sim)
    return ScenarioResult(
        seed=seed,
        success=outcome.success,
        delays=[r.effective_delay for r in outcome.per_attempt],
        pinned_pct=pinned_pct,
        outage_s=outage_s,
        congestion_measured=sim.mean_congestion(),
        transcript=outcome.transcript(),
    )


def _lockup(sim: Simulation) -> tuple[float, float]:
    """The target's peak transferable balance as a percentage of its opening
    balance, and its outage: a block interval per block that left tokens
    transferable."""
    samples = sim.balance_samples
    outage_s = BLOCK_INTERVAL * sum(1 for trans in samples if trans > 0)
    peak_pinned = max(samples, default=sim.balance(TICK, TARGET)[1])
    return 100.0 * peak_pinned / TARGET_INITIAL, outage_s


def default_grid(fractions=FRACTION_LEVELS, fees=FEE_LEVELS, congestion=CONGESTION_LEVELS,
                 attempts=ATTEMPT_LEVELS, sim: SimConfig = SimConfig()) -> list[ScenarioConfig]:
    """Every combination of the level tuples, in this order, each on ``sim``."""
    return [
        ScenarioConfig(fraction=f, fee_rate=fee, congestion=c, attempts=n, sim=sim)
        for f in fractions
        for fee in fees
        for c in congestion
        for n in attempts
    ]


def _percentile_95(samples: list[float]) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, math.ceil(0.95 * len(ordered)) - 1)
    return ordered[rank]


@collector_paused()
def _run_cell(task: tuple[ScenarioConfig, int]) -> tuple:
    """One cell at one seed: only what its sweep row reads, taken where ``execute``
    stops, since no later block changes it."""
    config, seed = task
    sim, resume, hold = _histories.start(config, seed)
    outcome = execute(config, sim, resume, hold)
    pinned_pct, outage_s = _lockup(sim)
    return outcome.success, [r.effective_delay for r in outcome.per_attempt], pinned_pct, outage_s


def _row(config: ScenarioConfig, results: list[tuple]) -> SweepRow:
    """One cell's row from its per-seed ``_run_cell`` results, in seed order."""
    successes, seed_delays, pinned, outages = zip(*results)
    delays = [d for per_seed in seed_delays for d in per_seed]
    per_seed_mean = [sum(per_seed) / len(per_seed) for per_seed in seed_delays]
    return SweepRow(
        fraction=config.fraction,
        fee=config.fee_rate,
        congestion=config.congestion,
        attempts=config.attempts,
        success_rate=sum(successes) / len(results),
        mean_delay=sum(per_seed_mean) / len(per_seed_mean),
        p95_delay=_percentile_95(delays),
        pinned_pct=sum(pinned) / len(results),
        outage_s=sum(outages) / len(results),
        sample_count=len(delays),
    )


def run_sweep(
    grid: list[ScenarioConfig] | None = None,
    seeds: tuple[int, ...] = tuple(range(50)),
    workers: int = 1,
) -> list[SweepRow]:
    """One row per cell over ``seeds``.  The work is one task per (cell, seed),
    seed by seed, so that a seed's cells start from its held histories and
    share their markets."""
    grid = default_grid() if grid is None else grid
    if not seeds:
        raise ValueError("the sweep needs at least one seed")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    unique = tuple(dict.fromkeys(seeds))
    tasks = [(config, seed) for seed in unique for config in grid]
    workers = min(workers, len(tasks))  # no idle processes beyond one per task
    if workers > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(workers) as pool:
            done = pool.map(_run_cell, tasks)
    else:
        done = [_run_cell(task) for task in tasks]
    per_seed = {seed: done[k * len(grid):(k + 1) * len(grid)] for k, seed in enumerate(unique)}
    rows = [_row(config, [per_seed[seed][i] for seed in seeds]) for i, config in enumerate(grid)]
    rows.sort(key=lambda r: (r.fraction, r.fee, r.congestion, r.attempts))
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for row in rows:
        out.write(row.csv() + "\n")
    return out.getvalue()


# --------------------------------------------------------------------------
# Scripted incident replay
# --------------------------------------------------------------------------

# Published quantities from the incident: opening balance, the racing
# withdrawal, top-up deposits, per-attempt pinned amounts, and the recovery
# total.  Public trackers list the second small deposit as 1,022, but the
# pinned and recovered totals only reconcile at 1,023.
REPLAY = {
    "opening": 8_196_950,
    "withdrawal": 6_337,
    "interval_deposit": 19_495,  # 8,210,108 - (8,196,950 - 6,337)
    "deposits_2_3": (5_076, 1_023),
    "deposit_4": 2_683,
    "attempt_amounts": (8_196_950, 8_210_108, 6_099, 2_683),
    "attack_fees": (200, 201, 201, 201),
    "recovery_fee": 404,
    "recovered": 8_218_890,
    "congestion_level": 1.4948,
    "dwell_blocks": 21,  # ~3.5 h of pinned liquidity
}

DEPOSITORS = ("exchange-internal-1", "exchange-internal-2", "exchange-internal-3",
              "exchange-internal-4")
WITHDRAWER = "user-withdrawal"


def _replay_profile(seed: int) -> CongestionProfile:
    # Market rates sit strictly between the attack fees (200/201) and the
    # recovery fee (404): the attack pins deterministically, recovery clears.
    return CongestionProfile(
        target_level=REPLAY["congestion_level"],
        seed=seed,
        floor_base=260.0,
        floor_lo=230.0,
        floor_cap=330.0,
        sigma=0.08,
    )


def _expect(check: bool, label: str, transcript: list[dict], **details) -> None:
    transcript.append({"step": label, "ok": bool(check), **details})
    if not check:
        raise ReplayDivergence(f"{label}: {details}")


def _bundle(sim: Simulation, sender: str, recipient: str, amount: int, fee_rate: int):
    """Build and submit one transfer bundle; both halves must be accepted."""
    req = TransferRequest(amount, sender=sender, recipient=recipient, fee_rate=fee_rate)
    bundle, r1, r2 = sim.send_transfer(req)
    if not (r1.accepted and r2.accepted):
        raise ReplayDivergence(
            f"bundle {sender} -> {recipient} rejected: {r1.reason}, {r2.reason}"
        )
    return bundle


@collector_paused()
def run_binance_replay(seed: int = 0) -> list[dict]:
    """Replay the four-attack / three-recovery incident and assert each step.

    Returns the transcript rows; raises ReplayDivergence on the first failed
    assertion.
    """
    q = REPLAY
    transcript: list[dict] = []
    sim = Simulation(SimConfig(), _replay_profile(seed))

    for _ in range(12):
        sim.grant(TARGET, 100_000_000)
    for addr in DEPOSITORS:
        sim.grant(addr, 10_000_000)
        sim.grant(addr, 10_000_000)

    holdings = {
        TARGET: q["opening"],
        DEPOSITORS[0]: q["interval_deposit"],
        DEPOSITORS[1]: q["deposits_2_3"][0],
        DEPOSITORS[2]: q["deposits_2_3"][1],
        DEPOSITORS[3]: q["deposit_4"],
    }
    _fund_and_mint(sim, holdings, max_supply=21_000_000)
    _expect(
        sim.balance(TICK, TARGET) == (q["opening"], 0, q["opening"]),
        "opening-balance", transcript, balance=sim.balance(TICK, TARGET),
    )
    congestion = sim.congestion_samples[-1]  # standing pool just before mining
    _expect(
        abs(congestion - q["congestion_level"]) < 0.02,
        "congestion-level", transcript, congestion=round(congestion, 4),
    )

    # Attempt 1 races a legitimate withdrawal confirmed in the same block:
    # the inscribed amount exceeds what is left, so the indexer voids it.
    withdrawal = _bundle(sim, TARGET, WITHDRAWER, q["withdrawal"], SETUP_FEE_RATE)
    attack1 = _bundle(sim, TARGET, TARGET, q["attempt_amounts"][0], q["attack_fees"][0])
    sim.run_blocks(1)
    _expect(
        sim.chain.confirmed(attack1.tx1.txid)
        and sim.indexer.inscription_of(attack1.tx1.txid) not in sim.indexer.pending_created,
        "attempt-1-voided-by-withdrawal-race", transcript,
        balance=sim.balance(TICK, TARGET),
    )
    _expect(
        sim.balance(TICK, WITHDRAWER)[0] == q["withdrawal"],
        "withdrawal-settled", transcript, balance=sim.balance(TICK, WITHDRAWER),
    )

    # An ordinary deposit lands in the interval before the second attempt.
    _bundle(sim, DEPOSITORS[0], TARGET, q["interval_deposit"], SETUP_FEE_RATE)
    sim.run_blocks(1)
    _expect(
        sim.balance(TICK, TARGET)[0] == q["attempt_amounts"][1],
        "interval-deposit", transcript, balance=sim.balance(TICK, TARGET),
    )

    # Attempt 2 pins nearly the whole wallet; withdrawals become inoperative.
    attack2 = _bundle(sim, TARGET, TARGET, q["attempt_amounts"][1], q["attack_fees"][1])
    sim.run_blocks(1)
    _expect(
        sim.balance(TICK, TARGET) == (0, q["attempt_amounts"][1], q["attempt_amounts"][1]),
        "attempt-2-pinned-entire-balance", transcript,
        balance=sim.balance(TICK, TARGET),
    )
    _expect(
        not sim.chain.confirmed(attack2.tx2.txid) and attack2.tx2.txid in sim.pool,
        "attempt-2-tx2-pinned", transcript,
    )

    # Two replenishment deposits, then attempt 3 pins exactly their sum.
    _bundle(sim, DEPOSITORS[1], TARGET, q["deposits_2_3"][0], SETUP_FEE_RATE)
    _bundle(sim, DEPOSITORS[2], TARGET, q["deposits_2_3"][1], SETUP_FEE_RATE)
    sim.run_blocks(1)
    _expect(
        sim.balance(TICK, TARGET)[0] == q["attempt_amounts"][2],
        "replenishment-deposits", transcript, balance=sim.balance(TICK, TARGET),
    )
    attack3 = _bundle(sim, TARGET, TARGET, q["attempt_amounts"][2], q["attack_fees"][2])
    sim.run_blocks(1)
    _expect(
        sim.balance(TICK, TARGET)[0] == 0,
        "attempt-3-pinned-replenishment", transcript, balance=sim.balance(TICK, TARGET),
    )

    # One more deposit, matched by attempt 4.
    _bundle(sim, DEPOSITORS[3], TARGET, q["deposit_4"], SETUP_FEE_RATE)
    sim.run_blocks(1)
    attack4 = _bundle(sim, TARGET, TARGET, q["attempt_amounts"][3], q["attack_fees"][3])
    sim.run_blocks(1)
    total_pinned = sum(q["attempt_amounts"][1:])
    _expect(
        sim.balance(TICK, TARGET) == (0, total_pinned, total_pinned),
        "attempt-4-liquidity-drained", transcript, balance=sim.balance(TICK, TARGET),
    )

    # Liquidity stays locked for the dwell window (~3.5 h).
    sim.run_blocks(q["dwell_blocks"])
    _expect(
        sim.balance(TICK, TARGET)[0] == 0
        and all(
            not sim.chain.confirmed(b.tx2.txid) for b in (attack2, attack3, attack4)
        ),
        "liquidity-outage-sustained", transcript,
        outage_blocks=q["dwell_blocks"], balance=sim.balance(TICK, TARGET),
    )

    # Recovery: re-spend each pinned inscription back to the wallet at a fee
    # that outbids both the pins and the market.
    used: set[tuple[str, int]] = set(sim.pool.spends)
    for bundle in (attack2, attack3, attack4):
        ordinal = sim.indexer.inscription_of(bundle.tx1.txid)
        pending = sim.indexer.state.pending[ordinal]
        recovery = build_recovery(
            pending, sim.chain.utxo_set, TARGET, q["recovery_fee"], exclude=used,
        )
        used.update(inp.outpoint for inp in recovery.inputs)
        result = sim.submit(recovery)
        _expect(
            result.accepted and bundle.tx2.txid in result.replaced,
            f"recovery-replaces-pin-{bundle.tx2.txid[:8]}", transcript,
            reason=result.reason,
        )
    sim.run_blocks(1)
    _expect(
        sim.balance(TICK, TARGET) == (q["recovered"], 0, q["recovered"]),
        "recovery-restores-liquidity", transcript, balance=sim.balance(TICK, TARGET),
    )

    state = sim.replay_state()
    _expect(
        state == sim.indexer.state,
        "replay-matches-incremental", transcript,
    )
    return transcript
