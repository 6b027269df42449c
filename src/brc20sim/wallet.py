"""Two-step BRC20 transfer construction.

A transfer is a pair of chained transactions sharing one user-facing fee rate:
a small inscription transaction whose first output carries the transfer
payload back to the sender, and a larger execution transaction that spends
that output to the recipient.  With the default virtual sizes (150 and 600 vB)
the second transaction pays 4x the absolute fee of the first.

Token balance sufficiency is deliberately NOT checked here: the indexer voids
underfunded inscriptions, and falsified inscriptions are exactly the point of
the attack engine built on top.  This module only builds transactions;
``Simulation.send_transfer`` and ``Simulation.submit`` send them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .chain import (
    MAX_SEQUENCE,
    RBF_SEQUENCE,
    Transaction,
    TxInput,
    TxOutput,
    Utxo,
    UtxoSet,
    make_txid,
)
from .indexer import PendingTransfer, transfer_inscription
from .mempool import CONFLICT_NOT_REPLACEABLE

if TYPE_CHECKING:
    from .sim import Simulation


class WalletError(Exception):
    pass


class InsufficientFunds(WalletError):
    """Sender lacks plain satoshis for fees and dust outputs."""


class RetriesExhausted(WalletError):
    """Fee-bump retry budget spent; the transfer is aborted."""


class ConflictNotReplaceable(WalletError):
    """Replacement rejected: original opted out of RBF or fee not higher."""


class NotOwner(WalletError):
    """Recovery requested by an address that does not hold the inscription."""


@dataclass(frozen=True, slots=True)
class WalletConfig:
    tx1_vsize: int = 150
    tx2_vsize: int = 600
    dust: int = 546
    bundle_gap: float = 1.0
    bump_factor_num: int = 5  # fee bump = ceil(rate * 5/4)
    bump_factor_den: int = 4


DEFAULT_WALLET_CONFIG = WalletConfig()


@dataclass(frozen=True, slots=True)
class TransferRequest:
    tick: str
    amount: int
    sender: str
    recipient: str
    fee_rate: int
    rbf: bool = True
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.amount <= 0:
            raise ValueError("transfer amount must be positive")
        if self.fee_rate < 0:
            raise ValueError("fee rate must be >= 0")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")


@dataclass(slots=True)
class TransferBundle:
    request: TransferRequest
    tx1: Transaction
    tx2: Transaction
    tx1_fee: int
    tx2_fee: int
    fee_rate: int  # current rate of tx2 (rises across fee bumps)
    retries: int = 0
    tx1_submit: float | None = None
    tx2_submit: float | None = None


def _select_funding(
    utxo_set: UtxoSet,
    owner: str,
    needed: int,
    exclude: set[tuple[str, int]] | None = None,
) -> list[Utxo]:
    """Largest-first coin selection over plain-sat UTXOs.

    Inscription-bearing UTXOs are never spent as funding: using one would
    silently move (or burn) the tokens riding on it.
    """
    exclude = exclude or set()
    candidates = [
        u
        for u in utxo_set.owned_by(owner)
        if u.serial not in exclude and not utxo_set.carries_inscription(u)
    ]
    candidates.sort(key=lambda u: (-u.value, u.serial))
    picked: list[Utxo] = []
    total = 0
    for utxo in candidates:
        picked.append(utxo)
        total += utxo.value
        if total >= needed:
            return picked
    raise InsufficientFunds(f"{owner} holds {total} clean sats, needs {needed}")


def build_transfer(
    req: TransferRequest,
    utxo_set: UtxoSet,
    cfg: WalletConfig = DEFAULT_WALLET_CONFIG,
    exclude: set[tuple[str, int]] | None = None,
) -> TransferBundle:
    """Construct the inscription/execution pair for a transfer request."""
    tx1_fee = req.fee_rate * cfg.tx1_vsize
    tx2_fee = req.fee_rate * cfg.tx2_vsize
    sequence = RBF_SEQUENCE if req.rbf else MAX_SEQUENCE

    funding = _select_funding(utxo_set, req.sender, cfg.dust + tx1_fee + tx2_fee, exclude)
    funded = sum(u.value for u in funding)
    change = funded - cfg.dust - tx1_fee  # >= tx2_fee by selection

    payload = transfer_inscription(req.tick, req.amount)
    tx1_inputs = tuple(TxInput(u.serial, sequence) for u in funding)
    tx1_outputs = [TxOutput(cfg.dust, req.sender, inscription=payload)]
    if change > 0:
        tx1_outputs.append(TxOutput(change, req.sender))
    tx1 = Transaction(
        txid=make_txid(tx1_inputs, tx1_outputs, cfg.tx1_vsize, tag="tx1"),
        inputs=tx1_inputs,
        outputs=tuple(tx1_outputs),
        vsize=cfg.tx1_vsize,
    )
    tx2 = _build_execution(tx1, change, req.recipient, req.sender, tx2_fee, sequence, cfg)
    return TransferBundle(
        request=req,
        tx1=tx1,
        tx2=tx2,
        tx1_fee=tx1_fee,
        tx2_fee=tx2_fee,
        fee_rate=req.fee_rate,
    )


def _build_execution(
    tx1: Transaction,
    change: int,
    recipient: str,
    sender: str,
    tx2_fee: int,
    sequence: int,
    cfg: WalletConfig,
) -> Transaction:
    if change < tx2_fee:
        raise InsufficientFunds("tx1 change cannot cover the execution fee")
    inputs = [TxInput((tx1.txid, 0), sequence)]
    if change > 0:
        inputs.append(TxInput((tx1.txid, 1), sequence))
    # Output 0 takes exactly the inscription output's satoshis, so the
    # inscribed ordinal lands with the recipient.
    outputs = [TxOutput(cfg.dust, recipient)]
    remainder = change - tx2_fee
    if remainder > 0:
        outputs.append(TxOutput(remainder, sender))
    return Transaction(
        txid=make_txid(tuple(inputs), outputs, cfg.tx2_vsize, tag="tx2"),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        vsize=cfg.tx2_vsize,
    )


def bumped_rate(rate: int, cfg: WalletConfig = DEFAULT_WALLET_CONFIG) -> int:
    num = rate * cfg.bump_factor_num
    return -(-num // cfg.bump_factor_den)  # ceiling division


def retry_with_fee_bump(bundle: TransferBundle, sim: Simulation) -> TransferBundle:
    """Replace the pending execution transaction at a higher fee rate, now."""
    cfg, req = sim.config.wallet, bundle.request
    if bundle.retries >= req.max_retries:
        raise RetriesExhausted(f"aborting after {req.max_retries} fee bumps")
    new_rate = bumped_rate(bundle.fee_rate, cfg)
    new_fee = new_rate * cfg.tx2_vsize
    change = sum(o.value for o in bundle.tx1.outputs[1:])
    sequence = bundle.tx2.inputs[0].sequence
    tx2 = _build_execution(bundle.tx1, change, req.recipient, req.sender, new_fee, sequence, cfg)
    result = sim.submit(tx2)
    if not result and result.reason == CONFLICT_NOT_REPLACEABLE:
        raise ConflictNotReplaceable(f"tx2 {bundle.tx2.txid} cannot be replaced")
    if not result:
        raise WalletError(f"fee bump rejected: {result.reason}")
    return replace(
        bundle,
        tx2=tx2,
        tx2_fee=new_fee,
        fee_rate=new_rate,
        retries=bundle.retries + 1,
        tx2_submit=sim.now,
    )


def build_recovery(
    pending: PendingTransfer,
    utxo_set: UtxoSet,
    owner: str,
    fee_rate: int,
    cfg: WalletConfig = DEFAULT_WALLET_CONFIG,
    exclude: set[tuple[str, int]] | None = None,
) -> Transaction:
    """Self-send of a pinned inscription: moves the tokens back to available.

    The result conflicts with any pinned execution transaction spending the
    same inscription output, so a high enough fee rate replaces the pin.
    """
    inscription_utxo = utxo_set.locate_ordinal(pending.inscription_ordinal)
    if inscription_utxo.owner != owner:
        raise NotOwner(
            f"{owner} does not hold inscription ordinal {pending.inscription_ordinal}"
        )
    fee = fee_rate * cfg.tx2_vsize
    exclude = set(exclude or ())
    exclude.add(inscription_utxo.serial)
    funding = _select_funding(utxo_set, owner, fee, exclude)
    funded = sum(u.value for u in funding)
    inputs = [TxInput(inscription_utxo.serial, RBF_SEQUENCE)] + [
        TxInput(u.serial, RBF_SEQUENCE) for u in funding
    ]
    outputs = [TxOutput(inscription_utxo.value, owner)]
    if funded - fee > 0:
        outputs.append(TxOutput(funded - fee, owner))
    return Transaction(
        txid=make_txid(tuple(inputs), outputs, cfg.tx2_vsize, tag="recovery"),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        vsize=cfg.tx2_vsize,
    )
