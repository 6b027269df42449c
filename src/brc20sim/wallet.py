"""Two-step BRC20 transfer construction.

A transfer is a pair of chained transactions sharing one user-facing fee rate:
a small inscription transaction whose first output carries the transfer
payload back to the sender, and a larger execution transaction that spends
that output to the recipient.  The model fixes the bundle's shape as module
constants: every transfer moves the one token ``TICK`` ("ordi", the attacked
token); ``TX1_VSIZE`` (150 vB) and ``TX2_VSIZE`` (600 vB), so the second
transaction pays 4x the absolute fee of the first; one ``DUST`` output
(``chain.DUST``) carries the inscription; and Tx2 is sent ``BUNDLE_GAP``
seconds after Tx1.  Every input signals BIP125 replaceability, so a victim's
``build_recovery`` self-send can replace a pinned execution transaction.

Token balance sufficiency is deliberately NOT checked here: the indexer voids
underfunded inscriptions, and falsified inscriptions are exactly the point of
the attack engine built on top.  This module only builds transactions;
``Simulation.send_transfer`` and ``Simulation.submit`` send them.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass

from .chain import (
    DUST,
    RBF_SEQUENCE,
    Transaction,
    TxInput,
    TxOutput,
    Utxo,
    UtxoSet,
    make_txid,
)
from .indexer import PendingTransfer, transfer_inscription

TICK = "ordi"  # the token every transfer moves
TX1_VSIZE = 150  # inscription transaction, vB
TX2_VSIZE = 600  # execution (and recovery) transaction, vB
BUNDLE_GAP = 1.0  # seconds between sending Tx1 and Tx2


class WalletError(Exception):
    pass


class InsufficientFunds(WalletError):
    """Sender lacks plain satoshis for fees and dust outputs."""


class NotOwner(WalletError):
    """Recovery requested by an address that does not hold the inscription."""


@dataclass(frozen=True, slots=True)
class TransferRequest:
    amount: int
    sender: str
    recipient: str
    fee_rate: int

    def __post_init__(self) -> None:
        if self.amount <= 0:
            raise ValueError("transfer amount must be positive")
        if self.fee_rate < 0:
            raise ValueError("fee rate must be >= 0")


@dataclass(frozen=True, slots=True)
class TransferBundle:
    request: TransferRequest
    tx1: Transaction
    tx2: Transaction


def _select_funding(
    utxo_set: UtxoSet,
    owner: str,
    needed: int,
    exclude: Container[tuple[str, int]] | None = None,
) -> list[Utxo]:
    """Largest-first coin selection over plain-sat UTXOs not in ``exclude``,
    which is only tested for membership (a pool's ``spends`` serves as is).

    Inscription-bearing UTXOs are never spent as funding: using one would
    silently move (or burn) the tokens riding on it.
    """
    exclude = exclude or ()
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
    exclude: Container[tuple[str, int]] | None = None,
) -> TransferBundle:
    """Construct the inscription/execution pair for a transfer request."""
    tx1_fee = req.fee_rate * TX1_VSIZE
    tx2_fee = req.fee_rate * TX2_VSIZE

    funding = _select_funding(utxo_set, req.sender, DUST + tx1_fee + tx2_fee, exclude)
    funded = sum(u.value for u in funding)
    change = funded - DUST - tx1_fee  # >= tx2_fee by selection

    payload = transfer_inscription(TICK, req.amount)
    tx1_inputs = tuple(TxInput(u.serial, RBF_SEQUENCE) for u in funding)
    tx1_outputs = [TxOutput(DUST, req.sender, inscription=payload)]
    if change > 0:
        tx1_outputs.append(TxOutput(change, req.sender))
    tx1 = Transaction(
        txid=make_txid(tx1_inputs, tx1_outputs, TX1_VSIZE, tag="tx1"),
        inputs=tx1_inputs,
        outputs=tuple(tx1_outputs),
        vsize=TX1_VSIZE,
    )

    tx2_inputs = [TxInput((tx1.txid, 0), RBF_SEQUENCE)]
    if change > 0:
        tx2_inputs.append(TxInput((tx1.txid, 1), RBF_SEQUENCE))
    # Output 0 takes exactly the inscription output's satoshis, so the
    # inscribed ordinal lands with the recipient.
    tx2_outputs = [TxOutput(DUST, req.recipient)]
    if change - tx2_fee > 0:
        tx2_outputs.append(TxOutput(change - tx2_fee, req.sender))
    tx2 = Transaction(
        txid=make_txid(tuple(tx2_inputs), tx2_outputs, TX2_VSIZE, tag="tx2"),
        inputs=tuple(tx2_inputs),
        outputs=tuple(tx2_outputs),
        vsize=TX2_VSIZE,
    )
    return TransferBundle(request=req, tx1=tx1, tx2=tx2)


def build_recovery(
    pending: PendingTransfer,
    utxo_set: UtxoSet,
    owner: str,
    fee_rate: int,
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
    fee = fee_rate * TX2_VSIZE
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
        txid=make_txid(tuple(inputs), outputs, TX2_VSIZE, tag="recovery"),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        vsize=TX2_VSIZE,
    )
