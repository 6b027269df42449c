"""Off-chain BRC20 state machine.

Replays confirmed blocks and maintains, per token tick, the registry
(max supply, per-mint limit, running minted total) and per-address balances
split into *available* (spendable) and *transferable* (inscribed for transfer
but not yet moved).  Invalid operations are silently void; the chain never
halts on bad token data.

The indexer holds no UTXO set.  It reads each confirmed transaction's
``Receipt`` from the chain: the spent UTXOs show which pending transfer
satoshis moved, the created UTXOs where they went, and the envelope which
operation was inscribed.  ``replay`` rebuilds token state from blocks alone
by re-appending them to a fresh chain on the genesis grants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .chain import Block, Chain, Receipt, UtxoSet

PROTOCOL_NAMES = ("brc20", "brc-20")


@dataclass(frozen=True, slots=True)
class Deploy:
    tick: str
    max: int
    lim: int


@dataclass(frozen=True, slots=True)
class Mint:
    tick: str
    amt: int


@dataclass(frozen=True, slots=True)
class InscribeTransfer:
    tick: str
    amt: int


Brc20Op = Deploy | Mint | InscribeTransfer


def _as_amount(value) -> int | None:
    """Decimal-string or int token amount; arbitrary precision, no fractions."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value if value >= 0 else None
    if isinstance(value, str) and value.isascii() and value.isdigit():  # "²" is a digit
        try:
            return int(value)
        except ValueError:  # past int()'s 4,300-digit limit
            return None
    return None


def parse_envelope(raw: str) -> Brc20Op | None:
    """Parse an inscription payload; anything non-conforming is not-brc20,
    a payload that cannot be decoded for any reason included."""
    try:
        data = json.loads(raw)
    except (ValueError, TypeError, RecursionError):  # ValueError: bad JSON or a huge integer
        return None
    if not isinstance(data, dict):
        return None
    tick = data.get("tick")
    if not isinstance(tick, str) or not tick:
        return None
    tick = tick.lower()
    proto = data.get("p")
    if not isinstance(proto, str):
        return None
    # Transfer inscriptions in the wild sometimes carry the tick itself in
    # the protocol field; accept that alias alongside the canonical names.
    if proto.lower() not in PROTOCOL_NAMES and proto.lower() != tick:
        return None
    op = data.get("op")
    if op == "deploy":
        maximum = _as_amount(data.get("max"))
        if maximum is None:
            return None
        lim = _as_amount(data.get("lim")) if "lim" in data else maximum
        if lim is None:
            return None
        return Deploy(tick, maximum, lim)
    if op == "mint":
        amt = _as_amount(data.get("amt"))
        return Mint(tick, amt) if amt is not None else None
    if op == "transfer":
        amt = _as_amount(data.get("amt"))
        return InscribeTransfer(tick, amt) if amt is not None else None
    return None


def transfer_inscription(tick: str, amount: int) -> str:
    """Canonical transfer payload for wallet-built inscriptions."""
    return json.dumps(
        {"p": "brc20", "op": "transfer", "tick": tick, "amt": str(amount)},
        sort_keys=True,
    )


def deploy_inscription(tick: str, maximum: int, lim: int) -> str:
    return json.dumps(
        {"p": "brc20", "op": "deploy", "tick": tick, "max": str(maximum), "lim": str(lim)},
        sort_keys=True,
    )


def mint_inscription(tick: str, amount: int) -> str:
    return json.dumps(
        {"p": "brc20", "op": "mint", "tick": tick, "amt": str(amount)}, sort_keys=True
    )


@dataclass(slots=True)
class TickInfo:
    tick: str
    max: int
    lim: int
    minted: int = 0


@dataclass(slots=True)
class BalanceEntry:
    available: int = 0
    transferable: int = 0

    @property
    def overall(self) -> int:
        return self.available + self.transferable


@dataclass(frozen=True, slots=True)
class PendingTransfer:
    inscription_ordinal: int
    tick: str
    amount: int
    inscriber: str


class Brc20State:
    def __init__(self) -> None:
        self.ticks: dict[str, TickInfo] = {}
        self.balances: dict[tuple[str, str], BalanceEntry] = {}
        self.pending: dict[int, PendingTransfer] = {}

    def copy(self) -> Brc20State:
        """An independent state: its own registry and balance entries, over the
        same pending transfers, which are immutable."""
        dup = Brc20State()
        dup.ticks = {tick: replace(info) for tick, info in self.ticks.items()}
        dup.balances = {key: replace(entry) for key, entry in self.balances.items()}
        dup.pending = dict(self.pending)
        return dup

    def entry(self, tick: str, addr: str) -> BalanceEntry:
        key = (tick, addr)
        entry = self.balances.get(key)
        if entry is None:
            entry = BalanceEntry()
            self.balances[key] = entry
        return entry

    def balance(self, tick: str, addr: str) -> tuple[int, int, int]:
        entry = self.balances.get((tick, addr))
        if entry is None:
            return (0, 0, 0)
        return (entry.available, entry.transferable, entry.overall)

    def supply_is_conserved(self) -> bool:
        totals: dict[str, int] = {t: 0 for t in self.ticks}
        for (tick, _), entry in self.balances.items():
            if entry.available < 0 or entry.transferable < 0:
                return False
            totals[tick] = totals.get(tick, 0) + entry.overall
        return all(
            totals.get(tick, 0) == info.minted and info.minted <= info.max
            for tick, info in self.ticks.items()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Brc20State):
            return NotImplemented
        return (
            self.ticks == other.ticks
            and {k: (v.available, v.transferable) for k, v in self.balances.items()}
            == {k: (v.available, v.transferable) for k, v in other.balances.items()}
            and self.pending == other.pending
        )


class Indexer:
    """Single-writer block consumer deriving token balances."""

    def __init__(self) -> None:
        self.state = Brc20State()
        # Instrumentation (derived, not part of state equality): which ordinal
        # a confirmed tx bound its envelope to, and every ordinal that ever
        # carried a pending transfer (consumed ones included).
        self.bound_by_tx: dict[str, int] = {}
        self.pending_created: set[int] = set()

    def copy(self) -> Indexer:
        """An independent indexer in this one's state."""
        dup = Indexer()
        dup.state = self.state.copy()
        dup.bound_by_tx = dict(self.bound_by_tx)
        dup.pending_created = set(self.pending_created)
        return dup

    def apply_block(self, block: Block, receipts: list[Receipt]) -> None:
        """Consume a confirmed block with the receipts its chain append returned."""
        for tx, receipt in zip(block.transactions, receipts, strict=True):
            if not receipt.spent:
                continue  # no ordinal moved and none bound: a market entry
            for pending in self._pending_in_inputs(receipt):
                self._consume_pending(pending, receipt)
            envelope = receipt.envelope
            if envelope is not None:
                self.bound_by_tx[tx.txid] = envelope.bound_ordinal
                op = parse_envelope(envelope.raw)
                if op is not None:
                    self._apply_op(op, receipt.created[0].owner, envelope.bound_ordinal)

    def _pending_in_inputs(self, receipt: Receipt) -> list[PendingTransfer]:
        return [
            self.state.pending[ordinal]
            for ordinal in sorted(self.state.pending)
            if any(utxo.holds(ordinal) for utxo in receipt.spent)
        ]

    def _consume_pending(self, pending: PendingTransfer, receipt: Receipt) -> None:
        """The inscribed satoshi moved: settle the transfer to wherever it went.

        A satoshi burned as fee returns the tokens to the inscriber so that
        supply is conserved; a satoshi arriving back at the inscriber restores
        its available balance.
        """
        ordinal = pending.inscription_ordinal
        destination = next(
            (utxo.owner for utxo in receipt.created if utxo.holds(ordinal)),
            pending.inscriber,  # fee slice: return to sender
        )
        self.state.entry(pending.tick, pending.inscriber).transferable -= pending.amount
        self.state.entry(pending.tick, destination).available += pending.amount
        del self.state.pending[ordinal]

    def _apply_op(self, op: Brc20Op, owner: str, bound_ordinal: int) -> None:
        state = self.state
        if isinstance(op, Deploy):
            if op.tick in state.ticks:
                return  # first deploy wins
            if op.max < 1 or op.lim < 1 or op.lim > op.max:
                return
            state.ticks[op.tick] = TickInfo(op.tick, op.max, op.lim)
            return
        info = state.ticks.get(op.tick)
        if info is None or op.amt < 1:
            return
        if isinstance(op, Mint):
            if op.amt > info.lim or info.minted + op.amt > info.max:
                return  # whole mint is void, no partial credit
            info.minted += op.amt
            state.entry(op.tick, owner).available += op.amt
            return
        # InscribeTransfer: void when the inscriber cannot cover the amount,
        # which is exactly what voids falsified transfer inscriptions.
        entry = state.entry(op.tick, owner)
        if entry.available < op.amt or bound_ordinal in state.pending:
            return
        entry.available -= op.amt
        entry.transferable += op.amt
        state.pending[bound_ordinal] = PendingTransfer(bound_ordinal, op.tick, op.amt, owner)
        self.pending_created.add(bound_ordinal)

    def balance(self, tick: str, addr: str) -> tuple[int, int, int]:
        return self.state.balance(tick, addr)

    def inscription_of(self, txid: str) -> int | None:
        """Ordinal a confirmed tx bound its envelope to, if any."""
        return self.bound_by_tx.get(txid)


def replay(blocks: list[Block], genesis: UtxoSet) -> Brc20State:
    """Reconstruct token state by re-appending blocks to a fresh chain.

    The chain starts on a copy of ``genesis``, which is left unchanged.
    """
    chain = Chain()
    chain.utxo_set = genesis.copy()
    indexer = Indexer()
    for block in blocks:
        indexer.apply_block(block, chain.append_block(block))
    return indexer.state
