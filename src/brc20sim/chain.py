"""UTXO ledger with ordinal (per-satoshi) tracking.

Satoshis carry serial numbers that survive transactions: input ranges are
concatenated in input order and sliced into outputs in output order, with the
trailing slice burned as the miner fee.  Ownership is an opaque address label;
scripts and signatures are out of scope.

Background traffic never carries or moves an inscription, so its coins are
value-only: ``UtxoSet.fund`` creates them without ordinals, each under the
serial its spending transaction names (``fund_serial``), and a transaction
spending them is checked like any other but leaves no coin behind: its
outputs leave the model.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from collections.abc import Sequence
from dataclasses import dataclass, field

MAX_SEQUENCE = 0xFFFFFFFF
RBF_SEQUENCE = 0xFFFFFFFD  # highest sequence value that still signals replaceability
DUST = 546  # value of every inscription, execution and market output
BLOCK_INTERVAL = 600.0  # simulated seconds between blocks


class ChainError(Exception):
    pass


class MissingInput(ChainError):
    """Referenced outpoint is unknown or already spent."""


class NegativeFee(ChainError):
    """Transaction outputs exceed its inputs."""


class LengthMismatch(ChainError):
    """Ordinal assignment called with inconsistent satoshi totals."""


class OrdinalBurned(ChainError):
    """Ordinal fell into a fee slice and no longer sits in any UTXO."""


class OrdinalUnknown(ChainError):
    """Ordinal was never allocated in this simulation."""


class MixedFunding(ChainError):
    """Value-only coins spent beside ordinal-tracked ones, or under an inscription."""


@dataclass(frozen=True, slots=True)
class OrdinalRange:
    """Contiguous satoshi serial-number interval [start, start + length)."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.length < 1:
            raise ValueError(f"bad ordinal range ({self.start}, {self.length})")

    @property
    def end(self) -> int:
        return self.start + self.length

    def contains(self, ordinal: int) -> bool:
        return self.start <= ordinal < self.end


@dataclass(frozen=True, slots=True)
class TxInput:
    outpoint: tuple[str, int]
    sequence: int = MAX_SEQUENCE

    def __post_init__(self) -> None:
        if not 0 <= self.sequence <= MAX_SEQUENCE:
            raise ValueError(f"sequence {self.sequence:#x} out of range")


@dataclass(frozen=True, slots=True)
class TxOutput:
    value: int
    owner: str
    inscription: str | None = None

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("negative output value")
        if not self.owner:
            raise ValueError("empty owner address")


@dataclass(frozen=True, slots=True)
class Transaction:
    txid: str
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    vsize: int
    # derived once here, since pool admission and the ledger read them per spend
    output_total: int = field(init=False, compare=False, repr=False)
    rbf_enabled: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.vsize < 1:
            raise ValueError("vsize must be >= 1")
        # The indexer binds an inscription to the first satoshi of the first
        # output, so an envelope anywhere else (or on an empty output, which
        # never materializes) would be unreachable.
        total = 0
        for i, out in enumerate(self.outputs):
            if out.inscription is not None and (i != 0 or out.value < 1):
                raise ValueError("inscription envelope must sit on a funded output 0")
            total += out.value
        rbf = False
        for inp in self.inputs:
            if inp.sequence <= RBF_SEQUENCE:
                rbf = True
                break
        object.__setattr__(self, "output_total", total)
        object.__setattr__(self, "rbf_enabled", rbf)

    @classmethod
    def from_dict(cls, data: dict) -> Transaction:
        """The transaction a ``submit`` line of the event log holds under ``"tx"``
        (see ``sim.log_line``); a field without its JSON type raises TypeError.

        Types are exact (a bool is no count), so an outpoint decoded from
        untrusted JSON is always a hashable ``(str, int)``.
        """
        inputs = []
        for i in data["inputs"]:
            (txid, index), sequence = i["outpoint"], i["sequence"]
            if type(txid) is not str or type(index) is not int or type(sequence) is not int:
                raise TypeError(f"malformed input {i!r}")
            inputs.append(TxInput((txid, index), sequence))
        outputs = []
        for o in data["outputs"]:
            value, owner, inscription = o["value"], o["owner"], o.get("inscription")
            if (type(value) is not int or type(owner) is not str
                    or (inscription is not None and type(inscription) is not str)):
                raise TypeError(f"malformed output {o!r}")
            outputs.append(TxOutput(value, owner, inscription))
        txid, vsize = data["txid"], data["vsize"]
        if type(txid) is not str or type(vsize) is not int:
            raise TypeError(f"malformed txid or vsize ({txid!r}, {vsize!r})")
        return cls(txid, tuple(inputs), tuple(outputs), vsize)


def fund_serial(n: int) -> tuple[str, int]:
    """The serial of the value-only coin that market transaction ``bg{n + 1}`` spends,
    which an event log's n-th ``fund`` line funds, counting from 0."""
    return (f"fund-{n}", 0)


def make_txid(inputs, outputs, vsize: int, tag: str = "") -> str:
    """Deterministic transaction id derived from content."""
    return txid_with_tail(inputs, txid_tail(outputs, vsize), tag)


def txid_tail(outputs, vsize: int) -> bytes:
    """The end of a txid's hash text, fixed by the outputs and vsize, so shareable."""
    return ("".join(f"{o.value}:{o.owner}:{o.inscription}" for o in outputs) + str(vsize)).encode()


def txid_with_tail(inputs, tail: bytes, tag: str = "") -> str:
    """``make_txid`` over a ``txid_tail`` computed once: the tag and inputs lead the hash text."""
    for inp in inputs:
        tag += f"{inp.outpoint[0]}:{inp.outpoint[1]}:{inp.sequence}"
    return hashlib.sha256(tag.encode() + tail).hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class InscriptionEnvelope:
    """An inscription payload bound to the satoshi it rides on."""

    raw: str
    bound_ordinal: int


@dataclass(frozen=True, slots=True)
class Utxo:
    serial: tuple[str, int]
    value: int
    owner: str
    ordinals: tuple[OrdinalRange, ...]

    def __post_init__(self) -> None:
        if sum(r.length for r in self.ordinals) != self.value:
            raise ValueError("ordinal ranges do not cover the UTXO value")

    def first_ordinal(self) -> int:
        return self.ordinals[0].start

    def holds(self, ordinal: int) -> bool:
        return any(rng.contains(ordinal) for rng in self.ordinals)


@dataclass(frozen=True, slots=True)
class Receipt:
    """What one applied transaction did to the UTXO set."""

    spent: tuple[Utxo, ...]  # input order
    created: tuple[Utxo, ...]  # output order; zero-value outputs create nothing
    envelope: InscriptionEnvelope | None  # bound to created[0]'s first satoshi


# every transaction spending value-only coins gets this one: no ordinal moved
VALUE_ONLY_RECEIPT = Receipt((), (), None)


@dataclass(slots=True)
class Block:
    height: int
    timestamp: float
    transactions: list[Transaction] = field(default_factory=list)


def assign_ordinals(
    input_ranges: list[list[OrdinalRange]],
    output_values: list[int],
    fee: int,
) -> list[list[OrdinalRange]]:
    """Slice concatenated input ranges into outputs, FIFO.

    The trailing ``fee`` satoshis of the concatenation are the miner fee and
    appear in no output.  Pure function; raises LengthMismatch when the totals
    disagree.
    """
    stream: list[OrdinalRange] = [r for ranges in input_ranges for r in ranges]
    total_in = sum(r.length for r in stream)
    if fee < 0 or any(v < 0 for v in output_values):
        raise LengthMismatch("negative output value or fee")
    if total_in != sum(output_values) + fee:
        raise LengthMismatch(
            f"{total_in} input sats vs {sum(output_values)} out + {fee} fee"
        )
    out: list[list[OrdinalRange]] = []
    idx = 0
    offset = 0  # satoshis already taken from stream[idx]
    for value in output_values:
        slices: list[OrdinalRange] = []
        need = value
        while need > 0:
            rng = stream[idx]
            avail = rng.length - offset
            take = min(avail, need)
            slices.append(OrdinalRange(rng.start + offset, take))
            need -= take
            offset += take
            if offset == rng.length:
                idx += 1
                offset = 0
        out.append(slices)
    return out


class UtxoSet:
    """Mutable UTXO set with ordinal bookkeeping, plus value-only coins.

    One set is owned by one thread at a time; ``copy()`` gives an independent
    snapshot for replay.  Genesis satoshis enter via ``grant`` since there is
    no coinbase in this model, under ``genesis-{n}`` serials counting grants
    only.  ``fund`` creates value-only coins under the serials their spending
    transactions name, so ``plain`` holds only funded coins not yet spent.
    """

    def __init__(self) -> None:
        self.utxos: dict[tuple[str, int], Utxo] = {}
        self.plain: dict[tuple[str, int], int] = {}  # value-only coins: serial -> value
        self.inscribed: dict[int, str] = {}  # bound ordinal -> raw payload
        self._inscribed_sorted: list[int] = []  # the keys of inscribed, ascending
        self._next_ordinal = 0
        self._grant_count = 0

    def copy(self) -> UtxoSet:
        dup = UtxoSet()
        dup.utxos = dict(self.utxos)
        dup.plain = dict(self.plain)
        dup.inscribed = dict(self.inscribed)
        dup._inscribed_sorted = list(self._inscribed_sorted)
        dup._next_ordinal = self._next_ordinal
        dup._grant_count = self._grant_count
        return dup

    def grant(self, owner: str, value: int) -> Utxo:
        """Allocate fresh satoshis to an address (genesis funding)."""
        if value < 1:
            raise ValueError("grant value must be >= 1")
        serial = (f"genesis-{self._grant_count}", 0)
        self._grant_count += 1
        utxo = Utxo(serial, value, owner, (OrdinalRange(self._next_ordinal, value),))
        self._next_ordinal += value
        self.utxos[serial] = utxo
        return utxo

    def fund(self, coins: Sequence[tuple[tuple[str, int], int]]) -> None:
        """Create one value-only coin per ``(serial, value)`` pair; no ordinal is
        allocated.  Every value is checked before any coin is made."""
        if coins and min(value for _, value in coins) < 1:
            raise ValueError("fund value must be >= 1")
        self.plain.update(coins)

    def owned_by(self, owner: str) -> list[Utxo]:
        return [u for u in self.utxos.values() if u.owner == owner]

    def carries_inscription(self, utxo: Utxo) -> bool:
        inscribed = self._inscribed_sorted
        for rng in utxo.ordinals:
            i = bisect_left(inscribed, rng.start)
            if i < len(inscribed) and inscribed[i] < rng.start + rng.length:
                return True
        return False

    def apply_transaction(self, tx: Transaction) -> Receipt:
        """Spend the inputs, create the outputs, burn the fee slice.

        The fee slice is whatever the outputs leave of the spent satoshis; it
        sits in no UTXO afterwards, which is how ``locate_ordinal`` knows it
        was burned.  A transaction whose first input is a value-only coin
        takes ``_apply_value_only`` instead.
        """
        if tx.inputs and tx.inputs[0].outpoint in self.plain:
            return self._apply_value_only(tx)
        spent: list[Utxo] = []
        seen: set[tuple[str, int]] = set()
        total_in = 0
        for inp in tx.inputs:
            if inp.outpoint in seen:
                raise MissingInput(f"{inp.outpoint} spent twice in one tx")
            seen.add(inp.outpoint)
            utxo = self.utxos.get(inp.outpoint)
            if utxo is None:
                if inp.outpoint in self.plain:
                    raise MixedFunding(f"tx {tx.txid} spends a value-only coin {inp.outpoint}")
                raise MissingInput(f"{inp.outpoint} unknown or spent")
            spent.append(utxo)
            total_in += utxo.value
        fee = total_in - tx.output_total
        if fee < 0:
            raise NegativeFee(f"tx {tx.txid} outputs exceed inputs")

        assigned = assign_ordinals(
            [list(u.ordinals) for u in spent], [o.value for o in tx.outputs], fee
        )

        for inp in tx.inputs:
            del self.utxos[inp.outpoint]
        created: list[Utxo] = []
        for index, out in enumerate(tx.outputs):
            if out.value == 0:
                continue
            serial = (tx.txid, index)
            utxo = Utxo(serial, out.value, out.owner, tuple(assigned[index]))
            self.utxos[serial] = utxo
            created.append(utxo)

        envelope = None
        if tx.outputs and tx.outputs[0].inscription is not None:
            # Transaction guarantees an envelope sits on a funded output 0
            envelope = InscriptionEnvelope(tx.outputs[0].inscription, created[0].first_ordinal())
            if envelope.bound_ordinal not in self.inscribed:
                insort(self._inscribed_sorted, envelope.bound_ordinal)
            self.inscribed[envelope.bound_ordinal] = envelope.raw
        return Receipt(tuple(spent), tuple(created), envelope)

    def _apply_value_only(self, tx: Transaction) -> Receipt:
        """Spend value-only coins, with the same checks as above, and create no coin.

        No ordinal moves, so nothing is allocated, sliced or burned; the fee is
        the value the outputs leave, and the outputs' value leaves the model.
        """
        total_in = 0
        for inp in tx.inputs:
            value = self.plain.get(inp.outpoint)
            if value is None:
                if inp.outpoint in self.utxos:
                    raise MixedFunding(f"tx {tx.txid} spends an ordinal UTXO {inp.outpoint}")
                raise MissingInput(f"{inp.outpoint} unknown or spent")
            total_in += value
        if len(tx.inputs) > 1 and len({inp.outpoint for inp in tx.inputs}) < len(tx.inputs):
            raise MissingInput(f"tx {tx.txid} spends one outpoint twice")
        if total_in < tx.output_total:
            raise NegativeFee(f"tx {tx.txid} outputs exceed inputs")
        if tx.outputs and tx.outputs[0].inscription is not None:
            raise MixedFunding(f"tx {tx.txid} inscribes on value-only coins")
        for inp in tx.inputs:
            del self.plain[inp.outpoint]
        return VALUE_ONLY_RECEIPT

    def locate_ordinal(self, ordinal: int) -> Utxo:
        """Find the unspent UTXO holding an ordinal.

        Every allocated satoshi sits in exactly one UTXO until a fee slice
        burns it, so an allocated ordinal found in no UTXO was burned.
        """
        for utxo in self.utxos.values():
            if utxo.holds(ordinal):
                return utxo
        if 0 <= ordinal < self._next_ordinal:
            raise OrdinalBurned(f"ordinal {ordinal} was burned as fee")
        raise OrdinalUnknown(f"ordinal {ordinal} never allocated")


class Chain:
    """Confirmed blocks plus the UTXO set they produce."""

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.utxo_set = UtxoSet()
        self._tx_index: dict[str, float] = {}  # txid -> confirmation time
        self.tip_receipts: list[Receipt] = []  # the last appended block's, in tx order

    @property
    def height(self) -> int:
        return len(self.blocks) - 1

    def append_block(self, block: Block) -> list[Receipt]:
        """Apply the block's transactions in order and return their receipts."""
        receipts = []
        for tx in block.transactions:
            receipts.append(self.utxo_set.apply_transaction(tx))
            self._tx_index[tx.txid] = block.timestamp
        self.blocks.append(block)
        self.tip_receipts = receipts
        return receipts

    def confirmed(self, txid: str) -> bool:
        return txid in self._tx_index

    def confirmation_time(self, txid: str) -> float | None:
        return self._tx_index.get(txid)
