"""UTXO ledger with ordinal (per-satoshi) tracking.

Satoshis carry serial numbers that survive transactions: input ranges are
concatenated in input order and sliced into outputs in output order, with the
trailing slice burned as the miner fee.  Ownership is an opaque address label;
scripts and signatures are out of scope.

Background traffic never carries or moves an inscription, and the model
needs only each market transaction's fee, vsize and arrival, so a market
entry (``MarketTx``) is just those, built once per load and pooled as it is,
with no coin: it spends nothing, creates nothing and touches no UTXO.
``Chain.append_block`` lists it in its block and gives it the one shared
``EMPTY_RECEIPT``; every other transaction takes ``UtxoSet.apply_transaction``.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass

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
    """A foreground transaction (the market's are ``MarketTx``), a few per scenario,
    so ``output_total`` and ``rbf_enabled`` are read from its content per call."""

    txid: str
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    vsize: int

    def __post_init__(self) -> None:
        if self.vsize < 1:
            raise ValueError("vsize must be >= 1")
        # The indexer binds an inscription to the first satoshi of the first
        # output, so an envelope anywhere else (or on an empty output, which
        # never materializes) would be unreachable.
        for i, out in enumerate(self.outputs):
            if out.inscription is not None and (i != 0 or out.value < 1):
                raise ValueError("inscription envelope must sit on a funded output 0")

    @property
    def output_total(self) -> int:
        return sum(out.value for out in self.outputs)

    @property
    def rbf_enabled(self) -> bool:
        return any(inp.sequence <= RBF_SEQUENCE for inp in self.inputs)

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


NO_PARENTS: frozenset[str] = frozenset()  # depends_on of every pool entry admitted without one


class MarketTx:
    """A market transaction, with no coin, and its own pool entry: ``tx`` is
    itself, and ``__init__`` sets ``mempool.MempoolEntry``'s keys beside the
    fields.  Empty ``inputs`` and ``outputs`` let the pool mine and remove it
    as a ``Transaction``.  Nothing writes to it after ``__init__``, so loads,
    pools and forks share it."""

    __slots__ = ("txid", "fee", "vsize", "arrival", "rate_key", "key")
    inputs = ()
    outputs = ()
    depends_on = NO_PARENTS

    def __init__(self, txid: str, fee: int, vsize: int, arrival: float) -> None:
        if vsize < 1 or fee < 0:
            raise ValueError(
                f"market entry needs vsize >= 1 and fee >= 0, got ({vsize!r}, {fee!r})")
        self.txid = txid
        self.fee = fee
        self.vsize = vsize
        self.arrival = arrival
        self.rate_key = rate_key = fee / vsize
        self.key = (-rate_key, arrival, txid)

    @property
    def tx(self) -> MarketTx:
        return self


def make_txid(inputs, outputs, vsize: int, tag: str = "") -> str:
    """Deterministic transaction id derived from content."""
    text = tag + "".join(f"{i.outpoint[0]}:{i.outpoint[1]}:{i.sequence}" for i in inputs)
    text += "".join(f"{o.value}:{o.owner}:{o.inscription}" for o in outputs) + str(vsize)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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


# every mined market entry gets this one: no coin spent or created, no ordinal moved
EMPTY_RECEIPT = Receipt((), (), None)


@dataclass(frozen=True, slots=True)
class Block:
    height: int
    timestamp: float
    transactions: tuple[Transaction | MarketTx, ...] = ()


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
    """Mutable UTXO set with ordinal bookkeeping.

    One set is owned by one thread at a time; ``copy()`` gives an independent
    snapshot for replay.  Genesis satoshis enter via ``grant`` since there is
    no coinbase in this model, under ``genesis-{n}`` serials counting grants.
    """

    def __init__(self) -> None:
        self.utxos: dict[tuple[str, int], Utxo] = {}
        self.inscribed: list[int] = []  # every bound ordinal, ascending
        self._next_ordinal = 0
        self._grant_count = 0

    def copy(self) -> UtxoSet:
        dup = UtxoSet()
        dup.utxos = dict(self.utxos)
        dup.inscribed = list(self.inscribed)
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

    def owned_by(self, owner: str) -> list[Utxo]:
        return [u for u in self.utxos.values() if u.owner == owner]

    def carries_inscription(self, utxo: Utxo) -> bool:
        inscribed = self.inscribed
        for rng in utxo.ordinals:
            i = bisect_left(inscribed, rng.start)
            if i < len(inscribed) and inscribed[i] < rng.start + rng.length:
                return True
        return False

    def apply_transaction(self, tx: Transaction) -> Receipt:
        """Spend the inputs, create the outputs, burn the fee slice.

        The fee slice is whatever the outputs leave of the spent satoshis; it
        sits in no UTXO afterwards, which is how ``locate_ordinal`` knows it
        was burned.
        """
        spent: list[Utxo] = []
        seen: set[tuple[str, int]] = set()
        total_in = 0
        for inp in tx.inputs:
            if inp.outpoint in seen:
                raise MissingInput(f"{inp.outpoint} spent twice in one tx")
            seen.add(inp.outpoint)
            utxo = self.utxos.get(inp.outpoint)
            if utxo is None:
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
            ordinal = created[0].first_ordinal()
            envelope = InscriptionEnvelope(tx.outputs[0].inscription, ordinal)
            inscribed = self.inscribed
            i = bisect_left(inscribed, ordinal)
            if i == len(inscribed) or inscribed[i] != ordinal:  # listed once, if inscribed again
                inscribed.insert(i, ordinal)
        return Receipt(tuple(spent), tuple(created), envelope)

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
        self.tx_index: dict[str, float] = {}  # txid -> confirmation time
        self.tip_receipts: list[Receipt] = []  # the last appended block's, in tx order

    def copy(self) -> Chain:
        """An independent chain in this one's state: its own containers and UTXO
        set, over the same blocks and receipts, which are immutable."""
        dup = Chain()
        dup.blocks = list(self.blocks)
        dup.utxo_set = self.utxo_set.copy()
        dup.tx_index = dict(self.tx_index)
        dup.tip_receipts = list(self.tip_receipts)
        return dup

    @property
    def height(self) -> int:
        return len(self.blocks) - 1

    def append_block(self, block: Block) -> list[Receipt]:
        """Apply the block's transactions in order and return their receipts: a
        market entry's is ``EMPTY_RECEIPT``, and any other transaction goes
        through ``apply_transaction``, which raises as ever."""
        receipts = []
        apply, tx_index, timestamp = self.utxo_set.apply_transaction, self.tx_index, block.timestamp
        for tx in block.transactions:
            receipts.append(EMPTY_RECEIPT if tx.__class__ is MarketTx else apply(tx))
            tx_index[tx.txid] = timestamp
        self.blocks.append(block)
        self.tip_receipts = receipts
        return receipts

    def confirmed(self, txid: str) -> bool:
        return txid in self.tx_index

    def confirmation_time(self, txid: str) -> float | None:
        return self.tx_index.get(txid)
