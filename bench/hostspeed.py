"""Scale measured times to a reference host speed with a fixed calibration kernel.

The benchmark runs on a shared host whose speed drifts by up to ±25 % over
seconds and minutes, so raw wall times of the same code spread across runs
by more than any useful regression bound.  To take the drift out, a fixed
calibration kernel is timed between the measured segments of a run, and each
segment's time is multiplied by ``REFERENCE_S / k``, where ``k`` is the mean
kernel time of the probes just before and just after the segment.  A scaled
time therefore reads as the time the segment would take on a host where the
kernel takes ``REFERENCE_S``.

The kernel imitates the simulator's hot loops in pure Python (hashed ids,
a dict of slotted objects, a heap, O(n) minimum scans, a sort) and never calls
brc20sim, so a change to the program moves scaled times as it moves raw ones.
Run ``python3 bench/hostspeed.py`` to print the kernel time on this host.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import statistics
from time import perf_counter

REFERENCE_S = 0.035  # kernel time that scaled times refer to (about a 2.1 GHz Xeon vCPU)
POOL = 6000
KERNEL_RUNS = 2  # a probe is the fastest of this many kernel runs


class _Entry:
    __slots__ = ("txid", "fee", "vsize", "parents")

    def __init__(self, txid: str, fee: int, vsize: int, parents: list[str]) -> None:
        self.txid = txid
        self.fee = fee
        self.vsize = vsize
        self.parents = parents


def kernel() -> int:
    """A fixed amount of mempool-like work; returns a checksum of its selection."""
    pool: dict[str, _Entry] = {}
    ids: list[str] = []
    heap: list[tuple[float, str]] = []
    x = 12345
    for _ in range(POOL):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        txid = hashlib.sha256(x.to_bytes(8, "little")).hexdigest()
        parents = [ids[x % len(ids)]] if ids and x % 3 == 0 else []
        entry = _Entry(txid, x % 5000 + 100, x % 400 + 100, parents)
        pool[txid] = entry
        ids.append(txid)
        heapq.heappush(heap, (-entry.fee / entry.vsize, txid))
    evicted = set()
    for _ in range(20):
        low = min(pool.values(), key=lambda e: e.fee / e.vsize)
        evicted.add(low.txid)
        del pool[low.txid]
    chosen = []
    while heap and len(chosen) < POOL // 2:
        _, txid = heapq.heappop(heap)
        entry = pool.get(txid)
        if entry is not None and not any(p in evicted for p in entry.parents):
            chosen.append(entry)
    chosen.sort(key=lambda e: (e.fee, e.txid))
    return sum(e.vsize for e in chosen)


def probe() -> float:
    """Seconds the kernel takes now: the fastest of a few runs, with the collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(KERNEL_RUNS):
            began = perf_counter()
            kernel()
            best = min(best, perf_counter() - began)
        return best
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """Probes the kernel between measured segments and gives each segment its scale.

    Create it right before the first segment; call ``scale()`` right after each
    segment and multiply that segment's times by the result.
    """

    def __init__(self) -> None:
        self.probes = [probe()]
        self.scales: list[float] = []

    def scale(self) -> float:
        self.probes.append(probe())
        factor = REFERENCE_S / ((self.probes[-2] + self.probes[-1]) / 2)
        self.scales.append(factor)
        return factor

    def summary(self) -> dict:
        return {"kernel_ms_p50": 1e3 * statistics.median(self.probes),
                "scale_p50": statistics.median(self.scales) if self.scales else None,
                "probes": len(self.probes)}


class Unscaled:
    """Stands in for HostSpeed where times stay raw (inside traced passes)."""

    def scale(self) -> float:
        return 1.0


if __name__ == "__main__":
    times = [probe() for _ in range(20)]
    print(f"kernel: median {1e3 * statistics.median(times):.2f} ms, "
          f"min {1e3 * min(times):.2f} ms over {len(times)} probes; "
          f"REFERENCE_S = {1e3 * REFERENCE_S:.1f} ms")
