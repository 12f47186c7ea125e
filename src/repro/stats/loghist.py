"""Sparse log-spaced histogram of millisecond values.

The one histogram behind both latency distributions the simulator
reports: delivered-packet queue sojourn (``metrics_dict()["aqm"]``,
:class:`repro.mac.qdisc.QdiscStats`) and streamed flow-completion
times (``ScenarioConfig.stream_stats``,
:class:`repro.stats.fct.FctAggregator`).

**Resolution.**  A value ``v`` lands in bin
``floor(log10(v) * BINS_PER_DECADE)``: :data:`BINS_PER_DECADE` bins per
decade with edges at ``10 ** (i / BINS_PER_DECADE)`` ms, so one bin
spans a factor of ``10 ** (1 / BINS_PER_DECADE)`` (about 2.33%).  A
bin stands for its log-midpoint, ``10 ** ((i + 0.5) /
BINS_PER_DECADE)``, so any order statistic read back is within one bin
of the exact value.  Values below :data:`MIN_VALUE_MS` (a zero sojourn:
dequeued at the instant of arrival) land in the floor's bin, which
keeps ``log10`` total.

Bins are a sparse ``{index: count}`` dict over global edges, so
:meth:`LogHistogram.merge` is bin-wise addition: commutative,
associative, with the empty histogram as identity, and a merged
histogram equals the one a single recorder of every value would hold.
That is what makes per-MAC, per-cell and per-shard blocks fold
exactly.  Percentile *rules* belong to the callers; both read order
statistics through the one walk, :meth:`LogHistogram.value_at_rank`.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping

#: Histogram resolution, in bins per decade of milliseconds.
BINS_PER_DECADE = 100
#: Values at or below this floor (ms) share the lowest bin.
MIN_VALUE_MS = 1e-6

_floor = math.floor
_log10 = math.log10


def bin_value(index: int) -> float:
    """Representative value of one bin: its log-midpoint."""
    return 10.0 ** ((index + 0.5) / BINS_PER_DECADE)


class LogHistogram:
    """Sparse log-histogram: ``bins`` maps bin index to count."""

    __slots__ = ("bins", "count")

    def __init__(self) -> None:
        self.bins: Dict[int, int] = {}
        self.count = 0

    def add(self, value: float) -> None:
        # Hot path: once per delivered MPDU, so the binning is inline.
        if value < MIN_VALUE_MS:
            value = MIN_VALUE_MS
        index = _floor(_log10(value) * BINS_PER_DECADE)
        bins = self.bins
        bins[index] = bins.get(index, 0) + 1
        self.count += 1

    def merge(self, other: "LogHistogram") -> None:
        """Add ``other``'s bins into this one (``other`` untouched)."""
        bins = self.bins
        for index, count in other.bins.items():
            bins[index] = bins.get(index, 0) + count
        self.count += other.count

    def value_at_rank(self, rank: int) -> float:
        """Bin value of the ``rank``-th (0-based) order statistic."""
        seen = 0
        for index in sorted(self.bins):
            seen += self.bins[index]
            if seen > rank:
                return bin_value(index)
        raise IndexError(f"rank {rank} outside {self.count} values")

    def as_dict(self) -> Dict[str, int]:
        """JSON-able bins: string keys in ascending bin order."""
        return {str(i): self.bins[i] for i in sorted(self.bins)}

    @classmethod
    def from_dict(cls, bins: Mapping[str, int]) -> "LogHistogram":
        """Rebuild a histogram from its :meth:`as_dict` form."""
        hist = cls()
        for index, count in bins.items():
            hist.bins[int(index)] = count
            hist.count += count
        return hist
