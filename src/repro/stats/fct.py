"""Flow-completion-time statistics.

The paper's tables are steady-state goodputs; churn workloads are
instead judged by *flow completion time* (FCT): how long each finite
transfer took from arrival to last-byte ACK.  This module is the
bookkeeping layer the :class:`~repro.traffic.manager.FlowManager`
feeds and :meth:`ScenarioResult.metrics_dict` surfaces:

* one :class:`FctRecord` per spawned flow (completed or censored at
  the end of the run);
* distribution summaries (p50/p95/p99/mean) computed with a
  deterministic linear-interpolation percentile, overall and binned by
  flow size (mice vs. elephants behave very differently under
  ACK-compression schemes);
* offered vs. carried load — how much the arrival process asked for
  vs. what the network actually delivered inside the run window.

Everything here is plain data so sweep records stay JSON-serialisable
and bit-identical across serial, parallel and cache-restored execution.

Two collection modes share one interface (``open`` / ``close`` /
``summary``):

* :class:`FctCollector` — the default *exact* mode: every record is
  kept, percentiles are exact linear-interpolation order statistics,
  and the summary carries the full per-flow list.  Memory is O(flows).
* :class:`FctAggregator` — the *streaming* mode behind
  ``ScenarioConfig.stream_stats``: completed flows are folded into
  log-histograms (:class:`~repro.stats.loghist.LogHistogram`) and
  forgotten, so memory is O(live flows + occupied bins) — independent
  of how many flows the run spawns.  Percentiles are read off the
  histograms, so each is within one bin (the resolution documented in
  :mod:`repro.stats.loghist`) of the exact order statistic.  Counts,
  means, min/max and load accounting stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..sim.units import MS
from .loghist import BINS_PER_DECADE, LogHistogram

#: Size-bin upper bounds (bytes) and their stable labels, mice first.
SIZE_BINS: Tuple[Tuple[Optional[int], str], ...] = (
    (30_000, "<=30KB"),
    (300_000, "30KB-300KB"),
    (None, ">300KB"),
)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile (deterministic, no numpy).

    ``fraction`` is in [0, 1].  Matches ``numpy.percentile``'s default
    'linear' method.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


@dataclass
class FctRecord:
    """One flow's lifecycle, as the FlowManager saw it."""

    flow_id: int
    client: str
    direction: str
    size_bytes: int
    start_ns: int
    end_ns: Optional[int] = None          # None = censored at run end
    bytes_delivered: int = 0

    @property
    def completed(self) -> bool:
        return self.end_ns is not None

    @property
    def fct_ns(self) -> Optional[int]:
        if self.end_ns is None:
            return None
        return self.end_ns - self.start_ns

    def as_dict(self) -> Dict[str, Any]:
        fct = self.fct_ns
        return {
            "flow_id": self.flow_id,
            "client": self.client,
            "direction": self.direction,
            "size_bytes": self.size_bytes,
            "start_ms": self.start_ns / MS,
            "fct_ms": None if fct is None else fct / MS,
            "completed": self.completed,
            "bytes_delivered": self.bytes_delivered,
        }


def _distribution(fcts_ms: Sequence[float]) -> Dict[str, float]:
    return {
        "p50": percentile(fcts_ms, 0.50),
        "p95": percentile(fcts_ms, 0.95),
        "p99": percentile(fcts_ms, 0.99),
        "mean": sum(fcts_ms) / len(fcts_ms),
        "min": min(fcts_ms),
        "max": max(fcts_ms),
    }


def zero_distribution() -> Dict[str, Any]:
    """The ``fct_ms`` block of a run that completed zero flows.

    Explicit (``flows: 0`` with null statistics) rather than a bare
    ``None``: consumers keying into the block get a clear "nothing
    completed" record instead of a silently missing distribution, and
    the schema stays a dict in every case.  ``flows`` only appears
    here — non-empty distributions carry their counts in the sibling
    ``flows_completed`` / per-size ``flows`` fields as before.
    """
    return {"p50": None, "p95": None, "p99": None,
            "mean": None, "min": None, "max": None, "flows": 0}


def has_completions(fct_ms: Optional[Dict[str, Any]]) -> bool:
    """True when an ``fct_ms`` block holds a real distribution (it is
    the zero-count block when no flow completed; older artifacts used
    ``None``)."""
    return fct_ms is not None and fct_ms.get("p50") is not None


def size_bin_label(size_bytes: int) -> str:
    for bound, label in SIZE_BINS:
        if bound is None or size_bytes <= bound:
            return label
    raise AssertionError("unreachable: last bin is unbounded")


class FctCollector:
    """Accumulates :class:`FctRecord`\\ s and summarises them."""

    def __init__(self) -> None:
        self.records: List[FctRecord] = []

    # -- recording -----------------------------------------------------
    def open(self, flow_id: int, client: str, direction: str,
             size_bytes: int, now: int) -> FctRecord:
        record = FctRecord(flow_id=flow_id, client=client,
                           direction=direction, size_bytes=size_bytes,
                           start_ns=now)
        self.records.append(record)
        return record

    def close(self, record: FctRecord) -> None:
        """A flow finished (or was censored at run end).

        Exact mode keeps every record, so there is nothing to fold;
        the hook exists so the :class:`FctAggregator` can share the
        :class:`~repro.traffic.manager.FlowManager` call sequence."""

    def merge(self, other: "FctCollector") -> None:
        """Fold another collector's records into this one (multi-cell
        runs merge per-cell collectors into the combined ``fct``
        block).  ``other`` is left untouched."""
        if not isinstance(other, FctCollector):
            raise TypeError(
                f"cannot merge {type(other).__name__} into exact "
                "FctCollector (collection modes must match)")
        self.records.extend(other.records)

    # -- views ---------------------------------------------------------
    @property
    def spawned(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> List[FctRecord]:
        return [r for r in self.records if r.completed]

    def summary(self, duration_ns: int,
                include_flows: bool = True) -> Dict[str, Any]:
        """The JSON-able block ``metrics_dict`` exposes as ``"fct"``.

        ``duration_ns`` is the load-accounting window (the scenario
        duration); offered load counts every spawned byte, carried
        load counts delivered bytes (completed flows in full, censored
        flows up to their last delivered byte).
        """
        done = self.completed
        fcts_ms = [r.fct_ns / MS for r in done]
        offered_bytes = sum(r.size_bytes for r in self.records)
        carried_bytes = sum(
            r.size_bytes if r.completed else r.bytes_delivered
            for r in self.records)
        by_size: Dict[str, Dict[str, Any]] = {}
        for _, label in SIZE_BINS:
            bin_fcts = [r.fct_ns / MS for r in done
                        if size_bin_label(r.size_bytes) == label]
            if bin_fcts:
                by_size[label] = dict(
                    _distribution(bin_fcts), flows=len(bin_fcts))
        summary: Dict[str, Any] = {
            "flows_spawned": self.spawned,
            "flows_completed": len(done),
            "flows_censored": self.spawned - len(done),
            "fct_ms": _distribution(fcts_ms) if fcts_ms
            else zero_distribution(),
            "fct_by_size_ms": by_size,
            "offered_load_mbps":
                offered_bytes * 8 * 1_000.0 / duration_ns
                if duration_ns > 0 else 0.0,
            "carried_load_mbps":
                carried_bytes * 8 * 1_000.0 / duration_ns
                if duration_ns > 0 else 0.0,
        }
        if include_flows:
            summary["flows"] = [r.as_dict() for r in self.records]
        return summary


class _StreamBin:
    """Online accumulator for one population (overall or a size bin):
    exact total/min/max next to the log-histogram of FCTs."""

    __slots__ = ("total", "minimum", "maximum", "histogram")

    def __init__(self) -> None:
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.histogram = LogHistogram()

    @property
    def count(self) -> int:
        return self.histogram.count

    def add(self, fct_ms: float) -> None:
        self.total += fct_ms
        if fct_ms < self.minimum:
            self.minimum = fct_ms
        if fct_ms > self.maximum:
            self.maximum = fct_ms
        self.histogram.add(fct_ms)

    def merge(self, other: "_StreamBin") -> None:
        """Fold another population in; exact fields stay exact."""
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        self.histogram.merge(other.histogram)

    def percentile(self, fraction: float) -> float:
        """Rank-interpolated percentile, mirroring :func:`percentile`:
        the bin values at the floor and ceiling ranks of
        ``fraction * (count - 1)`` are linearly interpolated, then
        clamped into the exact ``[min, max]``."""
        position = fraction * (self.count - 1)
        lower = int(position)
        weight = position - lower
        value = self.histogram.value_at_rank(lower)
        if weight > 0:
            value = (value * (1.0 - weight)
                     + self.histogram.value_at_rank(lower + 1) * weight)
        # Min/max are exact; clamping the quantised percentile into
        # their range keeps one summary self-consistent (never
        # p99 > max) and only ever reduces the error.
        return min(max(value, self.minimum), self.maximum)

    def distribution(self) -> Dict[str, float]:
        return {
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "mean": self.total / self.count,
            "min": self.minimum,
            "max": self.maximum,
        }


class FctAggregator:
    """Online, bounded-memory FCT statistics (``stream_stats=True``).

    Interface-compatible with :class:`FctCollector` (``open`` /
    ``close`` / ``summary``) but nothing is retained per flow once it
    closes: completed FCTs are folded into log-histograms
    (:mod:`repro.stats.loghist`) and the record object is dropped.
    Peak memory is therefore

        O(concurrently live flows + occupied histogram bins)

    — independent of the total number of flows a run spawns, which is
    what lets million-flow churn cells run inside hundred-cell sweeps.

    **Percentile resolution** (documented contract, tested in
    ``tests/stats/test_fct_stream.py``): a reported percentile
    interpolates the log-midpoints of the bins holding the
    corresponding order statistics (rank interpolation matching
    :func:`percentile`), so it is within one bin — a multiplicative
    factor of ``10 ** (1 / BINS_PER_DECADE)`` ≈ 2.33% — of the exact
    value.  Counts, mean, min/max, offered/carried load and size-bin
    tallies are exact; only percentiles are quantised.
    """

    def __init__(self) -> None:
        self.spawned = 0
        self.offered_bytes = 0
        self.carried_bytes = 0
        self.overall = _StreamBin()
        self.by_size: Dict[str, _StreamBin] = {}
        #: Live (open, not yet closed) records — bounded by flow
        #: concurrency, not by total flow count.
        self.live_open = 0
        self.max_live = 0

    # -- recording -----------------------------------------------------
    def open(self, flow_id: int, client: str, direction: str,
             size_bytes: int, now: int) -> FctRecord:
        self.spawned += 1
        self.offered_bytes += size_bytes
        self.live_open += 1
        if self.live_open > self.max_live:
            self.max_live = self.live_open
        return FctRecord(flow_id=flow_id, client=client,
                         direction=direction, size_bytes=size_bytes,
                         start_ns=now)

    def close(self, record: FctRecord) -> None:
        """Fold one finished (or censored) flow and forget it."""
        self.live_open -= 1
        if not record.completed:
            # Censored flows only contribute their partial delivery;
            # ``flows_censored`` is derived as spawned - completed in
            # :meth:`summary` (matching exact mode, which also counts
            # still-open flows as censored mid-run).
            self.carried_bytes += record.bytes_delivered
            return
        self.carried_bytes += record.size_bytes
        fct_ms = record.fct_ns / MS
        self.overall.add(fct_ms)
        label = size_bin_label(record.size_bytes)
        per_size = self.by_size.get(label)
        if per_size is None:
            per_size = self.by_size[label] = _StreamBin()
        per_size.add(fct_ms)

    def merge(self, other: "FctAggregator") -> None:
        """Fold another aggregator in (multi-cell runs merge per-cell
        aggregators into the combined ``fct`` block).

        Counts, means, min/max, size-bin tallies and load accounting
        stay exact; histograms add bin-wise, so merged percentiles
        carry the same documented one-bin resolution as any single
        aggregator (both sides quantise on the identical global bin
        edges — merging loses nothing beyond that).  ``max_live`` sums
        (the cells ran concurrently, so the peaks may coincide: the
        sum is the honest upper bound).  ``other`` is left untouched.
        """
        if not isinstance(other, FctAggregator):
            raise TypeError(
                f"cannot merge {type(other).__name__} into streaming "
                "FctAggregator (collection modes must match)")
        self.spawned += other.spawned
        self.offered_bytes += other.offered_bytes
        self.carried_bytes += other.carried_bytes
        self.live_open += other.live_open
        self.max_live += other.max_live
        self.overall.merge(other.overall)
        for label, bin_ in other.by_size.items():
            mine = self.by_size.get(label)
            if mine is None:
                mine = self.by_size[label] = _StreamBin()
            mine.merge(bin_)

    # -- views ---------------------------------------------------------
    @property
    def completed_count(self) -> int:
        return self.overall.count

    def occupied_bins(self) -> int:
        """Histogram cells in use (the non-live part of peak memory)."""
        return (len(self.overall.histogram.bins)
                + sum(len(b.histogram.bins)
                      for b in self.by_size.values()))

    def summary(self, duration_ns: int,
                include_flows: bool = True) -> Dict[str, Any]:
        """Same schema as :meth:`FctCollector.summary`, except the
        per-flow ``"flows"`` list is never included (there is nothing
        to list — that is the point) and a ``"streaming"`` block
        documents the percentile resolution."""
        done = self.overall.count
        by_size: Dict[str, Dict[str, Any]] = {}
        for _, label in SIZE_BINS:
            bin_ = self.by_size.get(label)
            if bin_ is not None and bin_.count:
                by_size[label] = dict(bin_.distribution(),
                                      flows=bin_.count)
        return {
            "flows_spawned": self.spawned,
            "flows_completed": done,
            "flows_censored": self.spawned - done,
            "fct_ms": self.overall.distribution()
            if done else zero_distribution(),
            "fct_by_size_ms": by_size,
            "offered_load_mbps":
                self.offered_bytes * 8 * 1_000.0 / duration_ns
                if duration_ns > 0 else 0.0,
            "carried_load_mbps":
                self.carried_bytes * 8 * 1_000.0 / duration_ns
                if duration_ns > 0 else 0.0,
            "streaming": {
                "bins_per_decade": BINS_PER_DECADE,
                "relative_resolution":
                    10.0 ** (1.0 / BINS_PER_DECADE) - 1.0,
                "occupied_bins": self.occupied_bins(),
                "max_live_records": self.max_live,
            },
        }
