"""Metrics registry: counters, gauges and histograms.

The telemetry layer summarises a run's sample records into a
:class:`MetricsRegistry`, which flattens to the ``"telemetry"`` block
of ``ScenarioResult.metrics_dict()``.  Registries are never merged: a
sharded run's fold sorts the union of its shards' sample records into
the unsharded stream and summarises that once
(:func:`repro.obs.sampler.telemetry_block`).  Metric *names* are
namespaced by channel or cell (``channel0.utilisation``,
``cell3.ap_queue``) and ``as_dict()`` sorts by name, so insertion
order never leaks into the block.

All three metric kinds hold only plain ints/floats, so registries
JSON-serialise without custom encoders.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_value(self) -> int:
        return self.value


class Gauge:
    """A sampled value with streaming min/max/mean.

    ``observe`` is O(1) and allocation-free, so the periodic sampler
    can call it every tick without perturbing the perf profile; the
    summary (``last``/``min``/``max``/``mean``/``count``) is exact
    regardless of how many samples were retained elsewhere.
    """

    __slots__ = ("last", "min", "max", "total", "count")

    def __init__(self) -> None:
        self.last: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.total: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.last = value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.total += value
        self.count += 1

    def as_value(self) -> Dict[str, Any]:
        return {
            "last": self.last,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count if self.count else 0.0,
            "count": self.count,
        }


class Histogram:
    """Power-of-two bucketed distribution of non-negative values.

    Bucket ``k`` counts observations in ``[2^(k-1), 2^k)`` (bucket 0
    is exactly zero).  Deliberately not the millisecond
    :class:`~repro.stats.loghist.LogHistogram`: it bins integer queue
    depths, and its bucket keys are part of the ``TELEMETRY_VERSION``
    1 artifact.
    """

    __slots__ = ("buckets", "count", "total")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        bucket = 0
        if value >= 1:
            bucket = int(value).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value

    def as_value(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.total / self.count if self.count else 0.0,
            "buckets": {str(k): self.buckets[k]
                        for k in sorted(self.buckets)},
        }


class MetricsRegistry:
    """Named metrics, grouped by kind.

    ``counter``/``gauge``/``histogram`` are get-or-create (repeated
    registration under one name returns the same object), so any
    subsystem can grab its metric without coordinating ownership.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter()
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge()
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram()
        return self._histograms[name]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able flattening, sorted by metric name — so insertion
        order never leaks into the telemetry block."""
        return {
            "counters": {name: self._counters[name].as_value()
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].as_value()
                       for name in sorted(self._gauges)},
            "histograms": {name: self._histograms[name].as_value()
                           for name in sorted(self._histograms)},
        }
