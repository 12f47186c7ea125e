"""Metrics registry: counters, gauges and histograms.

The telemetry layer summarises a run's sample records into a
:class:`MetricsRegistry`, which flattens to the ``"telemetry"`` block
of ``ScenarioResult.metrics_dict()``.  Registries also merge exactly.
Metric *names* carry the shard partition: every sampler metric is
namespaced by channel or cell (``channel0.utilisation``,
``cell3.ap_queue``), so a merged registry is the disjoint union of the
per-shard registries and ``as_dict()`` (sorted by name) is
bit-identical to the unsharded run's.

All three metric kinds hold only plain ints/floats, so registries
pickle across the shard process boundary and JSON-serialise without
custom encoders.
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

    def merge(self, other: "Counter") -> None:
        self.value += other.value


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

    def merge(self, other: "Gauge") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.last = other.last
        if self.min is None or (other.min is not None
                                and other.min < self.min):
            self.min = other.min
        if self.max is None or (other.max is not None
                                and other.max > self.max):
            self.max = other.max
        self.total += other.total
        self.count += other.count
        self.last = other.last


class Histogram:
    """Power-of-two bucketed distribution of non-negative values.

    Bucket ``k`` counts observations in ``[2^(k-1), 2^k)`` (bucket 0
    is exactly zero), the same log-bucketing discipline the streaming
    FCT aggregator uses.  Merging sums bucket counts, so shard-merged
    distributions equal the unsharded ones exactly.
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

    def merge(self, other: "Histogram") -> None:
        for bucket, count in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + count
        self.count += other.count
        self.total += other.total


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
        order (which differs between unsharded and shard-merged
        registries) never leaks into the telemetry block."""
        return {
            "counters": {name: self._counters[name].as_value()
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].as_value()
                       for name in sorted(self._gauges)},
            "histograms": {name: self._histograms[name].as_value()
                           for name in sorted(self._histograms)},
        }

    def merge(self, other: "MetricsRegistry") -> None:
        for name, counter in other._counters.items():
            self.counter(name).merge(counter)
        for name, gauge in other._gauges.items():
            self.gauge(name).merge(gauge)
        for name, histogram in other._histograms.items():
            self.histogram(name).merge(histogram)
