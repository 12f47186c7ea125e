"""Unit oracles for the observability primitives.

Each metric kind summarises exactly what it observed (counters sum,
gauges stream min/max/mean, histograms bucket by powers of two), and
the registry is get-or-create with a name-sorted flattening.  The
kernel instrument's aggregation key must be stable across processes
(class + method name, never object ids).
"""

import json

from repro.obs import KernelInstrument, MetricsRegistry, \
    merge_span_blocks, owner_key
from repro.obs.metrics import Counter, Gauge, Histogram


class TestCounter:
    def test_inc_sums(self):
        a = Counter()
        a.inc()
        a.inc(4)
        assert a.as_value() == 5


class TestGauge:
    def test_streaming_min_max_mean(self):
        g = Gauge()
        for value in (4.0, 1.0, 7.0):
            g.observe(value)
        summary = g.as_value()
        assert summary["min"] == 1.0
        assert summary["max"] == 7.0
        assert summary["mean"] == 4.0
        assert summary["last"] == 7.0
        assert summary["count"] == 3

    def test_empty_gauge(self):
        assert Gauge().as_value() == {
            "last": 0.0, "min": None, "max": None,
            "mean": 0.0, "count": 0}


class TestHistogram:
    def test_power_of_two_buckets(self):
        h = Histogram()
        for value in (0, 1, 2, 3, 4, 100):
            h.observe(value)
        buckets = h.as_value()["buckets"]
        # 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 4 -> 3; 100 -> 7.
        assert buckets == {"0": 1, "1": 1, "2": 2, "3": 1, "7": 1}
        assert h.as_value()["count"] == 6


class TestRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")

    def test_as_dict_sorted_and_json_able(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").observe(1.5)
        payload = json.loads(json.dumps(registry.as_dict()))
        assert list(payload["counters"]) == ["a", "b"]
        assert payload["gauges"]["g"]["mean"] == 1.5


class _Probe:
    def tick(self):
        pass


def _free_function():
    pass


class TestOwnerKey:
    def test_bound_method(self):
        assert owner_key(_Probe().tick) == "_Probe.tick"

    def test_plain_function(self):
        assert owner_key(_free_function).endswith("_free_function")

    def test_closure(self):
        def outer():
            def inner():
                pass
            return inner
        assert "inner" in owner_key(outer())


class TestKernelInstrument:
    def test_aggregates_by_owner(self):
        instrument = KernelInstrument()
        probe = _Probe()
        instrument.record(probe.tick, 100, 50)
        instrument.record(probe.tick, 200, 70)
        instrument.record(_free_function, 300, 10)
        assert instrument.events == 3
        assert instrument.total_wall_ns == 130
        table = instrument.owner_table()
        assert table[0]["owner"] == "_Probe.tick"
        assert table[0]["count"] == 2
        assert table[0]["wall_ns"] == 120
        assert table[0]["max_ns"] == 70

    def test_span_retention_cap(self):
        instrument = KernelInstrument(max_spans=2)
        probe = _Probe()
        for t in range(5):
            instrument.record(probe.tick, t, 1)
        assert len(instrument.spans) == 2
        assert instrument.dropped_spans == 3
        block = instrument.as_dict()
        assert block["recorded_spans"] == 2
        assert block["dropped_spans"] == 3

    def test_zero_max_spans_keeps_aggregates_only(self):
        instrument = KernelInstrument(max_spans=0)
        instrument.record(_free_function, 0, 5)
        assert instrument.spans == []
        assert instrument.dropped_spans == 0
        assert instrument.events == 1


class TestMergeSpanBlocks:
    def test_sums_owners_across_shards(self):
        a = KernelInstrument()
        b = KernelInstrument()
        probe = _Probe()
        a.record(probe.tick, 0, 100)
        b.record(probe.tick, 0, 50)
        b.record(_free_function, 0, 25)
        merged = merge_span_blocks([a.as_dict(), b.as_dict()])
        assert merged["events"] == 3
        assert merged["total_wall_ns"] == 175
        rows = {row["owner"]: row for row in merged["owners"]}
        assert rows["_Probe.tick"]["count"] == 2
        assert rows["_Probe.tick"]["wall_ns"] == 150
        assert rows["_Probe.tick"]["max_ns"] == 100

    def test_empty_blocks_are_skipped(self):
        merged = merge_span_blocks([{}, None])
        assert merged["events"] == 0
        assert merged["owners"] == []
