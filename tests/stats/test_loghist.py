"""The one log-histogram behind queue sojourn and streaming FCT.

Binning at the floor and on exact decade edges, the merge laws that
make per-MAC / per-cell / per-shard folds exact, and the pickle and
``as_dict`` round trips.  ``TestPercentileRules`` pins the two
percentile rules built on the one rank walk through their public
outputs, with hand-computed expectations:

* sojourn (``QdiscStats.block``): the bin value at rank
  ``floor(f * (n - 1))``, no interpolation, no clamp;
* streaming FCT (``FctAggregator.summary``): ``lo * (1 - w) + hi * w``
  over ranks ``floor`` and ``floor + 1`` whenever ``w > 0`` — even when
  both ranks share a bin — clamped into the exact ``[min, max]``.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.mac.qdisc import DropTailQueue, QdiscStats
from repro.sim.units import MS
from repro.stats.fct import FctAggregator
from repro.stats.loghist import BINS_PER_DECADE, MIN_VALUE_MS, \
    LogHistogram, bin_value

from tests.helpers import FakePayload


def mid(index):
    """Hand-written log-midpoint of bin ``index`` (100 bins/decade)."""
    return 10.0 ** ((index + 0.5) / 100)


def hist_of(values):
    hist = LogHistogram()
    for value in values:
        hist.add(value)
    return hist


def merged(*parts):
    total = LogHistogram()
    for part in parts:
        total.merge(part)
    return total


values_ms = st.lists(
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    max_size=30)


class TestBinning:
    def test_resolution_is_100_bins_per_decade(self):
        assert BINS_PER_DECADE == 100
        assert bin_value(0) == mid(0)
        assert bin_value(-3) == mid(-3)

    def test_floor_collects_zero_and_tiny_values(self):
        hist = hist_of([0.0, 1e-9, MIN_VALUE_MS])
        assert hist.bins == {-600: 3}
        assert hist.count == 3

    def test_exact_decade_edges_open_their_bin(self):
        hist = hist_of([1.0, 10.0, 100.0])
        assert hist.bins == {0: 1, 100: 1, 200: 1}

    def test_just_below_an_edge_stays_in_the_lower_bin(self):
        hist = hist_of([9.999, 0.9999])
        assert hist.bins == {99: 1, -1: 1}

    def test_value_at_rank_walks_bins_in_order(self):
        hist = hist_of([10.0, 1.0, 1.0])
        assert hist.value_at_rank(0) == mid(0)
        assert hist.value_at_rank(1) == mid(0)
        assert hist.value_at_rank(2) == mid(100)
        with pytest.raises(IndexError):
            hist.value_at_rank(3)


class TestMerge:
    @settings(max_examples=50, deadline=None)
    @given(values_ms, values_ms)
    def test_commutative(self, a, b):
        ab = merged(hist_of(a), hist_of(b))
        ba = merged(hist_of(b), hist_of(a))
        assert ab.as_dict() == ba.as_dict()
        assert ab.count == ba.count == len(a) + len(b)

    @settings(max_examples=50, deadline=None)
    @given(values_ms, values_ms, values_ms)
    def test_associative_and_equal_to_one_recorder(self, a, b, c):
        left = merged(merged(hist_of(a), hist_of(b)), hist_of(c))
        right = merged(hist_of(a), merged(hist_of(b), hist_of(c)))
        assert left.bins == right.bins == hist_of(a + b + c).bins
        assert left.count == right.count

    @settings(max_examples=50, deadline=None)
    @given(values_ms)
    def test_empty_is_identity(self, a):
        hist = hist_of(a)
        hist.merge(LogHistogram())
        assert hist.bins == hist_of(a).bins
        empty = LogHistogram()
        empty.merge(hist_of(a))
        assert empty.bins == hist.bins and empty.count == len(a)

    def test_merge_leaves_other_untouched(self):
        a, b = hist_of([1.0]), hist_of([1.0, 10.0])
        a.merge(b)
        assert b.bins == {0: 1, 100: 1} and b.count == 2
        assert a.bins == {0: 2, 100: 1} and a.count == 3


class TestRoundTrips:
    def test_as_dict_is_sorted_with_string_keys(self):
        hist = hist_of([100.0, 1.0, 0.5, 1.0])
        payload = hist.as_dict()
        assert list(payload) == ["-31", "0", "200"]
        assert payload == {"-31": 1, "0": 2, "200": 1}

    @settings(max_examples=50, deadline=None)
    @given(values_ms)
    def test_as_dict_round_trip(self, a):
        hist = hist_of(a)
        back = LogHistogram.from_dict(hist.as_dict())
        assert back.bins == hist.bins
        assert back.count == hist.count

    def test_pickle_round_trip(self):
        hist = hist_of([0.0, 1.0, 3.5, 3.5, 250.0])
        back = pickle.loads(pickle.dumps(hist))
        assert back.bins == hist.bins
        assert back.count == hist.count
        stats = QdiscStats()
        stats.drops = 2
        stats.sojourn.merge(hist)
        assert pickle.loads(pickle.dumps(stats)).block("codel") == \
            stats.block("codel")


class TestPercentileRules:
    """Hand-computed pins, through public outputs only."""

    def sojourn_block(self, sim, pop_at_ms):
        stats = QdiscStats()
        queue = DropTailQueue(sim, stats)
        for _ in pop_at_ms:
            queue.append(FakePayload())
        for t_ms in pop_at_ms:
            sim.run(until=int(t_ms * MS))
            queue.popleft()
        return stats.block("droptail")

    def fct_block(self, fcts_ms):
        agg = FctAggregator()
        for flow_id, fct_ms in enumerate(fcts_ms):
            record = agg.open(flow_id, "c", "down", 1_000, now=0)
            record.end_ns = int(round(fct_ms * MS))
            agg.close(record)
        return agg.summary(1_000 * MS)["fct_ms"]

    def test_sojourn_straddling_two_bins_takes_the_floor_rank(self, sim):
        # Sojourns 1, 1, 10 ms: p99 sits at position 1.98, between
        # rank 1 (bin 0) and rank 2 (bin 100); the rule reads rank 1.
        block = self.sojourn_block(sim, [1.0, 1.0, 10.0])
        assert block["sojourn_p99_ms"] == mid(0)
        assert block["sojourn_p50_ms"] == mid(0)

    def test_sojourn_within_one_bin_is_the_bin_value(self, sim):
        # Ten sojourns in bin 6 ([1.148, 1.175) ms); p99 position 8.91
        # has w > 0, but the rule never interpolates, so the result is
        # the bin value itself (interpolating would move the last bit).
        block = self.sojourn_block(
            sim, [1.150 + 0.002 * k for k in range(10)])
        assert block["sojourn_bins"] == {"6": 10}
        assert block["sojourn_p99_ms"] == mid(6)
        assert block["sojourn_p50_ms"] == mid(6)

    def test_fct_straddling_two_bins_interpolates_and_clamps(self):
        # FCTs 1 and 10 ms: ranks 0 and 1 sit in bins 0 and 100.
        lo, hi = mid(0), mid(100)
        dist = self.fct_block([1.0, 10.0])
        assert dist["p50"] == lo * (1.0 - 0.5) + hi * 0.5
        assert dist["p95"] == lo * (1.0 - 0.95) + hi * 0.95
        # lo * 0.01 + hi * 0.99 = 10.02 > max: clamped to the exact max.
        assert dist["p99"] == 10.0

    def test_fct_within_one_bin_still_uses_the_formula(self):
        # FCTs 1.29 and 1.31 ms share bin 11; p95 has w = 0.95 and
        # the formula lands one ulp off the bin value.
        b = mid(11)
        expected = b * (1.0 - 0.95) + b * 0.95
        assert expected != b
        dist = self.fct_block([1.29, 1.31])
        assert dist["p95"] == expected
        assert dist["p50"] == b * (1.0 - 0.5) + b * 0.5
