"""Property suite for the windowed percentile tracker.

Pins the three claims :mod:`repro.slo.windows` makes:

1. **Merge exactness** — the quantile over merged windows equals the
   quantile one untiled histogram of the same samples reports, exactly.
2. **Bin-resolution agreement** — the estimate and the exact nearest-rank
   sample percentile always land in the same bucket.
3. **Monotonicity** — quantiles are nondecreasing in the percentile level.
"""

import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SloError
from repro.obs import bucket_quantile
from repro.obs.metrics import DEFAULT_BOUNDS_MS, Histogram
from repro.slo import PERCENTILE_LEVELS, WindowedPercentiles

#: Latency-like values spanning every default bucket plus the overflow.
values = st.floats(
    min_value=0.0, max_value=10_000.0, allow_nan=False, allow_infinity=False
)

#: Timestamps spread across a handful of 1-second windows.
timestamps = st.floats(min_value=0.0, max_value=8_000.0, allow_nan=False)

samples = st.lists(st.tuples(timestamps, values), min_size=1, max_size=200)

percentiles = st.floats(min_value=0.0, max_value=100.0)

prop = settings(max_examples=60)


def _fill(pairs):
    tracker = WindowedPercentiles()
    for t, v in pairs:
        tracker.observe(t, v)
    return tracker


def _exact_nearest_rank(xs, pct):
    ordered = sorted(xs)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


class TestMergeExactness:
    @prop
    @given(pairs=samples, pct=percentiles)
    def test_merge_of_windows_equals_whole_stream_histogram(self, pairs, pct):
        """Tiled-by-time and untiled must answer the same quantile exactly."""
        tracker = _fill(pairs)
        whole = Histogram("whole")
        for __, v in pairs:
            whole.observe(v)
        assert tracker.quantile(pct) == whole.quantile(pct)

    @prop
    @given(pairs=samples, pct=percentiles)
    def test_explicit_window_list_matches_default(self, pairs, pct):
        tracker = _fill(pairs)
        indices = tracker.window_indices()
        assert tracker.quantile(pct) == tracker.quantile(pct, windows=indices)

    @prop
    @given(pairs=samples)
    def test_count_covers_every_sample(self, pairs):
        tracker = _fill(pairs)
        assert tracker.count == len(pairs)


class TestBinResolutionAgreement:
    @prop
    @given(pairs=samples, pct=percentiles)
    def test_estimate_shares_a_bucket_with_the_exact_percentile(
        self, pairs, pct
    ):
        """Estimate and exact nearest-rank sample differ by < one bucket."""
        tracker = _fill(pairs)
        estimate = tracker.quantile(pct)
        exact = _exact_nearest_rank([v for __, v in pairs], pct)
        bounds = tracker.bounds
        assert bisect_left(bounds, estimate) == bisect_left(bounds, exact)

    @prop
    @given(pairs=samples, pct=percentiles)
    def test_estimate_stays_inside_the_observed_range(self, pairs, pct):
        tracker = _fill(pairs)
        xs = [v for __, v in pairs]
        assert min(xs) <= tracker.quantile(pct) <= max(xs)


class TestMonotonicity:
    @prop
    @given(pairs=samples, lo=percentiles, hi=percentiles)
    def test_quantiles_nondecreasing_in_pct(self, pairs, lo, hi):
        if lo > hi:
            lo, hi = hi, lo
        tracker = _fill(pairs)
        assert tracker.quantile(lo) <= tracker.quantile(hi)

    @prop
    @given(pairs=samples)
    def test_reported_levels_are_ordered(self, pairs):
        tracker = _fill(pairs)
        qs = [tracker.quantile(p) for p in PERCENTILE_LEVELS]
        assert qs == sorted(qs)


class TestEdgeCases:
    def test_empty_tracker_raises(self):
        with pytest.raises(SloError):
            WindowedPercentiles().quantile(50.0)

    def test_empty_window_selection_raises(self):
        tracker = _fill([(0.0, 1.0)])
        with pytest.raises(SloError):
            tracker.quantile(50.0, windows=[99])

    def test_single_sample_is_every_percentile(self):
        tracker = _fill([(100.0, 7.5)])
        for p in (0.0, 50.0, 99.0, 100.0):
            assert tracker.quantile(p) == 7.5

    @given(v=values, n=st.integers(min_value=1, max_value=50))
    @settings(max_examples=30)
    def test_all_equal_samples_report_that_value_exactly(self, v, n):
        """The vmin/vmax clamp makes constant streams exact, not binned."""
        tracker = _fill([(i * 137.0, v) for i in range(n)])
        assert tracker.quantile(50.0) == v
        assert tracker.quantile(99.9) == v

    def test_rollup_rows_cover_each_window_in_time_order(self):
        tracker = _fill([(2500.0, 1.0), (500.0, 2.0), (2600.0, 300.0)])
        rows = tracker.rollup()
        assert [r[0] for r in rows] == [0, 2]
        assert [r[1] for r in rows] == [1, 2]
        assert all(len(r[2]) == len(PERCENTILE_LEVELS) for r in rows)

    def test_bad_bounds_and_window_raise(self):
        with pytest.raises(SloError):
            WindowedPercentiles(bounds=())
        with pytest.raises(SloError):
            WindowedPercentiles(bounds=(2.0, 1.0))
        with pytest.raises(SloError):
            WindowedPercentiles(window_ms=0.0)

    def test_bucket_quantile_rejects_empty_and_bad_pct(self):
        from repro.obs.metrics import ObservabilityError

        with pytest.raises(ObservabilityError):
            bucket_quantile(DEFAULT_BOUNDS_MS, [0] * 11, 0, 0.0, 0.0, 50.0)
        with pytest.raises(ObservabilityError):
            bucket_quantile(DEFAULT_BOUNDS_MS, [1] + [0] * 10, 1, 1.0, 1.0, 101.0)
