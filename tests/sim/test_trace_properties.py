"""Property-based tests for the trace recorders' conservation laws.

These pin down the arithmetic the paper's figures depend on:

* utilization bins conserve busy time — what lands in the bins is exactly
  the merged busy time inside the binned span;
* load series conserve bytes — every byte recorded in the window appears in
  exactly one bin;
* overlap merging is idempotent and produces a sorted, disjoint cover;
* the packed columns merge and bin exactly as the tuple-list recorder
  they replaced (a frozen copy lives below as the reference).

Plus regression tests for the degenerate-window bug: a window narrower than
half a bin used to round to **zero** bins and silently return empty series.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import ByteTrace, IntervalTrace
from repro.units import mbps_to_bytes_per_ms

intervals = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    ).map(lambda pair: (min(pair), max(pair))),
    max_size=40,
)

byte_records = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        st.integers(min_value=0, max_value=100_000),
    ),
    max_size=60,
)


# Few distinct grid values, so equal starts, equal ends, touching and
# nested intervals are common, recorded in any order.
grid_intervals = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12).map(lambda i: i * 2.5),
        st.integers(min_value=0, max_value=12).map(lambda i: i * 2.5),
    ).map(lambda pair: (min(pair), max(pair))),
    max_size=40,
)


def reference_merged(intervals):
    """The tuple-list recorder's merge, frozen as the reference."""
    out = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            prev_start, prev_end = out[-1]
            out[-1] = (prev_start, max(prev_end, end))
        else:
            out.append((start, end))
    return out


def reference_utilization(intervals, t0, t1, bin_ms):
    """The tuple-list recorder's binning, frozen as the reference."""
    nbins = max(1, int((t1 - t0) / bin_ms + 0.5))
    busy = [0.0] * nbins
    for start, end in reference_merged(intervals):
        start = max(start, t0)
        end = min(end, t1)
        if end <= start:
            continue
        first = int((start - t0) / bin_ms)
        last = min(int((end - t0) / bin_ms), nbins - 1)
        for i in range(first, last + 1):
            bin_start = t0 + i * bin_ms
            bin_end = bin_start + bin_ms
            busy[i] += max(0.0, min(end, bin_end) - max(start, bin_start))
    times = [t0 + i * bin_ms for i in range(nbins)]
    utils = [b / bin_ms for b in busy]
    return times, utils


def make_interval_trace(pairs):
    trace = IntervalTrace("prop")
    for start, end in pairs:
        trace.record(start, end)
    return trace


class TestIntervalTraceProperties:
    @settings(max_examples=200)
    @given(intervals)
    def test_merged_is_idempotent(self, pairs):
        trace = make_interval_trace(pairs)
        once = trace.merged()
        again = make_interval_trace(once).merged()
        assert once == again

    @settings(max_examples=200)
    @given(intervals)
    def test_merged_is_sorted_and_disjoint(self, pairs):
        merged = make_interval_trace(pairs).merged()
        for (s0, e0), (s1, e1) in zip(merged, merged[1:]):
            assert e0 < s1  # strictly disjoint, in order
        assert all(s < e for s, e in merged)

    @settings(max_examples=200)
    @given(intervals)
    def test_total_busy_matches_merged_cover(self, pairs):
        trace = make_interval_trace(pairs)
        assert math.isclose(
            trace.total_busy(),
            sum(e - s for s, e in trace.merged()),
            rel_tol=1e-9,
            abs_tol=1e-9,
        )

    @settings(max_examples=200)
    @given(
        intervals,
        st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
    )
    def test_utilization_bins_conserve_busy_time(self, pairs, bin_ms):
        """Bin coverage sums to the merged busy time inside the binned span.

        The series covers ``[t0, t0 + nbins * bin_ms)``; busy time inside
        that span must land in the bins exactly once.
        """
        trace = make_interval_trace(pairs)
        t0, t1 = 0.0, 500.0
        times, utils = trace.utilization(t0, t1, bin_ms)
        assert len(times) == len(utils) >= 1
        span_end = times[-1] + bin_ms
        covered_busy = sum(
            max(0.0, min(end, span_end) - max(start, t0))
            for start, end in trace.merged()
        )
        binned_busy = sum(u * bin_ms for u in utils)
        assert math.isclose(binned_busy, covered_busy, rel_tol=1e-9, abs_tol=1e-6)

    @settings(max_examples=100)
    @given(intervals, st.floats(min_value=1.0, max_value=50.0))
    def test_utilization_never_exceeds_one_per_bin(self, pairs, bin_ms):
        trace = make_interval_trace(pairs)
        __, utils = trace.utilization(0.0, 500.0, bin_ms)
        assert all(-1e-9 <= u <= 1.0 + 1e-9 for u in utils)


class TestPackedMatchesTupleReference:
    """Packed columns give the bytes the tuple list gave, in or out of order."""

    @settings(max_examples=300)
    @given(st.one_of(grid_intervals, intervals), st.booleans())
    def test_merged_equals_reference(self, pairs, presorted):
        if presorted:
            pairs = sorted(pairs)
        recorded = [(s, e) for s, e in pairs if e > s]
        assert make_interval_trace(pairs).merged() == reference_merged(recorded)

    @settings(max_examples=300)
    @given(
        st.one_of(grid_intervals, intervals),
        st.booleans(),
        st.floats(min_value=-10.0, max_value=100.0),
        st.floats(min_value=1.0, max_value=600.0),
        st.floats(min_value=0.5, max_value=50.0),
    )
    def test_utilization_equals_reference(self, pairs, presorted, t0, span, bin_ms):
        if presorted:
            pairs = sorted(pairs)
        recorded = [(s, e) for s, e in pairs if e > s]
        t1 = t0 + span
        assert make_interval_trace(pairs).utilization(
            t0, t1, bin_ms
        ) == reference_utilization(recorded, t0, t1, bin_ms)

    @settings(max_examples=200)
    @given(grid_intervals, st.lists(st.sampled_from("abc"), min_size=40))
    def test_each_label_merges_like_its_own_tuple_list(self, pairs, labels):
        trace = IntervalTrace("prop")
        per_label = {}
        for (start, end), label in zip(pairs, labels):
            trace.record(start, end, label)
            if end > start:
                per_label.setdefault(label, []).append((start, end))
        split = trace.by_label()
        assert list(split) == list(per_label)
        for label, rows in per_label.items():
            assert split[label].merged() == reference_merged(rows)


class TestByteTraceProperties:
    @settings(max_examples=200)
    @given(
        byte_records,
        st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
    )
    def test_load_series_conserves_bytes(self, records, window_ms):
        """Every byte recorded inside the window lands in exactly one bin."""
        trace = ByteTrace("prop")
        for time, nbytes in records:
            trace.record(time, nbytes)
        t0, t1 = 0.0, 500.0
        times, mbps = trace.load_series(t0, t1, window_ms)
        assert len(times) == len(mbps) >= 1
        binned_bytes = sum(
            rate * mbps_to_bytes_per_ms(1.0) * window_ms for rate in mbps
        )
        window_bytes = sum(
            nbytes for time, nbytes in records if t0 <= time < t1
        )
        assert math.isclose(
            binned_bytes, window_bytes, rel_tol=1e-9, abs_tol=1e-6
        )

    @settings(max_examples=100)
    @given(byte_records)
    def test_average_matches_series_mean_on_exact_bins(self, records):
        """With bins tiling the window exactly, mean(series) == average."""
        trace = ByteTrace("prop")
        for time, nbytes in records:
            trace.record(time, nbytes)
        t0, t1, window = 0.0, 500.0, 50.0
        __, mbps = trace.load_series(t0, t1, window)
        assert math.isclose(
            sum(mbps) / len(mbps),
            trace.average_mbps(t0, t1),
            rel_tol=1e-9,
            abs_tol=1e-9,
        )


class TestDegenerateWindowRegression:
    """A window smaller than half a bin must not yield an empty series."""

    def test_utilization_clamps_to_one_bin(self):
        trace = IntervalTrace("r")
        trace.record(0.0, 0.3)
        times, utils = trace.utilization(0.0, 0.4, 1.0)  # window < bin/2
        assert times == [0.0]
        assert len(utils) == 1
        assert math.isclose(utils[0], 0.3)  # 0.3ms busy over a 1ms bin

    def test_load_series_clamps_to_one_bin(self):
        trace = ByteTrace("r")
        trace.record(0.1, 1000)
        times, mbps = trace.load_series(0.0, 0.4, 1.0)  # window < bin/2
        assert times == [0.0]
        assert len(mbps) == 1
        assert mbps[0] > 0.0

    def test_utilization_counts_busy_time_past_the_clamped_bin_span(self):
        """All busy time inside [t0, t1) is attributed to the single bin."""
        trace = IntervalTrace("r")
        trace.record(0.0, 0.4)
        __, utils = trace.utilization(0.0, 0.4, 1.0)
        assert math.isclose(utils[0], 0.4)

    def test_exact_half_bin_still_rounds_up(self):
        trace = ByteTrace("r")
        trace.record(0.2, 10)
        times, __ = trace.load_series(0.0, 0.5, 1.0)
        assert len(times) == 1
