"""Unit tests for trace recorders."""

import pytest

from repro.errors import SimulationError
from repro.sim import ByteTrace, IntervalTrace


class TestIntervalTrace:
    def test_zero_length_intervals_dropped(self):
        tr = IntervalTrace()
        tr.record(1.0, 1.0)
        assert len(tr.starts) == 0
        assert tr.merged() == []
        assert tr.labels == []

    def test_backwards_interval_raises(self):
        tr = IntervalTrace()
        with pytest.raises(SimulationError):
            tr.record(2.0, 1.0)

    def test_merged_coalesces_overlaps(self):
        tr = IntervalTrace()
        tr.record(0.0, 10.0)
        tr.record(5.0, 15.0)
        tr.record(20.0, 30.0)
        assert tr.merged() == [(0.0, 15.0), (20.0, 30.0)]
        assert tr.total_busy() == 25.0

    def test_merged_handles_out_of_order_recording(self):
        tr = IntervalTrace()
        tr.record(20.0, 30.0)
        tr.record(0.0, 10.0)
        assert tr.merged() == [(0.0, 10.0), (20.0, 30.0)]

    def test_utilization_bins(self):
        tr = IntervalTrace()
        tr.record(0.0, 5.0)  # half of first 10ms bin
        tr.record(10.0, 20.0)  # all of second bin
        times, utils = tr.utilization(0.0, 30.0, 10.0)
        assert times == [0.0, 10.0, 20.0]
        assert utils == pytest.approx([0.5, 1.0, 0.0])

    def test_utilization_clips_to_window(self):
        tr = IntervalTrace()
        tr.record(-5.0, 5.0)
        tr.record(25.0, 100.0)
        __, utils = tr.utilization(0.0, 30.0, 10.0)
        assert utils == pytest.approx([0.5, 0.0, 0.5])

    def test_utilization_never_exceeds_one(self):
        tr = IntervalTrace()
        tr.record(0.0, 10.0)
        tr.record(0.0, 10.0)  # duplicate busy interval, merged away
        __, utils = tr.utilization(0.0, 10.0, 10.0)
        assert utils == [1.0]

    def test_columns_are_packed_8_byte_values(self):
        tr = IntervalTrace()
        tr.record(0.0, 1.0, "a")
        for column in (tr.starts, tr.ends, tr.label_ids):
            assert column.itemsize == 8
        assert (tr.starts.typecode, tr.ends.typecode) == ("d", "d")
        assert tr.label_ids.typecode == "q"

    def test_by_label_keeps_first_recorded_order_and_row_order(self):
        tr = IntervalTrace()
        tr.record(0.0, 1.0, "b")
        tr.record(1.0, 2.0, "a")
        tr.record(2.0, 4.0, "b")
        tr.record(0.5, 0.75, "a")
        assert tr.labels == ["b", "a"]
        assert list(tr.label_ids) == [0, 1, 0, 1]
        per_label = tr.by_label()
        assert list(per_label) == ["b", "a"]
        assert per_label["b"].merged() == [(0.0, 1.0), (2.0, 4.0)]
        assert list(per_label["a"].starts) == [1.0, 0.5]
        assert per_label["a"].merged() == [(0.5, 0.75), (1.0, 2.0)]

    def test_utilization_rejects_bad_args(self):
        tr = IntervalTrace()
        with pytest.raises(SimulationError):
            tr.utilization(0.0, 10.0, 0.0)
        with pytest.raises(SimulationError):
            tr.utilization(10.0, 10.0, 1.0)


class TestByteTrace:
    def test_columns_are_packed_8_byte_values(self):
        bt = ByteTrace()
        bt.record(0.5, 1250)
        assert (bt.times.typecode, bt.times.itemsize) == ("d", 8)
        assert (bt.sizes.typecode, bt.sizes.itemsize) == ("q", 8)
        assert list(bt.times) == [0.5]
        assert list(bt.sizes) == [1250]

    def test_totals(self):
        bt = ByteTrace()
        bt.record(0.0, 100)
        bt.record(1.0, 200)
        assert bt.total_bytes == 300
        assert len(bt.sizes) == 2

    def test_negative_bytes_raise(self):
        with pytest.raises(SimulationError):
            ByteTrace().record(0.0, -1)

    def test_load_series_windows(self):
        bt = ByteTrace()
        # 1250 bytes in one ms-window of 1 ms = 10 Mbps
        bt.record(0.5, 1250)
        bt.record(1.5, 625)
        times, mbps = bt.load_series(0.0, 3.0, 1.0)
        assert times == [0.0, 1.0, 2.0]
        assert mbps == pytest.approx([10.0, 5.0, 0.0])

    def test_average_mbps(self):
        bt = ByteTrace()
        bt.record(0.0, 1250)
        bt.record(999.0, 1250)
        # 2500 bytes over 1000 ms = 2.5 bytes/ms = 0.02 Mbps
        assert bt.average_mbps(0.0, 1000.0) == pytest.approx(0.02)

    def test_load_series_ignores_out_of_window_records(self):
        bt = ByteTrace()
        bt.record(100.0, 999)
        __, mbps = bt.load_series(0.0, 10.0, 1.0)
        assert all(m == 0.0 for m in mbps)
