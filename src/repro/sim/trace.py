"""Trace recording: busy intervals and byte-rate traces.

Two recorders cover everything the paper's figures need.  Each stores its
records as packed 8-byte columns (:class:`array.array`), not one Python
object per record, so a 10-minute idle trace or a busy link costs 8 bytes
per field per record:

* :class:`IntervalTrace` — closed busy intervals ``[start, end)``, each
  labelled with its owner (a CPU slice's thread name); can be rendered as
  a per-bin **utilization trace** (Figure 1), coalesced into busy events
  (Figure 2), or split per owner for lost-time attribution.
* :class:`ByteTrace` — timestamped byte counts (packets on a wire); can be
  rendered as a windowed **Mbps load trace** (Figures 4, 5, 7).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

from ..units import bytes_over_ms_to_mbps
from ..errors import SimulationError


class IntervalTrace:
    """Closed busy intervals, e.g. 'the CPU was handling work from t0 to t1'.

    Intervals may be recorded out of order and may overlap (overlap is merged
    when computing utilization).  Row ``i`` is ``starts[i]``, ``ends[i]`` and
    ``label_ids[i]``, an index into :attr:`labels`, the distinct labels in
    first-recorded order.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.starts = array("d")
        self.ends = array("d")
        self.label_ids = array("q")
        self.labels: List[str] = []
        self._label_index: Dict[str, int] = {}
        #: Whether rows arrived in ``(start, end)`` order, so merging needs
        #: no sort.  A single CPU's slices always do.
        self._in_order = True

    def record(self, start: float, end: float, label: str = "") -> None:
        """Record one busy interval ``[start, end)`` owned by *label*."""
        if end < start:
            raise SimulationError(
                f"IntervalTrace {self.name!r}: end {end} before start {start}"
            )
        if end > start:
            starts = self.starts
            if self._in_order and starts:
                last = starts[-1]
                if start < last or (start == last and end < self.ends[-1]):
                    self._in_order = False
            starts.append(start)
            self.ends.append(end)
            index = self._label_index.get(label)
            if index is None:
                index = self._label_index[label] = len(self.labels)
                self.labels.append(label)
            self.label_ids.append(index)

    def by_label(self) -> Dict[str, "IntervalTrace"]:
        """One trace per label, in first-recorded order, rows in record order."""
        traces = [IntervalTrace(label) for label in self.labels]
        for start, end, index in zip(self.starts, self.ends, self.label_ids):
            traces[index].record(start, end)
        return {trace.name: trace for trace in traces}

    def total_busy(self) -> float:
        """Total busy time in ms, with overlapping intervals merged."""
        merged = self.merged()
        return sum(end - start for start, end in merged)

    def merged(self) -> List[Tuple[float, float]]:
        """The recorded intervals, sorted and with overlaps coalesced."""
        rows = zip(self.starts, self.ends)
        if not self._in_order:
            rows = iter(sorted(rows))
        first = next(rows, None)
        if first is None:
            return []
        cur_start, cur_end = first
        out: List[Tuple[float, float]] = []
        for start, end in rows:
            if start <= cur_end:
                if end > cur_end:
                    cur_end = end
            else:
                out.append((cur_start, cur_end))
                cur_start, cur_end = start, end
        out.append((cur_start, cur_end))
        return out

    def utilization(
        self, t0: float, t1: float, bin_ms: float
    ) -> Tuple[List[float], List[float]]:
        """Per-bin utilization over ``[t0, t1)``.

        Returns ``(bin_start_times, utilizations)`` where each utilization is
        the fraction of that bin covered by (merged) busy intervals — exactly
        the quantity plotted in the paper's Figure 1.
        """
        if bin_ms <= 0:
            raise SimulationError("bin width must be positive")
        if t1 <= t0:
            raise SimulationError("empty utilization window")
        # Round to the nearest bin count, but never below one: a window
        # narrower than half a bin used to round to zero bins and silently
        # return empty series.
        nbins = max(1, int((t1 - t0) / bin_ms + 0.5))
        busy = [0.0] * nbins
        for start, end in self.merged():
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


class ByteTrace:
    """Timestamped byte counts — typically one record per packet on a wire."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times = array("d")
        self.sizes = array("q")

    def record(self, time: float, nbytes: int) -> None:
        """Record *nbytes* observed at *time* (ms)."""
        if nbytes < 0:
            raise SimulationError("negative byte count")
        self.times.append(time)
        self.sizes.append(nbytes)

    @property
    def total_bytes(self) -> int:
        """Sum of all recorded byte counts."""
        return sum(self.sizes)

    def load_series(
        self, t0: float, t1: float, window_ms: float
    ) -> Tuple[List[float], List[float]]:
        """Windowed network load in Mbps over ``[t0, t1)``.

        Returns ``(window_start_times, mbps)`` — the series the paper plots in
        Figures 4, 5, and 7.
        """
        if window_ms <= 0:
            raise SimulationError("window width must be positive")
        if t1 <= t0:
            raise SimulationError("empty load window")
        # As in IntervalTrace.utilization: clamp so a window narrower than
        # half a bin yields one bin instead of a silently empty series.
        nbins = max(1, int((t1 - t0) / window_ms + 0.5))
        per_bin = [0] * nbins
        for time, size in zip(self.times, self.sizes):
            if t0 <= time < t1:
                i = int((time - t0) / window_ms)
                if i >= nbins:
                    i = nbins - 1
                per_bin[i] += size
        times = [t0 + i * window_ms for i in range(nbins)]
        mbps = [bytes_over_ms_to_mbps(b, window_ms) for b in per_bin]
        return times, mbps

    def average_mbps(self, t0: float, t1: float) -> float:
        """Average load in Mbps over ``[t0, t1)``."""
        total = sum(
            size for time, size in zip(self.times, self.sizes) if t0 <= time < t1
        )
        return bytes_over_ms_to_mbps(total, t1 - t0)
