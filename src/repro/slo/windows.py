"""Windowed percentile tracking on fixed latency buckets.

Production latency is judged on *windows* — "p99 over the last minute" —
not on a whole-run average, and the SLO layer needs that view without
keeping raw samples.  :class:`WindowedPercentiles` buckets each sample by
its simulation timestamp into fixed time windows, each window holding the
same fixed-bucket state an :class:`~repro.obs.metrics.Histogram` keeps
(bucket counts + count/sum/min/max), and answers p50/p90/p99/p99.9 per
window, over any merged subset of windows, or over the whole stream.

The quantile estimator is :func:`repro.obs.metrics.bucket_quantile`, a
pure function of the aggregate bucket state.  Because merging windows sums
exactly the state one big window would have accumulated, the merge-of-
windows quantile equals the whole-stream quantile *exactly*, and both
agree with the true sample percentile within bin resolution (the estimate
and the exact nearest-rank sample always share a bucket).  The property
suite in ``tests/slo/test_windows.py`` pins all three claims.

Everything here is a pure function of the observed ``(timestamp, value)``
stream — no wall clock, no randomness — so trackers embedded in sweep
points keep the executor's byte-identity contract for free.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SloError
from ..obs.metrics import DEFAULT_BOUNDS_MS, bucket_quantile

#: The percentile levels the SLO layer reports everywhere, in order.
PERCENTILE_LEVELS: Tuple[float, ...] = (50.0, 90.0, 99.0, 99.9)


class _Window:
    """One time window's histogram state (a bare-metal obs Histogram)."""

    __slots__ = ("bucket_counts", "count", "total", "vmin", "vmax")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts: List[int] = [0] * num_buckets
        self.count = 0
        self.total = 0.0
        self.vmin = 0.0
        self.vmax = 0.0

    def add(self, bucket: int, value: float) -> None:
        self.bucket_counts[bucket] += 1
        if self.count == 0:
            self.vmin = value
            self.vmax = value
        else:
            if value < self.vmin:
                self.vmin = value
            if value > self.vmax:
                self.vmax = value
        self.count += 1
        self.total += value


class WindowedPercentiles:
    """Streaming time-window percentile rollups on fixed buckets.

    ``bounds`` are the inclusive bucket upper edges (defaulting to the obs
    layer's latency bounds); ``window_ms`` is the rollup granularity.
    :meth:`observe` files each sample under window ``floor(t / window_ms)``;
    windows materialize lazily, so idle stretches cost nothing and *empty*
    windows simply do not exist (asking one for a quantile raises).
    """

    def __init__(
        self,
        *,
        bounds: Sequence[float] = DEFAULT_BOUNDS_MS,
        window_ms: float = 1_000.0,
    ) -> None:
        ordered = tuple(float(b) for b in bounds)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise SloError(
                "window bounds must be non-empty and strictly increasing "
                f"(got {bounds!r})"
            )
        if window_ms <= 0:
            raise SloError(f"window length must be positive, got {window_ms}")
        self.bounds = ordered
        self.window_ms = float(window_ms)
        self._windows: Dict[int, _Window] = {}

    # -- recording -------------------------------------------------------

    def observe(self, t_ms: float, value: float) -> None:
        """File one sample observed at simulation time *t_ms*."""
        index = math.floor(t_ms / self.window_ms)
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = _Window(len(self.bounds) + 1)
        window.add(bisect_left(self.bounds, float(value)), float(value))

    # -- aggregate views -------------------------------------------------

    @property
    def count(self) -> int:
        """Samples observed across every window."""
        return sum(w.count for w in self._windows.values())

    def window_indices(self) -> List[int]:
        """Indices of the non-empty windows, in time order."""
        return sorted(self._windows)

    def _merged(
        self, indices: Optional[Sequence[int]]
    ) -> Tuple[List[int], int, float, float]:
        chosen = self.window_indices() if indices is None else list(indices)
        counts = [0] * (len(self.bounds) + 1)
        count = 0
        vmin = vmax = 0.0
        for index in chosen:
            window = self._windows.get(index)
            if window is None or window.count == 0:
                continue
            for bucket, c in enumerate(window.bucket_counts):
                counts[bucket] += c
            if count == 0:
                vmin, vmax = window.vmin, window.vmax
            else:
                vmin = min(vmin, window.vmin)
                vmax = max(vmax, window.vmax)
            count += window.count
        return counts, count, vmin, vmax

    def quantile(
        self, pct: float, *, windows: Optional[Sequence[int]] = None
    ) -> float:
        """The *pct* quantile estimate over *windows* (default: all).

        Merging is exact — summed bucket counts, min of mins, max of
        maxes — so ``quantile(p)`` equals the quantile a single untiled
        histogram of the same samples would report, byte for byte.
        Raises :class:`~repro.errors.SloError` when the selected windows
        hold no samples.
        """
        counts, count, vmin, vmax = self._merged(windows)
        if count == 0:
            raise SloError("quantile over empty windows")
        return bucket_quantile(self.bounds, counts, count, vmin, vmax, pct)

    def window_quantile(self, index: int, pct: float) -> float:
        """The *pct* quantile of the single window *index*."""
        return self.quantile(pct, windows=[index])

    def rollup(
        self, levels: Sequence[float] = PERCENTILE_LEVELS
    ) -> List[Tuple[int, int, List[float]]]:
        """Per-window ``(index, samples, [quantile per level])`` rows.

        The streaming rollup a dashboard would render: one row per
        non-empty window in time order.
        """
        return [
            (
                index,
                self._windows[index].count,
                [self.window_quantile(index, pct) for pct in levels],
            )
            for index in self.window_indices()
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WindowedPercentiles {len(self._windows)} windows, "
            f"{self.count} samples, window={self.window_ms:g} ms>"
        )
