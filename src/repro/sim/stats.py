"""Summary statistics used by the analysis framework.

Plain-Python implementations (no numpy dependency in the library core) of the
handful of statistics the paper reports: means, variances, percentiles,
min/avg/max summaries, histograms, empirical CDFs, and the *cumulative
latency by event duration* reduction behind Figure 2.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import SimulationError


def mean(xs: Sequence[float]) -> float:
    """Arithmetic mean.  Raises on empty input."""
    if not xs:
        raise SimulationError("mean of empty sequence")
    return sum(xs) / len(xs)


def variance(xs: Sequence[float]) -> float:
    """Population variance (the paper's 'variance in RTT', Figure 9)."""
    if not xs:
        raise SimulationError("variance of empty sequence")
    mu = mean(xs)
    return sum((x - mu) ** 2 for x in xs) / len(xs)


def stddev(xs: Sequence[float]) -> float:
    """Population standard deviation."""
    return math.sqrt(variance(xs))


def percentile(xs: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile, ``p`` in [0, 100]."""
    if not xs:
        raise SimulationError("percentile of empty sequence")
    if not 0.0 <= p <= 100.0:
        raise SimulationError(f"percentile {p} out of range")
    ordered = sorted(xs)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def nearest_rank_percentile(xs: Sequence[float], p: float) -> float:
    """The sample at rank ``round(p / 100 * (n - 1))``; 0.0 when empty.

    The fleet, SLO and scale experiments report latency percentiles this
    way, so every reported value is one that was actually observed.
    """
    if not xs:
        return 0.0
    ordered = sorted(xs)
    rank = int(round(p / 100.0 * (len(ordered) - 1)))
    return ordered[min(rank, len(ordered) - 1)]


@dataclass(frozen=True)
class Summary:
    """A min/avg/max/count summary, as in the paper's memory-latency table."""

    count: int
    minimum: float
    average: float
    maximum: float
    std: float

    @classmethod
    def of(cls, xs: Sequence[float]) -> "Summary":
        """Summarize a non-empty sample."""
        if not xs:
            raise SimulationError("summary of empty sequence")
        return cls(
            count=len(xs),
            minimum=min(xs),
            average=mean(xs),
            maximum=max(xs),
            std=stddev(xs),
        )

    def __str__(self) -> str:
        return (
            f"n={self.count} min={self.minimum:.1f} avg={self.average:.1f} "
            f"max={self.maximum:.1f} std={self.std:.1f}"
        )


class Histogram:
    """Fixed-width histogram over ``[lo, hi)`` with overflow/underflow bins."""

    def __init__(self, lo: float, hi: float, nbins: int) -> None:
        if hi <= lo or nbins <= 0:
            raise SimulationError("bad histogram bounds")
        self.lo = lo
        self.hi = hi
        self.nbins = nbins
        self.width = (hi - lo) / nbins
        self.counts = [0] * nbins
        self.underflow = 0
        self.overflow = 0

    def add(self, x: float, weight: int = 1) -> None:
        """Count *x* (under/overflow tracked outside the bounds)."""
        if x < self.lo:
            self.underflow += weight
        elif x >= self.hi:
            self.overflow += weight
        else:
            # Rounding can put x just below hi at index nbins; clamp it.
            index = min(int((x - self.lo) / self.width), self.nbins - 1)
            self.counts[index] += weight

    @property
    def total(self) -> int:
        """All counted samples including under/overflow."""
        return sum(self.counts) + self.underflow + self.overflow

    def bin_edges(self) -> List[float]:
        """The nbins+1 bin boundary values."""
        return [self.lo + i * self.width for i in range(self.nbins + 1)]


def ecdf(xs: Sequence[float]) -> Tuple[List[float], List[float]]:
    """Empirical CDF: returns (sorted values, cumulative fractions)."""
    if not xs:
        raise SimulationError("ecdf of empty sequence")
    ordered = sorted(xs)
    n = len(ordered)
    fractions = [(i + 1) / n for i in range(n)]
    return ordered, fractions


def cumulative_latency_by_duration(
    durations_ms: Sequence[float], thresholds_ms: Sequence[float]
) -> List[float]:
    """Figure 2's reduction: total latency from events no longer than *t*.

    For each threshold *t*, sums the durations of all busy events whose
    individual duration is ``<= t``, returning **seconds** (the paper's
    y-axis).  The curve's final value is the aggregate idle-state load.
    """
    ordered = sorted(durations_ms)
    # prefix_ms[k] adds the k shortest durations left to right from 0.0, the
    # order a sequential loop adds them in, so every total keeps its bits.
    prefix_ms = list(accumulate(ordered, initial=0.0))
    return [prefix_ms[bisect_right(ordered, t)] / 1000.0 for t in thresholds_ms]


def jitter(xs: Sequence[float]) -> float:
    """The paper's notion of jitter: variability of a latency series.

    We report the population standard deviation; Figure 9 reports variance —
    :func:`variance` is used directly there.
    """
    return stddev(xs)


def rate_per_second(count: int, duration_ms: float) -> float:
    """Events per second over a window given in ms."""
    if duration_ms <= 0:
        raise SimulationError("duration must be positive")
    return count / (duration_ms / 1000.0)
