"""Deterministic discrete-event simulation kernel and measurement tools."""

from .engine import Event, PeriodicTask, Process, Signal, Simulator, all_of
from .rng import RngRegistry, derive_point_seed, derive_seed
from .stats import (
    Histogram,
    Summary,
    cumulative_latency_by_duration,
    ecdf,
    jitter,
    mean,
    nearest_rank_percentile,
    percentile,
    stddev,
    variance,
)
from .trace import ByteTrace, IntervalTrace

__all__ = [
    "ByteTrace",
    "Event",
    "Histogram",
    "IntervalTrace",
    "PeriodicTask",
    "Process",
    "RngRegistry",
    "Signal",
    "Simulator",
    "Summary",
    "all_of",
    "cumulative_latency_by_duration",
    "derive_point_seed",
    "derive_seed",
    "ecdf",
    "jitter",
    "mean",
    "nearest_rank_percentile",
    "percentile",
    "stddev",
    "variance",
]
