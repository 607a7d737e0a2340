"""Exactness of Figure 2's reduction against the per-threshold re-sum.

:func:`cumulative_latency_by_duration` answers every threshold from one
prefix-sum pass.  The oracle below re-sums the sorted durations for each
threshold.  Both perform the same float additions in the same order, so
the curves must be equal with ``==``, not just approximately.
"""

import random

import pytest

from repro.cpu import FIG2_THRESHOLDS_MS, run_idle_experiment
from repro.sim import cumulative_latency_by_duration


def resum_per_threshold(durations_ms, thresholds_ms):
    out = []
    ordered = sorted(durations_ms)
    for threshold in thresholds_ms:
        total_ms = 0.0
        for duration in ordered:
            if duration > threshold:
                break
            total_ms += duration
        out.append(total_ms / 1000.0)
    return out


def assert_exact(durations_ms, thresholds_ms):
    expected = resum_per_threshold(durations_ms, thresholds_ms)
    assert cumulative_latency_by_duration(durations_ms, thresholds_ms) == expected


@pytest.mark.parametrize("seed", range(5))
def test_durations_that_tie_thresholds(seed):
    rng = random.Random(seed)
    thresholds = [float(t) for t in range(0, 601, 10)]
    durations = [rng.choice(thresholds) for _ in range(500)]
    durations += [rng.uniform(0.0, 600.0) for _ in range(500)]
    assert_exact(durations, thresholds)


@pytest.mark.parametrize("seed", range(5))
def test_duplicate_durations(seed):
    rng = random.Random(seed)
    distinct = [rng.expovariate(0.05) for _ in range(20)]
    durations = [rng.choice(distinct) for _ in range(2000)]
    assert_exact(durations, sorted(distinct) + [0.0, 1e9])


@pytest.mark.parametrize("seed", range(5))
def test_unsorted_and_repeated_thresholds(seed):
    rng = random.Random(seed)
    durations = [rng.lognormvariate(1.0, 1.5) for _ in range(1000)]
    thresholds = [rng.uniform(-5.0, 200.0) for _ in range(40)]
    thresholds += thresholds[:10] + [rng.choice(durations) for _ in range(10)]
    rng.shuffle(thresholds)
    assert_exact(durations, thresholds)


def test_empty_durations():
    assert_exact([], [0.0, 10.0, 600.0])
    assert cumulative_latency_by_duration([], [0.0, 600.0]) == [0.0, 0.0]
    assert cumulative_latency_by_duration([5.0], []) == []


def test_real_idle_run_on_figure_2_thresholds():
    durations = run_idle_experiment("linux", 60_000.0).event_durations_ms
    assert durations
    assert_exact(durations, FIG2_THRESHOLDS_MS)
