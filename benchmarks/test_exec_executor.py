"""Executor determinism: parallel and cached sweeps reproduce serial runs.

Not one of the paper's figures — this benchmark guards the property the
whole :mod:`repro.exec` subsystem rests on: a sweep's result table is a
pure function of (experiment, values, seed), independent of backend,
worker count, chunking, or cache temperature.
"""

from conftest import emit, run_once

from repro.core import format_series
from repro.exec import SweepExecutor
from repro.net import run_ping_experiment

LOAD_LEVELS = [0.0, 2.0, 4.0, 6.0, 8.0, 9.6]
DURATION_MS = 20_000.0


def mean_rtt_ms(offered_mbps):
    """One Figure-8-style point (module-level, so workers can import it)."""
    (result,) = run_ping_experiment(
        [offered_mbps], duration_ms=DURATION_MS, seed=0
    )
    return result.mean_rtt_ms


def test_exec_parallel_and_cached_match_serial(benchmark, tmp_path):
    serial = SweepExecutor().map("ping-rtt", mean_rtt_ms, LOAD_LEVELS)

    executor = SweepExecutor(backend="process", jobs=4, cache=str(tmp_path))
    parallel = run_once(
        benchmark, executor.map, "ping-rtt", mean_rtt_ms, LOAD_LEVELS, seed=0
    )
    assert parallel == serial

    warm = executor.map("ping-rtt", mean_rtt_ms, LOAD_LEVELS, seed=0)
    assert warm == serial
    assert executor.cache.stats.hits == len(LOAD_LEVELS)

    emit(
        format_series(
            "offered Mbps",
            "mean RTT ms",
            LOAD_LEVELS,
            serial,
            title="Executor check: serial == process x4 == cached",
        )
    )
