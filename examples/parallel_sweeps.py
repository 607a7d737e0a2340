#!/usr/bin/env python3
"""Parallel, cached parameter sweeps with :mod:`repro.exec`.

Every experiment in this package is a deterministic pure function of
(configuration, seed).  That buys two things for free, and this example
demonstrates both on the Figure 8 RTT sweep:

* **parallelism** — sweep points fan out to worker processes and merge
  back by parameter index, so the result table is bit-identical to a
  serial run no matter how many workers raced;
* **caching** — finished points persist to disk keyed by (experiment,
  value, seed, version), so re-running the sweep replays instantly and
  only *changed* points recompute.

The same engine backs the CLI (``python -m repro run all --jobs 8
--cache-dir .repro-cache``); here it maps one point function over the
load levels with :meth:`~repro.exec.SweepExecutor.map` directly.

Run:  python examples/parallel_sweeps.py
"""

import tempfile
import time

from repro.core import format_table
from repro.exec import SweepExecutor
from repro.net import run_ping_experiment

LOAD_LEVELS = [0.0, 2.0, 4.0, 6.0, 8.0, 9.0, 9.6]
DURATION_MS = 20_000.0


def mean_rtt_ms(offered_mbps: float) -> float:
    """One sweep point: mean ping RTT under this much offered load.

    Module-level (hence picklable) so the process backend can ship it to
    workers; a lambda would make the executor quietly fall back to serial.
    """
    (result,) = run_ping_experiment(
        [offered_mbps], duration_ms=DURATION_MS, seed=0
    )
    return result.mean_rtt_ms


def timed(label: str, executor: SweepExecutor):
    start = time.perf_counter()
    result = executor.map("ping-rtt", mean_rtt_ms, LOAD_LEVELS, seed=0)
    elapsed = time.perf_counter() - start
    backend = executor.last_backend_used
    cache = executor.cache
    cached = cache.stats.hits if cache is not None else 0
    return result, (label, backend, f"{elapsed:.2f}s", cached)


def main() -> None:
    with tempfile.TemporaryDirectory() as cache_dir:
        serial, row_serial = timed("serial, cold", SweepExecutor())
        parallel, row_parallel = timed(
            "process x4, cold",
            SweepExecutor(jobs=4, cache=cache_dir),
        )
        cached, row_cached = timed(
            "any backend, warm cache",
            SweepExecutor(jobs=4, cache=cache_dir),
        )

    assert parallel == serial, "parallel must reproduce serial"
    assert cached == serial, "cache must reproduce the computation"

    print(
        format_table(
            ["run", "backend", "wall time", "cache hits"],
            [row_serial, row_parallel, row_cached],
            title="One sweep, three ways (identical results each time)",
        )
    )
    print()
    print(
        format_table(
            ["offered Mbps", "mean RTT (ms)"],
            [(level, f"{rtt:.2f}") for level, rtt in zip(LOAD_LEVELS, serial)],
            title="The sweep itself (Figure 8's shape, shortened)",
        )
    )


if __name__ == "__main__":
    main()
