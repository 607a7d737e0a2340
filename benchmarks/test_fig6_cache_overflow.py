"""Figure 6: CPU utilization and cache hit ratio for a 66-frame animation.

Paper: the animation overflows the 1.5 MB cache, so the server "must
continue to send the frames that fall out of the cache just before being
needed, which is all of them": CPU stays near 10% and never falls, while
the cumulative cache hit ratio starts around 70% and "falls asymptotically
toward zero with each subsequent miss."
"""

from conftest import emit

from repro.core import format_table, sparkline
from repro.workloads import run_cache_overflow_experiment

DURATION_MS = 60_000.0


def test_fig6_cache_overflow():
    result = run_cache_overflow_experiment(66, DURATION_MS)

    emit(
        format_table(
            ["series", "t=5s", "t=15s", "t=30s", "t=59s", "shape"],
            [
                (
                    "cumulative hit ratio",
                    f"{result.cumulative_hit_ratio[5]:.2f}",
                    f"{result.cumulative_hit_ratio[15]:.2f}",
                    f"{result.cumulative_hit_ratio[30]:.2f}",
                    f"{result.cumulative_hit_ratio[-1]:.2f}",
                    sparkline(result.cumulative_hit_ratio),
                ),
                (
                    "CPU utilization",
                    f"{result.cpu_utilization[5]:.2f}",
                    f"{result.cpu_utilization[15]:.2f}",
                    f"{result.cpu_utilization[30]:.2f}",
                    f"{result.cpu_utilization[-1]:.2f}",
                    sparkline(result.cpu_utilization),
                ),
            ],
            title="Figure 6: 66-frame animation overflowing the bitmap cache",
        )
    )

    ratios = result.cumulative_hit_ratio
    # Starts high (UI warmup hits), like the paper's ~70%...
    assert ratios[5] > 0.5
    # ...then decays monotonically toward zero, never recovering.
    tail = ratios[6:]
    assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))
    assert ratios[-1] < 0.3
    # The CPU never falls back to idle: every frame must be re-sent.
    late_cpu = result.cpu_utilization[10:]
    assert min(late_cpu) > 0.04
    assert max(late_cpu) < 0.25  # ~10% scale, not a saturated CPU
