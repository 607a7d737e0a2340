"""Figure 4: network load of the synthetic MSNBC-style web page over RDP.

Paper: marquee + banner together sustain ~1.60 Mbps (plateaus ~1.89);
the marquee alone averages 0.07 Mbps and the banner alone 0.01 Mbps —
the combined frame sets overflow the client's 1.5 MB bitmap cache while
each alone fits, so load is wildly non-linear in the amount of animation.
"""

from conftest import emit

from repro.core import format_series, format_table, sparkline
from repro.workloads import run_webpage_experiment

DURATION_MS = 160_000.0


def reproduce_fig4():
    return {
        variant: run_webpage_experiment(variant, duration_ms=DURATION_MS)
        for variant in ("both", "marquee", "banner")
    }


def test_fig4_webpage_load():
    results = reproduce_fig4()

    rows = []
    for variant, result in results.items():
        __, series = result.load_series(window_ms=2_000.0)
        rows.append(
            (
                variant,
                f"{result.average_mbps():.3f}",
                f"{max(series):.2f}",
                sparkline(series[:40]),
            )
        )
    emit(
        format_table(
            ["page variant", "avg Mbps", "peak window", "trace (first 80 s)"],
            rows,
            title="Figure 4: synthetic web page network load over RDP",
        )
    )

    both = results["both"].average_mbps()
    marquee = results["marquee"].average_mbps()
    banner = results["banner"].average_mbps()
    # Each element alone is cheap (cache absorbs the loops)...
    assert marquee < 0.3  # paper: 0.07 Mbps
    assert banner < 0.05  # paper: 0.01 Mbps
    # ...together they thrash the cache: strongly non-additive load.
    assert both > 0.8  # paper: 1.60 Mbps sustained
    assert both > 4 * (marquee + banner)
    # Periodic structure from the marquee's scroll/pause cycle.
    __, series = results["both"].load_series(window_ms=2_000.0)
    assert min(series[5:]) < 0.7 * max(series[5:])
