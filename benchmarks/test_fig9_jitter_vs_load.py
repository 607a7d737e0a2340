"""Figure 9: network latency jitter (RTT variance) as a function of load.

Paper: "while the network is not saturated, RTT remains low and almost
perfectly consistent.  However, as the network nears saturation,
performance suffers dramatically" — the variance explodes.
"""

from conftest import emit

from repro.core import format_series
from repro.net import run_ping_experiment

LOAD_LEVELS = [0.0, 2.0, 4.0, 6.0, 8.0, 9.0, 9.6]
DURATION_MS = 60_000.0


def test_fig9_jitter_vs_load():
    results = run_ping_experiment(
        LOAD_LEVELS,
        duration_ms=DURATION_MS,
        seed=0,
    )

    emit(
        format_series(
            "offered Mbps",
            "RTT variance (ms^2)",
            [r.offered_mbps for r in results],
            [r.rtt_variance for r in results],
            title="Figure 9: RTT variance vs offered load",
            y_format="{:.2f}",
        )
    )

    var = {r.offered_mbps: r.rtt_variance for r in results}
    # Almost perfectly consistent while unsaturated.
    assert var[0.0] < 0.1
    assert var[4.0] < 10.0
    # Explodes near saturation: orders of magnitude, not a gentle rise.
    assert var[9.6] > 100 * max(var[4.0], 1e-6)
    assert var[9.6] > 10 * var[8.0]
