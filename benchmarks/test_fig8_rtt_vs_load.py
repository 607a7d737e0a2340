"""Figure 8: network latency as a function of offered load.

Paper: 64-byte pings on a 10 Mbps shared Ethernet under synthetic load;
RTT stays low until the knee, reaching ~55 ms at 9.6 Mbps — "considerable
with respect to known levels of human latency tolerance."
"""

from conftest import emit

from repro.core import format_series
from repro.net import run_ping_experiment

LOAD_LEVELS = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 9.6]
DURATION_MS = 60_000.0


def test_fig8_rtt_vs_load():
    results = run_ping_experiment(
        LOAD_LEVELS,
        duration_ms=DURATION_MS,
        seed=0,
    )

    emit(
        format_series(
            "offered Mbps",
            "mean RTT ms",
            [r.offered_mbps for r in results],
            [r.mean_rtt_ms for r in results],
            title="Figure 8: round-trip time vs offered load (64-byte pings)",
        )
    )

    rtt = {r.offered_mbps: r.mean_rtt_ms for r in results}
    # Flat and sub-millisecond while unsaturated...
    assert rtt[0.0] < 1.0
    assert rtt[5.0] < 5.0
    # ...then the queueing knee: tens of ms approaching capacity.
    assert rtt[9.6] > 20.0  # paper: ~55 ms
    assert rtt[9.6] > 10 * rtt[6.0]
    # Monotone growth across the sweep (within noise).
    series = [rtt[l] for l in LOAD_LEVELS]
    assert series[-1] == max(series)
