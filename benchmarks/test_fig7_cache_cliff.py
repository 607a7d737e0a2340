"""Figure 7: network load vs animation frame count — the LRU cache cliff.

Paper: "for values 25 through 65, bandwidth utilization is 0.01Mbps, but
for all values above 65, bandwidth utilization is 0.96Mbps."  Looping
animations defeat LRU bitmap caches exactly the way sequential scans
defeat LRU disk caches.
"""

from conftest import emit

from repro.core import format_series
from repro.workloads import run_frame_count_sweep

FRAME_COUNTS = [25, 35, 45, 55, 60, 65, 66, 70, 80, 90, 100]
DURATION_MS = 60_000.0


def test_fig7_cache_cliff():
    rows = run_frame_count_sweep(FRAME_COUNTS, duration_ms=DURATION_MS)

    counts = [c for c, __ in rows]
    mbps = [m for __, m in rows]
    emit(
        format_series(
            "frames",
            "Mbps",
            counts,
            mbps,
            title="Figure 7: network load vs animation frame count",
        )
    )

    by_count = dict(rows)
    # Below the cliff: steady-state load is swap messages only.
    for count in (25, 35, 45, 55, 60, 65):
        assert by_count[count] < 0.02, count  # paper: 0.01 Mbps
    # Above it: every frame re-transfers.
    for count in (66, 70, 80, 90, 100):
        assert by_count[count] > 0.5, count  # paper: 0.96 Mbps
    # The jump is a cliff, not a slope: two orders of magnitude at 65->66.
    assert by_count[66] / by_count[65] > 50.0
