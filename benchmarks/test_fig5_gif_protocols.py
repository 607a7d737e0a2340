"""Figure 5: a 10-frame, 20 Hz animated GIF over X, LBX, and RDP.

Paper: X retransmits the full bitmap for every frame (no cache of any
appreciable size); LBX compresses but still resends; RDP's client bitmap
cache reduces the steady-state load to tiny cache-swap messages.
"""

from conftest import emit

from repro.core import format_table, sparkline
from repro.workloads import run_gif_protocol_comparison

DURATION_MS = 5_000.0
WARMUP_MS = 500.0  # the first cycle ships frames compulsorily


def test_fig5_gif_protocols():
    results = run_gif_protocol_comparison(DURATION_MS)

    rows = []
    for name in ("x", "lbx", "rdp"):
        result = results[name]
        __, series = result.load_series(window_ms=100.0)
        rows.append(
            (
                name,
                f"{result.average_mbps(WARMUP_MS):.3f}",
                sparkline(series[5:45]),
            )
        )
    emit(
        format_table(
            ["protocol", "steady Mbps", "load trace (100ms windows)"],
            rows,
            title="Figure 5: 10-frame 20 Hz GIF over X, LBX, RDP",
        )
    )

    x = results["x"].average_mbps(WARMUP_MS)
    lbx = results["lbx"].average_mbps(WARMUP_MS)
    rdp = results["rdp"].average_mbps(WARMUP_MS)
    # The paper's ordering and scale.
    assert x > lbx > rdp
    assert x > 1.5  # Mbps: full frames at 20 Hz
    assert lbx < 0.75 * x  # compression helps but cannot cache
    assert rdp < 0.05  # swap messages only
