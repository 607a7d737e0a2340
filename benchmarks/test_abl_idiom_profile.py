"""Extension: Danskin-style display-channel idiom profiling (§7).

Danskin "published several papers on profiling the X protocol ... his
methodology provides the inspiration for our prototap tool", and "came to
the same conclusion as we did that small message size makes TCP/IP an
inefficient network substrate for protocols like RDP, X, and LBX."

This bench decomposes each protocol's display channel by message kind and
quantifies the TCP/IP framing tax as a function of message size.
"""

from conftest import emit

from repro.core import format_table
from repro.net import DISPLAY_CHANNEL
from repro.net.framing import framing_overhead_fraction
from repro.workloads import run_protocol_comparison


def test_abl_idiom_profile():
    taps = run_protocol_comparison(0)

    rows = []
    for name in ("x", "lbx", "rdp"):
        breakdown = taps[name].kind_breakdown(DISPLAY_CHANNEL)
        total = sum(s.payload_bytes for s in breakdown.values())
        for kind, stats in sorted(breakdown.items()):
            rows.append(
                (
                    name,
                    kind,
                    f"{stats.messages:,}",
                    f"{stats.payload_bytes:,}",
                    f"{stats.payload_bytes / total * 100:.1f}%",
                    f"{stats.avg_payload:.0f}",
                )
            )
    emit(
        format_table(
            ["protocol", "kind", "messages", "payload bytes", "share", "avg"],
            rows,
            title="Display-channel idiom profile (Danskin-style)",
        )
    )

    overhead_rows = [
        (size, f"{framing_overhead_fraction(size) * 100:.1f}%")
        for size in (16, 32, 64, 128, 256, 512, 1024, 1460)
    ]
    emit(
        format_table(
            ["message payload (B)", "TCP/IP framing tax"],
            overhead_rows,
            title="Why small messages make TCP/IP inefficient",
        )
    )

    x_breakdown = taps["x"].kind_breakdown(DISPLAY_CHANNEL)
    total = sum(s.payload_bytes for s in x_breakdown.values())
    # X's display bytes are overwhelmingly uncompressed image payload.
    assert x_breakdown["put-image"].payload_bytes > 0.8 * total
    # RDP never ships an uncompressed image idiom.
    assert "put-image" not in taps["rdp"].kind_breakdown(DISPLAY_CHANNEL)
    # The framing tax on a 64-byte message is an order above a full segment.
    assert framing_overhead_fraction(64) > 10 * framing_overhead_fraction(1460)
