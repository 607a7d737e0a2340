"""§6.1.2 table: bytes and messages per channel for RDP, X, and LBX.

Paper (WordPerfect + Gimp + control-panel workload):

                 RDP        X          LBX
    bytes total  888,239    6,250,888  3,197,185
    msgs total   1,841      26,923     36,615
    avg msg size 482.48     232.18     87.32

Headline ratios: RDP < 15% of X and < 30% of LBX in bytes; LBX has ~80%
more display messages than X with the smallest average message size.
"""

from conftest import emit

from repro.core import format_table
from repro.workloads import run_protocol_comparison


def test_tab_protocol_comparison():
    taps = run_protocol_comparison(0)

    traces = {name: taps[name].trace() for name in ("rdp", "x", "lbx")}
    rows = []
    for name, t in traces.items():
        rows.append((name, "input", f"{t.input.bytes:,}", f"{t.input.messages:,}"))
        rows.append(
            (name, "display", f"{t.display.bytes:,}", f"{t.display.messages:,}")
        )
        rows.append(
            (
                name,
                "total",
                f"{t.total_bytes:,}",
                f"{t.total_messages:,}",
            )
        )
    emit(
        format_table(
            ["protocol", "channel", "bytes", "messages"],
            rows,
            title="§6.1.2: protocol comparison on the application workload",
        )
    )
    emit(
        format_table(
            ["protocol", "avg message size"],
            [
                (name, f"{t.avg_message_size:.2f}")
                for name, t in traces.items()
            ],
        )
    )

    rdp, x, lbx = traces["rdp"], traces["x"], traces["lbx"]
    # "RDP is clearly the most efficient protocol, generating less than
    # 30% of the byte traffic of LBX and less than 15% of X."
    assert rdp.total_bytes < 0.25 * x.total_bytes
    assert rdp.total_bytes < 0.35 * lbx.total_bytes
    # LBX halves X's bytes...
    assert lbx.total_bytes < 0.75 * x.total_bytes
    # ..."at the expense of a[n] ~80% increase in display message count".
    assert 1.3 < lbx.display.messages / x.display.messages < 2.5
    # Message-count ordering: RDP smallest by far.
    assert rdp.total_messages < 0.5 * x.total_messages < lbx.total_messages
    # LBX's messages are the smallest of the three.
    assert lbx.avg_message_size < x.avg_message_size
    assert lbx.avg_message_size < rdp.avg_message_size
