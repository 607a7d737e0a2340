"""Extension: the §7 related-work protocols on the paper's workload.

§7: Schmidt et al.'s SLIM "has the advantage of being more platform
independent than X or RDP, [but] their results show it to be roughly
equivalent in performance to X, placing it still behind RDP and LBX in
network load efficiency.  VNC is yet another network protocol that is
similar to SLIM."

We implement both (pixel-shipping, cacheless designs) and run the §6.1.2
application workload over all five protocols — the comparison the paper's
related-work section describes but never tabulates.
"""

from conftest import emit

from repro.core import format_table
from repro.workloads.apps import application_workload, replay_workload

ALL_PROTOCOLS = ("rdp", "lbx", "vnc", "x", "slim")


def reproduce_extended_comparison(seed: int = 0):
    steps = application_workload(seed)
    return {name: replay_workload(name, steps) for name in ALL_PROTOCOLS}


def test_abl_related_protocols():
    taps = reproduce_extended_comparison()

    traces = {name: taps[name].trace() for name in ALL_PROTOCOLS}
    x_bytes = traces["x"].total_bytes
    rows = [
        (
            name,
            f"{t.total_bytes:,}",
            f"{t.total_messages:,}",
            f"{t.total_bytes / x_bytes:.2f}x",
        )
        for name, t in sorted(
            traces.items(), key=lambda kv: kv[1].total_bytes
        )
    ]
    emit(
        format_table(
            ["protocol", "bytes", "messages", "vs X"],
            rows,
            title="Extension: the five-protocol comparison "
            "(§6.1.2 workload, §7 protocols included)",
        )
    )

    # §7's placement, quantitatively.
    assert 0.7 < traces["slim"].total_bytes / x_bytes < 1.5  # "~equivalent"
    assert 0.5 < traces["vnc"].total_bytes / traces["slim"].total_bytes < 1.5
    for name in ("slim", "vnc"):
        assert traces[name].total_bytes > traces["lbx"].total_bytes
        assert traces[name].total_bytes > 4 * traces["rdp"].total_bytes
    # The efficiency ordering the paper's whole §6 implies.
    assert traces["rdp"].total_bytes == min(
        t.total_bytes for t in traces.values()
    )
