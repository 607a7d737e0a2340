"""§6.1.1: session setup costs — compulsory network load.

Paper: "Session setup costs in our configurations were 45,328 bytes and
16,312 bytes for TSE and Linux/X, respectively."
"""

from conftest import emit

from repro.core import ServerConfig, ThinClientServer, format_table
from repro.gui import TSE_SETUP, X_SETUP


def reproduce_session_setup():
    """Model totals plus the bytes actually observed on a simulated wire."""
    observed = {}
    for key, config in (("nt_tse", ServerConfig.tse()), ("linux", ServerConfig.linux())):
        server = ThinClientServer(
            config, seed=0
        )
        server.connect("user")
        server.run(5_000.0)
        observed[key] = server.link.bytes_sent
    return observed


def test_tab_session_setup():
    observed = reproduce_session_setup()

    emit(
        format_table(
            ["system", "setup payload (model)", "on-wire incl. framing"],
            [
                ("nt_tse (RDP)", f"{TSE_SETUP.total_bytes:,} B", f"{observed['nt_tse']:,} B"),
                ("linux (X)", f"{X_SETUP.total_bytes:,} B", f"{observed['linux']:,} B"),
            ],
            title="§6.1.1: session setup costs",
        )
    )

    # Model totals match the paper's measurements exactly.
    assert TSE_SETUP.total_bytes == 45_328
    assert X_SETUP.total_bytes == 16_312
    # On the wire, framing adds overhead but ordering holds.
    assert observed["nt_tse"] > observed["linux"]
    assert observed["nt_tse"] >= TSE_SETUP.total_bytes
    assert observed["linux"] >= X_SETUP.total_bytes
