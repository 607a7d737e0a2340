"""Extension: browsing users saturate the shared link, end to end (§6.1.3).

"Such levels of network activity make multi-user service over aging 10Mbps
ethernet unfeasible.  If just five users open their browsers to a page
like this, the network link becomes saturated."

Here the claim runs through the whole composed system: N sessions each
open the synthetic animated page over RDP on one 10 Mbps link while
another user types; we report link utilization and what happens to the
typist's user-perceived latency.  (The paper's testbed, as real coax
Ethernet, effectively saturated below nominal capacity; our FIFO medium
delivers the full 10 Mbps, so complete saturation lands at 6–7 of our
~1.4 Mbps pages rather than exactly five.)
"""

from conftest import emit

from repro.core import ServerConfig, ThinClientServer, format_table

BROWSER_COUNTS = (0, 1, 3, 5, 7)


def reproduce_web_capacity(seed: int = 3):
    rows = {}
    for browsers in BROWSER_COUNTS:
        server = ThinClientServer(ServerConfig.tse(), seed=seed)
        typer = server.connect("typist")
        for i in range(browsers):
            session = server.connect(f"web{i}")
            session.open_webpage()
        server.run(2_000.0)
        typer.start_typing()
        server.run(30_000.0)
        typer.stop_typing()
        server.run(3_000.0)
        rows[browsers] = {
            "util": server.link.utilization(2_000.0, 32_000.0),
            "assessment": typer.client.assessment(),
        }
    return rows


def test_abl_web_capacity():
    rows = reproduce_web_capacity()

    emit(
        format_table(
            [
                "browsing users",
                "link utilization",
                "typist avg latency (ms)",
                "perceptible",
            ],
            [
                (
                    n,
                    f"{data['util'] * 100:.0f}%",
                    f"{data['assessment'].summary.average:.1f}",
                    f"{data['assessment'].perceptible_fraction * 100:.0f}%",
                )
                for n, data in rows.items()
            ],
            title="Extension: animated-page users vs the 10 Mbps link "
            "and an innocent typist",
        )
    )

    # One animated page is ~14% of the link; five take most of it.
    assert 0.08 < rows[1]["util"] < 0.25
    assert rows[5]["util"] > 0.55
    assert rows[7]["util"] > 0.85
    # The typist pays: latency grows by an order of magnitude.
    quiet = rows[0]["assessment"].summary.average
    assert rows[5]["assessment"].summary.average > 5 * quiet
    assert rows[7]["assessment"].summary.average > 10 * quiet
