"""RTT measurement under load (Figures 8 and 9).

The paper: "For each load level, we ran ping for 60 seconds and took the
average and variance in RTT for all packets sent.  We used the default
packet size in ping, which is 64 bytes.  64 bytes is roughly the size of a
typical input channel message, such as a keystroke."

A :class:`Pinger` sends a 64-byte probe each second; the echo transits the
same shared link (both directions contend on the medium), so the RTT is
two queueing+transmission delays plus two propagations — exactly the
quantity whose knee and jitter the figures show.

:func:`poisson_probes` is the same 64-byte probe as an open-loop Poisson
stream: the one probe path the SLO, analytic and scale measurements share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..sim.engine import Simulator
from ..sim.rng import RngRegistry
from ..sim.stats import mean, variance
from .faults import FaultPlan, make_link
from .link import Link
from .loadgen import PoissonLoadGenerator
from .packet import Packet

#: ping's default: 64-byte probes (§6.2).
PING_PACKET_BYTES = 64
#: One probe per second, ping's default interval.
PING_INTERVAL_MS = 1000.0


class Pinger:
    """Sends periodic probes over *link* and records round-trip times."""

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        *,
        interval_ms: float = PING_INTERVAL_MS,
        packet_bytes: int = PING_PACKET_BYTES,
    ) -> None:
        self.sim = sim
        self.link = link
        self.interval_ms = interval_ms
        self.packet_bytes = packet_bytes
        self.rtts_ms: List[float] = []
        self.probes_sent = 0
        self._task = sim.every(interval_ms, self._probe)

    @property
    def probes_lost(self) -> int:
        """Probes whose echo never came back (possible on faulted links)."""
        return self.probes_sent - len(self.rtts_ms)

    def _probe(self) -> None:
        self.probes_sent += 1
        sent_at = self.sim.now

        def echoed(pkt: Packet) -> None:
            self.rtts_ms.append(self.sim.now - sent_at)

        def reached_remote(pkt: Packet) -> None:
            # The echo reply contends for the same shared medium.
            self.link.send(
                Packet(self.packet_bytes, channel="ping-reply"), echoed
            )

        self.link.send(
            Packet(self.packet_bytes, channel="ping"), reached_remote
        )

    def stop(self) -> None:
        """Stop probing."""
        self._task.stop()


def poisson_probes(
    sim: Simulator,
    link: Link,
    rng: random.Random,
    interval_ms: float,
    warmup_ms: float,
    on_sample: Callable[[float, float], None],
    *,
    echo: bool = False,
    on_send: Optional[Callable[[float], None]] = None,
) -> None:
    """Start an open-loop Poisson stream of 64-byte probes over *link*.

    Probes arrive *interval_ms* apart on average (one ``expovariate``
    draw from *rng* per probe) and never wait for answers, so a saturated
    wire cannot suppress its own bad samples.  A probe sent at or after
    *warmup_ms* first calls ``on_send(sent_at)`` — where callers sample
    what the arrival sees — and then, on delivery, ``on_sample(sent_at,
    delay_ms)``.  With *echo* the delivered request sends a ``probe_echo``
    reply back over the same wire and the sample is the round trip.
    Warmup probes ride the wire (and echo) unsampled, so the probe load is
    the same before and after sampling begins.
    """
    rate = 1.0 / interval_ms

    def warm_echo(packet: Packet) -> None:
        link.send(Packet(PING_PACKET_BYTES, channel="probe_echo"))

    def probe() -> None:
        sent_at = sim.now
        if sent_at < warmup_ms:
            link.send(
                Packet(PING_PACKET_BYTES, channel="probe"),
                warm_echo if echo else None,
            )
        else:
            if on_send is not None:
                on_send(sent_at)

            def delivered(packet: Packet) -> None:
                on_sample(sent_at, sim.now - sent_at)

            if echo:

                def request_delivered(packet: Packet) -> None:
                    link.send(
                        Packet(PING_PACKET_BYTES, channel="probe_echo"),
                        delivered,
                    )

                link.send(
                    Packet(PING_PACKET_BYTES, channel="probe"),
                    request_delivered,
                )
            else:
                link.send(Packet(PING_PACKET_BYTES, channel="probe"), delivered)
        sim.schedule(rng.expovariate(rate), probe)

    sim.schedule(rng.expovariate(rate), probe)


@dataclass
class PingResult:
    """RTT statistics at one offered-load level."""

    offered_mbps: float
    rtts_ms: List[float] = field(default_factory=list)

    @property
    def mean_rtt_ms(self) -> float:
        """Average round-trip time (Figure 8's y-axis)."""
        return mean(self.rtts_ms)

    @property
    def rtt_variance(self) -> float:
        """RTT variance (Figure 9's y-axis)."""
        return variance(self.rtts_ms)


def run_ping_experiment(
    offered_mbps_levels: Sequence[float],
    *,
    bandwidth_mbps: float = 10.0,
    duration_ms: float = 60_000.0,
    seed: int = 0,
    faults: Optional[FaultPlan] = None,
) -> List[PingResult]:
    """Figures 8–9: RTT mean and variance per offered-load level.

    Each level runs on a fresh link for *duration_ms* (the paper's 60 s),
    with Poisson synthetic load and a 1 Hz 64-byte pinger sharing the
    medium.  Passing *faults* runs every level on a faulted link (the same
    fault schedule at each level — common random numbers); ``None`` or a
    disabled plan is the paper's perfect wire, byte for byte.
    """
    rngs = RngRegistry(seed)
    results: List[PingResult] = []
    for level in offered_mbps_levels:
        sim = Simulator()
        link = make_link(sim, faults, bandwidth_mbps=bandwidth_mbps)
        load = PoissonLoadGenerator(
            sim, link, level, rngs.stream(f"ping-load:{level}")
        )
        pinger = Pinger(sim, link)
        sim.run_until(duration_ms)
        load.stop()
        pinger.stop()
        # Let in-flight probes drain so late RTTs are counted.
        sim.run_until(duration_ms + 5_000.0)
        results.append(PingResult(offered_mbps=level, rtts_ms=list(pinger.rtts_ms)))
    return results
