"""Hybrid load-curve points: fluid populations, exact probe packets.

:func:`run_load_curve_point` is the Figures 8–9 measurement loop rebuilt
for populations the per-event kernel cannot hold: a background population
(10⁴–10⁶ users) loads the shared link — as per-event generators in
``mode="exact"``, as a presampled fluid in ``mode="hybrid"`` — while a
Poisson stream of 64-byte ping probes measures round-trip time exactly
(request and echo are real packets through the real FIFO in both modes).
Open-loop probes are coordinated-omission-safe by construction: sends
never wait for answers, so a saturated wire cannot suppress its own bad
samples.

The two modes are *statistically* interchangeable, not samplewise: they
consume different random streams, so equivalence is asserted on
distribution statistics (mean/p50/p99 over thousands of probes), which is
exactly what ``tests/scale/test_hybrid_equivalence.py`` does at small N.

:func:`simulate_hybrid_link_probe` is the analytic bridge: the same fluid
machinery shaped like :func:`repro.analytic.workbench.simulate_link_probe`
(one-way delay, Poisson everything), so the M/G/1 mixture closed form
applies — the only independent oracle at populations where no exact run
can be afforded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analytic.workbench import LOAD_FRAME_BYTES, LinkProbeObservation
from ..errors import NetworkError
from ..net.link import Link
from ..net.loadgen import (
    DEFAULT_KEYSTROKE_BYTES,
    BatchPoissonSampler,
    OnOffLoadGenerator,
    PoissonLoadGenerator,
)
from ..net.packet import Packet
from ..net.ping import poisson_probes
from ..sim.engine import Simulator
from ..sim.rng import RngRegistry, derive_seed
from ..sim.stats import mean, percentile
from .population import DEFAULT_ECHO_BYTES, ClosedLoopSpec, PopulationSpec

#: Run modes: ``exact`` spawns one per-event generator per user (small N
#: only), ``hybrid`` carries the population as presampled fluid.
MODES = ("exact", "hybrid")

#: The ping budget probes are scored against: the 10 ms computing
#: threshold (PAPERS.md) — network round trips above it are perceptible.
PROBE_BUDGET_MS = 10.0

#: SLO target shared with the slo experiments.
PROBE_SLO_TARGET = 0.99


def _check_probe_window(
    probe_interval_ms: float, duration_ms: float, warmup_ms: float
) -> None:
    if probe_interval_ms <= 0:
        raise NetworkError("probe interval must be positive")
    if duration_ms <= warmup_ms:
        raise NetworkError("duration must exceed the warmup window")


def _probe_rtts(
    sim: Simulator,
    link: Link,
    rngs: RngRegistry,
    probe_interval_ms: float,
    warmup_ms: float,
    budget_ms: float,
):
    """Start the exact ping stream; returns its RTT list and SLO tracker."""
    from ..slo.budget import LatencyBudget, SloTracker

    rtts: List[float] = []
    tracker = SloTracker(
        LatencyBudget("probe_rtt", budget_ms, target=PROBE_SLO_TARGET)
    )

    def sample(sent_at: float, rtt: float) -> None:
        rtts.append(rtt)
        tracker.observe(sent_at, rtt)

    poisson_probes(
        sim,
        link,
        rngs.stream("scale:probes"),
        probe_interval_ms,
        warmup_ms,
        sample,
        echo=True,
    )
    return rtts, tracker


def _rtt_summary(kind: str, rtts: List[float], tracker) -> dict:
    """The RTT columns both curve points report, as constructor fields."""
    if not rtts:
        raise NetworkError(f"{kind} point produced no probe samples")
    report = tracker.report()
    return dict(
        samples=len(rtts),
        rtt_mean_ms=mean(rtts),
        rtt_p50_ms=percentile(rtts, 50.0),
        rtt_p90_ms=percentile(rtts, 90.0),
        rtt_p99_ms=percentile(rtts, 99.0),
        rtt_p999_ms=percentile(rtts, 99.9),
        violation_rate=report.violation_rate,
        budget_burn=report.budget_burn,
    )


@dataclass(frozen=True)
class LoadCurveObservation:
    """What one load-curve point measured.

    RTT statistics are exact sample percentiles over the probes'
    round-trip times (request + echo through the shared wire, the paper's
    §6.2 ping); ``violation_rate``/``budget_burn`` score the same series
    against the 10 ms probe budget through the SLO layer.
    ``utilization`` is offered background + measured probe load over the
    sampled window, as a fraction of capacity (the curves' x-axis).
    """

    users: int
    process: str
    mode: str
    offered_mbps: float
    utilization: float
    samples: int
    rtt_mean_ms: float
    rtt_p50_ms: float
    rtt_p90_ms: float
    rtt_p99_ms: float
    rtt_p999_ms: float
    violation_rate: float
    budget_burn: float
    duration_ms: float


def run_load_curve_point(
    users: int,
    *,
    process: str = "poisson",
    per_user_bps: float = 100.0,
    bandwidth_mbps: float = 10.0,
    packet_bytes: int = LOAD_FRAME_BYTES,
    tick_ms: float = 0.2,
    on_fraction: float = 0.25,
    cycle_ms: float = 500.0,
    probe_interval_ms: float = 5.0,
    duration_ms: float = 30_000.0,
    warmup_ms: float = 1_000.0,
    budget_ms: float = PROBE_BUDGET_MS,
    seed: int = 0,
    mode: str = "hybrid",
) -> LoadCurveObservation:
    """One RTT-vs-load point: *users* background users, ping probes.

    ``mode="exact"`` instantiates one per-event load generator per user
    (the pre-scale path — affordable to N≈64, the differential baseline);
    ``mode="hybrid"`` presamples the population's per-tick bytes and
    carries them as fluid.  Everything is a pure function of the
    parameters and *seed*, so points cache and parallelize
    byte-identically.
    """
    if mode not in MODES:
        raise NetworkError(f"unknown load-curve mode {mode!r}")
    _check_probe_window(probe_interval_ms, duration_ms, warmup_ms)
    spec = PopulationSpec(
        users=users,
        per_user_bps=per_user_bps,
        process=process,
        tick_ms=tick_ms,
        packet_bytes=packet_bytes,
        on_fraction=on_fraction,
        cycle_ms=cycle_ms,
    )
    rngs = RngRegistry(seed)
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=bandwidth_mbps)
    generators = []
    background = None
    if mode == "hybrid":
        from .population import BackgroundPopulation

        background = BackgroundPopulation(
            sim,
            link,
            spec,
            duration_ms=duration_ms,
            seed=derive_seed(seed, "scale:background"),
        )
    else:
        per_user_mbps = per_user_bps / 1e6
        for index in range(users):
            stream = rngs.stream(f"scale:background:{index}")
            if process == "poisson":
                generators.append(
                    PoissonLoadGenerator(
                        sim, link, per_user_mbps, stream,
                        packet_bytes=packet_bytes,
                    )
                )
            else:
                generators.append(
                    OnOffLoadGenerator(
                        sim, link, per_user_mbps, stream,
                        packet_bytes=packet_bytes,
                        on_fraction=on_fraction,
                        cycle_ms=cycle_ms,
                    )
                )
    rtts, tracker = _probe_rtts(
        sim, link, rngs, probe_interval_ms, warmup_ms, budget_ms
    )
    sim.run_until(duration_ms)
    for generator in generators:
        generator.stop()
    summary = _rtt_summary("load-curve", rtts, tracker)
    utilization = link.utilization(warmup_ms, duration_ms)
    if background is not None:
        utilization += background.utilization(warmup_ms, duration_ms)
    return LoadCurveObservation(
        users=users,
        process=process,
        mode=mode,
        offered_mbps=spec.offered_mbps,
        utilization=utilization,
        duration_ms=duration_ms - warmup_ms,
        **summary,
    )


@dataclass(frozen=True)
class ClosedCurveObservation:
    """What one closed-loop curve point measured.

    Probe RTT statistics are the same exact CO-safe ping series the open
    curve reports.  The closed-loop columns are the MVA quantities:
    ``throughput_per_ms`` is echo completions per ms over the measurement
    window (X(N)), ``per_session_keys_per_s`` its per-user share,
    ``mean_blocked`` the time-average sessions awaiting an echo (Little's
    L, so R = L/X).  ``mva_throughput_per_ms`` / ``mva_response_ms`` are
    the closed-network asymptotic bounds ``X ≤ min(N/(Z+D), 1/D)`` and
    ``R ≥ max(D, N·D − Z)`` — the overlay the tables print.
    """

    users: int
    mode: str
    utilization: float
    samples: int
    rtt_mean_ms: float
    rtt_p50_ms: float
    rtt_p90_ms: float
    rtt_p99_ms: float
    rtt_p999_ms: float
    violation_rate: float
    budget_burn: float
    keystrokes: int
    completions: int
    throughput_per_ms: float
    per_session_keys_per_s: float
    mean_blocked: float
    response_ms: float
    mva_throughput_per_ms: float
    mva_response_ms: float
    duration_ms: float


def run_closed_curve_point(
    users: int,
    *,
    think_ms: float = 10_000.0,
    type_ms: float = 300.0,
    burst_keys: float = 20.0,
    bandwidth_mbps: float = 10.0,
    keystroke_bytes: int = DEFAULT_KEYSTROKE_BYTES,
    echo_bytes: int = DEFAULT_ECHO_BYTES,
    tick_ms: float = 1.0,
    probe_interval_ms: float = 5.0,
    duration_ms: float = 30_000.0,
    warmup_ms: float = 1_000.0,
    budget_ms: float = PROBE_BUDGET_MS,
    seed: int = 0,
    mode: str = "hybrid",
) -> ClosedCurveObservation:
    """One closed-loop point: *users* typing sessions, ping probes.

    The closed-loop twin of :func:`run_load_curve_point`: background
    sessions think, type keystroke bursts, and block on their echoes over
    the shared link, so offered load self-throttles as latency grows —
    X(N) bends at the MVA knee instead of driving the wire off a cliff.
    ``mode="exact"`` runs one per-event session loop per user (keystroke
    packet out, echo packet back — the differential baseline);
    ``mode="hybrid"`` carries the population as count vectors + fluid.
    Probes are exact packets in both modes.  Everything is a pure
    function of the parameters and *seed*.
    """
    if mode not in MODES:
        raise NetworkError(f"unknown closed-curve mode {mode!r}")
    _check_probe_window(probe_interval_ms, duration_ms, warmup_ms)
    spec = ClosedLoopSpec(
        users=users,
        think_ms=think_ms,
        type_ms=type_ms,
        burst_keys=burst_keys,
        tick_ms=tick_ms,
        keystroke_bytes=keystroke_bytes,
        echo_bytes=echo_bytes,
    )
    rngs = RngRegistry(seed)
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=bandwidth_mbps)
    # Post-warmup closed-loop counters, shared by both modes.
    window = {"keys": 0, "done": 0, "blocked_ms": 0.0}
    background = None
    baseline = {}
    if mode == "hybrid":
        from .population import ClosedLoopPopulation

        background = ClosedLoopPopulation(
            sim,
            link,
            spec,
            duration_ms=duration_ms,
            seed=derive_seed(seed, "scale:background"),
        )

        def snapshot() -> None:
            sampler = background.sampler
            baseline["keys"] = sampler.keystrokes_total
            baseline["done"] = sampler.completions_total
            baseline["blocked_ticks"] = sampler.blocked_ticks
            baseline["ticks"] = sampler.ticks_sampled

        sim.schedule(warmup_ms, snapshot)
    else:
        continue_prob = 1.0 - 1.0 / burst_keys

        def launch_session(index: int) -> None:
            stream = rngs.stream(f"scale:closed:{index}")

            def think() -> None:
                sim.schedule(stream.expovariate(1.0 / think_ms), type_next)

            def type_next() -> None:
                sim.schedule(stream.expovariate(1.0 / type_ms), keystroke)

            def keystroke() -> None:
                sent_at = sim.now
                if sent_at >= warmup_ms:
                    window["keys"] += 1

                def at_server(packet: Packet) -> None:
                    link.send(
                        Packet(echo_bytes, channel="closed_echo"), echoed
                    )

                def echoed(packet: Packet) -> None:
                    if sent_at >= warmup_ms:
                        window["done"] += 1
                        window["blocked_ms"] += sim.now - sent_at
                    if stream.random() < continue_prob:
                        type_next()
                    else:
                        think()

                link.send(Packet(keystroke_bytes, channel="closed"), at_server)

            think()

        for index in range(users):
            launch_session(index)
    rtts, tracker = _probe_rtts(
        sim, link, rngs, probe_interval_ms, warmup_ms, budget_ms
    )
    sim.run_until(duration_ms)
    summary = _rtt_summary("closed-curve", rtts, tracker)
    measure_ms = duration_ms - warmup_ms
    if mode == "hybrid":
        sampler = background.sampler
        keys = sampler.keystrokes_total - baseline["keys"]
        done = sampler.completions_total - baseline["done"]
        ticks = sampler.ticks_sampled - baseline["ticks"]
        blocked = (
            (sampler.blocked_ticks - baseline["blocked_ticks"]) / ticks
            if ticks
            else 0.0
        )
        utilization = link.utilization(warmup_ms, duration_ms)
        utilization += background.utilization(warmup_ms, duration_ms)
    else:
        keys = window["keys"]
        done = window["done"]
        # Little's L over the window: total blocked-time per elapsed ms.
        blocked = window["blocked_ms"] / measure_ms
        utilization = link.utilization(warmup_ms, duration_ms)
    throughput = done / measure_ms
    response = blocked / throughput if throughput > 0 else 0.0
    # Closed-network asymptotes, per keystroke round: the wire is the one
    # queueing station (demand D), think + inter-keystroke time is the
    # delay station (Z; one think per burst_keys rounds), propagation
    # rides along as pure delay.
    demand_ms = spec.round_bytes / link.bytes_per_ms
    think_per_round = think_ms / burst_keys + type_ms + 2.0 * link.propagation_ms
    mva_throughput = min(
        users / (think_per_round + demand_ms), 1.0 / demand_ms
    )
    mva_response = max(demand_ms, users * demand_ms - think_per_round)
    return ClosedCurveObservation(
        users=users,
        mode=mode,
        utilization=utilization,
        keystrokes=keys,
        completions=done,
        throughput_per_ms=throughput,
        per_session_keys_per_s=throughput * 1000.0 / users,
        mean_blocked=blocked,
        response_ms=response,
        mva_throughput_per_ms=mva_throughput,
        mva_response_ms=mva_response,
        duration_ms=measure_ms,
        **summary,
    )


def simulate_hybrid_link_probe(
    rho: float,
    *,
    users: int = 100_000,
    bandwidth_mbps: float = 10.0,
    tick_ms: float = 0.1,
    probe_interval_ms: float = 5.0,
    duration_ms: float = 30_000.0,
    warmup_ms: float = 1_000.0,
    seed: int = 0,
) -> LinkProbeObservation:
    """One-way probe delay through a *fluid*-loaded link at load *rho*.

    The hybrid twin of
    :func:`repro.analytic.workbench.simulate_link_probe`: the offered
    1500-byte frames come from a :class:`BatchPoissonSampler` aggregating
    *users* sources (superposition-exact, so the M/G/1 mixture closed
    form still applies), the 64-byte probes are exact packets.
    ``mean_seen_in_system`` reports the workload each probe found,
    expressed in load-frame service times — the fluid analogue of the
    packets-in-system count.
    """
    if not 0.0 < rho < 1.0:
        raise NetworkError("offered utilization must be in (0, 1)")
    if users < 1:
        raise NetworkError("a population needs at least one user")
    _check_probe_window(probe_interval_ms, duration_ms, warmup_ms)
    rngs = RngRegistry(seed)
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=bandwidth_mbps)
    capacity = link.bytes_per_ms
    aggregate_rate = rho * capacity / LOAD_FRAME_BYTES  # frames per ms
    sampler = BatchPoissonSampler(
        aggregate_rate / users,
        tick_ms,
        sources=users,
        seed=derive_seed(seed, "scale:oracle:background"),
        packet_bytes=LOAD_FRAME_BYTES,
    )
    n_ticks = int(duration_ms // tick_ms) + 1
    from .fluid import FluidBackground

    fluid = FluidBackground(link, tick_ms, sampler.tick_bytes(n_ticks))
    frame_service_ms = LOAD_FRAME_BYTES / capacity
    delays: List[float] = []
    seen: List[float] = []
    poisson_probes(
        sim,
        link,
        rngs.stream("scale:oracle:probes"),
        probe_interval_ms,
        warmup_ms,
        lambda sent_at, delay: delays.append(delay),
        on_send=lambda sent_at: seen.append(
            fluid.queueing_delay_ms(sent_at) / frame_service_ms
        ),
    )
    sim.run_until(duration_ms)
    if not delays:
        raise NetworkError("hybrid link point produced no probe samples")
    return LinkProbeObservation(
        samples=len(delays),
        mean_delay_ms=mean(delays),
        mean_seen_in_system=mean(seen),
        utilization=fluid.utilization(warmup_ms, duration_ms)
        + link.utilization(warmup_ms, duration_ms),
        offered_mbps=rho * bandwidth_mbps,
        duration_ms=duration_ms - warmup_ms,
        delay_p90_ms=percentile(delays, 90.0),
        delay_p99_ms=percentile(delays, 99.0),
    )
