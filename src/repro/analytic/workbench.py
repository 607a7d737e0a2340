"""Small, model-faithful simulation points for analytic cross-validation.

Each driver here builds the *simulated* side of one predicted-vs-simulated
comparison, on the real kernel and the real network layer — the same hot
paths every experiment exercises — but shaped so a closed-form model
applies exactly:

* :func:`simulate_open_queue` — Poisson arrivals at a single FIFO station
  whose service times are drawn exponential or deterministic, built
  directly on :class:`~repro.sim.engine.Simulator` timers.  The M/M/1 and
  M/D/1 oracle for the event kernel itself.
* :func:`simulate_link_probe` — the actual :class:`~repro.net.link.Link`
  carrying :class:`~repro.net.loadgen.PoissonLoadGenerator` frames plus a
  Poisson stream of 64-byte probes whose one-way delay is measured.  The
  M/G/1 (mixture) oracle for the network layer — the Figures 8–9 hot path.
* :func:`simulate_closed_loop` — N sessions alternating exponential think
  time with one request to a shared exponential FIFO server: the fleet's
  closed-loop shape (one interaction in flight per session), and the Mean
  Value Analysis oracle.

Every driver is a pure function of its parameters and seed (named
:class:`~repro.sim.rng.RngRegistry` streams, insertion-ordered state), so
sweep points cache and parallelize byte-identically, and the differential
suites can compare kernels on them.

Measurements use PASTA deliberately: Poisson probes/arrivals see
time-average state, so the empirical means below estimate exactly the
quantities the closed forms predict.  Warmup windows discard the
empty-start transient before sampling begins.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from ..errors import AnalyticError
from ..net.link import Link
from ..net.loadgen import PoissonLoadGenerator
from ..net.ping import PING_PACKET_BYTES, poisson_probes
from ..sim.engine import Simulator
from ..sim.rng import RngRegistry
from ..sim.stats import mean, percentile
from ..units import mbps_to_bytes_per_ms

#: Probe packets are keystroke-sized, like the paper's ping (§6.2).
PROBE_BYTES = PING_PACKET_BYTES

#: Full-size load frames, matching the load generator's default.
LOAD_FRAME_BYTES = 1500


@dataclass(frozen=True)
class QueueObservation:
    """What one open-queue simulation point measured.

    ``mean_wait_ms``/``mean_sojourn_ms`` average the tagged customers'
    time-in-queue and time-in-system; ``mean_seen_in_system`` is the mean
    number of customers (waiting + in service) each tagged arrival found —
    by PASTA an estimate of L, comparable to the closed form's
    ``in_system``.  The p90/p99 fields are sample percentiles of the same
    series, the simulated side of the M/M/1 wait- and sojourn-tail
    quantiles (:func:`~repro.analytic.queueing.mm1_sojourn_quantile`).
    """

    samples: int
    mean_wait_ms: float
    mean_sojourn_ms: float
    mean_seen_in_system: float
    duration_ms: float
    wait_p90_ms: float = 0.0
    wait_p99_ms: float = 0.0
    sojourn_p90_ms: float = 0.0
    sojourn_p99_ms: float = 0.0


class _FifoStation:
    """A single-server FIFO queue living on simulator timers.

    Service times come from *service* (a zero-argument callable), so the
    same station body backs exponential (M/M/1) and deterministic (M/D/1)
    points.  Completion callbacks receive the enqueue and service-start
    times.
    """

    def __init__(self, sim: Simulator, service) -> None:
        self.sim = sim
        self.service = service
        self.busy = False
        self.queue: Deque = deque()
        self.in_system = 0

    def submit(self, done) -> None:
        """Enqueue one customer; *done(enqueued_at)* fires at completion."""
        self.in_system += 1
        self.queue.append((self.sim.now, done))
        if not self.busy:
            self._serve_next()

    def _serve_next(self) -> None:
        if not self.queue:
            self.busy = False
            return
        self.busy = True
        enqueued_at, done = self.queue.popleft()
        started = self.sim.now

        def complete() -> None:
            self.in_system -= 1
            done(enqueued_at, started)
            self._serve_next()

        self.sim.schedule(self.service(), complete)


def simulate_open_queue(
    arrival_rate: float,
    mean_service_ms: float,
    *,
    service: str = "exponential",
    duration_ms: float = 60_000.0,
    warmup_ms: float = 1_000.0,
    seed: int = 0,
) -> QueueObservation:
    """One M/M/1 (or M/D/1) simulation point on raw kernel timers.

    Poisson arrivals at *arrival_rate* (per ms) join a single FIFO station
    with mean service *mean_service_ms*; *service* selects
    ``"exponential"`` or ``"deterministic"`` draws.  Samples arriving
    after *warmup_ms* contribute to the averages.
    """
    if arrival_rate <= 0:
        raise AnalyticError("arrival rate must be positive")
    if mean_service_ms <= 0:
        raise AnalyticError("mean service time must be positive")
    if duration_ms <= warmup_ms:
        raise AnalyticError("duration must exceed the warmup window")
    rngs = RngRegistry(seed)
    arrivals = rngs.stream("open:arrivals")
    services = rngs.stream("open:service")
    if service == "exponential":
        draw = lambda: services.expovariate(1.0 / mean_service_ms)  # noqa: E731
    elif service == "deterministic":
        draw = lambda: mean_service_ms  # noqa: E731
    else:
        raise AnalyticError(f"unknown service distribution {service!r}")
    sim = Simulator()
    station = _FifoStation(sim, draw)
    waits: List[float] = []
    sojourns: List[float] = []
    seen: List[float] = []

    def completed(enqueued_at: float, started: float) -> None:
        if enqueued_at >= warmup_ms:
            waits.append(started - enqueued_at)
            sojourns.append(sim.now - enqueued_at)

    def arrive() -> None:
        if sim.now >= warmup_ms:
            seen.append(float(station.in_system))
        station.submit(completed)
        sim.schedule(arrivals.expovariate(arrival_rate), arrive)

    sim.schedule(arrivals.expovariate(arrival_rate), arrive)
    sim.run_until(duration_ms)
    if not waits:
        raise AnalyticError("open-queue point produced no samples")
    return QueueObservation(
        samples=len(waits),
        mean_wait_ms=mean(waits),
        mean_sojourn_ms=mean(sojourns),
        mean_seen_in_system=mean(seen),
        duration_ms=duration_ms - warmup_ms,
        wait_p90_ms=percentile(waits, 90.0),
        wait_p99_ms=percentile(waits, 99.0),
        sojourn_p90_ms=percentile(sojourns, 90.0),
        sojourn_p99_ms=percentile(sojourns, 99.0),
    )


@dataclass(frozen=True)
class LinkProbeObservation:
    """What one loaded-link simulation point measured.

    ``mean_delay_ms`` is the probes' one-way delay (queue wait + own
    transmission + propagation); ``mean_seen_in_system`` the packets
    (queued + on the wire) each probe found at send time; ``utilization``
    the link's measured busy fraction over the sampled window.  The
    p90/p99 delay fields are sample percentiles of the same delays — the
    simulated side the Markov tail bound
    (:func:`~repro.analytic.queueing.mg1_wait_quantile_bound`) must cap.
    """

    samples: int
    mean_delay_ms: float
    mean_seen_in_system: float
    utilization: float
    offered_mbps: float
    duration_ms: float
    delay_p90_ms: float = 0.0
    delay_p99_ms: float = 0.0


def simulate_link_probe(
    rho: float,
    *,
    bandwidth_mbps: float = 10.0,
    probe_interval_ms: float = 5.0,
    duration_ms: float = 30_000.0,
    warmup_ms: float = 1_000.0,
    seed: int = 0,
) -> LinkProbeObservation:
    """One-way probe delay through the shared link at offered load *rho*.

    A :class:`~repro.net.loadgen.PoissonLoadGenerator` offers
    ``rho * bandwidth_mbps`` of 1500-byte frames while 64-byte probes
    arrive as their own Poisson stream (mean *probe_interval_ms* apart) on
    the same FIFO wire — the Figures 8–9 medium, instrumented for the
    per-packet delay P–K predicts.
    """
    if not 0.0 < rho < 1.0:
        raise AnalyticError("offered utilization must be in (0, 1)")
    if probe_interval_ms <= 0:
        raise AnalyticError("probe interval must be positive")
    if duration_ms <= warmup_ms:
        raise AnalyticError("duration must exceed the warmup window")
    rngs = RngRegistry(seed)
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=bandwidth_mbps)
    load = PoissonLoadGenerator(
        sim,
        link,
        rho * bandwidth_mbps,
        rngs.stream("link:load"),
        packet_bytes=LOAD_FRAME_BYTES,
    )
    delays: List[float] = []
    seen: List[float] = []

    def arrival(sent_at: float) -> None:
        # Waiting packets plus the one on the wire: what this arrival
        # "sees in system", the PASTA estimate of L.
        seen.append(link.queue_depth + (1.0 if link.busy else 0.0))

    poisson_probes(
        sim,
        link,
        rngs.stream("link:probes"),
        probe_interval_ms,
        warmup_ms,
        lambda sent_at, delay: delays.append(delay),
        on_send=arrival,
    )
    sim.run_until(duration_ms)
    load.stop()
    if not delays:
        raise AnalyticError("link point produced no probe samples")
    return LinkProbeObservation(
        samples=len(delays),
        mean_delay_ms=mean(delays),
        mean_seen_in_system=mean(seen),
        utilization=link.utilization(warmup_ms, duration_ms),
        offered_mbps=rho * bandwidth_mbps,
        duration_ms=duration_ms - warmup_ms,
        delay_p90_ms=percentile(delays, 90.0),
        delay_p99_ms=percentile(delays, 99.0),
    )


@dataclass(frozen=True)
class ClosedLoopObservation:
    """What one closed-loop simulation point measured.

    ``throughput`` counts completed interactions per ms over the sampled
    window; ``mean_response_ms`` averages enqueue-to-completion times —
    the two quantities exact MVA predicts as X(N) and R(N).
    """

    sessions: int
    completions: int
    throughput: float
    mean_response_ms: float
    duration_ms: float


def simulate_closed_loop(
    sessions: int,
    *,
    think_ms: float = 200.0,
    service_ms: float = 10.0,
    duration_ms: float = 60_000.0,
    warmup_ms: float = 2_000.0,
    seed: int = 0,
) -> ClosedLoopObservation:
    """N think/interact sessions sharing one exponential FIFO server.

    Each session draws an exponential think time (mean *think_ms*),
    submits exactly one request to the shared station (exponential
    service, mean *service_ms*), waits for completion, and thinks again —
    the fleet's one-in-flight closed loop, in the product-form shape exact
    MVA solves.
    """
    if sessions < 1:
        raise AnalyticError("a closed loop needs at least one session")
    if think_ms <= 0 or service_ms <= 0:
        raise AnalyticError("think and service times must be positive")
    if duration_ms <= warmup_ms:
        raise AnalyticError("duration must exceed the warmup window")
    rngs = RngRegistry(seed)
    sim = Simulator()
    station = _FifoStation(
        sim, lambda: rngs.stream("closed:service").expovariate(1.0 / service_ms)
    )
    responses: List[float] = []
    completions = [0]

    def spawn(index: int) -> None:
        think_rng = rngs.stream(f"closed:think:{index}")

        def think() -> None:
            sim.schedule(think_rng.expovariate(1.0 / think_ms), submit)

        def submit() -> None:
            station.submit(completed)

        def completed(enqueued_at: float, started: float) -> None:
            if enqueued_at >= warmup_ms:
                completions[0] += 1
                responses.append(sim.now - enqueued_at)
            think()

        think()

    for index in range(sessions):
        spawn(index)
    sim.run_until(duration_ms)
    if not responses:
        raise AnalyticError("closed-loop point produced no samples")
    return ClosedLoopObservation(
        sessions=sessions,
        completions=completions[0],
        throughput=completions[0] / (duration_ms - warmup_ms),
        mean_response_ms=mean(responses),
        duration_ms=duration_ms - warmup_ms,
    )
