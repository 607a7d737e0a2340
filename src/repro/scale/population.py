"""A background population deployed onto one server (or one bare link).

:class:`BackgroundPopulation` is the glue between the vectorized samplers
(:mod:`repro.net.loadgen`) and the simulated machine: it draws the whole
run's per-tick aggregate packet counts up front, offers the byte totals
to the link as fluid work (:class:`~repro.scale.fluid.FluidBackground`),
and — when the population also consumes CPU — submits one aggregated
:class:`~repro.cpu.thread.Burst` per tick to the server's scheduler
through a single background thread.  Total simulator cost is O(ticks)
regardless of how many users the spec describes.

The CPU side deliberately stays on the real scheduler: the probe
sessions' keystroke-echo threads then contend with the background demand
under the actual policy (NT boost, Linux goodness, SVR4 IA) rather than
an analytic approximation, which is what makes the fleet-scale frontier
(:func:`repro.scale.experiments.scale_fleet`) a statement about the
paper's schedulers and not just about a queueing formula.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import NetworkError
from ..net.loadgen import (
    DEFAULT_KEYSTROKE_BYTES,
    DEFAULT_LOAD_PACKET_BYTES,
    BatchClosedLoopSampler,
    BatchOnOffSampler,
    BatchPoissonSampler,
)
from .fluid import FluidBackground

#: Processes the batch tier knows how to sample.
PROCESSES = ("poisson", "onoff")

#: Wire bytes of one echoed display update (matches the fleet's frames).
DEFAULT_ECHO_BYTES = 200


@dataclass(frozen=True)
class PopulationSpec:
    """A homogeneous background population, described statistically.

    ``per_user_bps`` is each user's long-run offered load in bits/s —
    thin-client update traffic is tens-to-hundreds of bits per second per
    idle-ish user and spikes during interaction, so specs pair a large
    ``users`` with a small ``per_user_bps``.  ``cpu_ms_per_packet`` maps
    each background packet to scheduler demand (0 disables the CPU side).
    """

    users: int
    per_user_bps: float
    process: str = "poisson"
    tick_ms: float = 50.0
    packet_bytes: int = DEFAULT_LOAD_PACKET_BYTES
    on_fraction: float = 0.25
    cycle_ms: float = 500.0
    cpu_ms_per_packet: float = 0.0
    cpu_threads: int = 8

    def __post_init__(self) -> None:
        if self.users < 1:
            raise NetworkError("a population needs at least one user")
        if self.per_user_bps <= 0:
            raise NetworkError("per-user offered load must be positive")
        if self.process not in PROCESSES:
            raise NetworkError(f"unknown background process {self.process!r}")
        if self.cpu_ms_per_packet < 0:
            raise NetworkError("cpu_ms_per_packet cannot be negative")
        if self.cpu_threads < 1:
            raise NetworkError("a population needs at least one cpu thread")

    @property
    def per_user_rate_per_ms(self) -> float:
        """Packets per ms offered by one user."""
        return self.per_user_bps / 8.0 / 1000.0 / self.packet_bytes

    @property
    def offered_mbps(self) -> float:
        """Aggregate long-run offered load of the whole population."""
        return self.users * self.per_user_bps / 1e6

    def sampler(self, seed: int):
        """Build the vectorized sampler for this spec."""
        if self.process == "poisson":
            return BatchPoissonSampler(
                self.per_user_rate_per_ms,
                self.tick_ms,
                sources=self.users,
                seed=seed,
                packet_bytes=self.packet_bytes,
            )
        return BatchOnOffSampler(
            self.per_user_rate_per_ms,
            self.tick_ms,
            sources=self.users,
            seed=seed,
            on_fraction=self.on_fraction,
            cycle_ms=self.cycle_ms,
            packet_bytes=self.packet_bytes,
        )


class BackgroundPopulation:
    """One spec's worth of users, deployed as fluid + aggregate bursts.

    Parameters
    ----------
    sim, link:
        The simulator and the (quiet) link the population loads.
    spec:
        The statistical description of the population.
    duration_ms:
        How long the population offers load; ticks are presampled to
        cover exactly this horizon.
    seed:
        Sampler seed (derive one per population for independence).
    cpu:
        Optional scheduler; with ``spec.cpu_ms_per_packet > 0`` the
        population submits ``count * cpu_ms_per_packet`` of demand per
        tick through one background thread.
    """

    def __init__(self, sim, link, spec: PopulationSpec, *, duration_ms: float,
                 seed: int = 0, cpu=None) -> None:
        if duration_ms <= 0:
            raise NetworkError("population duration must be positive")
        self.sim = sim
        self.link = link
        self.spec = spec
        self.seed = seed
        n_ticks = int(duration_ms // spec.tick_ms)
        if n_ticks * spec.tick_ms < duration_ms:
            n_ticks += 1
        sampler = spec.sampler(seed)
        counts = sampler.tick_counts(n_ticks)
        self.packets_offered = int(counts.sum())
        self.fluid = FluidBackground(
            link, spec.tick_ms, counts * float(spec.packet_bytes)
        )
        self.cpu_threads = []
        if cpu is not None and spec.cpu_ms_per_packet > 0:
            from ..cpu.thread import Burst, Thread

            # Background users are interactive sessions too: their server
            # -side display work rides the same scheduling class the probe
            # echoes do (NT's GUI boost, SVR4's IA class).  The demand
            # fans across a worker pool rather than one aggregate thread:
            # under round-robin a single thread costs a competitor at
            # most one quantum regardless of its backlog, so collapsing a
            # population into one thread would erase the run-queue
            # contention that N real sessions exert (§4's axis).
            for worker in range(spec.cpu_threads):
                thread = Thread(
                    f"background:{link.name}:{worker}",
                    gui=True,
                    foreground=True,
                    session="background",
                )
                cpu.add_thread(thread)
                self.cpu_threads.append(thread)
            share = spec.cpu_ms_per_packet / spec.cpu_threads
            # Materialize the per-tick demands as plain floats once: the
            # submit callback runs every tick on the hot path, and plain
            # list indexing avoids boxing a fresh numpy scalar per tick.
            demands = (counts * share).tolist()
            index = [0]
            pool = self.cpu_threads

            def submit_tick() -> None:
                i = index[0]
                if i >= n_ticks:
                    return
                index[0] = i + 1
                demand = demands[i]
                if demand > 0.0:
                    for thread in pool:
                        cpu.submit(thread, Burst(demand))

            # First tick's demand lands at t=0+tick (work arrives during the
            # tick, billed at its close), then every tick thereafter.
            sim.every(spec.tick_ms, submit_tick)

    @property
    def offered_mbps(self) -> float:
        """Aggregate long-run offered load of the deployed population."""
        return self.spec.offered_mbps

    def utilization(self, t0: float, t1: float) -> float:
        """Background offered load over ``[t0, t1)`` vs link capacity."""
        return self.fluid.utilization(t0, t1)


@dataclass(frozen=True)
class ClosedLoopSpec:
    """A homogeneous *closed-loop* typing population.

    Unlike :class:`PopulationSpec`, these users do not offer load at a
    fixed rate: each cycles think → typing burst → blocked-on-echo, so
    the offered load **self-throttles** when the echo path slows down —
    the paper's actual workload, and the regime where closed-network
    models (MVA) apply.  ``cpu_ms_per_echo`` maps each keystroke's
    server-side display work to scheduler demand (0 disables the CPU
    side); ``burst_keys`` is the mean geometric burst length.
    """

    users: int
    think_ms: float = 10_000.0
    type_ms: float = 300.0
    burst_keys: float = 20.0
    tick_ms: float = 10.0
    keystroke_bytes: int = DEFAULT_KEYSTROKE_BYTES
    echo_bytes: int = DEFAULT_ECHO_BYTES
    cpu_ms_per_echo: float = 0.0
    cpu_threads: int = 8

    def __post_init__(self) -> None:
        if self.users < 1:
            raise NetworkError("a population needs at least one user")
        if self.think_ms <= 0 or self.type_ms <= 0:
            raise NetworkError("think and type means must be positive")
        if self.burst_keys < 1.0:
            raise NetworkError("burst_keys is a mean burst length, must be >= 1")
        if self.tick_ms <= 0:
            raise NetworkError("tick_ms must be positive")
        if self.keystroke_bytes <= 0 or self.echo_bytes <= 0:
            raise NetworkError("keystroke and echo frames need positive size")
        if self.cpu_ms_per_echo < 0:
            raise NetworkError("cpu_ms_per_echo cannot be negative")
        if self.cpu_threads < 1:
            raise NetworkError("a population needs at least one cpu thread")

    @property
    def round_bytes(self) -> int:
        """Wire bytes one keystroke-echo round puts on the shared link."""
        return self.keystroke_bytes + self.echo_bytes

    @property
    def nominal_keys_per_ms(self) -> float:
        """Zero-latency keystroke rate of the whole population (upper bound).

        One cycle spends ``think_ms`` thinking plus ``burst_keys·type_ms``
        typing and emits ``burst_keys`` keystrokes; actual throughput is
        lower because blocked-on-echo time stretches the cycle — that gap
        *is* the closed-loop effect the tier reproduces.
        """
        cycle_ms = self.think_ms + self.burst_keys * self.type_ms
        return self.users * self.burst_keys / cycle_ms

    @property
    def offered_mbps(self) -> float:
        """Zero-latency aggregate offered load (keystrokes + echoes)."""
        return self.nominal_keys_per_ms * self.round_bytes * 8.0 / 1000.0

    def sampler(self, seed: int) -> BatchClosedLoopSampler:
        """Build the count-vector sampler for this spec.

        The sampler's own echo model is never consulted when a
        :class:`ClosedLoopPopulation` drives it (completions come from the
        link feedback), but ``echo_ms=tick_ms`` gives the stationary
        starting split a one-tick nominal echo — the floor the tick
        quantization enforces — so the chain starts near its operating
        point instead of fully cold.
        """
        return BatchClosedLoopSampler(
            self.think_ms,
            self.type_ms,
            self.tick_ms,
            self.tick_ms,
            sources=self.users,
            seed=seed,
            burst_keys=self.burst_keys,
            echo_servers=None,
            keystroke_bytes=self.keystroke_bytes,
        )


class ClosedLoopPopulation:
    """N closed-loop typing sessions as counts + fluid + aggregate bursts.

    The open :class:`BackgroundPopulation` presamples its whole horizon;
    a closed-loop population cannot, because each tick's keystrokes
    depend on the echo latency earlier ticks produced.  Instead the
    driver runs once per tick boundary:

    1. **Complete** pending echo batches whose estimated completion time
       has arrived, unblocking that many sessions in the count chain.
    2. **Step** the :class:`BatchClosedLoopSampler` one tick — binomial
       think→type and keystroke draws — yielding this tick's keystrokes.
    3. **Offer** the keystroke + echo bytes into the streaming
       :class:`FluidBackground` (probes then see them in ``W(t)``) and
       submit the aggregated CPU demand to the real scheduler.
    4. **Estimate** when this tick's batch of echoes completes, mirroring
       the link's own hybrid FIFO arithmetic
       (:meth:`repro.net.link.Link._send_hybrid`): keystroke waits the
       unfinished work ``W(t)``, transits, crosses the scheduler (a
       private backlog integrator over the population's own demand plus
       ``cpu_ms_per_echo`` service), and the echo waits ``W`` again
       coming back.  Completion times are clamped monotone — the wire is
       FIFO, a later batch can never finish first.

    The estimate is the tier's one new approximation: responses quantize
    to tick boundaries (≥ 1 tick floor) and both directions read ``W``
    at the emission tick.  Both errors vanish as ``tick_ms`` shrinks;
    the differential suite pins them against exact per-session loops at
    N=32 and the MVA oracle checks X(N)/R(N) at scale.

    Total cost is O(ticks) scalar work — no per-tick numpy allocations —
    independent of how many sessions the spec describes.
    """

    def __init__(self, sim, link, spec: ClosedLoopSpec, *, duration_ms: float,
                 seed: int = 0, cpu=None) -> None:
        if duration_ms <= 0:
            raise NetworkError("population duration must be positive")
        self.sim = sim
        self.link = link
        self.spec = spec
        self.seed = seed
        n_ticks = int(duration_ms // spec.tick_ms)
        if n_ticks * spec.tick_ms < duration_ms:
            n_ticks += 1
        self.n_ticks = n_ticks
        self.sampler = spec.sampler(seed)
        self.fluid = FluidBackground(link, spec.tick_ms, ())
        #: Pending (completion_time_ms, sessions) echo batches, FIFO.
        self._pending = deque()
        self._last_done_ms = 0.0
        self._cpu_backlog_ms = 0.0  # the population's own scheduler backlog
        self._cpu_demand_prev = 0.0  # aggregate CPU demand of the last tick
        self._tick_index = 0
        # One keystroke-echo round's wire time, both directions.
        self._round_wire_ms = spec.round_bytes / link.bytes_per_ms
        self._prop_ms = 2.0 * link.propagation_ms
        self.cpu = cpu if spec.cpu_ms_per_echo > 0 else None
        self.cpu_threads = []
        if self.cpu is not None:
            from ..cpu.thread import Thread

            # Same worker-pool shape as BackgroundPopulation: background
            # sessions contend on the real scheduler so probe echoes pay
            # real run-queue contention, not an analytic proxy.
            for worker in range(spec.cpu_threads):
                thread = Thread(
                    f"closedloop:{link.name}:{worker}",
                    gui=True,
                    foreground=True,
                    session="background",
                )
                self.cpu.add_thread(thread)
                self.cpu_threads.append(thread)
        # Tick 0 fires at t=now: the fluid tick must be appended at its
        # *start* so probes inside the tick see the inflow.
        sim.every(spec.tick_ms, self._on_tick, start=0.0)

    def _on_tick(self) -> None:
        if self._tick_index >= self.n_ticks:
            return
        self._tick_index += 1
        now = self.sim.now
        spec = self.spec
        tick = spec.tick_ms
        # 1. Unblock sessions whose estimated echo completion has passed.
        pending = self._pending
        done = 0
        while pending and pending[0][0] <= now:
            done += pending.popleft()[1]
        # 2. One binomial step of the count chain.
        keys, _ = self.sampler.step(completions=done)
        # 3a. This tick's wire bytes, smeared over [now, now + tick).
        self.fluid.offer_tick(keys * spec.round_bytes)
        # 3b. Aggregated scheduler demand: the previous tick's keystrokes
        # are billed at their tick's close, like the open population.
        if self.cpu is not None:
            if self._cpu_demand_prev > 0.0:
                from ..cpu.thread import Burst

                share = self._cpu_demand_prev / spec.cpu_threads
                for thread in self.cpu_threads:
                    self.cpu.submit(thread, Burst(share))
            # The aggregated-scheduler estimate: one CPU serves the
            # population's whole demand (the worker pool shapes *who*
            # contends, not how much capacity exists), so the private
            # backlog drains at one tick of service per tick.
            backlog = self._cpu_backlog_ms + self._cpu_demand_prev - tick
            self._cpu_backlog_ms = backlog if backlog > 0.0 else 0.0
            self._cpu_demand_prev = keys * spec.cpu_ms_per_echo
        # 4. Estimate this batch's echo completion via the hybrid FIFO
        # arithmetic: W(now) each way + wire service + propagation + the
        # scheduler crossing.
        if keys:
            wait = self.fluid.queueing_delay_ms(now)
            response = (
                2.0 * wait
                + self._round_wire_ms
                + self._prop_ms
                + self._cpu_backlog_ms
                + spec.cpu_ms_per_echo
            )
            done_at = now + response
            if done_at < self._last_done_ms:
                done_at = self._last_done_ms  # FIFO: no overtaking
            self._last_done_ms = done_at
            pending.append((done_at, keys))

    # -- reporting ---------------------------------------------------------

    @property
    def offered_mbps(self) -> float:
        """Zero-latency aggregate offered load of the deployed spec."""
        return self.spec.offered_mbps

    @property
    def keystrokes_total(self) -> int:
        """Keystrokes the population has emitted so far."""
        return self.sampler.keystrokes_total

    @property
    def completions_total(self) -> int:
        """Echo completions delivered back to the population so far."""
        return self.sampler.completions_total

    @property
    def throughput_per_ms(self) -> float:
        """Echo completions per simulated ms (the MVA X, per population)."""
        return self.sampler.throughput_per_ms

    @property
    def mean_blocked(self) -> float:
        """Time-average sessions blocked on echo (Little's L)."""
        return self.sampler.mean_blocked

    def utilization(self, t0: float, t1: float) -> float:
        """Background offered load over ``[t0, t1)`` vs link capacity."""
        return self.fluid.utilization(t0, t1)
