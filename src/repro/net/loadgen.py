"""Synthetic offered load (Figures 8–9's x-axis).

A Poisson packet generator: exponential inter-arrivals at the rate that
yields the requested offered load in Mbps, fixed-size frames.  The paper
"produced synthetic TCP/IP network load on our experimental testbed"; the
generator is the simulation equivalent.

:class:`OnOffLoadGenerator` adds the bursty counterpart: a two-state
Markov-modulated Poisson process (exponential ON/OFF holding times,
Poisson arrivals only while ON) calibrated so its *mean* rate equals the
requested Mbps.  Equal-mean Poisson vs on-off is the classic tail
experiment — means match, p99 does not — and the ``slo_burst`` scenario
races exactly that pair.

**Batch sampling** (:class:`BatchPoissonSampler`,
:class:`BatchOnOffSampler`, :class:`BatchClosedLoopSampler`) is the
heavy-traffic tier's vectorized twin of the per-event generators: instead
of one simulator event per packet, a sampler draws *per-tick aggregate
packet counts* for a whole run in a few numpy calls.  The Poisson sampler
is statistically **exact** — the superposition of N independent Poisson
streams at rate λ is one Poisson stream at N·λ, so the aggregate per-tick
counts have exactly the law the per-event generators would produce.  The
on-off sampler aggregates N independent two-state sources by tracking only
the *number* of ON sources (a count-level Markov chain stepped once per
tick: two binomial flips plus one Poisson count draw), which is exact up
to within-tick state constancy.  The closed-loop sampler does the same
for *typing* sessions — counts over a thinking / typing / blocked-on-echo
chain, binomial transition draws per tick — so keystroke load that
self-throttles under latency (the paper's defining workload) vectorizes
too.  All consume split-stable numpy PCG64 child streams, one per
purpose, so drawing ticks in one batch or many produces identical values —
``tests/scale/test_batch_sampling.py`` pins that boundary invariance.

numpy is a declared runtime dependency (the hybrid-tier experiments need
it), but it is imported lazily: the per-event generators above never touch
it, so importing the package and running the per-event experiments does
not pay numpy's import cost.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from ..errors import NetworkError
from ..sim.engine import Event, Simulator
from ..sim.rng import derive_seed
from ..units import mbps_to_bytes_per_ms
from .link import Link
from .packet import Packet

#: Full-size data frames, the natural choice for bulk synthetic load.
DEFAULT_LOAD_PACKET_BYTES = 1500


class PoissonLoadGenerator:
    """Offers *mbps* of load to *link* until stopped."""

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        mbps: float,
        rng: random.Random,
        *,
        packet_bytes: int = DEFAULT_LOAD_PACKET_BYTES,
        channel: str = "load",
    ) -> None:
        if mbps < 0:
            raise NetworkError("offered load cannot be negative")
        if packet_bytes <= 0:
            raise NetworkError("load packets must have positive size")
        self.sim = sim
        self.link = link
        self.mbps = mbps
        self.rng = rng
        self.packet_bytes = packet_bytes
        self.channel = channel
        self.packets_offered = 0
        self._stopped = False
        self._next: Optional[Event] = None
        if mbps > 0:
            self._mean_interarrival_ms = packet_bytes / mbps_to_bytes_per_ms(mbps)
            self._schedule_next()
        else:
            self._mean_interarrival_ms = float("inf")

    def _schedule_next(self) -> None:
        delay = self.rng.expovariate(1.0 / self._mean_interarrival_ms)
        self._next = self.sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.link.send(Packet(self.packet_bytes, channel=self.channel))
        self.packets_offered += 1
        self._schedule_next()

    def stop(self) -> None:
        """Stop offering load; any queued arrival is cancelled."""
        self._stopped = True
        if self._next is not None:
            self._next.cancel()


class OnOffLoadGenerator:
    """Bursty offered load: a two-state MMPP with the same mean as *mbps*.

    The generator alternates between ON and OFF states with exponential
    holding times.  A full ON+OFF cycle averages *cycle_ms*, of which the
    ON state occupies *on_fraction*; while ON, packets arrive as a Poisson
    stream at rate ``mbps / on_fraction``, so the long-run mean offered
    load is exactly *mbps* — the equal-mean twin of
    :class:`PoissonLoadGenerator` with a burstier interarrival law.

    All randomness (holding times and interarrivals) draws from the single
    *rng* in event order, so runs are deterministic per seed.  The
    generator starts in the ON state.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        mbps: float,
        rng: random.Random,
        *,
        on_fraction: float = 0.25,
        cycle_ms: float = 500.0,
        packet_bytes: int = DEFAULT_LOAD_PACKET_BYTES,
        channel: str = "load",
    ) -> None:
        if mbps < 0:
            raise NetworkError("offered load cannot be negative")
        if not 0.0 < on_fraction <= 1.0:
            raise NetworkError(
                f"on_fraction must be in (0, 1], got {on_fraction}"
            )
        if cycle_ms <= 0:
            raise NetworkError("burst cycle must have positive length")
        if packet_bytes <= 0:
            raise NetworkError("load packets must have positive size")
        self.sim = sim
        self.link = link
        self.mbps = mbps
        self.rng = rng
        self.on_fraction = on_fraction
        self.cycle_ms = cycle_ms
        self.packet_bytes = packet_bytes
        self.channel = channel
        self.packets_offered = 0
        self.on = True
        self._stopped = False
        self._next: Optional[Event] = None
        self._flip: Optional[Event] = None
        self._mean_on_ms = on_fraction * cycle_ms
        self._mean_off_ms = (1.0 - on_fraction) * cycle_ms
        if mbps > 0:
            burst_rate = mbps / on_fraction
            self._mean_interarrival_ms = (
                self.packet_bytes / mbps_to_bytes_per_ms(burst_rate)
            )
            self._schedule_arrival()
            self._schedule_flip()

    def _schedule_arrival(self) -> None:
        delay = self.rng.expovariate(1.0 / self._mean_interarrival_ms)
        self._next = self.sim.schedule(delay, self._fire)

    def _schedule_flip(self) -> None:
        # on_fraction == 1 degenerates to pure Poisson: never leave ON.
        if self._mean_off_ms <= 0:
            return
        mean = self._mean_on_ms if self.on else self._mean_off_ms
        self._flip = self.sim.schedule(self.rng.expovariate(1.0 / mean), self._toggle)

    def _toggle(self) -> None:
        if self._stopped:
            return
        self.on = not self.on
        if self.on:
            self._schedule_arrival()
        elif self._next is not None:
            self._next.cancel()
            self._next = None
        self._schedule_flip()

    def _fire(self) -> None:
        if self._stopped or not self.on:
            return
        self.link.send(Packet(self.packet_bytes, channel=self.channel))
        self.packets_offered += 1
        self._schedule_arrival()

    def stop(self) -> None:
        """Stop offering load; queued arrivals and state flips are cancelled."""
        self._stopped = True
        if self._next is not None:
            self._next.cancel()
        if self._flip is not None:
            self._flip.cancel()


# --- batch (vectorized) sampling ---------------------------------------------


def _numpy():
    """Import numpy on demand; the per-event path never needs it."""
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - a declared dependency
        raise NetworkError(
            "batch load sampling requires numpy, a declared dependency of "
            "this package; reinstall it or use the per-event generators"
        ) from exc
    return numpy


def _generator(seed: int, purpose: str):
    """A PCG64 stream derived from (*seed*, *purpose*).

    Each sampler purpose (state chain, counts, interarrivals) gets its own
    stream, so a batch split across several calls consumes each stream
    sequentially — numpy fills arrays one variate at a time, which makes
    ``sample(a); sample(b)`` byte-identical to ``sample(a + b)``.
    """
    np = _numpy()
    return np.random.Generator(np.random.PCG64(derive_seed(seed, purpose)))


class BatchPoissonSampler:
    """Vectorized per-tick packet counts for a homogeneous Poisson population.

    Represents *sources* independent Poisson packet streams, each at
    *rate_per_ms* packets/ms, aggregated per tick of *tick_ms*: the counts
    are ``Poisson(sources · rate_per_ms · tick_ms)`` draws — the exact law
    of the superposed stream, at O(1) cost per tick instead of one
    simulator event per packet.  The sampler holds generator state, so
    consecutive :meth:`tick_counts` calls continue the same realization.
    """

    def __init__(
        self,
        rate_per_ms: float,
        tick_ms: float,
        *,
        sources: int = 1,
        seed: int = 0,
        packet_bytes: int = DEFAULT_LOAD_PACKET_BYTES,
    ) -> None:
        if rate_per_ms < 0:
            raise NetworkError("batch arrival rate cannot be negative")
        if tick_ms <= 0:
            raise NetworkError("batch tick must have positive length")
        if sources < 1:
            raise NetworkError("a batch population needs at least one source")
        if packet_bytes <= 0:
            raise NetworkError("load packets must have positive size")
        self.rate_per_ms = rate_per_ms
        self.tick_ms = tick_ms
        self.sources = sources
        self.packet_bytes = packet_bytes
        self.ticks_sampled = 0
        self._counts = _generator(seed, "batch:poisson:counts")
        self._gaps = _generator(seed, "batch:poisson:gaps")

    @property
    def aggregate_rate_per_ms(self) -> float:
        """The superposed packet rate N·λ (packets/ms)."""
        return self.sources * self.rate_per_ms

    @property
    def mean_per_tick(self) -> float:
        """Expected packets per tick of the aggregated stream."""
        return self.aggregate_rate_per_ms * self.tick_ms

    def tick_counts(self, n_ticks: int):
        """Packet counts for the next *n_ticks* ticks (numpy int array)."""
        if n_ticks < 0:
            raise NetworkError("cannot sample a negative number of ticks")
        self.ticks_sampled += n_ticks
        return self._counts.poisson(self.mean_per_tick, size=n_ticks)

    def tick_bytes(self, n_ticks: int):
        """Offered bytes for the next *n_ticks* ticks (numpy int array)."""
        return self.tick_counts(n_ticks) * self.packet_bytes

    def interarrivals(self, n: int):
        """*n* aggregate-stream interarrival gaps (ms, numpy float array).

        Drawn from an independent child stream, so mixing count and gap
        sampling never perturbs either sequence.  The gaps are exponential
        at the superposed rate — the distribution the per-event
        :class:`PoissonLoadGenerator` realizes one event at a time.
        """
        if n < 0:
            raise NetworkError("cannot sample a negative number of gaps")
        if self.aggregate_rate_per_ms <= 0:
            raise NetworkError("interarrivals need a positive rate")
        return self._gaps.exponential(
            1.0 / self.aggregate_rate_per_ms, size=n
        )


class BatchOnOffSampler:
    """Vectorized per-tick counts for N independent on-off (MMPP) sources.

    Each source mirrors :class:`OnOffLoadGenerator`: exponential ON/OFF
    holding times (a full cycle averages *cycle_ms*, ON for *on_fraction*
    of it) and Poisson packets at ``rate_per_ms / on_fraction`` while ON,
    so each source's long-run mean is *rate_per_ms*.  Aggregation tracks
    only the number of ON sources: per tick, ``Binomial(on, p_off)``
    sources switch OFF, ``Binomial(n - on, p_on)`` switch ON, and the tick
    count is a Poisson draw at the current ON level — O(1) per tick for a
    million sources.  The chain starts in its stationary distribution
    (``Binomial(n, on_fraction)``), so no burn-in is needed for the
    aggregate rate to be correct.

    The within-tick state-constancy approximation is the only gap vs N
    per-event generators; it vanishes as ``tick_ms / cycle_ms → 0`` and is
    pinned statistically by ``tests/scale/test_batch_sampling.py``.
    """

    def __init__(
        self,
        rate_per_ms: float,
        tick_ms: float,
        *,
        sources: int = 1,
        seed: int = 0,
        on_fraction: float = 0.25,
        cycle_ms: float = 500.0,
        packet_bytes: int = DEFAULT_LOAD_PACKET_BYTES,
    ) -> None:
        if rate_per_ms < 0:
            raise NetworkError("batch arrival rate cannot be negative")
        if tick_ms <= 0:
            raise NetworkError("batch tick must have positive length")
        if sources < 1:
            raise NetworkError("a batch population needs at least one source")
        if not 0.0 < on_fraction <= 1.0:
            raise NetworkError(
                f"on_fraction must be in (0, 1], got {on_fraction}"
            )
        if cycle_ms <= 0:
            raise NetworkError("burst cycle must have positive length")
        if packet_bytes <= 0:
            raise NetworkError("load packets must have positive size")
        np = _numpy()
        self.rate_per_ms = rate_per_ms
        self.tick_ms = tick_ms
        self.sources = sources
        self.on_fraction = on_fraction
        self.cycle_ms = cycle_ms
        self.packet_bytes = packet_bytes
        self.ticks_sampled = 0
        self._np = np
        self._chain = _generator(seed, "batch:onoff:chain")
        self._counts = _generator(seed, "batch:onoff:counts")
        mean_on = on_fraction * cycle_ms
        mean_off = (1.0 - on_fraction) * cycle_ms
        # Exact discretization of the two-state CTMC sampled at tick
        # boundaries (rates 1/mean_off off->on, 1/mean_on on->off):
        # both flips share 1 - exp(-(a+b)*tick), split by the stationary
        # fractions, so the discrete chain's stationary ON probability is
        # exactly on_fraction for any tick size.
        if mean_off > 0:
            shared = -math.expm1(
                -tick_ms * (1.0 / mean_on + 1.0 / mean_off)
            )
            self._p_off = (1.0 - on_fraction) * shared
            self._p_on = on_fraction * shared
        else:
            self._p_off = 0.0
            self._p_on = 0.0
        #: Packets/ms of one source while ON.
        self.burst_rate_per_ms = rate_per_ms / on_fraction
        # Stationary start: each source is ON with probability on_fraction
        # (degenerate all-ON when on_fraction == 1, like the per-event
        # generator, which never leaves ON in that case).
        if mean_off > 0:
            self.on = int(self._chain.binomial(sources, on_fraction))
        else:
            self.on = sources

    @property
    def mean_rate_per_ms(self) -> float:
        """Long-run aggregate packet rate N·λ (packets/ms)."""
        return self.sources * self.rate_per_ms

    @property
    def mean_per_tick(self) -> float:
        """Expected packets per tick of the aggregated stream."""
        return self.mean_rate_per_ms * self.tick_ms

    def tick_counts(self, n_ticks: int):
        """Packet counts for the next *n_ticks* ticks (numpy int array).

        The ON-level chain steps once per tick on its own stream; the
        count draws then vectorize over the whole batch on theirs, so
        batch boundaries never change either sequence.
        """
        if n_ticks < 0:
            raise NetworkError("cannot sample a negative number of ticks")
        np = self._np
        levels = np.empty(n_ticks, dtype=np.int64)
        on = self.on
        chain = self._chain
        for i in range(n_ticks):
            levels[i] = on
            if self._p_off > 0.0:
                on += int(chain.binomial(self.sources - on, self._p_on)) - int(
                    chain.binomial(on, self._p_off)
                )
        self.on = on
        self.ticks_sampled += n_ticks
        lam = levels * (self.burst_rate_per_ms * self.tick_ms)
        return self._counts.poisson(lam)

    def tick_bytes(self, n_ticks: int):
        """Offered bytes for the next *n_ticks* ticks (numpy int array)."""
        return self.tick_counts(n_ticks) * self.packet_bytes


#: Wire bytes of one keystroke packet (matches the fleet's input frames).
DEFAULT_KEYSTROKE_BYTES = 64


class BatchClosedLoopSampler:
    """Vectorized per-tick counts for N closed-loop typing sessions.

    Each session cycles through the paper's interactive loop — *think*,
    then emit a geometric burst of keystrokes (mean *burst_keys*, one
    every *type_ms* on average), blocking on the echo after each — but
    the population is carried as three **counts** (thinking / typing /
    blocked-on-echo), not N objects.  Per tick the counts move by exact
    binomial draws from the tau-leaped CTMC: ``p = 1 - exp(-tick/mean)``
    for the think->type and inter-keystroke hazards, so every session is
    accounted for every tick (conservation is exact by construction) at
    O(1) cost for a million sessions.

    Echo completions — the closed-loop feedback that open samplers don't
    have — come in three flavours, chosen by *echo_servers*:

    * ``None`` (dedicated): every blocked session completes independently
      with ``p_echo = 1 - exp(-tick/echo_ms)`` — an infinite-server
      station, exactly solvable, which pins the stationary think-fraction
      law in the property tests.
    * an integer ``c`` (shared): completions per tick are a Poisson draw
      at the busy-server rate ``min(blocked, c) / echo_ms``, capped at
      the blocked count — the M/M/c station the MVA oracle models.
    * caller-supplied: :meth:`step` accepts an explicit completion count,
      which is how :class:`~repro.scale.population.ClosedLoopPopulation`
      feeds link-drain-driven completions back into the chain.

    Completed sessions continue their burst with probability
    ``1 - 1/burst_keys`` (returning to typing) else go back to thinking.
    The chain and the echo draws consume separate split-stable child
    streams, so batch boundaries never change either sequence.
    """

    def __init__(
        self,
        think_ms: float,
        type_ms: float,
        echo_ms: float,
        tick_ms: float,
        *,
        sources: int = 1,
        seed: int = 0,
        burst_keys: float = 1.0,
        echo_servers: Optional[int] = None,
        keystroke_bytes: int = DEFAULT_KEYSTROKE_BYTES,
    ) -> None:
        if think_ms <= 0 or type_ms <= 0 or echo_ms <= 0:
            raise NetworkError(
                "closed-loop think/type/echo means must be positive"
            )
        if tick_ms <= 0:
            raise NetworkError("batch tick must have positive length")
        if sources < 1:
            raise NetworkError("a batch population needs at least one source")
        if burst_keys < 1.0:
            raise NetworkError(
                f"burst_keys is a mean burst length, must be >= 1, "
                f"got {burst_keys}"
            )
        if echo_servers is not None and echo_servers < 1:
            raise NetworkError("a shared echo station needs >= 1 server")
        if keystroke_bytes <= 0:
            raise NetworkError("keystroke packets must have positive size")
        np = _numpy()
        self.think_ms = think_ms
        self.type_ms = type_ms
        self.echo_ms = echo_ms
        self.tick_ms = tick_ms
        self.sources = sources
        self.burst_keys = burst_keys
        self.echo_servers = echo_servers
        self.keystroke_bytes = keystroke_bytes
        self._np = np
        self._chain = _generator(seed, "batch:closed:chain")
        self._echo = _generator(seed, "batch:closed:echo")
        #: Per-tick transition probabilities (tau-leaped CTMC hazards).
        self.p_think = -math.expm1(-tick_ms / think_ms)
        self.p_type = -math.expm1(-tick_ms / type_ms)
        self.p_echo = -math.expm1(-tick_ms / echo_ms)
        #: Probability a completed echo continues the burst (geometric).
        self.continue_prob = 1.0 - 1.0 / burst_keys
        self.ticks_sampled = 0
        self.keystrokes_total = 0
        self.completions_total = 0
        # Start-of-tick state integrals, for Little's-law estimates.
        self.thinking_ticks = 0
        self.typing_ticks = 0
        self.blocked_ticks = 0
        if echo_servers is None:
            # The dedicated-echo chain is fully solvable: expected ticks
            # per think/type/echo visit are 1/p each, and one cycle makes
            # burst_keys type+echo visits per think visit.  Start in that
            # stationary law so no burn-in is needed (mirrors the on-off
            # sampler's stationary start).
            weights = self.stationary_fractions()
            drawn = self._chain.multinomial(sources, weights)
            self.thinking = int(drawn[0])
            self.typing = int(drawn[1])
            self.blocked = int(drawn[2])
        else:
            # Shared/external echo: the stationary split depends on the
            # (possibly external) completion process, so start cold —
            # everyone thinking — and let the caller's warmup converge it.
            self.thinking = sources
            self.typing = 0
            self.blocked = 0

    def stationary_fractions(self):
        """Stationary (thinking, typing, blocked) fractions, dedicated mode.

        Expected ticks per cycle in each state are ``1/p_think``,
        ``L/p_type`` and ``L/p_echo`` (L = *burst_keys*); normalizing
        gives the exact stationary law of the discrete chain at **any**
        tick width — the property the Hypothesis suite pins.
        """
        weights = [
            1.0 / self.p_think,
            self.burst_keys / self.p_type,
            self.burst_keys / self.p_echo,
        ]
        total = sum(weights)
        return [w / total for w in weights]

    def step(self, completions: Optional[int] = None):
        """Advance one tick; returns ``(keystrokes, completions)``.

        All draws use start-of-tick counts.  *completions* overrides the
        internal echo model (external mode); it is clamped to the blocked
        count so conservation survives an optimistic caller.
        """
        if completions is not None and completions < 0:
            raise NetworkError("echo completions cannot be negative")
        thinking, typing, blocked = self.thinking, self.typing, self.blocked
        self.thinking_ticks += thinking
        self.typing_ticks += typing
        self.blocked_ticks += blocked
        chain = self._chain
        t2y = int(chain.binomial(thinking, self.p_think)) if thinking else 0
        keys = int(chain.binomial(typing, self.p_type)) if typing else 0
        if completions is not None:
            done = min(int(completions), blocked)
        elif self.echo_servers is None:
            done = int(self._echo.binomial(blocked, self.p_echo)) if blocked else 0
        else:
            busy = min(blocked, self.echo_servers)
            mean = busy * (self.tick_ms / self.echo_ms)
            done = min(blocked, int(self._echo.poisson(mean))) if busy else 0
        # binomial(n, 0.0) is 0 without touching the stream, so single-key
        # bursts skip the call outright.
        resume = (
            int(self._echo.binomial(done, self.continue_prob))
            if done and self.continue_prob
            else 0
        )
        self.thinking = thinking + done - resume - t2y
        self.typing = typing + t2y + resume - keys
        self.blocked = blocked + keys - done
        self.ticks_sampled += 1
        self.keystrokes_total += keys
        self.completions_total += done
        return keys, done

    def advance(self, n_ticks: int):
        """Batch-run *n_ticks* internal-echo ticks.

        Returns ``(keystrokes, completions)`` numpy int arrays, one entry
        per tick.  Only the two result arrays are allocated (once, here);
        the per-tick loop itself is scalar draws — the no-allocation hot
        path the benchmark gates.  External-completion populations drive
        :meth:`step` instead.
        """
        if n_ticks < 0:
            raise NetworkError("cannot sample a negative number of ticks")
        np = self._np
        keys_out = np.empty(n_ticks, dtype=np.int64)
        done_out = np.empty(n_ticks, dtype=np.int64)
        for i in range(n_ticks):
            keys_out[i], done_out[i] = self.step()
        return keys_out, done_out

    @property
    def mean_blocked(self) -> float:
        """Time-average blocked count over the sampled ticks (Little's L)."""
        if not self.ticks_sampled:
            return 0.0
        return self.blocked_ticks / self.ticks_sampled

    @property
    def throughput_per_ms(self) -> float:
        """Echo completions per ms over the sampled ticks (X in MVA terms)."""
        if not self.ticks_sampled:
            return 0.0
        return self.completions_total / (self.ticks_sampled * self.tick_ms)
