"""Deterministic network fault injection: loss, bursts, corruption, jitter.

The paper's network chapter (§6) measures a *perfect* shared medium — the
testbed hub queues but never drops.  Real thin-client deployments live on
worse wire: WAN loss, bursty outages, cross-traffic jitter.  This module
adds that robustness axis without touching the happy path:

* :class:`FaultPlan` — a frozen, seed-driven description of one link's
  adversity: independent per-packet loss, a Gilbert–Elliott burst-loss
  chain, bit corruption, packet reordering, latency jitter, and scheduled
  outage windows.  The plan is pure data: :meth:`FaultPlan.fates` derives
  the exact per-packet fate sequence from ``(seed, stream name)`` alone, so
  serial, ``--jobs N``, and cached runs see byte-identical fault schedules.
* :class:`FaultyLink` — a :class:`~repro.net.link.Link` subclass that
  applies a plan's fates on :meth:`~FaultyLink.send`.  Every packet offered
  is assigned exactly one fate bucket, giving the conservation law
  ``delivered + dropped + corrupted == sent`` once in-flight traffic
  drains.
* :func:`make_link` — the one constructor experiments use: a disabled (or
  absent) plan returns a plain ``Link``, byte-identical to a no-fault run.

Corrupted frames still occupy the wire (the checksum fails at the
*receiver*), so they consume bandwidth but never reach the application —
exactly the case that forces the transport retransmission machinery in
:mod:`repro.net.tcpstream` to earn its keep.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Tuple

from ..errors import NetworkError
from ..sim.engine import Simulator
from ..sim.rng import derive_seed
from .link import DeliveryCallback, Link
from .packet import Packet

#: Extra hold-back applied to a reordered packet, in ms — long enough to
#: let at least one full-size frame at 10 Mbps overtake it.
DEFAULT_REORDER_HOLD_MS = 2.0


def _number(key: str, value: str, text: str) -> float:
    """*text* (all or part of a ``--faults`` item's *value*) as a float."""
    try:
        return float(text)
    except ValueError:
        raise NetworkError(
            f"{key} value {value!r} is not a number"
        ) from None


@dataclass(frozen=True)
class PacketFate:
    """The fault decision for one offered packet, fully precomputable."""

    lost: bool = False  #: dropped on the wire (random or burst loss)
    corrupt: bool = False  #: delivered with a bad checksum; receiver drops
    extra_delay_ms: float = 0.0  #: jitter + reorder hold added past propagation


@dataclass(frozen=True)
class FaultPlan:
    """One link's adversity, as pure data.

    All probabilities are per-packet.  The burst model is Gilbert–Elliott:
    a two-state Markov chain entered with probability ``burst_enter`` per
    packet, left with ``burst_exit``, dropping each packet seen in the bad
    state with probability ``burst_loss``.  ``outages`` are absolute
    ``(start_ms, end_ms)`` windows during which every offered packet is
    dropped (a dead wire, an AP roam, a modem retrain).

    A default-constructed plan is **disabled** (:attr:`enabled` is False)
    and :func:`make_link` then builds a plain :class:`Link` — the happy
    path is untouched, byte for byte.
    """

    loss: float = 0.0
    burst_enter: float = 0.0
    burst_exit: float = 0.5
    burst_loss: float = 1.0
    corrupt: float = 0.0
    reorder: float = 0.0
    reorder_hold_ms: float = DEFAULT_REORDER_HOLD_MS
    jitter_ms: float = 0.0  #: mean of the exponential jitter added per packet
    outages: Tuple[Tuple[float, float], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("loss", "burst_enter", "burst_exit", "burst_loss",
                     "corrupt", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise NetworkError(f"{name} must be a probability, got {p}")
        if self.reorder_hold_ms < 0 or self.jitter_ms < 0:
            raise NetworkError("delays cannot be negative")
        for window in self.outages:
            if len(window) != 2 or window[0] < 0 or window[1] <= window[0]:
                raise NetworkError(f"bad outage window {window!r}")

    # -- identity ----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether any fault mechanism is active."""
        return bool(
            self.loss
            or self.burst_enter
            or self.corrupt
            or self.reorder
            or self.jitter_ms
            or self.outages
        )

    def spec(self) -> str:
        """Canonical ``key=value`` string; parses back via :meth:`parse`.

        Stable across processes, so it can key executor cache entries and
        name sweeps.
        """
        parts: List[str] = []
        defaults = FaultPlan()
        for name in ("loss", "burst_enter", "burst_exit", "burst_loss",
                     "corrupt", "reorder", "reorder_hold_ms", "jitter_ms"):
            value = getattr(self, name)
            if value != getattr(defaults, name):
                parts.append(f"{name}={value:g}")
        for start, end in self.outages:
            parts.append(f"outage={start:g}-{end:g}")
        return ",".join(parts)

    @classmethod
    def parse(cls, spec: str, *, seed: int = 0) -> "FaultPlan":
        """Build a plan from a ``--faults`` CLI string.

        Example: ``loss=0.05,jitter_ms=3,corrupt=0.01,outage=1000-2000``.
        An empty string is the disabled plan.
        """
        kwargs: dict = {"seed": seed}
        outages: List[Tuple[float, float]] = []
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if "=" not in part:
                raise NetworkError(
                    f"bad --faults item {part!r}; expected key=value"
                )
            key, __, value = part.partition("=")
            key = key.strip()
            if key == "outage":
                start, sep, end = value.partition("-")
                if not sep:
                    raise NetworkError(
                        f"bad outage {value!r}; expected start-end in ms"
                    )
                outages.append(
                    (_number(key, value, start), _number(key, value, end))
                )
            elif key in ("loss", "burst_enter", "burst_exit", "burst_loss",
                         "corrupt", "reorder", "reorder_hold_ms",
                         "jitter_ms"):
                kwargs[key] = _number(key, value, value)
            else:
                raise NetworkError(f"unknown --faults key {key!r}")
        return cls(outages=tuple(outages), **kwargs)

    def with_(self, **overrides) -> "FaultPlan":
        """A copy with *overrides* applied (sweep helper)."""
        return replace(self, **overrides)

    # -- the schedule ------------------------------------------------------

    def fates(self, stream: str) -> Iterator[PacketFate]:
        """The deterministic per-packet fate sequence for one named stream.

        A pure function of ``(seed, stream)``: every draw a packet needs is
        consumed in a fixed order, so the n-th offered packet receives the
        same fate no matter which process, backend, or cache path computes
        it.  Outage windows are applied separately by the link (they depend
        on send *time*, not packet index).
        """
        rng = random.Random(derive_seed(self.seed, f"faults:{stream}"))
        bad_state = False
        while True:
            u_loss = rng.random()
            u_burst = rng.random()
            u_exitenter = rng.random()
            u_corrupt = rng.random()
            u_reorder = rng.random()
            u_jitter = rng.random()
            if bad_state:
                bad_state = u_exitenter >= self.burst_exit
            else:
                bad_state = u_exitenter < self.burst_enter
            lost = u_loss < self.loss or (
                bad_state and u_burst < self.burst_loss
            )
            corrupt = not lost and u_corrupt < self.corrupt
            delay = 0.0
            if self.jitter_ms:
                # Inverse-CDF exponential draw from the pre-consumed uniform
                # keeps the stream length fixed per packet; random() is in
                # [0, 1) so the argument stays positive.
                delay += -self.jitter_ms * math.log(1.0 - u_jitter)
            if self.reorder and u_reorder < self.reorder:
                delay += self.reorder_hold_ms
            yield PacketFate(lost=lost, corrupt=corrupt, extra_delay_ms=delay)

    def schedule(self, stream: str, n: int) -> List[PacketFate]:
        """The first *n* packet fates — the property-test surface."""
        fates = self.fates(stream)
        return [next(fates) for __ in range(n)]

    def outage_at(self, t: float) -> bool:
        """Whether *t* (ms) falls inside a scheduled outage window."""
        return any(start <= t < end for start, end in self.outages)


class FaultyLink(Link):
    """A :class:`Link` that subjects offered packets to a :class:`FaultPlan`.

    Fate accounting: every packet offered to :meth:`send` lands in exactly
    one bucket — :attr:`fault_delivered` (reached the receiver intact),
    :attr:`fault_dropped` (random/burst loss, outage, or device tail drop),
    or :attr:`fault_corrupted` (crossed the wire, failed the checksum).
    Once in-flight traffic drains, ``delivered + dropped + corrupted ==
    sent`` holds exactly.

    Degradation listeners (objects with optional ``on_corruption()`` /
    ``on_outage(active)`` methods — see
    :class:`repro.protocols.base.RemoteDisplayProtocol`) are notified when
    corruption is detected at the receiver and at outage edges.
    """

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        *,
        name: str = "ether0",
        **link_kwargs,
    ) -> None:
        super().__init__(sim, name=name, **link_kwargs)
        self.plan = plan
        self._fates = plan.fates(name)
        self.fault_sent = 0
        self.fault_delivered = 0
        self.fault_dropped = 0
        self.fault_corrupted = 0
        self._listeners: List[object] = []
        # Lazily-resolved instrument handles (first use only, so fault-free
        # runs keep the seed's exact metric set).
        self._outage_drops_counter = None
        self._outage_drop_channel = None
        self._lost_counter = None
        self._loss_channel = None
        self._corrupt_counter = None
        self._corrupt_channel = None
        self._schedule_outages()

    # -- listeners ---------------------------------------------------------

    def add_listener(self, listener: object) -> None:
        """Register a degradation listener (e.g. a protocol encoder)."""
        self._listeners.append(listener)

    def _notify(self, method: str, *args) -> None:
        for listener in self._listeners:
            hook = getattr(listener, method, None)
            if hook is not None:
                hook(*args)

    # -- outages -----------------------------------------------------------

    def _schedule_outages(self) -> None:
        for start, end in self.plan.outages:
            self.sim.schedule_at(start, lambda s=start, e=end: self._outage_edge(True, e - s))
            self.sim.schedule_at(end, lambda s=start, e=end: self._outage_edge(False, e - s))

    def _outage_edge(self, starting: bool, duration_ms: float) -> None:
        if self._obs is not None:
            self._obs.trace(
                self.sim.now,
                "net.outage.start" if starting else "net.outage.end",
                link=self.name,
            )
            if not starting:
                # Accumulated at the trailing edge so partial windows that
                # outlive the run never over-count.
                self._obs.metrics.counter("net.outage_ms").inc(duration_ms)
        self._notify("on_outage", starting)

    # -- the faulted send path ---------------------------------------------

    def send(
        self, packet: Packet, on_delivered: Optional[DeliveryCallback] = None
    ) -> None:
        self.fault_sent += 1
        fate = next(self._fates)
        now = self.sim.now
        if self.plan.outage_at(now):
            self.fault_dropped += 1
            if self._obs is not None:
                counter = self._outage_drops_counter
                if counter is None:
                    counter = self._outage_drops_counter = (
                        self._obs.metrics.counter("net.fault.outage_drops")
                    )
                    self._outage_drop_channel = self._obs.channel(
                        "net.fault.outage_drop", "link", "wire_bytes"
                    )
                counter.value += 1
                self._outage_drop_channel(now, self.name, packet.wire_bytes)
            return
        if fate.lost:
            self.fault_dropped += 1
            if self._obs is not None:
                counter = self._lost_counter
                if counter is None:
                    counter = self._lost_counter = self._obs.metrics.counter(
                        "net.fault.lost"
                    )
                    self._loss_channel = self._obs.channel(
                        "net.fault.loss", "link", "wire_bytes"
                    )
                counter.value += 1
                self._loss_channel(now, self.name, packet.wire_bytes)
            return
        if self.max_queue is not None and len(self._queue) >= self.max_queue:
            # The device queue is full: the base class tail-drops, which is
            # a *drop* in fate accounting regardless of the drawn fate.
            self.fault_dropped += 1
            super().send(packet, on_delivered)
            return
        if fate.corrupt:
            self.fault_corrupted += 1
            super().send(packet, self._corrupt_receiver(packet))
            return
        super().send(packet, self._intact_receiver(fate, on_delivered))

    def _corrupt_receiver(self, packet: Packet) -> DeliveryCallback:
        def receive(pkt: Packet) -> None:
            # The frame spent wire time, but the checksum fails here: the
            # receiver discards it and the application callback never runs.
            if self._obs is not None:
                counter = self._corrupt_counter
                if counter is None:
                    counter = self._corrupt_counter = self._obs.metrics.counter(
                        "net.corrupt_drops"
                    )
                    self._corrupt_channel = self._obs.channel(
                        "net.fault.corrupt_drop", "link", "wire_bytes"
                    )
                counter.value += 1
                self._corrupt_channel(self.sim.now, self.name, pkt.wire_bytes)
            self._notify("on_corruption")

        return receive

    def _intact_receiver(
        self, fate: PacketFate, on_delivered: Optional[DeliveryCallback]
    ) -> DeliveryCallback:
        def receive(pkt: Packet) -> None:
            if fate.extra_delay_ms > 0.0:
                self.sim.schedule(fate.extra_delay_ms, lambda: arrive(pkt))
            else:
                arrive(pkt)

        def arrive(pkt: Packet) -> None:
            pkt.delivered_at = self.sim.now
            self.fault_delivered += 1
            if on_delivered is not None:
                on_delivered(pkt)

        return receive

    @property
    def fault_in_flight(self) -> int:
        """Offered packets not yet assigned a terminal fate bucket."""
        return (
            self.fault_sent
            - self.fault_delivered
            - self.fault_dropped
            - self.fault_corrupted
        )


@dataclass(frozen=True)
class ChaosResult:
    """Interactive message latency at one loss level of a chaos sweep."""

    loss: float
    latencies_ms: Tuple[float, ...]
    messages_sent: int
    messages_delivered: int
    retransmits: int
    timeouts_fired: int
    segments_abandoned: int
    corrupt_drops: int

    @property
    def delivered_fraction(self) -> float:
        """Messages that eventually arrived, retransmissions included."""
        if self.messages_sent == 0:
            raise NetworkError("empty chaos run")
        return self.messages_delivered / self.messages_sent

    @property
    def mean_latency_ms(self) -> float:
        """Mean send-to-complete latency of the delivered messages."""
        from ..sim.stats import mean

        return mean(list(self.latencies_ms))

    def latency_percentile_ms(self, p: float) -> float:
        """Latency percentile *p* (e.g. 99.0) among delivered messages."""
        from ..sim.stats import percentile

        return percentile(list(self.latencies_ms), p)


def run_chaos_experiment(
    loss_levels,
    *,
    base: Optional[FaultPlan] = None,
    seed: int = 0,
    duration_ms: float = 30_000.0,
    message_interval_ms: float = 50.0,
    message_bytes: int = 256,
    bandwidth_mbps: float = 10.0,
    drain_ms: float = 10_000.0,
) -> List[ChaosResult]:
    """Latency vs loss rate — the degraded-wire sibling of Figures 8–9.

    At each loss level a keystroke-sized message is sent every
    *message_interval_ms* over a reliable connection on a faulted link;
    the recorded latency of each delivered message includes every
    retransmission round it needed.  The zero-loss level of a disabled
    *base* plan runs on a plain :class:`Link`, so the sweep's baseline is
    byte-identical to the clean model.
    """
    from .tcpstream import TcpConnection

    plan_base = base if base is not None else FaultPlan()
    results: List[ChaosResult] = []
    for loss in loss_levels:
        plan = plan_base.with_(loss=loss, seed=seed)
        sim = Simulator()
        link = make_link(sim, plan, bandwidth_mbps=bandwidth_mbps)
        faulted = isinstance(link, FaultyLink)
        conn = TcpConnection(sim, link, reliable=faulted)
        latencies: List[float] = []
        sent = [0]

        def send_one() -> None:
            sent[0] += 1
            start = sim.now
            conn.send_message(
                "input",
                message_bytes,
                kind="chaos-probe",
                on_delivered=lambda m: latencies.append(sim.now - start),
            )

        task = sim.every(message_interval_ms, send_one)
        sim.run_until(duration_ms)
        task.stop()
        # Let retransmission rounds resolve so tail latencies are counted.
        sim.run_until(duration_ms + drain_ms)
        results.append(
            ChaosResult(
                loss=loss,
                latencies_ms=tuple(latencies),
                messages_sent=sent[0],
                messages_delivered=len(latencies),
                retransmits=conn.retransmits,
                timeouts_fired=conn.timeouts_fired,
                segments_abandoned=conn.segments_abandoned,
                corrupt_drops=link.fault_corrupted if faulted else 0,
            )
        )
    return results


def make_link(
    sim: Simulator,
    plan: Optional[FaultPlan] = None,
    *,
    name: str = "ether0",
    **link_kwargs,
) -> Link:
    """The one link constructor experiments should use.

    ``plan=None`` or a disabled plan builds a plain :class:`Link` — the
    code path, event sequence, and trace bytes of a no-fault run are
    completely unchanged.  An enabled plan builds a :class:`FaultyLink`.
    """
    if plan is None or not plan.enabled:
        return Link(sim, name=name, **link_kwargs)
    return FaultyLink(sim, plan, name=name, **link_kwargs)
