"""N thin-client servers, one clock, one backbone: the fleet composition.

The paper measures a *single* multi-user server; the north star is millions
of users, which means composing many of them.  A :class:`Fleet` builds N
:class:`~repro.core.server.ThinClientServer` instances on one shared
:class:`~repro.sim.engine.Simulator`, puts a shared **backbone link**
between the client population and the server pool, and routes arriving
sessions through an :class:`~repro.fleet.admission.AdmissionController`
and a pluggable :class:`~repro.fleet.placement.PlacementPolicy`.

One fleet interaction crosses the full stack twice over two networks::

    client --input--> backbone --> server LAN --> scheduler/VM/protocol
           <--display-- backbone <-- server LAN <--/

so fleet-level session latency = backbone queueing (shared by *every*
session in the fleet) + the single-server path the paper measured.  That
is exactly the two-tier structure whose crossover Gray's NC-farm sizing
and Gunther's X-terminal queueing models predict: per-server resources
bind at small fleets, the backbone binds at large ones.

Observability (when run under ``with observe():`` / ``repro trace``):

* counters ``fleet.admitted`` / ``fleet.rejected`` / ``fleet.queued`` /
  ``fleet.migrations``;
* per-server load gauges ``fleet.load.sNN`` (active sessions);
* histogram ``fleet.session_latency_ms`` of end-to-end latencies.

Determinism: all randomness comes from named
:class:`~repro.sim.rng.RngRegistry` streams derived from the fleet seed,
and every data structure iterates in insertion order — a fleet run is a
pure function of ``(config, seed)``, byte-for-byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..core.server import ServerConfig, ThinClientServer, UserSession
from ..errors import FleetError
from ..gui.drawing import DisplayOp, DrawText
from ..net.faults import FaultPlan, make_link
from ..net.packet import Packet
from ..obs import current_observation
from ..sim.engine import PeriodicTask, Simulator
from ..sim.rng import RngRegistry, derive_seed
from ..workloads.behavior import TASK_WORKER, BehaviorProfile
from .admission import ADMITTED, QUEUED, AdmissionController, AdmissionPolicy, planned_session_capacity
from .placement import PlacementPolicy, make_placement

#: On-wire size of one keystroke crossing the backbone (TCP/IP framing
#: around a scan code — the input direction of §6.2's asymmetry).
INPUT_WIRE_BYTES = 64

#: Framing overhead added to a display payload crossing the backbone.
DISPLAY_OVERHEAD_BYTES = 48

#: How long a session waits for an interaction to complete before giving
#: up on it (ms).  On a faulted backbone a lost input or display packet
#: would otherwise leave the closed-loop session stuck forever.
INTERACTION_TIMEOUT_MS = 2_000.0


@dataclass(frozen=True)
class FleetConfig:
    """What fleet to build: pool, placement, admission, backbone.

    ``server`` is the per-server hardware/OS template (every server is
    identical — the homogeneous-farm case Gray prices).  ``capacity_per_server``
    defaults to the capacity planner's maximum for ``profile`` on that
    hardware.  ``backbone_mbps`` is the shared aggregate link between the
    client population and the pool; ``backbone_faults`` optionally runs it
    through the :mod:`repro.net.faults` layer.
    """

    server: ServerConfig = field(
        default_factory=lambda: ServerConfig.tse()
    )
    num_servers: int = 2
    placement: str = "round_robin"
    profile: BehaviorProfile = TASK_WORKER
    admission_mode: str = "reject"
    max_queue: Optional[int] = None
    capacity_per_server: Optional[int] = None
    backbone_mbps: float = 100.0
    backbone_propagation_ms: float = 0.5
    backbone_faults: Optional[FaultPlan] = None
    #: Open sessions in coordinated-omission-safe mode: typing ticks that
    #: land while an interaction is in flight are *queued* with their
    #: intended send time instead of dropped, and each completion records a
    #: second, corrected latency measured from that intended time.  Off by
    #: default — the legacy closed loop is byte-identical with this False.
    co_safe_sessions: bool = False

    def __post_init__(self) -> None:
        """Validate the pool size and backbone parameters."""
        if self.num_servers < 1:
            raise FleetError("a fleet needs at least one server")
        if self.backbone_mbps <= 0:
            raise FleetError("backbone bandwidth must be positive")


class ServerState:
    """One pool member: the composed server plus fleet bookkeeping."""

    __slots__ = ("index", "label", "server", "failed", "sessions", "latency_ewma", "capacity")

    def __init__(self, index: int, label: str, server: ThinClientServer, capacity: int) -> None:
        self.index = index
        self.label = label  #: zero-padded id, e.g. ``s03``
        self.server = server
        self.capacity = capacity
        self.failed = False
        self.sessions: Dict[str, "FleetSession"] = {}
        self.latency_ewma: Optional[float] = None

    @property
    def active(self) -> int:
        """Sessions currently placed here."""
        return len(self.sessions)

    @property
    def latency_estimate_ms(self) -> float:
        """EWMA of this server's observed session latencies (0 = no data)."""
        return self.latency_ewma if self.latency_ewma is not None else 0.0

    def observe_latency(self, latency_ms: float, alpha: float = 0.2) -> None:
        """Fold one completed interaction into the latency EWMA."""
        if self.latency_ewma is None:
            self.latency_ewma = latency_ms
        else:
            self.latency_ewma += alpha * (latency_ms - self.latency_ewma)


class FleetSession:
    """One user of the *fleet*: a placed server session plus the backbone.

    The session owns its typing cadence and per-interaction display cost;
    :meth:`press_key` drives the full two-network round trip and stamps
    the end-to-end latency in :attr:`latencies_ms`.  Typing is
    **closed-loop**: at most one interaction is outstanding per session,
    and a typing tick that lands while one is in flight is skipped (a real
    user pacing themselves against the echo).  That keeps every latency
    sample paired with its own keystroke even when the fleet saturates,
    and an :data:`INTERACTION_TIMEOUT_MS` watchdog abandons interactions a
    faulted backbone swallowed.  When its server is marked failed the
    fleet re-places the session; :attr:`placements` records the server
    index history (the affinity invariant reads it).

    **Coordinated omission.**  The closed loop has the classic measurement
    blind spot: while the system stalls, the session stops sending, so the
    stall's victims never appear in :attr:`latencies_ms` — exactly the
    samples the tail needed.  With ``co_safe=True`` the session keeps the
    same tick cadence but *queues* blocked ticks with their intended send
    time (:attr:`missed_ticks` counts them); once the loop unblocks, the
    backlog drains one interaction per completion, and every interaction
    records a second sample in :attr:`intended_latencies_ms`, measured
    from the intended time — the wrk2/HdrHistogram correction.  Abandoned
    interactions contribute their (censored) wait as a corrected sample
    instead of vanishing.  The uncorrected series is untouched, so the
    corrected-vs-uncorrected gap is observable per run.
    """

    def __init__(
        self,
        fleet: "Fleet",
        name: str,
        *,
        rate_hz: float = 2.0,
        display_chars: int = 8,
        co_safe: bool = False,
    ) -> None:
        if rate_hz <= 0:
            raise FleetError("typing rate must be positive")
        self.fleet = fleet
        self.name = name
        self.rate_hz = rate_hz
        self.co_safe = co_safe
        self.display_ops: List[DisplayOp] = [DrawText(display_chars)]
        self.latencies_ms: List[float] = []
        self.intended_latencies_ms: List[float] = []  #: corrected series
        self.placements: List[int] = []
        self.skipped_ticks = 0  #: typing ticks dropped by the closed loop
        self.missed_ticks = 0  #: blocked ticks queued by the co-safe loop
        self.abandoned = 0  #: interactions the watchdog gave up on
        self.state: Optional[ServerState] = None
        self._session: Optional[UserSession] = None
        self._token = 0  # interaction id generator
        self._inflight: Optional[Tuple[int, float]] = None  # (token, t0)
        self._inflight_intended: Optional[float] = None
        self._backlog: Deque[float] = deque()  # intended times awaiting issue
        self._awaiting_display = False
        self._moves = 0
        self._typing: Optional[PeriodicTask] = None

    # -- placement lifecycle -------------------------------------------------

    def attach(self, state: ServerState) -> None:
        """Log in on *state*'s server and start measuring through it."""
        session = state.server.connect(f"{self.name}#{self._moves}")
        self._moves += 1
        self.state = state
        self._session = session
        self.placements.append(state.index)
        state.sessions[self.name] = self
        client = session.client
        original = client.display_received

        def measured(message) -> None:
            before = len(client.latencies_ms)
            original(message)
            if len(client.latencies_ms) > before:
                self._display_answered(message.payload_bytes)

        client.display_received = measured  # type: ignore[method-assign]
        if self.co_safe:
            self._try_issue()  # a migration may have left queued intents

    def detach(self) -> None:
        """Log out of the current server (in-flight interactions drop)."""
        if self.state is None:
            return
        self.state.server.disconnect(self._session.name)
        del self.state.sessions[self.name]
        self.state = None
        self._session = None
        if self.co_safe and self._inflight_intended is not None:
            # The dropped interaction's intent survives the move: reissue
            # it (oldest first) once the session lands on a new server.
            self._backlog.appendleft(self._inflight_intended)
        self._inflight = None
        self._inflight_intended = None
        self._awaiting_display = False

    # -- one interaction, across both networks -------------------------------

    def press_key(self) -> None:
        """Type once: input up the backbone, echo down it, stamp latency.

        A no-op while a previous interaction is still in flight (closed
        loop) or while the session is between placements.
        """
        if self.state is None:
            return  # between placements (server failed, not yet re-placed)
        if self._inflight is not None:
            self.skipped_ticks += 1
            return
        self._launch(self.fleet.sim.now)

    def _launch(self, intended_ms: float) -> None:
        """Issue one interaction now, attributed to intent time *intended_ms*."""
        self._token += 1
        token = self._token
        self._inflight = (token, self.fleet.sim.now)
        self._inflight_intended = intended_ms
        packet = Packet(INPUT_WIRE_BYTES, channel="input", protocol="fleet")
        self.fleet.backbone.send(packet, lambda __: self._input_arrived(token))
        self.fleet.sim.schedule(
            INTERACTION_TIMEOUT_MS, lambda: self._give_up(token)
        )

    def _co_press(self) -> None:
        """One co-safe typing tick: queue the intent, issue when unblocked."""
        if self.state is None or self._inflight is not None:
            self.missed_ticks += 1
        self._backlog.append(self.fleet.sim.now)
        self._try_issue()

    def _try_issue(self) -> None:
        """Issue the oldest queued intent if the closed loop is free."""
        if self.state is None or self._inflight is not None or not self._backlog:
            return
        self._launch(self._backlog.popleft())

    def _input_arrived(self, token: int) -> None:
        """The keystroke reached the pool: hand it to the placed server."""
        if self._inflight is None or self._inflight[0] != token:
            return  # abandoned, or the packet outlived the placement
        if self._session is None:
            self._inflight = None
            return
        self._awaiting_display = True
        self._session.press_key(ops=self.display_ops)

    def _display_answered(self, payload_bytes: int) -> None:
        """The server answered on its LAN; echo crosses the backbone down."""
        if not self._awaiting_display or self._inflight is None:
            return  # a display that outlived its (abandoned) interaction
        self._awaiting_display = False
        token = self._inflight[0]
        packet = Packet(
            payload_bytes + DISPLAY_OVERHEAD_BYTES,
            payload_bytes=payload_bytes,
            channel="display",
            protocol="fleet",
        )
        self.fleet.backbone.send(packet, lambda __: self._complete(token))

    def _complete(self, token: int) -> None:
        """The display update reached the client: one latency sample."""
        if self._inflight is None or self._inflight[0] != token:
            return
        now = self.fleet.sim.now
        latency = now - self._inflight[1]
        intended = self._inflight_intended
        self._inflight = None
        self._inflight_intended = None
        self.latencies_ms.append(latency)
        if self.state is not None:
            self.state.observe_latency(latency)
        self.fleet.record_latency(latency)
        if self.co_safe:
            self._record_corrected(now - (intended if intended is not None else now))

    def _give_up(self, token: int) -> None:
        """Watchdog: abandon the interaction if it is still outstanding."""
        if self._inflight is not None and self._inflight[0] == token:
            intended = self._inflight_intended
            self._inflight = None
            self._inflight_intended = None
            self._awaiting_display = False
            self.abandoned += 1
            if self.co_safe:
                # Censored corrected sample: the victim waited at least
                # this long — dropping it would re-omit the worst tail.
                self._record_corrected(
                    self.fleet.sim.now
                    - (intended if intended is not None else self.fleet.sim.now)
                )

    def _record_corrected(self, corrected_ms: float) -> None:
        """Stamp one corrected (intent-to-done) sample and drain the backlog."""
        self.intended_latencies_ms.append(corrected_ms)
        self.fleet.record_corrected_latency(corrected_ms)
        self._try_issue()

    # -- cadence -------------------------------------------------------------

    def start_typing(self, *, phase_ms: Optional[float] = None) -> None:
        """Type at :attr:`rate_hz` forever (first press after *phase_ms*)."""
        if self._typing is not None:
            raise FleetError(f"fleet session {self.name!r} is already typing")
        interval = 1000.0 / self.rate_hz
        start = None if phase_ms is None else self.fleet.sim.now + phase_ms
        handler = self._co_press if self.co_safe else self.press_key
        self._typing = self.fleet.sim.every(interval, handler, start=start)

    def stop_typing(self) -> None:
        """Release the key (idempotent)."""
        if self._typing is not None:
            self._typing.stop()
            self._typing = None


class Fleet:
    """The composed fleet; see module docstring."""

    def __init__(
        self,
        config: FleetConfig,
        *,
        seed: int = 0,
        sim: Optional[Simulator] = None,
    ) -> None:
        self.config = config
        self.seed = seed
        self.sim = sim if sim is not None else Simulator()
        self.rngs = RngRegistry(derive_seed(seed, "fleet"))
        self.backbone = make_link(
            self.sim,
            config.backbone_faults,
            name="backbone0",
            bandwidth_mbps=config.backbone_mbps,
            propagation_ms=config.backbone_propagation_ms,
        )
        capacity = (
            config.capacity_per_server
            if config.capacity_per_server is not None
            else planned_session_capacity(config.server, config.profile)
        )
        width = max(2, len(str(config.num_servers - 1)))
        self.servers: List[ServerState] = [
            ServerState(
                index,
                f"s{index:0{width}d}",
                ThinClientServer(
                    config.server,
                    seed=derive_seed(seed, f"fleet:server:{index}"),
                    sim=self.sim,
                ),
                capacity,
            )
            for index in range(config.num_servers)
        ]
        self.placement: PlacementPolicy = make_placement(config.placement)
        self.admission = AdmissionController(
            AdmissionPolicy(
                capacity=capacity,
                mode=config.admission_mode,
                max_queue=config.max_queue,
            )
        )
        self.sessions: Dict[str, FleetSession] = {}
        #: Hybrid-tier background populations by server index
        #: (:meth:`attach_background`); empty on every pre-scale path.
        self.backgrounds: Dict[int, object] = {}
        self.migrations = 0
        self._placement_rng = self.rngs.stream("fleet:placement")
        self._queued_params: Dict[str, tuple] = {}
        # Instrument handles, resolved lazily on first use (a fleet that
        # admits nothing must not register zero-valued metrics).
        self._obs = current_observation()
        self._counters: Dict[str, object] = {}
        self._gauges: Dict[str, object] = {}
        self._latency_histogram = None
        self._corrected_histogram = None
        #: Optional :class:`repro.slo.SloTracker` (duck-typed to keep the
        #: fleet layer import-free of slo); when set, every corrected
        #: latency sample is folded into it at its simulation timestamp.
        self.slo_tracker = None

    # -- observability -------------------------------------------------------

    def _count(self, name: str) -> None:
        """Bump counter ``fleet.<name>`` when observing (lazy handle)."""
        if self._obs is None:
            return
        counter = self._counters.get(name)
        if counter is None:
            counter = self._obs.metrics.counter(f"fleet.{name}")
            self._counters[name] = counter
        counter.value += 1

    def _publish_load(self, state: ServerState) -> None:
        """Publish one server's active-session count to its load gauge."""
        if self._obs is None:
            return
        gauge = self._gauges.get(state.label)
        if gauge is None:
            gauge = self._obs.metrics.gauge(f"fleet.load.{state.label}")
            self._gauges[state.label] = gauge
        gauge.set(state.active)

    def record_latency(self, latency_ms: float) -> None:
        """Fold one end-to-end session latency into the fleet histogram."""
        if self._obs is None:
            return
        histogram = self._latency_histogram
        if histogram is None:
            histogram = self._latency_histogram = self._obs.metrics.histogram(
                "fleet.session_latency_ms"
            )
        histogram.observe(latency_ms)

    def record_corrected_latency(self, latency_ms: float) -> None:
        """Fold one coordinated-omission-corrected latency sample.

        Feeds the attached :attr:`slo_tracker` (if any) and, when
        observing, a separate ``fleet.session_latency_corrected_ms``
        histogram — only co-safe sessions call this, so legacy fleet trace
        artifacts are unchanged.
        """
        if self.slo_tracker is not None:
            self.slo_tracker.observe(self.sim.now, latency_ms)
        if self._obs is None:
            return
        histogram = self._corrected_histogram
        if histogram is None:
            histogram = self._corrected_histogram = self._obs.metrics.histogram(
                "fleet.session_latency_corrected_ms"
            )
        histogram.observe(latency_ms)

    # -- session lifecycle ---------------------------------------------------

    def open_session(
        self,
        name: str,
        *,
        rate_hz: float = 2.0,
        display_chars: int = 8,
        start_typing: bool = True,
        pin_server: Optional[int] = None,
    ) -> Optional[FleetSession]:
        """One user arrives: admit, place, and (optionally) start typing.

        Returns the live :class:`FleetSession`, or ``None`` when the
        arrival was rejected or queued (queued arrivals are admitted later
        by :meth:`close_session`, with the same parameters).

        ``pin_server`` bypasses the placement policy and attaches the
        session to that server index (it must be admissible).  The hybrid
        tier's probe sessions use this: a probe must land on the server
        whose background population it is measuring, not wherever the
        policy would scatter it.
        """
        if name in self.sessions:
            raise FleetError(f"fleet session {name!r} already exists")
        outcome = self.admission.decide(name, self.servers)
        if outcome is not ADMITTED:
            self._count("rejected" if outcome != QUEUED else "queued")
            if outcome == QUEUED:
                self._queued_params[name] = (rate_hz, display_chars, start_typing)
            return None
        self._count("admitted")
        session = FleetSession(
            self,
            name,
            rate_hz=rate_hz,
            display_chars=display_chars,
            co_safe=self.config.co_safe_sessions,
        )
        if pin_server is not None:
            candidates = {
                id(state) for state in self.admission.admissible(self.servers)
            }
            try:
                state = self.servers[pin_server]
            except IndexError:
                raise FleetError(
                    f"no server {pin_server} in a fleet of {len(self.servers)}"
                ) from None
            if id(state) not in candidates:
                raise FleetError(
                    f"cannot pin session {name!r} to inadmissible server "
                    f"{pin_server}"
                )
        else:
            state = self.placement.choose(
                name,
                self.admission.admissible(self.servers),
                total_servers=self.config.num_servers,
                rng=self._placement_rng,
            )
        session.attach(state)
        self.sessions[name] = session
        self._publish_load(state)
        if start_typing:
            # Deterministic per-session phase staggers the fleet's typing
            # so sessions don't fire in lockstep on the shared backbone.
            phase = self.rngs.stream("fleet:phase").uniform(
                0.0, 1000.0 / rate_hz
            )
            session.start_typing(phase_ms=phase)
        return session

    def close_session(self, name: str) -> None:
        """One user departs; a queued arrival (if any) takes the slot."""
        session = self.sessions.pop(name, None)
        if session is None:
            raise FleetError(f"no fleet session {name!r}")
        state = session.state
        session.stop_typing()
        session.detach()
        if state is not None:
            self._publish_load(state)
        waiting = self.admission.release()
        if waiting is not None:
            rate_hz, display_chars, start_typing = self._queued_params.pop(
                waiting, (2.0, 8, True)
            )
            self.open_session(
                waiting,
                rate_hz=rate_hz,
                display_chars=display_chars,
                start_typing=start_typing,
            )

    def fail_server(self, index: int) -> List[str]:
        """Mark one server failed and migrate its sessions off it.

        Each displaced session re-runs placement among the remaining
        admissible servers (this is the *only* event that moves a
        session-affinity session).  Sessions that cannot be re-placed —
        no admissible server left — are dropped and counted rejected.
        Returns the names of migrated sessions, in placement order.
        """
        try:
            state = self.servers[index]
        except IndexError:
            raise FleetError(f"no server {index} in a fleet of {len(self.servers)}") from None
        if state.failed:
            raise FleetError(f"server {index} already failed")
        state.failed = True
        displaced = list(state.sessions.values())
        migrated: List[str] = []
        for session in displaced:
            session.detach()
            candidates = self.admission.admissible(self.servers)
            if not candidates:
                session.stop_typing()
                del self.sessions[session.name]
                self.admission.rejected_total += 1
                self._count("rejected")
                continue
            target = self.placement.choose(
                session.name,
                candidates,
                total_servers=self.config.num_servers,
                rng=self._placement_rng,
            )
            session.attach(target)
            self._publish_load(target)
            self.migrations += 1
            self._count("migrations")
            migrated.append(session.name)
        self._publish_load(state)
        return migrated

    def attach_background(
        self,
        index: int,
        spec,
        *,
        horizon_ms: float,
        seed: Optional[int] = None,
    ):
        """Deploy a hybrid-tier background population on server *index*.

        *spec* is a :class:`repro.scale.PopulationSpec` (open arrivals) or
        a :class:`repro.scale.ClosedLoopSpec` (typing sessions that block
        on their echoes); its users load the server's LAN as fluid and
        (when the spec carries CPU demand) its scheduler as aggregated
        per-tick bursts, out to *horizon_ms*.  Admission does not see
        these users — they are statistical mass, not sessions; pin probe
        sessions (:meth:`open_session` with ``pin_server=index``) to
        measure through them.  One population per server; the
        per-population seed derives from the fleet seed and the server
        index unless given.
        """
        from ..scale.population import (
            BackgroundPopulation,
            ClosedLoopPopulation,
            ClosedLoopSpec,
        )

        if index in self.backgrounds:
            raise FleetError(f"server {index} already has a background")
        try:
            state = self.servers[index]
        except IndexError:
            raise FleetError(
                f"no server {index} in a fleet of {len(self.servers)}"
            ) from None
        population_cls = (
            ClosedLoopPopulation
            if isinstance(spec, ClosedLoopSpec)
            else BackgroundPopulation
        )
        population = population_cls(
            self.sim,
            state.server.link,
            spec,
            duration_ms=horizon_ms,
            seed=derive_seed(self.seed, f"fleet:background:{index}")
            if seed is None
            else seed,
            cpu=state.server.cpu,
        )
        self.backgrounds[index] = population
        return population

    # -- driving -------------------------------------------------------------

    def run(self, duration_ms: float) -> None:
        """Advance the whole fleet on the shared clock."""
        self.sim.run(duration_ms)

    def measure(self, warmup_ms: float, measure_ms: float, tracker=None) -> None:
        """Warm up, discard warmup samples, then run the measurement window.

        Clears both latency series of every session after *warmup_ms* and
        installs *tracker* as :attr:`slo_tracker` only for the following
        *measure_ms*, so setup traffic never lands in a sample or burns
        budget.
        """
        self.run(warmup_ms)
        for session in self.sessions.values():
            session.latencies_ms.clear()
            session.intended_latencies_ms.clear()
        self.slo_tracker = tracker
        self.run(measure_ms)

    @property
    def session_count(self) -> int:
        """Users currently logged in fleet-wide."""
        return len(self.sessions)

    def latencies_ms(self) -> List[float]:
        """Every completed end-to-end latency, in session-creation order."""
        samples: List[float] = []
        for session in self.sessions.values():
            samples.extend(session.latencies_ms)
        return samples

    def corrected_latencies_ms(self) -> List[float]:
        """Every coordinated-omission-corrected latency (co-safe sessions).

        Empty unless the fleet was built with ``co_safe_sessions=True``.
        """
        samples: List[float] = []
        for session in self.sessions.values():
            samples.extend(session.intended_latencies_ms)
        return samples

    def report(self, t0: float = 0.0, t1: Optional[float] = None) -> Dict[str, object]:
        """A fleet-wide snapshot: per-server loads plus backbone state."""
        end = self.sim.now if t1 is None else t1
        per_server = [
            {
                "label": state.label,
                "failed": state.failed,
                "active_sessions": state.active,
                "latency_ewma_ms": state.latency_ewma,
                "cpu_utilization": state.server.cpu.utilization(t0, end)
                if end > t0
                else 0.0,
            }
            for state in self.servers
        ]
        return {
            "placement": self.placement.name,
            "num_servers": self.config.num_servers,
            "sessions": self.session_count,
            "admitted": self.admission.admitted_total,
            "queued": self.admission.queued_total,
            "rejected": self.admission.rejected_total,
            "migrations": self.migrations,
            "background_users": sum(
                population.spec.users
                for population in self.backgrounds.values()
            ),
            # Closed-loop populations report their measured throughput —
            # keystrokes the fleet actually echoed per second — and every
            # population kind exposes its peak fluid backlog; both stay
            # zero on open-only and pre-scale paths.
            "background_keys_per_s": sum(
                population.throughput_per_ms * 1000.0
                for population in self.backgrounds.values()
                if hasattr(population, "throughput_per_ms")
            ),
            "background_backlog_ms": max(
                (
                    population.fluid.peak_backlog_ms
                    for population in self.backgrounds.values()
                ),
                default=0.0,
            ),
            "backbone_utilization": self.backbone.utilization(t0, end)
            if end > t0
            else 0.0,
            "backbone_bytes": self.backbone.bytes_sent,
            "servers": per_server,
        }
