"""Registered scale experiments: load curves and fleets at real populations.

Four scenarios take the hybrid tier through the same executor pipeline as
every figure (``--jobs``, result cache, tracing all compose):

``scale_load_curve``
    Figures 8–9 reshaped for the north star: ping RTT versus *population*
    on the shared link, 10⁴ to 10⁶ background users offering thin-client
    trickle, both arrival processes.  The background is fluid
    (cost independent of the user count); the probes are exact packets,
    so the p99/p99.9 columns and the 10 ms budget burn are measured, not
    modeled.  This is the farm-sizing curve Gray's *Locally Served
    Network Computers* asks for (PAPERS.md).

``scale_closed_curve``
    The same wire under the paper's *actual* workload: 10³–10⁶
    closed-loop typing sessions that think, type, and block on their
    echoes, carried as count vectors.  Offered load self-throttles, so
    instead of a latency cliff the curve shows the closed-network knee:
    per-session throughput X(N)/N stays flat until the MVA saturation
    population N* = (Z+D)/D, then decays as 1/N while the wire pins at
    capacity.  The table overlays the asymptotic MVA bounds
    (:mod:`repro.analytic.mva` — Gunther's *The X-Files* models), the
    independent oracle at populations no exact run can reach.

``scale_fleet``
    The capacity frontier rerun at realistic population sizes: each
    server in a co-safe fleet carries a vectorized background population
    (LAN bytes + scheduler demand) while two pinned probe sessions per
    server type through the full kernel/VM/protocol stack.  Corrected
    p99 against the 100 ms interaction budget marks the frontier —
    background users per server a server can hide while staying
    perceptually instant.

``scale_closed_fleet``
    The frontier with closed-loop backgrounds: the same co-safe fleet,
    but each server's population is typing sessions whose keystroke rate
    collapses onto the service rate once the CPU saturates — utilization
    clamps at the ceiling instead of running away, which is how real
    interactive farms degrade (Gray's NC-farm sizing, sessions-per-server
    edition).

All sweeps are byte-identical across serial, ``--jobs N``, and
cold/warm-cache runs; ``tests/golden/artifacts.json`` pins their stdout,
CSV, trace and metrics digests on every one of those paths.  Faults do not
compose into these scenarios (the background is offered load, not a
fault target): the point functions take no fault plan, so a ``--faults``
run keys the same cache entries as a clean one and reuses them.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from ..core.registry import ExperimentSpec
from ..core.report import Column, Table
from ..sim.stats import nearest_rank_percentile

#: Arrival processes raced by ``scale_load_curve`` (output row order).
LOAD_CURVE_PROCESSES = ["poisson", "onoff"]

#: Background population sizes on the load curve's x-axis.
LOAD_CURVE_USERS = [10_000, 100_000, 300_000, 600_000, 900_000, 1_000_000]

#: Per-user offered load: a thin-client trickle.  9 bits/s per user puts
#: one million users at 90% of the 10 Mbps wire — the curve sweeps the
#: whole stable range and ends at the knee, like Figure 8 does.
LOAD_CURVE_PER_USER_BPS = 9.0

#: The shared medium (the paper's testbed wire).
LOAD_CURVE_BANDWIDTH_MBPS = 10.0

#: Fluid tick: a sixth of a 1500-byte frame's service time, where the
#: differential suite shows the smoothing bias is inside the noise.
LOAD_CURVE_TICK_MS = 0.2

#: Burst shape for the on-off rows (matches ``slo_burst``).
LOAD_CURVE_ON_FRACTION = 0.25
LOAD_CURVE_CYCLE_MS = 500.0

#: Probe cadence and measurement window.
LOAD_CURVE_PROBE_INTERVAL_MS = 5.0
LOAD_CURVE_DURATION_MS = 30_000.0
LOAD_CURVE_WARMUP_MS = 1_000.0

#: ``scale_closed_curve``: closed-loop sessions on the curve's x-axis.
CLOSED_CURVE_USERS = [1_000, 10_000, 100_000, 300_000, 600_000, 1_000_000]

#: A million interactive sessions need a backbone, not the testbed hub:
#: on the 100 Mbps wire a 264-byte round (64 up + 200 back) costs
#: D = 0.0211 ms, and one interaction per ~6.3 s cycle (6 s thinking,
#: 300 ms composing) puts the MVA knee at N* ≈ 298k sessions — inside
#: the sweep, so the curve shows both regimes.  Beyond the knee a closed
#: network parks N − N* sessions in the queue (~15 s of backlog at the
#: million), which is why the horizon is a full simulated minute: probes
#: launched early enough must live to report those RTTs.
CLOSED_CURVE_BANDWIDTH_MBPS = 100.0
CLOSED_CURVE_THINK_MS = 6_000.0
CLOSED_CURVE_TYPE_MS = 300.0
CLOSED_CURVE_BURST_KEYS = 1.0
CLOSED_CURVE_TICK_MS = 1.0
CLOSED_CURVE_PROBE_INTERVAL_MS = 5.0
CLOSED_CURVE_DURATION_MS = 60_000.0
CLOSED_CURVE_WARMUP_MS = 5_000.0

#: ``scale_fleet`` shape: a small co-safe fleet, every server carrying a
#: background population and two pinned probe sessions.
FLEET_SERVERS = 2
FLEET_PROBES_PER_SERVER = 2
FLEET_BACKBONE_MBPS = 100.0

#: Background users per server on the frontier's x-axis: ~23%, 58%, and
#: 91% of server CPU, then just past saturation — the frontier's cliff.
FLEET_BG_USERS = [20_000, 50_000, 80_000, 95_000]

#: Arrival processes raced across the frontier (row order).
FLEET_PROCESSES = ["poisson", "onoff"]

FLEET_PER_USER_BPS = 100.0
#: Thin-client display updates, not full frames.
FLEET_PACKET_BYTES = 200
#: Scheduler demand per background packet: protocol + display work the
#: server burns per update, aggregated per tick across the worker pool.
FLEET_CPU_MS_PER_PACKET = 0.18
FLEET_CPU_THREADS = 8
FLEET_TICK_MS = 10.0

#: The 100 ms perception threshold at p99 (same contract as
#: ``fleet_capacity`` and the chaos grid).
FLEET_BUDGET_MS = 100.0
FLEET_SLO_TARGET = 0.99

FLEET_WARMUP_MS = 1_500.0
FLEET_MEASURE_MS = 8_000.0

#: ``scale_closed_fleet``: typing sessions per server on the x-axis.
#: One burst of ~2 keystrokes per ~30.6 s cycle; at 0.18 ms of display
#: work per echo the sweep takes server CPU from ~24% to ~112% — the
#: same span the open frontier covers, but self-throttling.
CLOSED_FLEET_BG_SESSIONS = [20_000, 50_000, 80_000, 95_000]
CLOSED_FLEET_THINK_MS = 30_000.0
CLOSED_FLEET_TYPE_MS = 300.0
CLOSED_FLEET_BURST_KEYS = 2.0
CLOSED_FLEET_KEYSTROKE_BYTES = 64
#: Thin echoes keep the per-server LAN under capacity (~81% at the top
#: cell) so the closed frontier is CPU-bound like the open one.
CLOSED_FLEET_ECHO_BYTES = 100
CLOSED_FLEET_CPU_MS_PER_ECHO = 0.18


class LoadCurvePoint(NamedTuple):
    samples: int
    offered_mbps: float
    utilization: float
    rtt_mean_ms: float
    rtt_p50_ms: float
    rtt_p99_ms: float
    rtt_p999_ms: float
    violation_rate: float
    budget_burn: float


class ClosedCurvePoint(NamedTuple):
    samples: int
    utilization: float
    rtt_p50_ms: float
    rtt_p99_ms: float
    throughput_keys_per_s: float
    per_session_keys_per_s: float
    response_ms: float
    mva_throughput_bound_keys_per_s: float
    violation_rate: float
    budget_burn: float


class FleetPoint(NamedTuple):
    samples: int
    cpu_utilization: float
    lan_utilization: float
    p50_ms: float
    p99_ms: float
    violation_rate: float
    budget_burn: float


class ClosedFleetPoint(NamedTuple):
    samples: int
    cpu_utilization: float
    lan_utilization: float
    keys_per_s_per_server: float
    p50_ms: float
    p99_ms: float
    violation_rate: float
    budget_burn: float


def _scale_load_curve_point(point: Tuple[str, int], *, seed: int) -> LoadCurvePoint:
    """One curve cell: probe RTT tail against a fluid background."""
    from ..sim.rng import derive_seed
    from .hybrid import run_load_curve_point

    process, users = point
    obs = run_load_curve_point(
        users,
        process=process,
        per_user_bps=LOAD_CURVE_PER_USER_BPS,
        bandwidth_mbps=LOAD_CURVE_BANDWIDTH_MBPS,
        tick_ms=LOAD_CURVE_TICK_MS,
        on_fraction=LOAD_CURVE_ON_FRACTION,
        cycle_ms=LOAD_CURVE_CYCLE_MS,
        probe_interval_ms=LOAD_CURVE_PROBE_INTERVAL_MS,
        duration_ms=LOAD_CURVE_DURATION_MS,
        warmup_ms=LOAD_CURVE_WARMUP_MS,
        seed=derive_seed(seed, f"scale_load_curve:{process}:{users}"),
        mode="hybrid",
    )
    return LoadCurvePoint(
        obs.samples,
        obs.offered_mbps,
        obs.utilization,
        obs.rtt_mean_ms,
        obs.rtt_p50_ms,
        obs.rtt_p99_ms,
        obs.rtt_p999_ms,
        obs.violation_rate,
        obs.budget_burn,
    )


def _scale_closed_curve_point(users: int, *, seed: int) -> ClosedCurvePoint:
    """One closed cell: probe tail, throughput, and the MVA bound."""
    from ..sim.rng import derive_seed
    from .hybrid import run_closed_curve_point

    obs = run_closed_curve_point(
        users,
        think_ms=CLOSED_CURVE_THINK_MS,
        type_ms=CLOSED_CURVE_TYPE_MS,
        burst_keys=CLOSED_CURVE_BURST_KEYS,
        bandwidth_mbps=CLOSED_CURVE_BANDWIDTH_MBPS,
        tick_ms=CLOSED_CURVE_TICK_MS,
        probe_interval_ms=CLOSED_CURVE_PROBE_INTERVAL_MS,
        duration_ms=CLOSED_CURVE_DURATION_MS,
        warmup_ms=CLOSED_CURVE_WARMUP_MS,
        seed=derive_seed(seed, f"scale_closed_curve:{users}"),
        mode="hybrid",
    )
    return ClosedCurvePoint(
        obs.samples,
        obs.utilization,
        obs.rtt_p50_ms,
        obs.rtt_p99_ms,
        obs.throughput_per_ms * 1000.0,
        obs.per_session_keys_per_s,
        obs.response_ms,
        obs.mva_throughput_per_ms * 1000.0,
        obs.violation_rate,
        obs.budget_burn,
    )


def _run_probe_fleet(seed: int, label: str, spec):
    """Run the co-safe probe fleet with *spec* on every server.

    Placement is pinned: probe ``p<server>.<k>`` lands on server
    ``<server>``, so every server's background population is measured
    through a session *on that server*.  The SLO tracker attaches after
    warmup.  Returns the corrected probe latencies, the fleet report,
    server 0's LAN utilization, and the tracker.
    """
    from ..core.server import ServerConfig
    from ..fleet.cluster import Fleet, FleetConfig
    from ..sim.rng import derive_seed
    from ..slo.budget import LatencyBudget, SloTracker

    config = FleetConfig(
        server=ServerConfig.tse(include_idle_activity=False),
        num_servers=FLEET_SERVERS,
        placement="round_robin",
        admission_mode="reject",
        capacity_per_server=FLEET_PROBES_PER_SERVER,
        backbone_mbps=FLEET_BACKBONE_MBPS,
        co_safe_sessions=True,
    )
    fleet = Fleet(config, seed=derive_seed(seed, label))
    horizon = FLEET_WARMUP_MS + FLEET_MEASURE_MS
    for index in range(FLEET_SERVERS):
        fleet.attach_background(index, spec, horizon_ms=horizon)
    rates = [2.0, 4.0]
    for index in range(len(fleet.servers)):
        for k in range(FLEET_PROBES_PER_SERVER):
            fleet.open_session(
                f"p{index}.{k}",
                rate_hz=rates[k % len(rates)],
                display_chars=8,
                pin_server=index,
            )
    tracker = SloTracker(
        LatencyBudget("interaction", FLEET_BUDGET_MS, target=FLEET_SLO_TARGET)
    )
    fleet.measure(FLEET_WARMUP_MS, FLEET_MEASURE_MS, tracker)
    corrected = fleet.corrected_latencies_ms()
    report = fleet.report(t0=FLEET_WARMUP_MS)
    lan_util = fleet.backgrounds[0].utilization(FLEET_WARMUP_MS, horizon)
    return corrected, report, lan_util, tracker


def _scale_fleet_point(cell: Tuple[str, int], *, seed: int) -> FleetPoint:
    """One frontier cell: utilization and corrected probe tail."""
    from .population import PopulationSpec

    process, bg_users = cell
    spec = PopulationSpec(
        users=bg_users,
        per_user_bps=FLEET_PER_USER_BPS,
        process=process,
        tick_ms=FLEET_TICK_MS,
        packet_bytes=FLEET_PACKET_BYTES,
        cpu_ms_per_packet=FLEET_CPU_MS_PER_PACKET,
        cpu_threads=FLEET_CPU_THREADS,
    )
    corrected, report, lan_util, tracker = _run_probe_fleet(
        seed, f"scale_fleet:{process}:{bg_users}", spec
    )
    return FleetPoint(
        len(corrected),
        float(report["servers"][0]["cpu_utilization"]),
        lan_util,
        nearest_rank_percentile(corrected, 50.0),
        nearest_rank_percentile(corrected, 99.0),
        tracker.violation_rate,
        tracker.budget_burn,
    )


def _scale_closed_fleet_point(bg_sessions: int, *, seed: int) -> ClosedFleetPoint:
    """One closed frontier cell: utilization, keys/s, corrected tail."""
    from .population import ClosedLoopSpec

    spec = ClosedLoopSpec(
        users=bg_sessions,
        think_ms=CLOSED_FLEET_THINK_MS,
        type_ms=CLOSED_FLEET_TYPE_MS,
        burst_keys=CLOSED_FLEET_BURST_KEYS,
        tick_ms=FLEET_TICK_MS,
        keystroke_bytes=CLOSED_FLEET_KEYSTROKE_BYTES,
        echo_bytes=CLOSED_FLEET_ECHO_BYTES,
        cpu_ms_per_echo=CLOSED_FLEET_CPU_MS_PER_ECHO,
        cpu_threads=FLEET_CPU_THREADS,
    )
    corrected, report, lan_util, tracker = _run_probe_fleet(
        seed, f"scale_closed_fleet:{bg_sessions}", spec
    )
    return ClosedFleetPoint(
        len(corrected),
        float(report["servers"][0]["cpu_utilization"]),
        lan_util,
        float(report["background_keys_per_s"]) / FLEET_SERVERS,
        nearest_rank_percentile(corrected, 50.0),
        nearest_rank_percentile(corrected, 99.0),
        tracker.violation_rate,
        tracker.budget_burn,
    )


def _closed_curve_title() -> str:
    """The closed curve's table title, with the MVA knee of its wire."""
    from ..analytic.mva import saturation_population
    from ..net.loadgen import DEFAULT_KEYSTROKE_BYTES
    from ..units import mbps_to_bytes_per_ms
    from .population import DEFAULT_ECHO_BYTES

    demand_ms = (DEFAULT_KEYSTROKE_BYTES + DEFAULT_ECHO_BYTES) / (
        mbps_to_bytes_per_ms(CLOSED_CURVE_BANDWIDTH_MBPS)
    )
    think_per_round = (
        CLOSED_CURVE_THINK_MS / CLOSED_CURVE_BURST_KEYS + CLOSED_CURVE_TYPE_MS
    )
    knee = saturation_population(think_per_round, [demand_ms])
    return (
        "Closed-loop typing sessions on the shared wire "
        f"(MVA knee N* = {knee:,.0f}, exact probes)"
    )


_FLEET_TAIL = [
    Column("p50 (ms)", "p50_ms", "{:.1f}"), Column("p99 (ms)", "p99_ms", "{:.1f}"),
    Column("viol rate", "violation_rate", "{:.2%}"),
    Column(f"burn ({FLEET_BUDGET_MS:.0f} ms)", "budget_burn", "{:.2f}"),
]

#: This module's experiments, in ``run all`` order; ``repro.cli``
#: registers them after the SLO group.
SPECS = (
    ExperimentSpec(
        "scale_load_curve", "RTT vs load at 10^4-10^6 background users (hybrid tier)",
        "scale",
        point=_scale_load_curve_point,
        grid=[(p, users) for p in LOAD_CURVE_PROCESSES for users in LOAD_CURVE_USERS],
        keys=("process", "users"), record=LoadCurvePoint,
        tables=[
            Table(
                "RTT vs population on the shared wire "
                f"({LOAD_CURVE_PER_USER_BPS:.0f} bps/user, exact probes)",
                [
                    Column("process", "process"), Column("users", "users"),
                    Column("offered (Mbps)", "offered_mbps", "{:.2f}"),
                    Column("util", "utilization", "{:.0%}"), Column("n", "samples"),
                    Column("mean (ms)", "rtt_mean_ms", "{:.2f}"),
                    Column("p50 (ms)", "rtt_p50_ms", "{:.2f}"),
                    Column("p99 (ms)", "rtt_p99_ms", "{:.2f}"),
                    Column("p99.9 (ms)", "rtt_p999_ms", "{:.2f}"),
                    Column("viol rate", "violation_rate", "{:.2%}"),
                    Column("burn (10 ms)", "budget_burn", "{:.2f}"),
                ],
            ),
            Table("The Figure 8 knee, three orders of magnitude later", [
                Column("users", "users"),
                Column("probe RTT p99 (ms), poisson", "rtt_p99_ms", "{:.2f}"),
            ], where=("process", "poisson")),
        ],
    ),
    ExperimentSpec(
        "scale_closed_curve", "Closed-loop X(N) and the MVA knee at 10^3-10^6 sessions",
        "scale",
        point=_scale_closed_curve_point, grid=CLOSED_CURVE_USERS, keys=("sessions",),
        record=ClosedCurvePoint,
        tables=[
            Table(_closed_curve_title, [
                Column("sessions", "sessions"), Column("util", "utilization", "{:.0%}"),
                Column("n", "samples"), Column("p50 (ms)", "rtt_p50_ms", "{:.2f}"),
                Column("p99 (ms)", "rtt_p99_ms", "{:.2f}"),
                Column("X (keys/s)", "throughput_keys_per_s", "{:.0f}"),
                Column("keys/s/session", "per_session_keys_per_s", "{:.4f}"),
                Column("R (ms)", "response_ms", "{:.1f}"),
                Column("MVA X bound", "mva_throughput_bound_keys_per_s", "{:.0f}"),
                Column("viol rate", "violation_rate", "{:.2%}"),
            ]),
            Table("The MVA knee: flat until N*, then 1/N decay", [
                Column("sessions", "sessions"),
                Column("per-session throughput (keys/s)", "per_session_keys_per_s", "{:.4f}"),
            ]),
        ],
    ),
    ExperimentSpec(
        "scale_fleet", "Capacity frontier with vectorized background populations", "scale",
        point=_scale_fleet_point,
        grid=[(p, users) for p in FLEET_PROCESSES for users in FLEET_BG_USERS],
        keys=("process", "bg_users_per_server"), record=FleetPoint,
        tables=[
            Table(
                f"Capacity frontier at population scale: {FLEET_SERVERS} "
                f"servers, {FLEET_PROBES_PER_SERVER} pinned probes each, "
                "corrected latencies",
                [
                    Column("process", "process"),
                    Column("bg users/server", "bg_users_per_server"), Column("n", "samples"),
                    Column("cpu", "cpu_utilization", "{:.0%}"),
                    Column("lan", "lan_utilization", "{:.0%}"), *_FLEET_TAIL,
                ],
            ),
            Table("What a bursty million-user farm does to the tail", [
                Column("bg users/server", "bg_users_per_server"),
                Column("probe p99 (ms), onoff", "p99_ms", "{:.1f}"),
            ], where=("process", "onoff")),
        ],
    ),
    ExperimentSpec(
        "scale_closed_fleet", "Capacity frontier with closed-loop typing backgrounds",
        "scale",
        point=_scale_closed_fleet_point, grid=CLOSED_FLEET_BG_SESSIONS,
        keys=("bg_sessions_per_server",), record=ClosedFleetPoint,
        tables=[
            Table(
                f"Closed-loop capacity frontier: {FLEET_SERVERS} servers, "
                f"{FLEET_PROBES_PER_SERVER} pinned probes each, typing "
                "sessions that block on their echoes",
                [
                    Column("sessions/server", "bg_sessions_per_server"),
                    Column("n", "samples"), Column("cpu", "cpu_utilization", "{:.0%}"),
                    Column("lan", "lan_utilization", "{:.0%}"),
                    Column("keys/s", "keys_per_s_per_server", "{:.0f}"), *_FLEET_TAIL,
                ],
            ),
            Table("Self-throttling sessions still have a frontier", [
                Column("sessions/server", "bg_sessions_per_server"),
                Column("probe p99 (ms)", "p99_ms", "{:.1f}"),
            ]),
        ],
    ),
)
