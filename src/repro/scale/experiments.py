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
cold/warm-cache runs on either kernel and either recorder — the
``scale-determinism`` CI job diffs exactly that matrix.  Faults do not
compose into these scenarios (the background is offered load, not a
fault target); the sweep name still carries the fault suffix so cache
entries stay distinct.
"""

from __future__ import annotations

from functools import partial
from typing import Tuple

from ..core.registry import experiment
from ..core.report import format_series, format_table, write_csv
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


def _scale_load_curve_point(
    point: Tuple[str, int],
    *,
    seed: int,
) -> Tuple[int, float, float, float, float, float, float, float, float]:
    """One curve cell: (n, offered, util, mean, p50, p99, p99.9, viol, burn)."""
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
    return (
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


def _scale_closed_curve_point(
    users: int,
    *,
    seed: int,
) -> Tuple[int, float, float, float, float, float, float, float, float, float]:
    """One closed cell: (n, util, p50, p99, X/s, X/s/session, R, mvaX/s, viol, burn)."""
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
    return (
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


def _drive_probe_fleet(fleet, measure_ms: float):
    """Pin probe sessions, warm up, attach a tracker, and measure.

    Mirrors the slo experiments' driver, with placement pinned: probe
    ``p<server>.<k>`` lands on server ``<server>``, so every server's
    background population is measured through a session *on that server*.
    """
    from ..slo.budget import LatencyBudget, SloTracker

    rates = [2.0, 4.0]
    for index in range(len(fleet.servers)):
        for k in range(FLEET_PROBES_PER_SERVER):
            fleet.open_session(
                f"p{index}.{k}",
                rate_hz=rates[k % len(rates)],
                display_chars=8,
                pin_server=index,
            )
    fleet.run(FLEET_WARMUP_MS)
    for session in fleet.sessions.values():
        session.latencies_ms.clear()
        session.intended_latencies_ms.clear()
    tracker = SloTracker(
        LatencyBudget("interaction", FLEET_BUDGET_MS, target=FLEET_SLO_TARGET)
    )
    fleet.slo_tracker = tracker
    fleet.run(measure_ms)
    return tracker


def _scale_fleet_point(
    cell: Tuple[str, int],
    *,
    seed: int,
) -> Tuple[int, float, float, float, float, float, float]:
    """One frontier cell: (n, cpu util, lan util, p50, p99, viol, burn)."""
    from ..core.server import ServerConfig
    from ..fleet.cluster import Fleet, FleetConfig
    from ..sim.rng import derive_seed
    from .population import PopulationSpec

    process, bg_users = cell
    config = FleetConfig(
        server=ServerConfig.tse(include_idle_activity=False),
        num_servers=FLEET_SERVERS,
        placement="round_robin",
        admission_mode="reject",
        capacity_per_server=FLEET_PROBES_PER_SERVER,
        backbone_mbps=FLEET_BACKBONE_MBPS,
        co_safe_sessions=True,
    )
    fleet = Fleet(
        config, seed=derive_seed(seed, f"scale_fleet:{process}:{bg_users}")
    )
    spec = PopulationSpec(
        users=bg_users,
        per_user_bps=FLEET_PER_USER_BPS,
        process=process,
        tick_ms=FLEET_TICK_MS,
        packet_bytes=FLEET_PACKET_BYTES,
        cpu_ms_per_packet=FLEET_CPU_MS_PER_PACKET,
        cpu_threads=FLEET_CPU_THREADS,
    )
    horizon = FLEET_WARMUP_MS + FLEET_MEASURE_MS
    for index in range(FLEET_SERVERS):
        fleet.attach_background(index, spec, horizon_ms=horizon)
    tracker = _drive_probe_fleet(fleet, FLEET_MEASURE_MS)
    corrected = fleet.corrected_latencies_ms()
    report = fleet.report(t0=FLEET_WARMUP_MS)
    lan_util = fleet.backgrounds[0].utilization(FLEET_WARMUP_MS, horizon)
    return (
        len(corrected),
        float(report["servers"][0]["cpu_utilization"]),
        lan_util,
        nearest_rank_percentile(corrected, 50.0),
        nearest_rank_percentile(corrected, 99.0),
        tracker.violation_rate,
        tracker.budget_burn,
    )


def _scale_closed_fleet_point(
    bg_sessions: int,
    *,
    seed: int,
) -> Tuple[int, float, float, float, float, float, float, float]:
    """One closed frontier cell: (n, cpu, lan, keys/s, p50, p99, viol, burn)."""
    from ..core.server import ServerConfig
    from ..fleet.cluster import Fleet, FleetConfig
    from ..sim.rng import derive_seed
    from .population import ClosedLoopSpec

    config = FleetConfig(
        server=ServerConfig.tse(include_idle_activity=False),
        num_servers=FLEET_SERVERS,
        placement="round_robin",
        admission_mode="reject",
        capacity_per_server=FLEET_PROBES_PER_SERVER,
        backbone_mbps=FLEET_BACKBONE_MBPS,
        co_safe_sessions=True,
    )
    fleet = Fleet(
        config, seed=derive_seed(seed, f"scale_closed_fleet:{bg_sessions}")
    )
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
    horizon = FLEET_WARMUP_MS + FLEET_MEASURE_MS
    for index in range(FLEET_SERVERS):
        fleet.attach_background(index, spec, horizon_ms=horizon)
    tracker = _drive_probe_fleet(fleet, FLEET_MEASURE_MS)
    corrected = fleet.corrected_latencies_ms()
    report = fleet.report(t0=FLEET_WARMUP_MS)
    lan_util = fleet.backgrounds[0].utilization(FLEET_WARMUP_MS, horizon)
    return (
        len(corrected),
        float(report["servers"][0]["cpu_utilization"]),
        lan_util,
        float(report["background_keys_per_s"]) / FLEET_SERVERS,
        nearest_rank_percentile(corrected, 50.0),
        nearest_rank_percentile(corrected, 99.0),
        tracker.violation_rate,
        tracker.budget_burn,
    )


def _scale_load_curve(ctx) -> None:
    """Sweep both processes over the population axis; print the knee."""
    grid = [
        (process, users)
        for process in LOAD_CURVE_PROCESSES
        for users in LOAD_CURVE_USERS
    ]
    points = ctx.executor.map(
        "scale_load_curve" + ctx.fault_suffix,
        partial(_scale_load_curve_point, seed=ctx.seed),
        grid,
        seed=ctx.seed,
    )
    by_cell = dict(zip(grid, points))
    rows = [
        (
            process,
            users,
            f"{offered:.2f}",
            f"{util * 100:.0f}%",
            n,
            f"{rtt_mean:.2f}",
            f"{p50:.2f}",
            f"{p99:.2f}",
            f"{p999:.2f}",
            f"{viol * 100:.2f}%",
            f"{burn:.2f}",
        )
        for (process, users), (
            n,
            offered,
            util,
            rtt_mean,
            p50,
            p99,
            p999,
            viol,
            burn,
        ) in zip(grid, points)
    ]
    ctx.out.write(
        format_table(
            [
                "process",
                "users",
                "offered (Mbps)",
                "util",
                "n",
                "mean (ms)",
                "p50 (ms)",
                "p99 (ms)",
                "p99.9 (ms)",
                "viol rate",
                "burn (10 ms)",
            ],
            rows,
            title=(
                "RTT vs population on the shared wire "
                f"({LOAD_CURVE_PER_USER_BPS:.0f} bps/user, exact probes)"
            ),
        )
        + "\n"
    )
    ctx.out.write(
        format_series(
            "users",
            "probe RTT p99 (ms), poisson",
            [str(users) for users in LOAD_CURVE_USERS],
            [by_cell[("poisson", users)][5] for users in LOAD_CURVE_USERS],
            title="The Figure 8 knee, three orders of magnitude later",
            y_format="{:.2f}",
        )
        + "\n"
    )
    if ctx.csv_dir:
        write_csv(
            f"{ctx.csv_dir}/scale_load_curve.csv",
            [
                "process",
                "users",
                "samples",
                "offered_mbps",
                "utilization",
                "rtt_mean_ms",
                "rtt_p50_ms",
                "rtt_p99_ms",
                "rtt_p999_ms",
                "violation_rate",
                "budget_burn",
            ],
            [
                (process, users, n, offered, util, rtt_mean, p50, p99, p999, viol, burn)
                for (process, users), (
                    n,
                    offered,
                    util,
                    rtt_mean,
                    p50,
                    p99,
                    p999,
                    viol,
                    burn,
                ) in zip(grid, points)
            ],
        )


def _scale_closed_curve(ctx) -> None:
    """Sweep closed-loop sessions over the population axis; mark the knee."""
    from ..analytic.mva import saturation_population

    points = ctx.executor.map(
        "scale_closed_curve" + ctx.fault_suffix,
        partial(_scale_closed_curve_point, seed=ctx.seed),
        CLOSED_CURVE_USERS,
        seed=ctx.seed,
    )
    by_users = dict(zip(CLOSED_CURVE_USERS, points))
    rows = [
        (
            users,
            f"{util * 100:.0f}%",
            n,
            f"{p50:.2f}",
            f"{p99:.2f}",
            f"{xps:.0f}",
            f"{per_session:.4f}",
            f"{resp:.1f}",
            f"{mva_xps:.0f}",
            f"{viol * 100:.2f}%",
        )
        for users, (n, util, p50, p99, xps, per_session, resp, mva_xps, viol, _) in zip(
            CLOSED_CURVE_USERS, points
        )
    ]
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
    ctx.out.write(
        format_table(
            [
                "sessions",
                "util",
                "n",
                "p50 (ms)",
                "p99 (ms)",
                "X (keys/s)",
                "keys/s/session",
                "R (ms)",
                "MVA X bound",
                "viol rate",
            ],
            rows,
            title=(
                "Closed-loop typing sessions on the shared wire "
                f"(MVA knee N* = {knee:,.0f}, exact probes)"
            ),
        )
        + "\n"
    )
    ctx.out.write(
        format_series(
            "sessions",
            "per-session throughput (keys/s)",
            [str(users) for users in CLOSED_CURVE_USERS],
            [by_users[users][5] for users in CLOSED_CURVE_USERS],
            title="The MVA knee: flat until N*, then 1/N decay",
            y_format="{:.4f}",
        )
        + "\n"
    )
    if ctx.csv_dir:
        write_csv(
            f"{ctx.csv_dir}/scale_closed_curve.csv",
            [
                "sessions",
                "samples",
                "utilization",
                "rtt_p50_ms",
                "rtt_p99_ms",
                "throughput_keys_per_s",
                "per_session_keys_per_s",
                "response_ms",
                "mva_throughput_bound_keys_per_s",
                "violation_rate",
                "budget_burn",
            ],
            [
                (users, n, util, p50, p99, xps, per_session, resp, mva_xps, viol, burn)
                for users, (
                    n,
                    util,
                    p50,
                    p99,
                    xps,
                    per_session,
                    resp,
                    mva_xps,
                    viol,
                    burn,
                ) in zip(CLOSED_CURVE_USERS, points)
            ],
        )


def _scale_fleet(ctx) -> None:
    """Sweep background population per server; print the p99 frontier."""
    grid = [
        (process, bg_users)
        for process in FLEET_PROCESSES
        for bg_users in FLEET_BG_USERS
    ]
    points = ctx.executor.map(
        "scale_fleet" + ctx.fault_suffix,
        partial(_scale_fleet_point, seed=ctx.seed),
        grid,
        seed=ctx.seed,
    )
    by_cell = dict(zip(grid, points))
    rows = [
        (
            process,
            bg_users,
            n,
            f"{cpu * 100:.0f}%",
            f"{lan * 100:.0f}%",
            f"{p50:.1f}",
            f"{p99:.1f}",
            f"{viol * 100:.2f}%",
            f"{burn:.2f}",
        )
        for (process, bg_users), (n, cpu, lan, p50, p99, viol, burn) in zip(
            grid, points
        )
    ]
    ctx.out.write(
        format_table(
            [
                "process",
                "bg users/server",
                "n",
                "cpu",
                "lan",
                "p50 (ms)",
                "p99 (ms)",
                "viol rate",
                f"burn ({FLEET_BUDGET_MS:.0f} ms)",
            ],
            rows,
            title=(
                f"Capacity frontier at population scale: {FLEET_SERVERS} "
                f"servers, {FLEET_PROBES_PER_SERVER} pinned probes each, "
                "corrected latencies"
            ),
        )
        + "\n"
    )
    ctx.out.write(
        format_series(
            "bg users/server",
            "probe p99 (ms), onoff",
            [str(bg_users) for bg_users in FLEET_BG_USERS],
            [by_cell[("onoff", bg_users)][4] for bg_users in FLEET_BG_USERS],
            title="What a bursty million-user farm does to the tail",
            y_format="{:.1f}",
        )
        + "\n"
    )
    if ctx.csv_dir:
        write_csv(
            f"{ctx.csv_dir}/scale_fleet.csv",
            [
                "process",
                "bg_users_per_server",
                "samples",
                "cpu_utilization",
                "lan_utilization",
                "p50_ms",
                "p99_ms",
                "violation_rate",
                "budget_burn",
            ],
            [
                (process, bg_users, n, cpu, lan, p50, p99, viol, burn)
                for (process, bg_users), (n, cpu, lan, p50, p99, viol, burn) in zip(
                    grid, points
                )
            ],
        )


def _scale_closed_fleet(ctx) -> None:
    """Sweep typing sessions per server; print the self-throttling frontier."""
    points = ctx.executor.map(
        "scale_closed_fleet" + ctx.fault_suffix,
        partial(_scale_closed_fleet_point, seed=ctx.seed),
        CLOSED_FLEET_BG_SESSIONS,
        seed=ctx.seed,
    )
    by_cell = dict(zip(CLOSED_FLEET_BG_SESSIONS, points))
    rows = [
        (
            bg_sessions,
            n,
            f"{cpu * 100:.0f}%",
            f"{lan * 100:.0f}%",
            f"{keys_s:.0f}",
            f"{p50:.1f}",
            f"{p99:.1f}",
            f"{viol * 100:.2f}%",
            f"{burn:.2f}",
        )
        for bg_sessions, (n, cpu, lan, keys_s, p50, p99, viol, burn) in zip(
            CLOSED_FLEET_BG_SESSIONS, points
        )
    ]
    ctx.out.write(
        format_table(
            [
                "sessions/server",
                "n",
                "cpu",
                "lan",
                "keys/s",
                "p50 (ms)",
                "p99 (ms)",
                "viol rate",
                f"burn ({FLEET_BUDGET_MS:.0f} ms)",
            ],
            rows,
            title=(
                f"Closed-loop capacity frontier: {FLEET_SERVERS} servers, "
                f"{FLEET_PROBES_PER_SERVER} pinned probes each, typing "
                "sessions that block on their echoes"
            ),
        )
        + "\n"
    )
    ctx.out.write(
        format_series(
            "sessions/server",
            "probe p99 (ms)",
            [str(bg_sessions) for bg_sessions in CLOSED_FLEET_BG_SESSIONS],
            [by_cell[bg_sessions][5] for bg_sessions in CLOSED_FLEET_BG_SESSIONS],
            title="Self-throttling sessions still have a frontier",
            y_format="{:.1f}",
        )
        + "\n"
    )
    if ctx.csv_dir:
        write_csv(
            f"{ctx.csv_dir}/scale_closed_fleet.csv",
            [
                "bg_sessions_per_server",
                "samples",
                "cpu_utilization",
                "lan_utilization",
                "keys_per_s_per_server",
                "p50_ms",
                "p99_ms",
                "violation_rate",
                "budget_burn",
            ],
            [
                (bg_sessions, n, cpu, lan, keys_s, p50, p99, viol, burn)
                for bg_sessions, (
                    n,
                    cpu,
                    lan,
                    keys_s,
                    p50,
                    p99,
                    viol,
                    burn,
                ) in zip(CLOSED_FLEET_BG_SESSIONS, points)
            ],
        )


_REGISTERED = False


def _register() -> None:
    """Register this module's experiments; idempotent.

    Driven by ``repro.cli`` at this module's canonical position in the
    registration sequence (see ``repro.fleet.experiments._register`` for
    why import-time decorators would make registry order depend on which
    module a process imports first).
    """
    global _REGISTERED
    if _REGISTERED:
        return
    _REGISTERED = True
    experiment(
        "scale_load_curve",
        title="RTT vs load at 10^4-10^6 background users (hybrid tier)",
        group="scale",
    )(_scale_load_curve)
    experiment(
        "scale_closed_curve",
        title="Closed-loop X(N) and the MVA knee at 10^3-10^6 sessions",
        group="scale",
    )(_scale_closed_curve)
    experiment(
        "scale_fleet",
        title="Capacity frontier with vectorized background populations",
        group="scale",
    )(_scale_fleet)
    experiment(
        "scale_closed_fleet",
        title="Capacity frontier with closed-loop typing backgrounds",
        group="scale",
    )(_scale_closed_fleet)


# Importing any experiments module alone must still populate the whole
# registry in canonical order: pull in the CLI, which calls every
# module's ``_register`` in sequence.
from .. import cli as _cli  # noqa: E402,F401
