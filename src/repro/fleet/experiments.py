"""Registered fleet experiments: capacity frontier and placement shoot-out.

Two experiments extend the paper's single-server measurements to a server
pool, through the same executor pipeline as every figure (``--jobs``,
result cache, tracing, fault injection all compose):

``fleet_capacity``
    The Figure-8 question at fleet scale: how many sessions per server can
    a fleet of N servers carry before p99 user-perceived latency violates
    the interaction SLO?  Sweeps a (fleet size × sessions-per-server) grid
    and reports the SLO-preserving frontier — per-server resources bind
    small fleets, the shared backbone binds large ones.

``fleet_placement``
    The same fleet under each session-placement policy, with a mid-run
    server failure.  Reports p50/p99 session latency and the migration
    count per policy.

Both sweeps key their cache entries on the full parameter + seed + fault
spec, and their artifacts are byte-identical across serial, ``--jobs N``,
and warm-cache runs.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

from ..core.registry import ExperimentSpec
from ..core.report import Column, Row, Table, format_series, write_rows
from ..sim.stats import nearest_rank_percentile

#: p99 user-perceived latency SLO (ms) a fleet configuration must hold —
#: the paper's 100 ms perception threshold, applied to the latency tail.
SLO_P99_MS = 100.0

#: Fleet sizes swept by ``fleet_capacity``.
CAPACITY_FLEET_SIZES = [1, 2, 4, 8]

#: Sessions-per-server levels swept by ``fleet_capacity``.
CAPACITY_PER_SERVER = [4, 8, 12]

#: Shared client-side backbone for the capacity sweep (Mbps).  Sized so
#: the aggregate display traffic of the largest fleet saturates it while
#: a mid-size fleet still has headroom — the crossover the frontier shows.
CAPACITY_BACKBONE_MBPS = 0.15

#: Placement policies raced by ``fleet_placement`` (output row order).
PLACEMENT_POLICIES_ORDER = [
    "random",
    "round_robin",
    "least_loaded",
    "latency_aware",
    "session_affinity",
]

#: ``fleet_placement`` fleet shape: servers, per-server cap, and sessions.
PLACEMENT_SERVERS = 4
PLACEMENT_CAPACITY = 8
PLACEMENT_SESSIONS = 20

#: Background CPU hogs per server in the placement race (by server index).
#: Heterogeneous compute load is what gives the policies something to
#: avoid; the *unloaded* server is the one that fails mid-run, forcing
#: every policy to re-place its sessions onto loaded servers.
PLACEMENT_HOGS = (3, 2, 1, 0)

#: Each hog submits a burst this long (ms) every ``HOG_PERIOD_MS``.
HOG_BURST_MS = 30.0
HOG_PERIOD_MS = 100.0

#: Simulated warmup (session setup drains) and measurement windows, ms.
WARMUP_MS = 1_500.0
MEASURE_MS = 4_000.0


def _drive_fleet(
    fleet,
    sessions: int,
    *,
    rates: Sequence[float] = (1.0, 2.0, 4.0),
    measure_ms: float = MEASURE_MS,
    tracker=None,
) -> List[float]:
    """Open *sessions* users, warm the fleet up, and measure latencies.

    Typing rates (cycling through *rates*) and display sizes cycle
    deterministically so the offered load is heterogeneous (policies have
    something to balance).  :meth:`~repro.fleet.cluster.Fleet.measure`
    lets session-setup traffic drain off the per-server LANs before the
    *measure_ms* window starts, discards warmup latencies, and feeds
    *tracker* (if any) only from the window.
    """
    chars = [4, 8, 16]
    for i in range(sessions):
        fleet.open_session(
            f"u{i:03d}",
            rate_hz=rates[i % len(rates)],
            display_chars=chars[i % len(chars)],
        )
    fleet.measure(WARMUP_MS, measure_ms, tracker)
    return fleet.latencies_ms()


class CapacityPoint(NamedTuple):
    p50_ms: float
    p99_ms: float
    admitted: int
    rejected: int
    backbone_utilization: float


class PlacementPoint(NamedTuple):
    p50_ms: float
    p99_ms: float
    migrations: int
    rejected: int


def _fleet_capacity_point(
    point: Tuple[int, int], *, seed: int, faults: str = "", fault_seed: int = 0
) -> CapacityPoint:
    """One capacity cell: latency tail, admission counts, backbone load."""
    from ..core.server import ServerConfig
    from ..net.faults import FaultPlan
    from ..sim.rng import derive_seed
    from .cluster import Fleet, FleetConfig

    num_servers, per_server = point
    plan = FaultPlan.parse(faults, seed=fault_seed) if faults else None
    config = FleetConfig(
        # Idle-activity stalls are the paper's §4 story; here they would
        # only blur the load signal the frontier is after, so the fleet
        # sweeps run quiet servers.
        server=ServerConfig.tse(include_idle_activity=False),
        num_servers=num_servers,
        placement="round_robin",
        admission_mode="reject",
        capacity_per_server=per_server,
        backbone_mbps=CAPACITY_BACKBONE_MBPS,
        backbone_faults=plan,
    )
    fleet = Fleet(
        config,
        seed=derive_seed(seed, f"fleet_capacity:{num_servers}x{per_server}"),
    )
    # Offer more sessions than the fleet admits, so the admission
    # controller's reject path is exercised at every cell.
    offered = num_servers * per_server + max(2, num_servers)
    latencies = _drive_fleet(fleet, offered)
    report = fleet.report(t0=WARMUP_MS)
    return CapacityPoint(
        nearest_rank_percentile(latencies, 50.0),
        nearest_rank_percentile(latencies, 99.0),
        fleet.admission.admitted_total,
        fleet.admission.rejected_total,
        float(report["backbone_utilization"]),
    )


def _install_hogs(fleet) -> None:
    """Pin the :data:`PLACEMENT_HOGS` compute load onto each server.

    Each hog is a non-interactive thread submitting a
    :data:`HOG_BURST_MS` burst every :data:`HOG_PERIOD_MS` — the
    run-queue contention of §4, dialed per server so the fleet is
    heterogeneous in a way only latency observations reveal.
    """
    from ..cpu.thread import Burst, Thread

    for index, hogs in enumerate(PLACEMENT_HOGS):
        state = fleet.servers[index]
        for h in range(hogs):
            thread = Thread(f"hog:{index}:{h}")
            state.server.cpu.add_thread(thread)

            def submit(cpu=state.server.cpu, thread=thread) -> None:
                cpu.submit(thread, Burst(HOG_BURST_MS))

            fleet.sim.every(HOG_PERIOD_MS, submit)


def _fleet_placement_point(
    policy: str, *, seed: int, faults: str = "", fault_seed: int = 0
) -> PlacementPoint:
    """One policy race under a mid-run server failure."""
    from ..core.server import ServerConfig
    from ..net.faults import FaultPlan
    from ..sim.rng import derive_seed
    from .cluster import Fleet, FleetConfig

    plan = FaultPlan.parse(faults, seed=fault_seed) if faults else None
    config = FleetConfig(
        # Linux/X on purpose: its round-robin scheduler lets the hog load
        # actually stall the echo path (fig 3), where TSE's foreground
        # boost would hide it — so placement choices show up in the tail.
        server=ServerConfig.linux(include_idle_activity=False),
        num_servers=PLACEMENT_SERVERS,
        placement=policy,
        admission_mode="reject",
        capacity_per_server=PLACEMENT_CAPACITY,
        backbone_mbps=2.0,
        backbone_faults=plan,
    )
    fleet = Fleet(config, seed=derive_seed(seed, f"fleet_placement:{policy}"))
    _install_hogs(fleet)
    # Halfway through the measurement window the *unloaded* server dies;
    # its sessions must migrate onto the loaded ones (the only event
    # allowed to move a session-affinity session), and where each policy
    # puts them decides the tail.
    failed_index = PLACEMENT_HOGS.index(0)
    fleet.sim.schedule(
        WARMUP_MS + MEASURE_MS / 2, lambda: fleet.fail_server(failed_index)
    )
    latencies = _drive_fleet(fleet, PLACEMENT_SESSIONS)
    return PlacementPoint(
        nearest_rank_percentile(latencies, 50.0),
        nearest_rank_percentile(latencies, 99.0),
        fleet.migrations,
        fleet.admission.rejected_total,
    )


def _capacity_frontier(ctx, rows: List[Row]) -> None:
    """Print and write the grid's SLO-preserving frontier: per fleet size,
    the most sessions per server whose p99 holds :data:`SLO_P99_MS`."""
    frontier = [0] * len(CAPACITY_FLEET_SIZES)
    for row in rows:
        if row["p99_ms"] <= SLO_P99_MS:
            i = CAPACITY_FLEET_SIZES.index(row["servers"])
            frontier[i] = max(frontier[i], row["sessions_per_server"])
    ctx.out.write(
        format_series(
            "servers",
            f"max sessions/server (p99 <= {SLO_P99_MS:.0f} ms)",
            CAPACITY_FLEET_SIZES,
            [float(best) for best in frontier],
            title="Fleet capacity frontier",
            y_format="{:.0f}",
        )
        + "\n"
    )
    write_rows(
        ctx,
        "fleet_capacity_frontier.csv",
        [
            {"servers": n, "max_sessions_per_server": best, "fleet_sessions": n * best}
            for n, best in zip(CAPACITY_FLEET_SIZES, frontier)
        ],
    )


#: This module's experiments, in ``run all`` order; ``repro.cli``
#: registers them right after the paper set.
SPECS = (
    ExperimentSpec(
        "fleet_capacity", "Fleet capacity: SLO sessions/server vs fleet size", "fleet",
        point=_fleet_capacity_point,
        grid=[(n, k) for n in CAPACITY_FLEET_SIZES for k in CAPACITY_PER_SERVER],
        keys=("servers", "sessions_per_server"), record=CapacityPoint,
        tables=[Table("Fleet capacity grid (shared backbone, round_robin)", [
            Column("servers", "servers"), Column("sessions/server", "sessions_per_server"),
            Column("admitted", "admitted"), Column("rejected", "rejected"),
            Column("p50 (ms)", "p50_ms", "{:.1f}"), Column("p99 (ms)", "p99_ms", "{:.1f}"),
            Column("backbone", "backbone_utilization", "{:.0%}"),
        ])],
        post_rows=_capacity_frontier,
        # The CSV keeps its historical column order: admission counts first.
        csv_layout="columns",
    ),
    ExperimentSpec(
        "fleet_placement", "Placement policies: p50/p99 latency under a server failure",
        "fleet",
        point=_fleet_placement_point, grid=PLACEMENT_POLICIES_ORDER, keys=("policy",),
        record=PlacementPoint,
        tables=[Table(
            f"Placement policies: {PLACEMENT_SESSIONS} sessions on "
            f"{PLACEMENT_SERVERS} servers, one mid-run failure",
            [
                Column("policy", "policy"), Column("p50 (ms)", "p50_ms", "{:.1f}"),
                Column("p99 (ms)", "p99_ms", "{:.1f}"), Column("migrations", "migrations"),
                Column("rejected", "rejected"),
            ],
        )],
    ),
)
