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

from functools import partial
from typing import List, Tuple

from ..core.registry import experiment
from ..core.report import format_series, format_table, write_csv
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


def _drive_fleet(fleet, sessions: int) -> List[float]:
    """Open *sessions* users, warm the fleet up, and measure latencies.

    Typing rates and display sizes cycle deterministically so the offered
    load is heterogeneous (policies have something to balance).  The
    warmup window lets session-setup traffic drain off the per-server
    LANs before measurement starts; warmup latencies are discarded.
    """
    rates = [1.0, 2.0, 4.0]
    chars = [4, 8, 16]
    for i in range(sessions):
        fleet.open_session(
            f"u{i:03d}",
            rate_hz=rates[i % len(rates)],
            display_chars=chars[i % len(chars)],
        )
    fleet.run(WARMUP_MS)
    for session in fleet.sessions.values():
        session.latencies_ms.clear()
    fleet.run(MEASURE_MS)
    return fleet.latencies_ms()


def _fleet_capacity_point(
    point: Tuple[int, int],
    *,
    seed: int,
    faults: str = "",
    fault_seed: int = 0,
) -> Tuple[float, float, int, int, float]:
    """One capacity cell: (p50, p99, admitted, rejected, backbone util)."""
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
    return (
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
    policy: str,
    *,
    seed: int,
    faults: str = "",
    fault_seed: int = 0,
) -> Tuple[float, float, int, int]:
    """One policy race: (p50, p99, migrations, rejected) under a failure."""
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
    return (
        nearest_rank_percentile(latencies, 50.0),
        nearest_rank_percentile(latencies, 99.0),
        fleet.migrations,
        fleet.admission.rejected_total,
    )


def _fleet_capacity(ctx) -> None:
    """Sweep the (fleet size × sessions/server) grid; print the frontier."""
    grid = [
        (num_servers, per_server)
        for num_servers in CAPACITY_FLEET_SIZES
        for per_server in CAPACITY_PER_SERVER
    ]
    points = ctx.executor.map(
        "fleet_capacity" + ctx.fault_suffix,
        partial(
            _fleet_capacity_point,
            seed=ctx.seed,
            faults=ctx.faults or "",
            fault_seed=ctx.fault_seed,
        ),
        grid,
        seed=ctx.seed,
    )
    rows = [
        (
            num_servers,
            per_server,
            admitted,
            rejected,
            f"{p50:.1f}",
            f"{p99:.1f}",
            f"{util * 100:.0f}%",
        )
        for (num_servers, per_server), (p50, p99, admitted, rejected, util) in zip(
            grid, points
        )
    ]
    ctx.out.write(
        format_table(
            [
                "servers",
                "sessions/server",
                "admitted",
                "rejected",
                "p50 (ms)",
                "p99 (ms)",
                "backbone",
            ],
            rows,
            title="Fleet capacity grid (shared backbone, round_robin)",
        )
        + "\n"
    )
    by_cell = dict(zip(grid, points))
    frontier = []
    for num_servers in CAPACITY_FLEET_SIZES:
        best = 0
        for per_server in CAPACITY_PER_SERVER:
            if by_cell[(num_servers, per_server)][1] <= SLO_P99_MS:
                best = max(best, per_server)
        frontier.append(best)
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
    if ctx.csv_dir:
        write_csv(
            f"{ctx.csv_dir}/fleet_capacity.csv",
            [
                "servers",
                "sessions_per_server",
                "admitted",
                "rejected",
                "p50_ms",
                "p99_ms",
                "backbone_utilization",
            ],
            [
                (num_servers, per_server, admitted, rejected, p50, p99, util)
                for (num_servers, per_server), (
                    p50,
                    p99,
                    admitted,
                    rejected,
                    util,
                ) in zip(grid, points)
            ],
        )
        write_csv(
            f"{ctx.csv_dir}/fleet_capacity_frontier.csv",
            ["servers", "max_sessions_per_server", "fleet_sessions"],
            [
                (num_servers, best, num_servers * best)
                for num_servers, best in zip(CAPACITY_FLEET_SIZES, frontier)
            ],
        )


def _fleet_placement(ctx) -> None:
    """Race every placement policy on the same fleet; print latency rows."""
    points = ctx.executor.map(
        "fleet_placement" + ctx.fault_suffix,
        partial(
            _fleet_placement_point,
            seed=ctx.seed,
            faults=ctx.faults or "",
            fault_seed=ctx.fault_seed,
        ),
        list(PLACEMENT_POLICIES_ORDER),
        seed=ctx.seed,
    )
    rows = [
        (policy, f"{p50:.1f}", f"{p99:.1f}", migrations, rejected)
        for policy, (p50, p99, migrations, rejected) in zip(
            PLACEMENT_POLICIES_ORDER, points
        )
    ]
    ctx.out.write(
        format_table(
            ["policy", "p50 (ms)", "p99 (ms)", "migrations", "rejected"],
            rows,
            title=(
                f"Placement policies: {PLACEMENT_SESSIONS} sessions on "
                f"{PLACEMENT_SERVERS} servers, one mid-run failure"
            ),
        )
        + "\n"
    )
    if ctx.csv_dir:
        write_csv(
            f"{ctx.csv_dir}/fleet_placement.csv",
            ["policy", "p50_ms", "p99_ms", "migrations", "rejected"],
            [
                (policy, p50, p99, migrations, rejected)
                for policy, (p50, p99, migrations, rejected) in zip(
                    PLACEMENT_POLICIES_ORDER, points
                )
            ],
        )


_REGISTERED = False


def _register() -> None:
    """Register this module's experiments; idempotent.

    Registry order is a compatibility surface (``run all`` order, cache
    keys), so registration is driven by ``repro.cli`` at this module's
    canonical position in the sequence — never by module import.  A
    decorator at module scope would register whenever the body runs,
    and a process whose *first* import is an experiments module defers
    that body past the circular ``repro.cli`` import, appending its
    experiments after every group the CLI registers in the meantime.
    """
    global _REGISTERED
    if _REGISTERED:
        return
    _REGISTERED = True
    experiment(
        "fleet_capacity",
        title="Fleet capacity: SLO sessions/server vs fleet size",
        group="fleet",
    )(_fleet_capacity)
    experiment(
        "fleet_placement",
        title="Placement policies: p50/p99 latency under a server failure",
        group="fleet",
    )(_fleet_placement)


# Importing any experiments module alone must still populate the whole
# registry in canonical order: pull in the CLI, which calls every
# module's ``_register`` in sequence.  Bottom-of-module so ``_register``
# above already exists when the circular import re-enters this module.
from .. import cli as _cli  # noqa: E402,F401
