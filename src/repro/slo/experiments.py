"""Registered SLO experiments: burst tails, chaos × load grid, fleet burn.

Three scenarios take the SLO layer through the same executor pipeline as
every figure (``--jobs``, result cache, tracing all compose):

``slo_burst``
    Equal means, different tails: a Poisson and an on-off (MMPP) load
    process offer the *same* mean utilization to the shared link while
    open-loop probes measure delay against a 10 ms budget.  Means barely
    move; p99 and the error-budget burn blow up under bursts — the tail
    argument for SLOs in one table.

``slo_chaos_grid``
    A FaultPlan × session-count grid over a co-safe fleet: each cell
    reports uncorrected vs coordinated-omission-corrected p99 and the
    100 ms budget's violation rate and burn.  The corrected column is the
    one that sees outages; the uncorrected column is what a naive
    closed-loop harness would have reported.

``slo_fleet``
    The placement shoot-out rerun with co-safe sessions and a mid-run
    server failure, raced on corrected p99/p99.9 and error-budget burn —
    tail-aware policy comparison instead of mean-aware.

The chaos grid deliberately sweeps its *own* fault specs (that is the
grid's x-axis), so the global ``--faults`` flag is not composed into the
cells; the sweep name still carries the fault suffix so cache entries
stay distinct.  All sweeps are byte-identical across serial, ``--jobs N``,
and warm-cache runs on either kernel.
"""

from __future__ import annotations

from functools import partial
from typing import Tuple

from ..core.registry import experiment
from ..core.report import format_series, format_table, write_csv
from ..sim.stats import nearest_rank_percentile

#: ``slo_burst`` probe budget: the paper's 10 ms computing threshold.
BURST_BUDGET_MS = 10.0

#: SLO target for every scenario here: 99% of samples within budget.
SLO_TARGET = 0.99

#: Offered-load levels (link utilization) swept by ``slo_burst``.
BURST_RHO_LEVELS = [0.3, 0.5, 0.7, 0.85]

#: Arrival processes raced by ``slo_burst`` (output row order).
BURST_PROCESSES = ["poisson", "onoff"]

#: On-off burst shape: ON a quarter of a 500 ms mean cycle, so the ON-state
#: rate is 4x the mean — bursty enough to queue, mild enough to stay stable.
BURST_ON_FRACTION = 0.25
BURST_CYCLE_MS = 500.0

#: ``slo_burst`` link and probe cadence (matches the analytic link probe).
BURST_BANDWIDTH_MBPS = 10.0
BURST_PROBE_INTERVAL_MS = 5.0
BURST_DURATION_MS = 20_000.0
BURST_WARMUP_MS = 1_000.0

#: Fault scenarios on the chaos grid's x-axis: ``(label, FaultPlan spec)``.
CHAOS_SCENARIOS = [
    ("clean", ""),
    ("loss", "loss=0.03"),
    ("burst", "burst_enter=0.02,burst_exit=0.25,burst_loss=1"),
    ("outage", "outage=3000-3500"),
]

#: Session counts on the chaos grid's y-axis.
CHAOS_SESSIONS = [4, 8, 12]

#: Chaos-grid fleet shape and interaction budget (the 100 ms perception
#: threshold at p99, the same contract ``fleet_capacity`` enforces).
CHAOS_SERVERS = 2
CHAOS_BACKBONE_MBPS = 1.0
CHAOS_BUDGET_MS = 100.0

#: Placement policies raced by ``slo_fleet`` (output row order).
FLEET_POLICIES_ORDER = [
    "random",
    "round_robin",
    "least_loaded",
    "latency_aware",
    "session_affinity",
]

#: ``slo_fleet`` fleet shape: servers, per-server cap, sessions, budget.
FLEET_SERVERS = 4
FLEET_CAPACITY = 8
FLEET_SESSIONS = 20
FLEET_BACKBONE_MBPS = 1.0
#: The fleet race budgets the keystroke echo itself: tighter than the
#: 100 ms whole-interaction threshold, loose enough that only scheduling
#: stalls and post-failure crowding violate it — which is the point.
FLEET_BUDGET_MS = 30.0

#: Warmup (setup traffic drains, samples discarded) and measure windows.
WARMUP_MS = 1_500.0
MEASURE_MS = 4_000.0
FLEET_MEASURE_MS = 10_000.0


def _slo_burst_point(
    point: Tuple[str, float],
    *,
    seed: int,
    faults: str = "",
    fault_seed: int = 0,
) -> Tuple[int, float, float, float, float, float, float]:
    """One burst cell: (n, util, p50, p90, p99, viol rate, burn).

    Open-loop probes are coordinated-omission-safe by construction — the
    probe stream never waits for an answer, so every intended send happens
    on time and latency is measured from it.
    """
    from ..net.faults import FaultPlan, make_link
    from ..net.loadgen import OnOffLoadGenerator, PoissonLoadGenerator
    from ..net.packet import Packet
    from ..sim.engine import Simulator
    from ..sim.rng import RngRegistry, derive_seed
    from .budget import LatencyBudget, SloTracker

    process, rho = point
    plan = FaultPlan.parse(faults, seed=fault_seed) if faults else None
    rngs = RngRegistry(derive_seed(seed, f"slo_burst:{process}:{rho}"))
    sim = Simulator()
    link = make_link(
        sim, plan, name="slo0", bandwidth_mbps=BURST_BANDWIDTH_MBPS
    )
    load_rng = rngs.stream("slo:load")
    mean_mbps = rho * BURST_BANDWIDTH_MBPS
    if process == "poisson":
        load = PoissonLoadGenerator(sim, link, mean_mbps, load_rng)
    else:
        load = OnOffLoadGenerator(
            sim,
            link,
            mean_mbps,
            load_rng,
            on_fraction=BURST_ON_FRACTION,
            cycle_ms=BURST_CYCLE_MS,
        )
    tracker = SloTracker(
        LatencyBudget("probe", BURST_BUDGET_MS, target=SLO_TARGET)
    )
    probes = rngs.stream("slo:probes")

    def probe() -> None:
        sent_at = sim.now
        if sent_at >= BURST_WARMUP_MS:

            def delivered(packet) -> None:
                tracker.observe(sent_at, sim.now - sent_at)

            link.send(Packet(64, channel="probe"), delivered)
        else:
            link.send(Packet(64, channel="probe"))
        sim.schedule(probes.expovariate(1.0 / BURST_PROBE_INTERVAL_MS), probe)

    sim.schedule(probes.expovariate(1.0 / BURST_PROBE_INTERVAL_MS), probe)
    sim.run_until(BURST_DURATION_MS)
    load.stop()
    report = tracker.report()
    return (
        report.samples,
        link.utilization(BURST_WARMUP_MS, BURST_DURATION_MS),
        report.percentiles[0],
        report.percentiles[1],
        report.percentiles[2],
        report.violation_rate,
        report.budget_burn,
    )


def _drive_co_fleet(
    fleet,
    sessions: int,
    measure_ms: float,
    rates=None,
    budget_ms: float = CHAOS_BUDGET_MS,
):
    """Open co-safe sessions, warm up, attach a tracker, and measure.

    Mirrors the fleet experiments' driver (same rate/char cycling) but
    resets *both* latency series after warmup and only attaches the SLO
    tracker for the measurement window, so warmup traffic never burns
    budget.  Returns the installed :class:`~repro.slo.SloTracker`.
    """
    from .budget import LatencyBudget, SloTracker

    rates = [1.0, 2.0, 4.0] if rates is None else rates
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
        session.intended_latencies_ms.clear()
    tracker = SloTracker(
        LatencyBudget("interaction", budget_ms, target=SLO_TARGET)
    )
    fleet.slo_tracker = tracker
    fleet.run(measure_ms)
    return tracker


def _slo_chaos_point(
    cell: Tuple[str, str, int],
    *,
    seed: int,
    fault_seed: int = 0,
) -> Tuple[int, int, float, float, float, float, int]:
    """One chaos cell: (n_unc, n_cor, p99_unc, p99_cor, viol, burn, missed)."""
    from ..core.server import ServerConfig
    from ..net.faults import FaultPlan
    from ..sim.rng import derive_seed
    from ..fleet.cluster import Fleet, FleetConfig

    label, spec, sessions = cell
    plan = (
        FaultPlan.parse(spec, seed=derive_seed(fault_seed, label))
        if spec
        else None
    )
    config = FleetConfig(
        server=ServerConfig.tse(include_idle_activity=False),
        num_servers=CHAOS_SERVERS,
        placement="round_robin",
        admission_mode="reject",
        capacity_per_server=sessions,  # every offered session admits
        backbone_mbps=CHAOS_BACKBONE_MBPS,
        backbone_faults=plan,
        co_safe_sessions=True,
    )
    fleet = Fleet(
        config, seed=derive_seed(seed, f"slo_chaos:{label}:{sessions}")
    )
    tracker = _drive_co_fleet(fleet, sessions, MEASURE_MS)
    uncorrected = fleet.latencies_ms()
    corrected = fleet.corrected_latencies_ms()
    return (
        len(uncorrected),
        len(corrected),
        nearest_rank_percentile(uncorrected, 99.0),
        nearest_rank_percentile(corrected, 99.0),
        tracker.violation_rate,
        tracker.budget_burn,
        sum(s.missed_ticks for s in fleet.sessions.values()),
    )


def _slo_fleet_point(
    policy: str,
    *,
    seed: int,
    faults: str = "",
    fault_seed: int = 0,
) -> Tuple[float, float, float, float, int]:
    """One policy race: (p99, p99.9, burn, worst burn, migrations)."""
    from ..core.server import ServerConfig
    from ..net.faults import FaultPlan
    from ..sim.rng import derive_seed
    from ..fleet.cluster import Fleet, FleetConfig
    from ..fleet.experiments import PLACEMENT_HOGS, _install_hogs

    plan = FaultPlan.parse(faults, seed=fault_seed) if faults else None
    config = FleetConfig(
        # Linux/X for the same reason as fleet_placement, but *with* the
        # paper's idle-activity stalls: those background pauses are tail
        # events — invisible at the mean, decisive for budget burn.
        server=ServerConfig.linux(),
        num_servers=FLEET_SERVERS,
        placement=policy,
        admission_mode="reject",
        capacity_per_server=FLEET_CAPACITY,
        backbone_mbps=FLEET_BACKBONE_MBPS,
        backbone_faults=plan,
        co_safe_sessions=True,
    )
    fleet = Fleet(config, seed=derive_seed(seed, f"slo_fleet:{policy}"))
    _install_hogs(fleet)
    failed_index = PLACEMENT_HOGS.index(0)
    fleet.sim.schedule(
        WARMUP_MS + FLEET_MEASURE_MS / 2, lambda: fleet.fail_server(failed_index)
    )
    # Faster typists than the chaos grid: the added closed-loop pressure
    # is what separates the policies' tails after the failure.
    tracker = _drive_co_fleet(
        fleet,
        FLEET_SESSIONS,
        FLEET_MEASURE_MS,
        rates=[2.0, 4.0, 8.0],
        budget_ms=FLEET_BUDGET_MS,
    )
    corrected = sorted(fleet.corrected_latencies_ms())
    return (
        nearest_rank_percentile(corrected, 99.0),
        nearest_rank_percentile(corrected, 99.9),
        tracker.budget_burn,
        tracker.worst_window_burn(),
        fleet.migrations,
    )


def _slo_burst(ctx) -> None:
    """Race both arrival processes over the rho sweep; print tail blow-up."""
    grid = [
        (process, rho)
        for process in BURST_PROCESSES
        for rho in BURST_RHO_LEVELS
    ]
    points = ctx.executor.map(
        "slo_burst" + ctx.fault_suffix,
        partial(
            _slo_burst_point,
            seed=ctx.seed,
            faults=ctx.faults or "",
            fault_seed=ctx.fault_seed,
        ),
        grid,
        seed=ctx.seed,
    )
    by_cell = dict(zip(grid, points))
    rows = [
        (
            process,
            f"{rho:.2f}",
            n,
            f"{util * 100:.0f}%",
            f"{p50:.2f}",
            f"{p90:.2f}",
            f"{p99:.2f}",
            f"{viol * 100:.2f}%",
            f"{burn:.2f}",
        )
        for (process, rho), (n, util, p50, p90, p99, viol, burn) in zip(
            grid, points
        )
    ]
    ctx.out.write(
        format_table(
            [
                "process",
                "rho",
                "n",
                "util",
                "p50 (ms)",
                "p90 (ms)",
                "p99 (ms)",
                "viol rate",
                f"burn ({BURST_BUDGET_MS:.0f} ms)",
            ],
            rows,
            title="Equal-mean load, unequal tails (10 ms probe budget)",
        )
        + "\n"
    )
    ctx.out.write(
        format_series(
            "rho",
            "p99 blow-up (onoff / poisson)",
            [f"{rho:.2f}" for rho in BURST_RHO_LEVELS],
            [
                by_cell[("onoff", rho)][4] / by_cell[("poisson", rho)][4]
                for rho in BURST_RHO_LEVELS
            ],
            title="Tail amplification from burstiness alone",
            y_format="{:.2f}x",
        )
        + "\n"
    )
    if ctx.csv_dir:
        write_csv(
            f"{ctx.csv_dir}/slo_burst.csv",
            [
                "process",
                "rho",
                "samples",
                "utilization",
                "p50_ms",
                "p90_ms",
                "p99_ms",
                "violation_rate",
                "budget_burn",
            ],
            [
                (process, rho, n, util, p50, p90, p99, viol, burn)
                for (process, rho), (n, util, p50, p90, p99, viol, burn) in zip(
                    grid, points
                )
            ],
        )


def _slo_chaos_grid(ctx) -> None:
    """Sweep fault scenarios against session counts on a co-safe fleet."""
    grid = [
        (label, spec, sessions)
        for (label, spec) in CHAOS_SCENARIOS
        for sessions in CHAOS_SESSIONS
    ]
    points = ctx.executor.map(
        "slo_chaos_grid" + ctx.fault_suffix,
        partial(_slo_chaos_point, seed=ctx.seed, fault_seed=ctx.fault_seed),
        grid,
        seed=ctx.seed,
    )
    rows = [
        (
            label,
            sessions,
            n_unc,
            n_cor,
            f"{p99_unc:.1f}",
            f"{p99_cor:.1f}",
            f"{viol * 100:.2f}%",
            f"{burn:.2f}",
            missed,
        )
        for (label, __, sessions), (
            n_unc,
            n_cor,
            p99_unc,
            p99_cor,
            viol,
            burn,
            missed,
        ) in zip(grid, points)
    ]
    ctx.out.write(
        format_table(
            [
                "fault",
                "sessions",
                "n uncorr",
                "n corr",
                "p99 uncorr",
                "p99 corr",
                "viol rate",
                f"burn ({CHAOS_BUDGET_MS:.0f} ms)",
                "missed",
            ],
            rows,
            title=(
                "Chaos x load grid: coordinated omission hides the fault "
                "column's tail"
            ),
        )
        + "\n"
    )
    if ctx.csv_dir:
        write_csv(
            f"{ctx.csv_dir}/slo_chaos_grid.csv",
            [
                "fault",
                "sessions",
                "n_uncorrected",
                "n_corrected",
                "p99_uncorrected_ms",
                "p99_corrected_ms",
                "violation_rate",
                "budget_burn",
                "missed_ticks",
            ],
            [
                (label, sessions, n_unc, n_cor, p99_unc, p99_cor, viol, burn, missed)
                for (label, __, sessions), (
                    n_unc,
                    n_cor,
                    p99_unc,
                    p99_cor,
                    viol,
                    burn,
                    missed,
                ) in zip(grid, points)
            ],
        )


def _slo_fleet(ctx) -> None:
    """Race placement policies on p99/p99.9 and burn under a failure."""
    points = ctx.executor.map(
        "slo_fleet" + ctx.fault_suffix,
        partial(
            _slo_fleet_point,
            seed=ctx.seed,
            faults=ctx.faults or "",
            fault_seed=ctx.fault_seed,
        ),
        list(FLEET_POLICIES_ORDER),
        seed=ctx.seed,
    )
    rows = [
        (
            policy,
            f"{p99:.1f}",
            f"{p999:.1f}",
            f"{burn:.2f}",
            f"{worst:.2f}",
            migrations,
        )
        for policy, (p99, p999, burn, worst, migrations) in zip(
            FLEET_POLICIES_ORDER, points
        )
    ]
    ctx.out.write(
        format_table(
            [
                "policy",
                "p99 (ms)",
                "p99.9 (ms)",
                f"burn ({FLEET_BUDGET_MS:.0f} ms)",
                "worst burn",
                "migrations",
            ],
            rows,
            title=(
                f"Placement under failure, CO-corrected: {FLEET_SESSIONS} "
                f"sessions on {FLEET_SERVERS} servers"
            ),
        )
        + "\n"
    )
    if ctx.csv_dir:
        write_csv(
            f"{ctx.csv_dir}/slo_fleet.csv",
            [
                "policy",
                "p99_ms",
                "p999_ms",
                "budget_burn",
                "worst_window_burn",
                "migrations",
            ],
            [
                (policy, p99, p999, burn, worst, migrations)
                for policy, (p99, p999, burn, worst, migrations) in zip(
                    FLEET_POLICIES_ORDER, points
                )
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
        "slo_burst",
        title="Burst tails: equal-mean Poisson vs on-off load against a budget",
        group="slo",
    )(_slo_burst)
    experiment(
        "slo_chaos_grid",
        title="Chaos x load grid: corrected vs uncorrected p99 and budget burn",
        group="slo",
    )(_slo_chaos_grid)
    experiment(
        "slo_fleet",
        title="Placement policies raced on corrected tails and budget burn",
        group="slo",
    )(_slo_fleet)


# Importing any experiments module alone must still populate the whole
# registry in canonical order: pull in the CLI, which calls every
# module's ``_register`` in sequence.
from .. import cli as _cli  # noqa: E402,F401
