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
and warm-cache runs; ``tests/golden/artifacts.json`` pins their digests.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from ..core.registry import ExperimentSpec
from ..core.report import Column, Row, Table, format_series
from ..fleet.experiments import PLACEMENT_POLICIES_ORDER, WARMUP_MS, _drive_fleet
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
FLEET_POLICIES_ORDER = PLACEMENT_POLICIES_ORDER

#: ``slo_fleet`` fleet shape: servers, per-server cap, sessions, budget.
FLEET_SERVERS = 4
FLEET_CAPACITY = 8
FLEET_SESSIONS = 20
FLEET_BACKBONE_MBPS = 1.0
#: The fleet race budgets the keystroke echo itself: tighter than the
#: 100 ms whole-interaction threshold, loose enough that only scheduling
#: stalls and post-failure crowding violate it — which is the point.
FLEET_BUDGET_MS = 30.0

#: ``slo_fleet``'s measure window (warmup and the chaos grid's window are
#: the fleet experiments' ``WARMUP_MS`` / ``MEASURE_MS``).
FLEET_MEASURE_MS = 10_000.0


class BurstPoint(NamedTuple):
    samples: int
    utilization: float
    p50_ms: float
    p90_ms: float
    p99_ms: float
    violation_rate: float
    budget_burn: float


class ChaosGridPoint(NamedTuple):
    n_uncorrected: int
    n_corrected: int
    p99_uncorrected_ms: float
    p99_corrected_ms: float
    violation_rate: float
    budget_burn: float
    missed_ticks: int


class SloFleetPoint(NamedTuple):
    p99_ms: float
    p999_ms: float
    budget_burn: float
    worst_window_burn: float
    migrations: int


def _slo_burst_point(
    point: Tuple[str, float], *, seed: int, faults: str = "", fault_seed: int = 0
) -> BurstPoint:
    """One burst cell: probe delay tail, violations and burn.

    Open-loop probes are coordinated-omission-safe by construction — the
    probe stream never waits for an answer, so every intended send happens
    on time and latency is measured from it.
    """
    from ..net.faults import FaultPlan, make_link
    from ..net.loadgen import OnOffLoadGenerator, PoissonLoadGenerator
    from ..net.ping import poisson_probes
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
    poisson_probes(
        sim,
        link,
        rngs.stream("slo:probes"),
        BURST_PROBE_INTERVAL_MS,
        BURST_WARMUP_MS,
        tracker.observe,
    )
    sim.run_until(BURST_DURATION_MS)
    load.stop()
    report = tracker.report()
    return BurstPoint(
        report.samples,
        link.utilization(BURST_WARMUP_MS, BURST_DURATION_MS),
        report.percentiles[0],
        report.percentiles[1],
        report.percentiles[2],
        report.violation_rate,
        report.budget_burn,
    )


def _slo_chaos_point(
    cell: Tuple[str, str, int], *, seed: int, fault_seed: int = 0
) -> ChaosGridPoint:
    """One chaos cell: uncorrected vs corrected tail, burn, missed ticks."""
    from ..core.server import ServerConfig
    from ..net.faults import FaultPlan
    from ..sim.rng import derive_seed
    from ..fleet.cluster import Fleet, FleetConfig
    from .budget import LatencyBudget, SloTracker

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
    tracker = SloTracker(
        LatencyBudget("interaction", CHAOS_BUDGET_MS, target=SLO_TARGET)
    )
    _drive_fleet(fleet, sessions, tracker=tracker)
    uncorrected = fleet.latencies_ms()
    corrected = fleet.corrected_latencies_ms()
    return ChaosGridPoint(
        len(uncorrected),
        len(corrected),
        nearest_rank_percentile(uncorrected, 99.0),
        nearest_rank_percentile(corrected, 99.0),
        tracker.violation_rate,
        tracker.budget_burn,
        sum(s.missed_ticks for s in fleet.sessions.values()),
    )


def _slo_fleet_point(
    policy: str, *, seed: int, faults: str = "", fault_seed: int = 0
) -> SloFleetPoint:
    """One policy race: corrected tail, burn, and migrations."""
    from ..core.server import ServerConfig
    from ..net.faults import FaultPlan
    from ..sim.rng import derive_seed
    from ..fleet.cluster import Fleet, FleetConfig
    from ..fleet.experiments import PLACEMENT_HOGS, _install_hogs
    from .budget import LatencyBudget, SloTracker

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
    tracker = SloTracker(
        LatencyBudget("interaction", FLEET_BUDGET_MS, target=SLO_TARGET)
    )
    _drive_fleet(
        fleet,
        FLEET_SESSIONS,
        rates=(2.0, 4.0, 8.0),
        measure_ms=FLEET_MEASURE_MS,
        tracker=tracker,
    )
    corrected = sorted(fleet.corrected_latencies_ms())
    return SloFleetPoint(
        nearest_rank_percentile(corrected, 99.0),
        nearest_rank_percentile(corrected, 99.9),
        tracker.budget_burn,
        tracker.worst_window_burn(),
        fleet.migrations,
    )


def _burst_amplification(ctx, rows: List[Row]) -> None:
    """Print each rho's p99 ratio of on-off to Poisson load."""
    p99 = {(row["process"], row["rho"]): row["p99_ms"] for row in rows}
    ctx.out.write(
        format_series(
            "rho",
            "p99 blow-up (onoff / poisson)",
            [f"{rho:.2f}" for rho in BURST_RHO_LEVELS],
            [p99["onoff", rho] / p99["poisson", rho] for rho in BURST_RHO_LEVELS],
            title="Tail amplification from burstiness alone",
            y_format="{:.2f}x",
        )
        + "\n"
    )


#: This module's experiments, in ``run all`` order; ``repro.cli``
#: registers them after the analytic group.
SPECS = (
    ExperimentSpec(
        "slo_burst", "Burst tails: equal-mean Poisson vs on-off load against a budget",
        "slo",
        point=_slo_burst_point,
        grid=[(process, rho) for process in BURST_PROCESSES for rho in BURST_RHO_LEVELS],
        keys=("process", "rho"), record=BurstPoint,
        tables=[Table("Equal-mean load, unequal tails (10 ms probe budget)", [
            Column("process", "process"), Column("rho", "rho", "{:.2f}"),
            Column("n", "samples"), Column("util", "utilization", "{:.0%}"),
            Column("p50 (ms)", "p50_ms", "{:.2f}"), Column("p90 (ms)", "p90_ms", "{:.2f}"),
            Column("p99 (ms)", "p99_ms", "{:.2f}"),
            Column("viol rate", "violation_rate", "{:.2%}"),
            Column(f"burn ({BURST_BUDGET_MS:.0f} ms)", "budget_burn", "{:.2f}"),
        ])],
        post_rows=_burst_amplification,
    ),
    ExperimentSpec(
        "slo_chaos_grid", "Chaos x load grid: corrected vs uncorrected p99 and budget burn",
        "slo",
        point=_slo_chaos_point,
        grid=[
            (label, spec, sessions)
            for (label, spec) in CHAOS_SCENARIOS
            for sessions in CHAOS_SESSIONS
        ],
        keys=("fault", "spec", "sessions"), record=ChaosGridPoint,
        tables=[Table(
            "Chaos x load grid: coordinated omission hides the fault column's tail",
            [
                Column("fault", "fault"), Column("sessions", "sessions"),
                Column("n uncorr", "n_uncorrected"), Column("n corr", "n_corrected"),
                Column("p99 uncorr", "p99_uncorrected_ms", "{:.1f}"),
                Column("p99 corr", "p99_corrected_ms", "{:.1f}"),
                Column("viol rate", "violation_rate", "{:.2%}"),
                Column(f"burn ({CHAOS_BUDGET_MS:.0f} ms)", "budget_burn", "{:.2f}"),
                Column("missed", "missed_ticks"),
            ],
        )],
        # The fault spec is the label's definition, not a CSV column.
        csv_layout="columns",
    ),
    ExperimentSpec(
        "slo_fleet", "Placement policies raced on corrected tails and budget burn", "slo",
        point=_slo_fleet_point, grid=FLEET_POLICIES_ORDER, keys=("policy",),
        record=SloFleetPoint,
        tables=[Table(
            f"Placement under failure, CO-corrected: {FLEET_SESSIONS} "
            f"sessions on {FLEET_SERVERS} servers",
            [
                Column("policy", "policy"), Column("p99 (ms)", "p99_ms", "{:.1f}"),
                Column("p99.9 (ms)", "p999_ms", "{:.1f}"),
                Column(f"burn ({FLEET_BUDGET_MS:.0f} ms)", "budget_burn", "{:.2f}"),
                Column("worst burn", "worst_window_burn", "{:.2f}"),
                Column("migrations", "migrations"),
            ],
        )],
    ),
)
