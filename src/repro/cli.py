"""Command-line experiment runner.

Regenerate any of the paper's tables and figures without writing code::

    python -m repro list
    python -m repro run fig3 --seed 1
    python -m repro run tab-proto
    python -m repro run all --csv results/

Each experiment prints the same rows/series its benchmark emits; ``--csv``
additionally writes machine-readable series next to the text output.

Experiments are declared as data, :class:`~repro.core.registry.ExperimentSpec`
values that :func:`repro.core.report.run_spec` runs, and registered through
:mod:`repro.core.registry`: this module's ``PAPER_SPECS``, then the
``SPECS`` tuples of the fleet, analytic, SLO and scale modules, in that
fixed sequence.  Those modules never import the CLI, so the registry order
is the same whichever module a process imports first.  ``list`` renders
one table per registry group; ``run all`` executes the registry in registration order, which keeps the
paper experiments in their historical sequence (goldens and cache keys
are unchanged) with later groups appended.

Sweeps route through :class:`repro.exec.SweepExecutor`, so runs can be
parallel and cached:

``--jobs N``
    Fan sweep points out to ``N`` worker processes.  Results merge by
    parameter index, so the output is byte-identical to a serial run.
``--cache-dir DIR``
    Cache finished points in ``DIR``; re-running a sweep replays cached
    points from disk and recomputes only what changed (keys include the
    experiment name, parameter value, seed, and package version).
``--no-cache``
    Ignore ``--cache-dir`` and recompute everything.

Per-point progress and timing go to stderr, keeping stdout/CSV output
byte-stable across repeats.

Tracing (:mod:`repro.obs`) rides the same pipeline::

    python -m repro trace fig1 --seed 1 --trace-dir out/

runs the experiment with instrumentation on, writes ``out/fig1.trace.jsonl``
(structured simulation events) and ``out/fig1.metrics.json`` (counters,
gauges, histograms), and appends a metrics-summary table to the normal
output.  ``run --trace-dir PATH`` does the same for any run.  Artifacts are
deterministic and byte-identical across ``--jobs N`` and cached reruns, so
two trace directories can be diffed directly.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import List, NamedTuple, Optional, TextIO, Tuple

from .analytic import experiments as _analytic_experiments
from .core.registry import REGISTRY, ExperimentSpec, groups, register
from .core.report import (
    Column,
    Row,
    Table,
    format_metrics_summary,
    format_series,
    format_table,
    sparkline,
    write_rows,
)
from .cpu import OS_NAMES
from .errors import ReproError
from .exec import RunContext
from .fleet import experiments as _fleet_experiments
from .obs import summary_rows, write_run_artifacts
from .scale import experiments as _scale_experiments
from .slo import experiments as _slo_experiments

#: Back-compat alias: the registry *is* the old hand-built dispatch table
#: (live mapping, registration order).
EXPERIMENTS = REGISTRY


# --- per-point functions -----------------------------------------------------
#
# Each sweep's unit of work lives at module level (picklable, so the process
# backend can ship it to workers) and returns a record: a NamedTuple whose
# field names are the experiment's CSV header, picklable and compact so the
# result cache can store it.  Experiments that ignore the seed key their
# cache entries under seed 0, letting every seed share the same cached points.


class IdleTracePoint(NamedTuple):
    idle_utilization: float
    time_ms: list
    utilization: list


class LostTimePoint(NamedTuple):
    total_lost_ms: float
    threshold_ms: list
    cumulative_latency_s: list


class StallPoint(NamedTuple):
    avg_stall_ms: float


class LoadSeriesPoint(NamedTuple):
    avg_mbps: float
    time_ms: list
    mbps: list


class CacheOverflowPoint(NamedTuple):
    time_ms: list
    cpu_utilization: list
    cumulative_hit_ratio: list


class FrameLoadPoint(NamedTuple):
    mbps: float


class PingPoint(NamedTuple):
    mean_rtt_ms: float
    rtt_variance: float


class ChaosPoint(NamedTuple):
    mean_latency_ms: float
    p99_latency_ms: float
    delivered_fraction: float
    retransmits: int
    timeouts_fired: int


class KeystrokeLatencyPoint(NamedTuple):
    min_ms: float
    avg_ms: float
    max_ms: float


class ProtocolPoint(NamedTuple):
    bytes: int
    messages: int
    avg_size: float
    vip_savings: float


def _fig1_point(os_name: str, *, seed: int) -> IdleTracePoint:
    from .cpu import run_idle_experiment

    result = run_idle_experiment(os_name, 60_000.0, seed=seed)
    times, utils = result.utilization_trace(bin_ms=1_000.0)
    return IdleTracePoint(result.idle_utilization, list(times), list(utils))


def _fig2_point(os_name: str, *, seed: int) -> LostTimePoint:
    from .cpu import run_idle_experiment

    result = run_idle_experiment(os_name, 600_000.0, seed=seed)
    thresholds, curve = result.cumulative_latency_curve()
    return LostTimePoint(result.total_lost_time_ms, list(thresholds), list(curve))


def _fig3_point(point: Tuple[str, int], *, seed: int) -> StallPoint:
    from .workloads import run_stall_experiment

    os_name, queue_length = point
    (result,) = run_stall_experiment(os_name, [queue_length], seed=seed)
    return StallPoint(result.average_stall_ms)


def _fig4_point(variant: str) -> LoadSeriesPoint:
    from .workloads import run_webpage_experiment

    result = run_webpage_experiment(variant, duration_ms=160_000.0)
    times, mbps = result.load_series(2_000.0)
    return LoadSeriesPoint(result.average_mbps(), list(times), list(mbps))


def _fig5_point(protocol: str) -> LoadSeriesPoint:
    from .workloads import gif_10_frame, run_animations_over_protocol

    result = run_animations_over_protocol(protocol, [gif_10_frame()], 5_000.0)
    times, mbps = result.load_series(100.0)
    return LoadSeriesPoint(result.average_mbps(500.0), list(times), list(mbps))


def _fig6_point(frame_count: int) -> CacheOverflowPoint:
    from .workloads import run_cache_overflow_experiment

    result = run_cache_overflow_experiment(frame_count, 60_000.0)
    return CacheOverflowPoint(
        list(result.times_ms),
        list(result.cpu_utilization),
        list(result.cumulative_hit_ratio),
    )


def _fig7_point(frame_count: int) -> FrameLoadPoint:
    from .workloads import run_frame_count_sweep

    ((__, mbps),) = run_frame_count_sweep([frame_count], duration_ms=60_000.0)
    return FrameLoadPoint(mbps)


def _ping_point(
    offered_mbps: float, *, seed: int, faults: str = "", fault_seed: int = 0
) -> PingPoint:
    from .net import FaultPlan, run_ping_experiment

    plan = FaultPlan.parse(faults, seed=fault_seed) if faults else None
    (result,) = run_ping_experiment(
        [offered_mbps], duration_ms=60_000.0, seed=seed, faults=plan
    )
    return PingPoint(result.mean_rtt_ms, result.rtt_variance)


def _chaos_point(
    loss: float, *, faults: str = "", fault_seed: int = 0
) -> ChaosPoint:
    from .net import FaultPlan, run_chaos_experiment

    base = FaultPlan.parse(faults, seed=fault_seed)
    (result,) = run_chaos_experiment(
        [loss], base=base, seed=fault_seed, duration_ms=30_000.0
    )
    return ChaosPoint(
        result.mean_latency_ms if result.latencies_ms else 0.0,
        result.latency_percentile_ms(99.0) if result.latencies_ms else 0.0,
        result.delivered_fraction,
        result.retransmits,
        result.timeouts_fired,
    )


def _tab_mem_point(point: Tuple[str, float], *, seed: int) -> KeystrokeLatencyPoint:
    from .memory import run_memory_latency_experiment

    os_name, demand = point
    s = run_memory_latency_experiment(os_name, demand, runs=10, seed=seed).summary
    return KeystrokeLatencyPoint(s.minimum, s.average, s.maximum)


def _tab_proto_point(protocol: str, *, seed: int) -> ProtocolPoint:
    from .workloads import application_workload, replay_workload

    tap = replay_workload(protocol, application_workload(seed))
    trace = tap.trace()
    vip = tap.vip_table_row()
    return ProtocolPoint(
        trace.total_bytes,
        trace.total_messages,
        trace.avg_message_size,
        vip["savings"],
    )


# --- the paper set ------------------------------------------------------------
#
# Sequence is registration order, which is ``run all`` order: the paper's
# figures, then chaos, then the tables — the exact sequence the
# pre-registry CLI hard-coded.  Keep it that way; goldens and cache keys
# depend on it.  These sweeps predate the fault suffix: each keeps its
# bare experiment name, except the faulted ping and chaos sweeps.

#: Figure 3's scheduler queue lengths per system, in output order.
FIG3_QUEUES = {
    "nt_tse": [0, 5, 10, 15],
    "linux": [0, 5, 10, 15, 25, 35, 50],
}


def _fig3_csvs(ctx: RunContext, rows: List[Row]) -> None:
    """Figure 3's CSVs: one per system, queue length then stall."""
    for os_name in FIG3_QUEUES:
        write_rows(
            ctx,
            f"fig3_{os_name}.csv",
            [row for row in rows if row["system"] == os_name],
            ("queue_length", *StallPoint._fields),
        )


def _fig6_series(ctx: RunContext, rows: List[Row]) -> None:
    """Figure 6's hit-ratio curve, every tenth sample."""
    (row,) = rows
    seconds = [int(t / 1000) for t in row["time_ms"][::10]]
    table = format_series(
        "time (s)", "cumulative hit ratio", seconds, row["cumulative_hit_ratio"][::10],
        title="Figure 6: 66-frame animation overflowing the cache",
    )
    ctx.out.write(table + "\n")


def _tab_sessions(ctx: RunContext) -> None:
    from .memory import LINUX_SESSION, TSE_SESSION_LIGHT, TSE_SESSION_TYPICAL

    for session in (LINUX_SESSION, TSE_SESSION_TYPICAL, TSE_SESSION_LIGHT):
        rows = [(p.name, f"{p.private_kb:,} KB") for p in session.processes]
        rows.append(("Total", f"{session.total_kb:,} KB"))
        ctx.out.write(
            format_table(
                ["process", "private"],
                rows,
                title=f"§5.1.1 login: {session.os_name} ({session.variant})",
            )
            + "\n"
        )


def _tab_setup(ctx: RunContext) -> None:
    from .gui import TSE_SETUP, X_SETUP

    ctx.out.write(
        format_table(
            ["system", "setup bytes"],
            [
                ("nt_tse (RDP)", f"{TSE_SETUP.total_bytes:,}"),
                ("linux (X)", f"{X_SETUP.total_bytes:,}"),
            ],
            title="§6.1.1: session setup costs",
        )
        + "\n"
    )


_paper = partial(ExperimentSpec, group="paper")
_SYSTEM = Column("system", "system")
_OFFERED_MBPS = Column("offered Mbps", "offered_mbps")

PAPER_SPECS = (
    _paper(
        "fig1", "Idle-state CPU activity traces",
        point=_fig1_point, grid=OS_NAMES, keys=("system",), record=IdleTracePoint,
        tables=[Table("Figure 1: idle-state processor activity", [
            _SYSTEM, Column("avg idle util", "idle_utilization", "{:.2%}"),
            Column("trace", "utilization", lambda utils: sparkline(utils[:30])),
        ])],
        csv="fig1_{system}.csv", csv_layout="series",
    ),
    _paper(
        "fig2", "Cumulative idle-state latency",
        point=_fig2_point, grid=OS_NAMES, keys=("system",), record=LostTimePoint,
        tables=[Table("Figure 2: cumulative idle-state latency", [
            _SYSTEM,
            Column(
                "total lost time / 10 min", "total_lost_ms", lambda ms: f"{ms / 1000:.1f}s"
            ),
        ])],
        csv="fig2_{system}.csv", csv_layout="series",
    ),
    _paper(
        "fig3", "Stall length vs scheduler queue length",
        point=_fig3_point,
        grid=[(os_name, n) for os_name, loads in FIG3_QUEUES.items() for n in loads],
        keys=("system", "queue_length"), record=StallPoint,
        tables=[Table("Figure 3: stall length vs scheduler queue length", [
            _SYSTEM, Column("queue length", "queue_length"),
            Column("avg stall (ms)", "avg_stall_ms", "{:.0f}"),
        ])],
        post_rows=_fig3_csvs, csv=None,
    ),
    _paper(
        "fig4", "Synthetic web page network load",
        point=_fig4_point, grid=["marquee", "banner", "both"], keys=("variant",),
        record=LoadSeriesPoint, seeded=False,
        tables=[Table("Figure 4: synthetic web page over RDP", [
            Column("variant", "variant"), Column("avg Mbps", "avg_mbps", "{:.3f}"),
        ])],
        csv="fig4_{variant}.csv", csv_layout="series",
    ),
    _paper(
        "fig5", "10-frame GIF over X/LBX/RDP",
        point=_fig5_point, grid=["x", "lbx", "rdp"], keys=("protocol",),
        record=LoadSeriesPoint, seeded=False,
        tables=[Table("Figure 5: 10-frame 20 Hz GIF", [
            Column("protocol", "protocol"), Column("steady Mbps", "avg_mbps", "{:.3f}"),
        ])],
        csv="fig5_{protocol}.csv", csv_layout="series",
    ),
    _paper(
        "fig6", "Cache overflow: hit ratio + CPU",
        point=_fig6_point, grid=[66], keys=("frames",), record=CacheOverflowPoint,
        seeded=False, post_rows=_fig6_series, csv_layout="series",
    ),
    _paper(
        "fig7", "Network load vs frame count (cache cliff)",
        point=_fig7_point, grid=[25, 35, 45, 55, 65, 66, 70, 80, 90, 100],
        keys=("frames",), record=FrameLoadPoint, seeded=False,
        tables=[Table("Figure 7: network load vs frame count", [
            Column("frames", "frames"), Column("Mbps", "mbps", "{:.3f}"),
        ])],
    ),
    # figs 8 and 9 share the "ping" sweep, so a cached fig8 run also
    # pre-pays every fig9 point (fig9's levels are a subset).
    _paper(
        "fig8", "RTT vs offered load",
        point=_ping_point, grid=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9.6],
        keys=("offered_mbps",), record=PingPoint, sweep="ping{fault_suffix}",
        tables=[Table("Figure 8: RTT vs offered load", [
            _OFFERED_MBPS, Column("mean RTT (ms)", "mean_rtt_ms", "{:.3f}"),
        ])],
    ),
    _paper(
        "fig9", "RTT variance vs offered load",
        point=_ping_point, grid=[0, 2, 4, 6, 8, 9, 9.6],
        keys=("offered_mbps",), record=PingPoint, sweep="ping{fault_suffix}",
        tables=[Table("Figure 9: RTT jitter vs offered load", [
            _OFFERED_MBPS, Column("RTT variance (ms^2)", "rtt_variance", "{:.2f}"),
        ])],
        csv=None,
    ),
    # Latency vs loss rate on a faulted wire — the robustness axis the
    # paper's perfect testbed never exercised.
    _paper(
        "chaos", "Message latency vs loss rate (faulted wire)", group="chaos",
        point=_chaos_point, grid=[0.0, 0.01, 0.02, 0.05, 0.1, 0.2], keys=("loss",),
        record=ChaosPoint, sweep="chaos[{faults}@{fault_seed}]",
        tables=[Table("Chaos: message latency vs loss rate (reliable transport)", [
            Column("loss", "loss", lambda loss: f"{loss * 100:g}%"),
            Column("mean (ms)", "mean_latency_ms", "{:.2f}"),
            Column("p99 (ms)", "p99_latency_ms", "{:.2f}"),
            Column("delivered", "delivered_fraction", "{:.1%}"),
            Column("rexmits", "retransmits"), Column("timeouts", "timeouts_fired"),
        ])],
    ),
    _paper(
        "tab-mem", "Keystroke latency under page demand",
        point=_tab_mem_point,
        grid=[(os_name, demand) for os_name in ("linux", "nt_tse") for demand in (0.5, 1.2)],
        keys=("os", "demand"), record=KeystrokeLatencyPoint,
        tables=[Table("§5.2: keystroke latency (ms) under page demand", [
            Column("OS", "os"), Column("demand", "demand", {0.5: "<100%", 1.2: ">=100%"}.get),
            Column("min", "min_ms", "{:.0f}"), Column("avg", "avg_ms", "{:.0f}"),
            Column("max", "max_ms", "{:.0f}"),
        ])],
        csv="tab_mem_latency.csv", csv_layout="cells",
    ),
    _paper("tab-sessions", "Per-login session memory", runner=_tab_sessions),
    _paper(
        "tab-proto", "Protocol comparison + VIP savings",
        point=_tab_proto_point, grid=["rdp", "x", "lbx"], keys=("protocol",),
        record=ProtocolPoint,
        tables=[Table("§6.1.2: protocol comparison + VIP table", [
            Column("protocol", "protocol"), Column("bytes", "bytes", "{:,}"),
            Column("messages", "messages", "{:,}"), Column("avg size", "avg_size", "{:.1f}"),
            Column("VIP savings", "vip_savings", "{:.2%}"),
        ])],
        csv="tab_proto.csv", csv_layout="cells",
    ),
    _paper("tab-setup", "Session setup costs", runner=_tab_setup),
)

# The fleet, analytic, SLO and scale groups register after the paper set,
# in this fixed sequence, so ``run all`` appends them without disturbing
# the historical order.  Their modules only declare ``SPECS``; this is the
# one place that orders them.
for _spec in (
    *PAPER_SPECS,
    *_fleet_experiments.SPECS,
    *_analytic_experiments.SPECS,
    *_slo_experiments.SPECS,
    *_scale_experiments.SPECS,
):
    register(_spec)


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI: ``list`` and ``run <experiment> [options]``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of Wong & Seltzer "
        "(USENIX 2000) on the simulation substrate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    trace = sub.add_parser(
        "trace",
        help="run one experiment (or 'all') with structured tracing and "
        "metrics on",
    )
    for cmd in (run, trace):
        cmd.add_argument(
            "experiment", help="experiment id from 'list', or 'all'"
        )
        cmd.add_argument("--seed", type=int, default=0, help="master RNG seed")
        cmd.add_argument(
            "--csv",
            metavar="DIR",
            default=None,
            help="also write CSV series into DIR",
        )
        cmd.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="run sweep points on N worker processes (output is "
            "byte-identical to --jobs 1)",
        )
        cmd.add_argument(
            "--cache-dir",
            metavar="PATH",
            default=None,
            help="cache finished sweep points in PATH; reruns replay them "
            "from disk",
        )
        cmd.add_argument(
            "--no-cache",
            action="store_true",
            help="recompute every point even if --cache-dir has it",
        )
        cmd.add_argument(
            "--trace-dir",
            metavar="PATH",
            default=None,
            help="write <experiment>.trace.jsonl and <experiment>.metrics.json "
            "into PATH (implies tracing; artifacts are byte-stable across "
            "--jobs and cached reruns)",
        )
        cmd.add_argument(
            "--faults",
            metavar="SPEC",
            default=None,
            help="inject deterministic network faults, e.g. "
            "'loss=0.05,jitter_ms=3,corrupt=0.01,outage=1000-2000' "
            "(see repro.net.faults.FaultPlan.parse)",
        )
        cmd.add_argument(
            "--fault-seed",
            type=int,
            default=0,
            metavar="N",
            help="seed of the fault schedule; a fixed seed reproduces the "
            "exact same losses across serial, --jobs, and cached runs",
        )
    return parser


def main(
    argv: Optional[List[str]] = None,
    out: TextIO = sys.stdout,
    progress: Optional[TextIO] = None,
) -> int:
    """CLI entry point; returns a process exit code.

    *progress* receives per-point timing lines (defaults to stderr when
    invoked as a real CLI; pass ``None``-producing streams in tests to
    keep them quiet).
    """
    args = build_parser().parse_args(argv)
    if args.command == "list":
        tables = [
            format_table(
                ["id", "reproduces"],
                [(spec.name, spec.title) for spec in group_specs],
                title=f"Available experiments — {group}",
            )
            for group, group_specs in groups().items()
        ]
        out.write("\n\n".join(tables) + "\n")
        return 0

    if args.jobs < 1:
        out.write(f"--jobs must be >= 1, got {args.jobs}\n")
        return 2
    faults = args.faults
    if faults is not None:
        from .net import FaultPlan

        try:
            # Canonicalize, so equivalent specs share cache entries.
            faults = FaultPlan.parse(faults, seed=args.fault_seed).spec()
        except ReproError as exc:
            out.write(f"bad --faults spec: {exc}\n")
            return 2
    observing = args.command == "trace" or args.trace_dir is not None
    ctx = RunContext(
        seed=args.seed,
        out=out,
        csv_dir=args.csv,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        progress=progress,
        trace_dir=args.trace_dir,
        observe=observing,
        faults=faults,
        fault_seed=args.fault_seed,
    )
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        experiment_spec = EXPERIMENTS.get(name)
        if experiment_spec is None:
            out.write(
                f"unknown experiment {name!r}; try 'python -m repro list'\n"
            )
            return 2
        try:
            experiment_spec.run(ctx)
        except ReproError as exc:
            out.write(f"experiment {name} failed: {exc}\n")
            return 1
        if observing:
            observations = ctx.take_observations()
            if args.trace_dir is not None:
                write_run_artifacts(
                    args.trace_dir, name, args.seed, observations
                )
            out.write(
                format_metrics_summary(name, summary_rows(observations))
                + "\n"
            )
        out.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main(progress=sys.stderr))
