"""Ablation/extension: server sizing by simulation, uni- vs multi-processor.

§3.1: "those interested in deploying interface services need to know the
maximum number of concurrent users their servers can support."  The vendor
white papers the paper critiques size servers by throughput and "uniformly
ignore ... user-perceived latency"; here we size the simulated TSE server
the paper's way — concurrent typing users vs per-keystroke latency — and
show the CPU dimension scaling with processor count.
"""

from conftest import emit

from repro.core import format_table
from repro.workloads.sizing import max_users_under_sla, run_sizing_experiment

USER_COUNTS = [5, 10, 15, 20, 22, 26, 30, 40, 50]
DURATION_MS = 15_000.0


def reproduce_sizing(seed: int = 0):
    return {
        cpus: run_sizing_experiment(
            "nt_tse",
            USER_COUNTS,
            cpu_count=cpus,
            duration_ms=DURATION_MS,
            seed=seed,
        )
        for cpus in (1, 2)
    }


def test_abl_smp_sizing():
    results = reproduce_sizing()

    rows = []
    for cpus, series in results.items():
        for r in series:
            rows.append(
                (
                    cpus,
                    r.users,
                    f"{r.average_latency_ms:.1f}",
                    f"{r.p95_latency_ms:.1f}",
                    f"{r.utilization * 100:.0f}%",
                )
            )
    emit(
        format_table(
            ["cpus", "users", "avg latency (ms)", "p95 (ms)", "cpu util"],
            rows,
            title="Extension: TSE server sizing by simulated typing users "
            "(SLA: 100 ms)",
        )
    )

    one = max_users_under_sla(results[1])
    two = max_users_under_sla(results[2])
    emit(
        format_table(
            ["cpus", "max users under 100ms SLA"],
            [(1, one), (2, two)],
        )
    )

    # Latency cliff at CPU saturation (each user is ~4% of a processor).
    by_users_1 = {r.users: r for r in results[1]}
    assert by_users_1[20].average_latency_ms < 20.0
    assert by_users_1[30].average_latency_ms > 200.0
    # A second processor roughly doubles latency-respecting capacity.
    assert 1.7 <= two / one <= 2.4
