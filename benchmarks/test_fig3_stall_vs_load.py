"""Figure 3: average stall length vs scheduler queue length.

Paper: 20 Hz key repeat against N ``sink`` processes.  TSE's latency rises
sharply around 10 load units and the system is barely usable by 15; Linux
degrades linearly and more slowly out to 50.
"""

from conftest import emit

from repro.core import format_table
from repro.workloads import run_stall_experiment

TSE_LOADS = [0, 5, 10, 15]
LINUX_LOADS = [0, 5, 10, 15, 25, 35, 50]
DURATION_MS = 60_000.0


def reproduce_fig3(seed: int = 0):
    return {
        "nt_tse": run_stall_experiment(
            "nt_tse", TSE_LOADS, duration_ms=DURATION_MS, seed=seed
        ),
        "linux": run_stall_experiment(
            "linux", LINUX_LOADS, duration_ms=DURATION_MS, seed=seed
        ),
    }


def test_fig3_stall_vs_load():
    results = reproduce_fig3()

    rows = []
    for os_name, series in results.items():
        for r in series:
            rows.append(
                (
                    os_name,
                    r.queue_length,
                    f"{r.average_stall_ms:.0f}",
                    f"{r.jitter_ms:.0f}",
                )
            )
    emit(
        format_table(
            ["system", "queue length", "avg stall (ms)", "jitter (ms)"],
            rows,
            title="Figure 3: average stall length vs scheduler queue length",
        )
    )

    tse = {r.queue_length: r.average_stall_ms for r in results["nt_tse"]}
    linux = {r.queue_length: r.average_stall_ms for r in results["linux"]}

    # TSE: sharp rise; near-unusable (paper ~800-900ms stalls) by 15.
    assert tse[15] > 600.0
    assert tse[15] > 2.5 * tse[5]
    # Linux: linear-ish, much gentler at equal load.
    assert linux[15] < tse[15] / 3
    assert 200.0 < linux[50] < 700.0  # paper: ~400-500ms at 45-50
    # Monotone growth for Linux across the sweep.
    linux_series = [linux[n] for n in LINUX_LOADS]
    assert all(b >= a - 25.0 for a, b in zip(linux_series, linux_series[1:]))
