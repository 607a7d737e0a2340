"""Figure 1: idle-state processor activity in NT, TSE, and Linux.

Paper: 10-second utilization traces of the three idle systems; TSE shows
extra spikes from the Terminal Service / Session Manager, Linux is nearly
flat.
"""

from conftest import emit

from repro.core import format_table, sparkline
from repro.cpu import OS_NAMES, run_idle_experiment

TRACE_MS = 60_000.0
BIN_MS = 1_000.0


def reproduce_fig1(seed: int = 0):
    results = {}
    for os_name in OS_NAMES:
        results[os_name] = run_idle_experiment(os_name, TRACE_MS, seed=seed)
    return results


def test_fig1_idle_activity():
    results = reproduce_fig1()

    rows = []
    for os_name, result in results.items():
        __, utils = result.utilization_trace(bin_ms=BIN_MS)
        rows.append(
            (
                os_name,
                f"{result.idle_utilization * 100:.2f}%",
                f"{max(utils) * 100:.1f}%",
                sparkline(utils[:30]),
            )
        )
    emit(
        format_table(
            ["system", "avg idle util", "peak bin", "trace (first 30 s)"],
            rows,
            title="Figure 1: idle-state processor activity",
        )
    )

    nt = results["nt_workstation"]
    tse = results["nt_tse"]
    linux = results["linux"]
    # The paper's visual: TSE busiest, Linux much quieter than either.
    assert tse.idle_utilization > nt.idle_utilization > linux.idle_utilization
    # TSE's spikes come from its multi-user services: bins of >= 20% exist.
    __, tse_utils = tse.utilization_trace(bin_ms=BIN_MS)
    assert max(tse_utils) >= 0.2
    __, linux_utils = linux.utilization_trace(bin_ms=BIN_MS)
    assert max(linux_utils) < 0.1
