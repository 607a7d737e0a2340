"""Ablation: Evans et al.'s interactive scheduling class (§4.2.1-4.2.2).

"They demonstrated a prototype SVR4 kernel modified with an interactive
scheduler for which keystroke handling latency remains constant and small,
even as load approaches 20."  The paper laments that "years later no
Unix-like kernels implement such improvements."

This bench runs the Figure 3 experiment on the SVR4/IA scheduler next to
TSE and Linux: the IA class keeps the echo thread's stalls flat while the
production schedulers degrade.
"""

from conftest import emit

from repro.core import format_table
from repro.workloads import run_stall_experiment

LOADS = [0, 5, 10, 15, 20]
DURATION_MS = 30_000.0


def reproduce_svr4_comparison(seed: int = 0):
    return {
        os_name: run_stall_experiment(
            os_name, LOADS, duration_ms=DURATION_MS, seed=seed
        )
        for os_name in ("svr4", "linux", "nt_tse")
    }


def test_abl_svr4_interactive():
    results = reproduce_svr4_comparison()

    stalls = {
        os_name: {r.queue_length: r.average_stall_ms for r in series}
        for os_name, series in results.items()
    }
    emit(
        format_table(
            ["queue length"] + list(stalls),
            [
                [n] + [f"{stalls[o][n]:.0f}" for o in stalls]
                for n in LOADS
            ],
            title="Ablation: avg stall (ms) — SVR4/IA vs Linux vs TSE",
        )
    )

    # Evans et al.: flat and small out to load 20.
    assert all(stalls["svr4"][n] < 10.0 for n in LOADS)
    # The systems the paper measured degrade with load.
    assert stalls["linux"][20] > 20 * max(stalls["svr4"][20], 1.0)
    assert stalls["nt_tse"][15] > 600.0
