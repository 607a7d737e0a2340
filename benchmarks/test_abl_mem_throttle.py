"""Ablation: non-interactive memory throttling (§5.2).

"Evans et al. also demonstrated in their prototype kernel a solution to
this problem, which is non-interactive process throttling in high load
situations.  They demonstrated that their SVR4 kernel modified with
throttling eliminated this pathology."

We re-run the §5.2 memory-latency table with
:class:`repro.memory.ThrottledVirtualMemory`: interactive working sets are
protected, and the keystroke response stays at the 50 ms baseline even at
>=100% page demand.
"""

from conftest import emit

from repro.core import format_table
from repro.memory import BASELINE_RESPONSE_MS, run_memory_latency_experiment

DEMAND = 1.2


def reproduce_throttle_ablation(seed: int = 0):
    out = {}
    for os_name in ("linux", "nt_tse"):
        out[(os_name, "plain")] = run_memory_latency_experiment(
            os_name, DEMAND, runs=10, seed=seed
        )
        out[(os_name, "throttled")] = run_memory_latency_experiment(
            os_name, DEMAND, runs=10, seed=seed, throttled=True
        )
    return out


def test_abl_mem_throttle():
    results = reproduce_throttle_ablation()

    rows = []
    for (os_name, mode), result in results.items():
        s = result.summary
        rows.append(
            (os_name, mode, f"{s.minimum:,.0f}", f"{s.average:,.0f}", f"{s.maximum:,.0f}")
        )
    emit(
        format_table(
            ["OS", "vm", "min (ms)", "avg (ms)", "max (ms)"],
            rows,
            title="Ablation: keystroke latency at >=100% page demand, "
            "plain vs throttled VM",
        )
    )

    for os_name in ("linux", "nt_tse"):
        plain = results[(os_name, "plain")].summary
        throttled = results[(os_name, "throttled")].summary
        assert plain.average > 500.0
        # Throttling eliminates the pathology entirely.
        assert throttled.maximum == BASELINE_RESPONSE_MS
