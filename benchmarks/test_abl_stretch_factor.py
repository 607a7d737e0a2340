"""Ablation: NT quantum stretching (§4.2.1).

"The first ['quantum stretching'] allows the system administrator to
multiply the quantum for foreground threads.  The allowed stretch factors
are one, two, and three."

On a terminal server every session's threads are foreground, so stretching
lengthens *everyone's* turns: the Figure 3 experiment re-run at each
stretch factor shows the echo thread's stall growing proportionally — the
administrator knob makes the interactive collapse worse, not better, once
the competitors are foreground too.
"""

import pytest
from conftest import emit

from repro.core import format_table
from repro.cpu import NTConfig, NTScheduler
from repro.workloads import run_stall_experiment

LOADS = [5, 10, 15]
DURATION_MS = 30_000.0


def reproduce_stretch_sweep(seed: int = 0):
    out = {}
    for stretch in (1, 2, 3):
        config = NTConfig.tse().with_stretch(stretch)
        out[stretch] = run_stall_experiment(
            "nt_tse",
            LOADS,
            duration_ms=DURATION_MS,
            seed=seed,
            scheduler_factory=lambda config=config: NTScheduler(config),
            include_idle_activity=False,
        )
    return out


def test_abl_stretch_factor():
    results = reproduce_stretch_sweep()

    stalls = {
        stretch: {r.queue_length: r.average_stall_ms for r in series}
        for stretch, series in results.items()
    }
    emit(
        format_table(
            ["sinks", "stretch x1", "stretch x2", "stretch x3"],
            [
                [n] + [f"{stalls[s][n]:.0f}" for s in (1, 2, 3)]
                for n in LOADS
            ],
            title="Ablation: TSE echo stalls (ms) vs foreground quantum stretch",
        )
    )

    # With foreground competitors, stretching scales the wait per sink:
    # stall ~= N * 30ms * stretch.
    for n in LOADS:
        assert stalls[2][n] > 1.5 * stalls[1][n]
        assert stalls[3][n] > 2.0 * stalls[1][n]
    # Rough proportionality at the heaviest load.
    assert stalls[3][15] / stalls[1][15] == pytest.approx(3.0, rel=0.35)
