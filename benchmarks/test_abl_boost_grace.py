"""Ablation: the GUI-boost grace period and processor speed (§4.2.1).

The paper's worked example: a 500 ms window-maximize intersecting a 400 ms
priority-13 service event "will still take 900ms total in spite of the
scheduler's help", because the priority-15 boost lasts only two (stretched)
quanta.  "Upgrading to a faster processor that can bring more user input
events under this 180ms threshold can tangibly improve user-perceived
latency with no modifications to the scheduler" — they estimate processors
2.5-5.5x the reference 100 MHz Pentium suffice.
"""

from conftest import emit

from repro.core import format_table
from repro.workloads import run_maximize_experiment

SPEEDS = [1.0, 2.0, 2.5, 4.0, 5.5, 8.0]


def reproduce_boost_grace():
    return [(s, run_maximize_experiment(cpu_speed=s)) for s in SPEEDS]


def test_abl_boost_grace():
    rows = reproduce_boost_grace()

    emit(
        format_table(
            ["cpu speed", "maximize completion (ms)", "added latency (ms)"],
            [
                (f"{s:.1f}x", f"{r.completion_ms:.0f}", f"{r.added_latency_ms:.0f}")
                for s, r in rows
            ],
            title="Ablation: boost grace period vs processor speed "
            "(500ms maximize + 400ms priority-13 event)",
        )
    )

    by_speed = dict(rows)
    # The reference processor: the paper's ~900ms worst case.
    assert 800.0 < by_speed[1.0].completion_ms < 1_000.0
    # Fast processors finish inside the boost grace: no added latency.
    assert by_speed[5.5].added_latency_ms < 10.0
    assert by_speed[8.0].added_latency_ms < 10.0
    # The transition happens in the paper's predicted 2.5-5.5x band.
    assert by_speed[2.0].added_latency_ms > 100.0
    completions = [r.completion_ms for __, r in rows]
    assert completions == sorted(completions, reverse=True)
