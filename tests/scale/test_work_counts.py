"""The hybrid tier's cost claims, stated as deterministic work counts.

A point's cost is counted as the events its :class:`Simulator`
*scheduled* (the kernel's ``_seq``), captured by swapping a recording
subclass into :mod:`repro.scale.hybrid`.  Unlike wall time, the count is
exact and host-independent, so the gates cannot flake:

* **Population independence** — on the committed ``scale_load_curve``
  and ``scale_closed_curve`` shapes, the 10⁶-user point schedules at most
  ``FLATNESS_CEILING`` times the events of the 10⁴-user point (the open
  background is a presampled array, the closed one three counts stepped
  per tick; neither grows with the population).
* **Hybrid beats exact** — at N = 20 000 over 10 s, where both tiers run,
  the per-event twin schedules at least a floor multiple of the hybrid
  point's events.  The exact open twin's cost is one generator per user,
  each holding a pending arrival: those are *scheduled* events, while
  the *dispatched* counts differ by only ~1.04×, so dispatch is not the
  measure here.

The two absolute wall-clock budgets on the same curves live in
``benchmarks/test_scale_budgets.py``: tier-1 carries no deadlines.
"""

import pytest

pytest.importorskip("numpy")

from repro.scale import hybrid
from repro.scale.experiments import (
    CLOSED_CURVE_BANDWIDTH_MBPS,
    CLOSED_CURVE_BURST_KEYS,
    CLOSED_CURVE_DURATION_MS,
    CLOSED_CURVE_THINK_MS,
    CLOSED_CURVE_TICK_MS,
    CLOSED_CURVE_TYPE_MS,
    CLOSED_CURVE_WARMUP_MS,
    LOAD_CURVE_BANDWIDTH_MBPS,
    LOAD_CURVE_DURATION_MS,
    LOAD_CURVE_PER_USER_BPS,
    LOAD_CURVE_PROCESSES,
    LOAD_CURVE_TICK_MS,
)
from repro.sim.engine import Simulator

SEED = 1

#: The 10⁶-user point may schedule at most this multiple of the 10⁴ one's
#: events (measured at seed 1: 1.00× open, 0.94× closed).
FLATNESS_CEILING = 3.0

#: Where both tiers are affordable, for the exact-vs-hybrid ratios.
TWIN_USERS = 20_000
TWIN_DURATION_MS = 10_000.0
TWIN_WARMUP_MS = 1_000.0

#: Floors on exact-twin events / hybrid events: the larger of 2× and half
#: the ratio measured when the gate was set (3.1× open, 11.0× closed).
OPEN_TWIN_FLOOR = 2.0
CLOSED_TWIN_FLOOR = 5.5


def scheduled_events(point, users, **kwargs) -> int:
    """Events the point's simulator scheduled over one run of *point*."""
    made = []

    class RecordingSimulator(Simulator):
        def __init__(self) -> None:
            super().__init__()
            made.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hybrid, "Simulator", RecordingSimulator)
        point(users, seed=SEED, **kwargs)
    assert len(made) == 1, "each point runs exactly one simulator"
    return made[0]._seq


def open_events(users, **kwargs) -> int:
    return scheduled_events(
        hybrid.run_load_curve_point,
        users,
        per_user_bps=LOAD_CURVE_PER_USER_BPS,
        bandwidth_mbps=LOAD_CURVE_BANDWIDTH_MBPS,
        tick_ms=LOAD_CURVE_TICK_MS,
        **kwargs,
    )


def closed_events(users, **kwargs) -> int:
    return scheduled_events(
        hybrid.run_closed_curve_point,
        users,
        think_ms=CLOSED_CURVE_THINK_MS,
        type_ms=CLOSED_CURVE_TYPE_MS,
        burst_keys=CLOSED_CURVE_BURST_KEYS,
        bandwidth_mbps=CLOSED_CURVE_BANDWIDTH_MBPS,
        tick_ms=CLOSED_CURVE_TICK_MS,
        **kwargs,
    )


class TestPopulationIndependence:
    @pytest.mark.parametrize("process", LOAD_CURVE_PROCESSES)
    def test_open_point_work_is_flat_in_users(self, process):
        small, large = (
            open_events(
                users, process=process, duration_ms=LOAD_CURVE_DURATION_MS
            )
            for users in (10_000, 1_000_000)
        )
        assert large <= FLATNESS_CEILING * small, (small, large)

    def test_closed_point_work_is_flat_in_sessions(self):
        small, large = (
            closed_events(
                users,
                duration_ms=CLOSED_CURVE_DURATION_MS,
                warmup_ms=CLOSED_CURVE_WARMUP_MS,
            )
            for users in (10_000, 1_000_000)
        )
        assert large <= FLATNESS_CEILING * small, (small, large)


class TestHybridBeatsExact:
    def test_open_exact_twin_schedules_more_events(self):
        exact, fluid = (
            open_events(TWIN_USERS, duration_ms=TWIN_DURATION_MS, mode=mode)
            for mode in ("exact", "hybrid")
        )
        assert exact >= OPEN_TWIN_FLOOR * fluid, (exact, fluid)

    def test_closed_exact_twin_schedules_more_events(self):
        exact, fluid = (
            closed_events(
                TWIN_USERS,
                duration_ms=TWIN_DURATION_MS,
                warmup_ms=TWIN_WARMUP_MS,
                mode=mode,
            )
            for mode in ("exact", "hybrid")
        )
        assert exact >= CLOSED_TWIN_FLOOR * fluid, (exact, fluid)
