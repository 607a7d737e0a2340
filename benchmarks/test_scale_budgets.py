"""Wall-clock budgets on the hybrid tier's committed curve points.

The tier exists to make 10⁵–10⁶ users affordable, so two of its points
carry absolute budgets, each timed over one run at seed 1:

* the 10⁵-user ``scale_load_curve`` point (poisson) within 10 s;
* the 10⁶-session ``scale_closed_curve`` point (the full 60 s window at
  tick 1 ms) within 2 s.

They live here rather than in ``tests/``: tier-1 carries no wall-clock
deadlines, and a coverage tracer would slow the 2 s point past its bound.
The tier's relative claims (flat in population, ahead of exact) are
exact work counts in ``tests/scale/test_work_counts.py``.
"""

import time

from conftest import emit

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
    LOAD_CURVE_TICK_MS,
)
from repro.scale.hybrid import run_closed_curve_point, run_load_curve_point

OPEN_POINT_BUDGET_S = 10.0
CLOSED_POINT_BUDGET_S = 2.0


def wall_seconds(point, *args, **kwargs) -> float:
    start = time.perf_counter()
    point(*args, **kwargs)
    return time.perf_counter() - start


def test_open_100k_user_point_within_budget():
    elapsed = wall_seconds(
        run_load_curve_point,
        100_000,
        per_user_bps=LOAD_CURVE_PER_USER_BPS,
        bandwidth_mbps=LOAD_CURVE_BANDWIDTH_MBPS,
        tick_ms=LOAD_CURVE_TICK_MS,
        duration_ms=LOAD_CURVE_DURATION_MS,
        seed=1,
    )
    emit(
        f"open 10^5-user point: {elapsed:.2f}s "
        f"(budget {OPEN_POINT_BUDGET_S:.0f}s)"
    )
    assert elapsed <= OPEN_POINT_BUDGET_S


def test_closed_1m_session_point_within_budget():
    elapsed = wall_seconds(
        run_closed_curve_point,
        1_000_000,
        think_ms=CLOSED_CURVE_THINK_MS,
        type_ms=CLOSED_CURVE_TYPE_MS,
        burst_keys=CLOSED_CURVE_BURST_KEYS,
        bandwidth_mbps=CLOSED_CURVE_BANDWIDTH_MBPS,
        tick_ms=CLOSED_CURVE_TICK_MS,
        duration_ms=CLOSED_CURVE_DURATION_MS,
        warmup_ms=CLOSED_CURVE_WARMUP_MS,
        seed=1,
    )
    emit(
        f"closed 10^6-session point: {elapsed:.2f}s "
        f"(budget {CLOSED_POINT_BUDGET_S:.0f}s)"
    )
    assert elapsed <= CLOSED_POINT_BUDGET_S
