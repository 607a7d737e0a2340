#!/usr/bin/env python
"""Hybrid-tier performance suite — writes and checks BENCH_scale.json.

Machine-checkable claims, open tier and closed tier alike:

* **Population independence** — a hybrid point costs the same wall time
  at 10^6 background users as at 10^4 (the open background is a
  presampled array; the closed one is three counts stepped per tick).
  Checked as ratios, so the gates are stable across differently-sized
  CI machines.
* **Absolute affordability** — the 10^5-user point of the committed
  ``scale_load_curve`` shape finishes inside ``POINT_BUDGET_S`` seconds,
  and the 10^6-session ``scale_closed_curve`` point inside
  ``CLOSED_POINT_BUDGET_S`` (the ISSUE's acceptance bounds).
* **Hybrid beats exact** — at a population both tiers can run
  (N = 20 000), each hybrid point is at least ``SPEEDUP_FLOOR``x faster
  than its per-event twin, and the committed speedups do not regress by
  more than 50%.

Usage::

    python benchmarks/perf/bench_scale.py --out BENCH_scale.json
    python benchmarks/perf/bench_scale.py --check BENCH_scale.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.scale.experiments import (  # noqa: E402
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
from repro.scale.hybrid import (  # noqa: E402
    run_closed_curve_point,
    run_load_curve_point,
)

#: Populations timed on the committed curve shapes.
POPULATIONS = (10_000, 100_000, 1_000_000)

#: Absolute wall-time bound on the open 10^5-user point.
POINT_BUDGET_S = 10.0

#: Absolute wall-time bound on the closed 10^6-session point (ISSUE
#: acceptance: the full 60 s window at tick 1 ms in about a second).
CLOSED_POINT_BUDGET_S = 2.0

#: The 10^6-user point may cost at most this multiple of the 10^4 one.
FLATNESS_CEILING = 3.0

#: Hybrid must beat the exact tier by at least this factor at N=20k.
SPEEDUP_FLOOR = 2.0

#: --check fails when a speedup drops below this fraction of committed.
REGRESSION_TOLERANCE = 0.5

#: Where both tiers are affordable, for the speedup measurements.
SPEEDUP_USERS = 20_000
SPEEDUP_DURATION_MS = 10_000.0


def _wall(point, **kwargs) -> float:
    start = time.perf_counter()
    point(**kwargs)
    return time.perf_counter() - start


def _open_point(**kwargs) -> float:
    return _wall(
        run_load_curve_point,
        per_user_bps=LOAD_CURVE_PER_USER_BPS,
        bandwidth_mbps=LOAD_CURVE_BANDWIDTH_MBPS,
        tick_ms=LOAD_CURVE_TICK_MS,
        seed=1,
        **kwargs,
    )


def _closed_point(**kwargs) -> float:
    return _wall(
        run_closed_curve_point,
        think_ms=CLOSED_CURVE_THINK_MS,
        type_ms=CLOSED_CURVE_TYPE_MS,
        burst_keys=CLOSED_CURVE_BURST_KEYS,
        bandwidth_mbps=CLOSED_CURVE_BANDWIDTH_MBPS,
        tick_ms=CLOSED_CURVE_TICK_MS,
        seed=1,
        **kwargs,
    )


def run_points() -> dict:
    """Wall time of one hybrid load-curve point per population."""
    results = {}
    for users in POPULATIONS:
        elapsed = _open_point(
            users=users, duration_ms=LOAD_CURVE_DURATION_MS
        )
        results[str(users)] = {"wall_s": round(elapsed, 3)}
        print(f"  hybrid {users:>9,} users  {elapsed:.2f}s", file=sys.stderr)
    return results


def run_closed_points() -> dict:
    """Wall time of one closed-loop curve point per population."""
    results = {}
    for users in POPULATIONS:
        elapsed = _closed_point(
            users=users,
            duration_ms=CLOSED_CURVE_DURATION_MS,
            warmup_ms=CLOSED_CURVE_WARMUP_MS,
        )
        results[str(users)] = {"wall_s": round(elapsed, 3)}
        print(
            f"  closed {users:>9,} sessions  {elapsed:.2f}s", file=sys.stderr
        )
    return results


def run_speedup() -> dict:
    """Exact vs hybrid wall time at a population both tiers can run."""
    walls = {}
    for mode in ("exact", "hybrid"):
        walls[mode] = _open_point(
            users=SPEEDUP_USERS,
            duration_ms=SPEEDUP_DURATION_MS,
            mode=mode,
        )
        print(
            f"  {mode:<7} {SPEEDUP_USERS:,} users  {walls[mode]:.2f}s",
            file=sys.stderr,
        )
    speedup = walls["exact"] / walls["hybrid"]
    print(f"  hybrid speedup {speedup:.1f}x", file=sys.stderr)
    return {
        "users": SPEEDUP_USERS,
        "exact_wall_s": round(walls["exact"], 3),
        "hybrid_wall_s": round(walls["hybrid"], 3),
        "speedup": round(speedup, 2),
    }


def run_closed_speedup() -> dict:
    """Exact vs hybrid closed-loop wall time at the same population."""
    walls = {}
    for mode in ("exact", "hybrid"):
        walls[mode] = _closed_point(
            users=SPEEDUP_USERS,
            duration_ms=SPEEDUP_DURATION_MS,
            warmup_ms=1_000.0,
            mode=mode,
        )
        print(
            f"  closed {mode:<7} {SPEEDUP_USERS:,} sessions  "
            f"{walls[mode]:.2f}s",
            file=sys.stderr,
        )
    speedup = walls["exact"] / walls["hybrid"]
    print(f"  closed hybrid speedup {speedup:.1f}x", file=sys.stderr)
    return {
        "users": SPEEDUP_USERS,
        "exact_wall_s": round(walls["exact"], 3),
        "hybrid_wall_s": round(walls["hybrid"], 3),
        "speedup": round(speedup, 2),
    }


def _failures(
    points: dict,
    closed_points: dict,
    speedup: dict,
    closed_speedup: dict,
    committed: dict | None,
) -> list:
    failures = []
    mid = points["100000"]["wall_s"]
    if mid > POINT_BUDGET_S:
        failures.append(
            f"10^5-user point took {mid:.2f}s, over the "
            f"{POINT_BUDGET_S:.0f}s budget"
        )
    top_closed = closed_points["1000000"]["wall_s"]
    if top_closed > CLOSED_POINT_BUDGET_S:
        failures.append(
            f"10^6-session closed point took {top_closed:.2f}s, over the "
            f"{CLOSED_POINT_BUDGET_S:.0f}s budget"
        )
    for label, grid in (("", points), ("closed ", closed_points)):
        flatness = grid["1000000"]["wall_s"] / grid["10000"]["wall_s"]
        if flatness > FLATNESS_CEILING:
            failures.append(
                f"{label}10^6 point costs {flatness:.1f}x the 10^4 one "
                f"(ceiling {FLATNESS_CEILING:.1f}x): the hybrid tier is "
                "no longer population-independent"
            )
    for label, key, measured in (
        ("", "speedup", speedup),
        ("closed ", "closed_speedup", closed_speedup),
    ):
        if measured["speedup"] < SPEEDUP_FLOOR:
            failures.append(
                f"{label}hybrid speedup {measured['speedup']:.2f}x is "
                f"below the {SPEEDUP_FLOOR:.1f}x floor"
            )
        if committed is not None:
            baseline = committed.get(key, {}).get("speedup")
            if baseline is not None:
                floor = baseline * REGRESSION_TOLERANCE
                if measured["speedup"] < floor:
                    failures.append(
                        f"{label}hybrid speedup {measured['speedup']:.2f}x "
                        f"is below {floor:.2f}x (>50% regression vs "
                        f"committed {baseline:.2f}x)"
                    )
    return failures


def _measure() -> tuple:
    print("hybrid load-curve points:", file=sys.stderr)
    points = run_points()
    print("closed-loop curve points:", file=sys.stderr)
    closed_points = run_closed_points()
    print("exact vs hybrid:", file=sys.stderr)
    speedup = run_speedup()
    print("closed exact vs hybrid:", file=sys.stderr)
    closed_speedup = run_closed_speedup()
    return points, closed_points, speedup, closed_speedup


def write_bench(path: str) -> int:
    points, closed_points, speedup, closed_speedup = _measure()
    failures = _failures(
        points, closed_points, speedup, closed_speedup, committed=None
    )
    if failures:
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        return 1
    doc = {
        "schema": 2,
        "load_curve_points": points,
        "closed_curve_points": closed_points,
        "speedup": speedup,
        "closed_speedup": closed_speedup,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"-> {path}", file=sys.stderr)
    return 0


def check_bench(path: str) -> int:
    with open(path) as fh:
        committed = json.load(fh)
    points, closed_points, speedup, closed_speedup = _measure()
    failures = _failures(
        points, closed_points, speedup, closed_speedup, committed
    )
    if failures:
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(
        f"perf smoke ok: hybrid speedup {speedup['speedup']:.2f}x, "
        f"closed {closed_speedup['speedup']:.2f}x, "
        f"10^5 point {points['100000']['wall_s']:.2f}s, "
        f"closed 10^6 point {closed_points['1000000']['wall_s']:.2f}s",
        file=sys.stderr,
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="FILE", help="write BENCH_scale.json")
    group.add_argument(
        "--check",
        metavar="FILE",
        help="re-run the suite; fail on budget, flatness, or speedup loss",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check_bench(args.check)
    return write_bench(args.out)


if __name__ == "__main__":
    raise SystemExit(main())
