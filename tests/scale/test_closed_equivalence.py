"""Differential equivalence: vectorized closed-loop vs per-event sessions.

The closed-loop tier's claim is stronger than the open one's: not only is
the background mass statistically interchangeable with per-event typing
sessions, the *feedback* is too — sessions that block on their echoes
must throttle the offered load the same way whether they are carried as
three counts or as N per-event state machines.  This suite pins that
claim at N = 32 sessions on a 1 Mbps wire, where both tiers are
affordable and the echo service time (D ~ 2.1 ms) dominates the hybrid
tick (0.5 ms), so the documented tick-floor error stays a correction,
not the signal:

* **Distributional equivalence** — seed-averaged probe RTT statistics,
  utilization, and the MVA quantities (X, per-session keys/s, R) agree
  within tolerances calibrated to three seeds' Monte-Carlo spread.  The
  closed-loop response carries the modeled discretization bias (echo
  completions drain at tick boundaries, a >= 1-tick blocked floor plus
  within-tick smearing — see MODELING.md), so its tolerance is wider
  than the probes'.
* **Shared probe stream** — both modes draw probe times from the same
  named stream: identical sample counts, seed for seed.
* **Purity** — a point is a pure function of (parameters, seed).
"""

from functools import lru_cache

import pytest

pytest.importorskip("numpy")

from repro.errors import NetworkError
from repro.scale.hybrid import MODES, run_closed_curve_point

#: Small-N point both tiers can afford: ~32% utilization, echo service
#: ~4x the hybrid tick, ~500 think cycles per session-window so the
#: seed-averaged statistics have sub-tolerance Monte-Carlo spread.
N_SESSIONS = 32
POINT_KW = dict(
    think_ms=2_000.0,
    type_ms=200.0,
    burst_keys=5.0,
    bandwidth_mbps=1.0,
    keystroke_bytes=64,
    echo_bytes=200,
    tick_ms=0.5,
    probe_interval_ms=5.0,
    duration_ms=60_000.0,
    warmup_ms=4_000.0,
)
SEEDS = (7, 42, 1234)
STATS = (
    "rtt_mean_ms",
    "rtt_p50_ms",
    "rtt_p90_ms",
    "rtt_p99_ms",
    "utilization",
    "throughput_per_ms",
    "per_session_keys_per_s",
    "response_ms",
    "mean_blocked",
)


@lru_cache(maxsize=None)
def observation(mode, seed):
    return run_closed_curve_point(
        N_SESSIONS, mode=mode, seed=seed, **POINT_KW
    )


def seed_averaged(mode):
    rows = [observation(mode, seed) for seed in SEEDS]
    return {
        stat: sum(getattr(row, stat) for row in rows) / len(rows)
        for stat in STATS
    }


class TestDistributionalEquivalence:
    #: Calibrated against three-seed spread.  Probe-side stats inherit the
    #: open suite's widths; the closed-loop MVA quantities are tight (the
    #: chain is exact); response/mean_blocked carry the tick-floor bias
    #: (0.5 ms floor on a ~2.6 ms response) and get the widest bands.
    TOLERANCES = {
        "rtt_mean_ms": 0.10,
        "rtt_p50_ms": 0.02,
        "rtt_p90_ms": 0.20,
        "rtt_p99_ms": 0.35,
        "utilization": 0.05,
        "throughput_per_ms": 0.06,
        "per_session_keys_per_s": 0.06,
        "response_ms": 0.25,
        "mean_blocked": 0.30,
    }

    def test_hybrid_matches_exact_statistics(self):
        exact = seed_averaged("exact")
        hybrid = seed_averaged("hybrid")
        for stat, tolerance in self.TOLERANCES.items():
            assert hybrid[stat] == pytest.approx(
                exact[stat], rel=tolerance
            ), f"{stat}: hybrid {hybrid[stat]} vs exact {exact[stat]}"

    def test_probe_stream_is_mode_independent(self):
        """Both tiers see the identical probe schedule: same count."""
        for seed in SEEDS:
            exact = observation("exact", seed)
            hybrid = observation("hybrid", seed)
            assert exact.samples == hybrid.samples
            assert exact.samples > 2_000  # CO-safe: the stream never stalls

    def test_self_throttling_caps_both_tiers_identically(self):
        """Past the knee neither tier can offer more than the wire drains:
        utilization saturates instead of diverging (the closed-network
        behaviour the open tier cannot show)."""
        for mode in MODES:
            point = run_closed_curve_point(
                2_000, mode=mode, seed=11, **{
                    **POINT_KW, "duration_ms": 20_000.0, "warmup_ms": 4_000.0,
                }
            )
            assert 0.95 < point.utilization < 1.05, mode
            # X clamps at the 1/D asymptote (plus estimation noise).
            assert point.throughput_per_ms <= 1.1 * point.mva_throughput_per_ms


class TestPurity:
    def test_same_seed_same_observation(self):
        a = run_closed_curve_point(1_000, duration_ms=5_000.0, seed=3)
        b = run_closed_curve_point(1_000, duration_ms=5_000.0, seed=3)
        assert a == b  # frozen dataclass: field-for-field identity

    def test_different_seeds_differ(self):
        a = run_closed_curve_point(1_000, duration_ms=5_000.0, seed=3)
        b = run_closed_curve_point(1_000, duration_ms=5_000.0, seed=4)
        assert a != b


class TestValidation:
    def test_mode_vocabulary(self):
        with pytest.raises(NetworkError):
            run_closed_curve_point(10, mode="fluid")

    def test_bad_windows_rejected(self):
        with pytest.raises(NetworkError):
            run_closed_curve_point(10, duration_ms=500.0, warmup_ms=1_000.0)
        with pytest.raises(NetworkError):
            run_closed_curve_point(10, probe_interval_ms=0.0)

    def test_bad_population_rejected(self):
        with pytest.raises(NetworkError):
            run_closed_curve_point(0)

    def test_no_probe_samples_rejected(self):
        with pytest.raises(NetworkError, match="closed-curve point produced no"):
            run_closed_curve_point(
                10, probe_interval_ms=1e9, duration_ms=2_000.0, seed=1
            )
