"""The comparison harness: rows, mappings, and workbench validation."""

import pytest

from repro.analytic import (
    ComparisonRow,
    compare_open_queue,
    predict_link_probe,
    simulate_closed_loop,
    simulate_link_probe,
    simulate_open_queue,
)
from repro.errors import AnalyticError


class TestComparisonRow:
    def test_relative_error(self):
        row = ComparisonRow("x", predicted=2.0, simulated=2.2)
        assert row.relative_error == pytest.approx(0.1)

    def test_relative_error_is_symmetric_in_sign(self):
        low = ComparisonRow("x", predicted=2.0, simulated=1.8)
        high = ComparisonRow("x", predicted=2.0, simulated=2.2)
        assert low.relative_error == pytest.approx(high.relative_error)


class TestLinkMapping:
    def test_unloaded_link_prediction_is_transmit_plus_propagation(self):
        """At vanishing load the probe only pays its own service + wire."""
        delay, in_system = predict_link_probe(
            1e-9, probe_interval_ms=1e9, propagation_ms=0.05
        )
        # 64 bytes at 10 Mbps = 0.0512 ms, plus 0.05 ms propagation.
        assert delay == pytest.approx(64 / 1250.0 + 0.05, rel=1e-3)
        assert in_system == pytest.approx(0.0, abs=1e-3)

    def test_probe_traffic_contributes_to_the_mixture(self):
        """Densest probing must predict strictly more queueing."""
        sparse_delay, __ = predict_link_probe(0.3, probe_interval_ms=100.0)
        dense_delay, __ = predict_link_probe(0.3, probe_interval_ms=1.0)
        assert dense_delay > sparse_delay


class TestWorkbenchValidation:
    def test_open_queue_rejects_bad_parameters(self):
        with pytest.raises(AnalyticError):
            simulate_open_queue(0.0, 1.0)
        with pytest.raises(AnalyticError):
            simulate_open_queue(0.1, -1.0)
        with pytest.raises(AnalyticError):
            simulate_open_queue(0.1, 1.0, service="uniform")
        with pytest.raises(AnalyticError):
            simulate_open_queue(0.1, 1.0, duration_ms=10.0, warmup_ms=20.0)

    def test_link_probe_rejects_bad_parameters(self):
        with pytest.raises(AnalyticError):
            simulate_link_probe(0.0)
        with pytest.raises(AnalyticError):
            simulate_link_probe(1.5)
        with pytest.raises(AnalyticError):
            simulate_link_probe(0.5, probe_interval_ms=0.0)

    def test_link_probe_without_samples_rejected(self):
        with pytest.raises(AnalyticError, match="produced no probe samples"):
            simulate_link_probe(
                0.5, probe_interval_ms=1e9, duration_ms=2_000.0
            )

    def test_closed_loop_rejects_bad_parameters(self):
        with pytest.raises(AnalyticError):
            simulate_closed_loop(0)
        with pytest.raises(AnalyticError):
            simulate_closed_loop(1, think_ms=0.0)
        with pytest.raises(AnalyticError):
            simulate_closed_loop(1, duration_ms=1.0, warmup_ms=2.0)

    def test_workbench_points_are_deterministic(self):
        a = simulate_open_queue(0.05, 5.0, duration_ms=5_000.0, seed=3)
        b = simulate_open_queue(0.05, 5.0, duration_ms=5_000.0, seed=3)
        assert a == b
        c = simulate_open_queue(0.05, 5.0, duration_ms=5_000.0, seed=4)
        assert a != c

    def test_compare_returns_one_row_per_observable(self):
        rows, observed = compare_open_queue(
            0.05, 5.0, duration_ms=10_000.0, seed=1
        )
        assert [row.metric for row in rows] == [
            "wait_ms",
            "sojourn_ms",
            "in_system",
        ]
        assert observed.samples > 0

    def test_deterministic_service_is_exactly_deterministic(self):
        """M/D/1 points must not consume service-stream randomness."""
        observed = simulate_open_queue(
            0.01,
            2.0,
            service="deterministic",
            duration_ms=20_000.0,
            seed=7,
        )
        # Every sojourn is exactly wait + 2 ms: the service stream draws
        # no randomness, so the decomposition is exact, not statistical.
        assert observed.mean_sojourn_ms == pytest.approx(
            observed.mean_wait_ms + 2.0
        )
        # At 1% utilization queueing is rare: the mean wait is tiny.
        assert observed.mean_wait_ms < 0.1
