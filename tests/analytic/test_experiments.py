"""The registered analytic experiments: registry, shape, artifact identity."""

import csv
import io
import os
import subprocess
import sys

from repro.analytic.experiments import (
    CLOSED_SESSION_COUNTS,
    LINK_RHO_LEVELS,
    _analytic_closed_point,
    _analytic_link_point,
)
from repro.cli import main
from repro.core.registry import REGISTRY


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestRegistration:
    def test_both_experiments_registered_in_analytic_group(self):
        for name in ("analytic_link", "analytic_closed"):
            spec = REGISTRY[name]
            assert spec.group == "analytic"
            assert spec.title

    def test_registered_after_fleet(self):
        """New groups append; the historical run order is untouched.

        Registry order is import order, so the canonical sequence is the
        one a fresh CLI process produces — check via ``list`` output there
        rather than this process (whose import order pytest perturbs).
        """
        listing = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        ).stdout
        for earlier, later in (
            ("fleet_placement", "analytic_link"),
            ("analytic_link", "analytic_closed"),
        ):
            assert listing.index(earlier) < listing.index(later)


class TestPointFunctions:
    def test_link_point_is_deterministic(self):
        a = _analytic_link_point(0.3, seed=9)
        b = _analytic_link_point(0.3, seed=9)
        assert a == b
        pred_delay, sim_delay, pred_l, sim_l, util, samples = a
        assert pred_delay > 0 and sim_delay > 0
        assert samples > 1_000
        assert 0.0 < util < 1.0

    def test_link_point_varies_with_seed(self):
        assert _analytic_link_point(0.3, seed=1) != _analytic_link_point(
            0.3, seed=2
        )

    def test_closed_point_is_deterministic(self):
        a = _analytic_closed_point(4, seed=9)
        b = _analytic_closed_point(4, seed=9)
        assert a == b
        pred_x, sim_x, pred_r, sim_r, completions = a
        assert completions > 1_000
        assert pred_r > 0 and sim_r > 0


class TestOutputShape:
    def test_link_overlay_covers_the_rho_grid(self, tmp_path):
        code, text = run_cli(
            "run", "analytic_link", "--seed", "1", "--csv", str(tmp_path)
        )
        assert code == 0
        assert "M/G/1 (P-K) vs simulation" in text
        assert "delay_ms pred" in text and "delay_ms err" in text
        with open(tmp_path / "analytic_link.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) - 1 == len(LINK_RHO_LEVELS)
        # Prediction and simulation both show the saturation blow-up:
        # delay strictly grows along the rho grid in each column.
        predicted = [float(r[1]) for r in rows[1:]]
        simulated = [float(r[2]) for r in rows[1:]]
        assert predicted == sorted(predicted)
        assert simulated == sorted(simulated)
        assert simulated[-1] > 5 * simulated[0]

    def test_closed_overlay_covers_the_session_grid(self, tmp_path):
        code, text = run_cli(
            "run", "analytic_closed", "--seed", "1", "--csv", str(tmp_path)
        )
        assert code == 0
        assert "exact MVA vs simulation" in text
        with open(tmp_path / "analytic_closed.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) - 1 == len(CLOSED_SESSION_COUNTS)
        # Throughput saturates at 1/D = 0.1/ms; response blows up past
        # the knee — in both the predicted and simulated columns.
        pred_x = [float(r[1]) for r in rows[1:]]
        sim_r = [float(r[4]) for r in rows[1:]]
        assert pred_x == sorted(pred_x)
        assert pred_x[-1] <= 0.1 + 1e-9
        assert sim_r[-1] > 5 * sim_r[0]

    def test_every_overlay_row_is_inside_the_reporting_band(self, tmp_path):
        """Even at high rho the finite-window error stays single-digit %."""
        code, __ = run_cli(
            "run", "analytic_link", "--seed", "1", "--csv", str(tmp_path)
        )
        assert code == 0
        with open(tmp_path / "analytic_link.csv") as f:
            rows = list(csv.reader(f))
        for row in rows[1:]:
            predicted, simulated = float(row[1]), float(row[2])
            assert abs(simulated - predicted) / predicted < 0.15
