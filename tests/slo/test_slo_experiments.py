"""The registered SLO experiments: registration, determinism, artifacts."""

import csv
import io
import os
import subprocess
import sys

import pytest

from repro.cli import EXPERIMENTS, main
from repro.core.registry import REGISTRY
from repro.slo.experiments import (
    BURST_PROCESSES,
    BURST_RHO_LEVELS,
    CHAOS_SCENARIOS,
    CHAOS_SESSIONS,
    FLEET_POLICIES_ORDER,
    _slo_burst_point,
    _slo_chaos_point,
    _slo_fleet_point,
)

SLO_NAMES = ["slo_burst", "slo_chaos_grid", "slo_fleet"]


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestRegistration:
    def test_all_three_experiments_registered_in_order(self):
        names = list(EXPERIMENTS)
        indices = [names.index(n) for n in SLO_NAMES]
        assert indices == sorted(indices)

    def test_slo_experiments_append_after_every_other_group(self):
        names = list(EXPERIMENTS)
        first_slo = names.index(SLO_NAMES[0])
        stragglers = [
            n
            for n in names[first_slo:]
            # The scale group registers after slo in the canonical
            # sequence; anything else after slo_burst is a misplacement.
            if not n.startswith(("slo_", "scale_"))
        ]
        assert not stragglers, f"registered after slo_burst: {stragglers}"

    def test_group_and_titles(self):
        for name in SLO_NAMES:
            assert REGISTRY[name].group == "slo"
            assert REGISTRY[name].title

    @pytest.mark.parametrize(
        "entry",
        [
            "repro.cli",
            "repro.fleet.experiments",
            "repro.analytic.experiments",
            "repro.slo.experiments",
            "repro.scale.experiments",
        ],
    )
    def test_registry_order_is_import_entry_invariant(self, entry):
        """Any first import yields the same canonical registry order.

        Registration is driven by ``repro.cli`` calling each experiments
        module's ``_register`` in sequence; a process whose first import
        is one of the experiments modules must see the identical order —
        an import-time decorator would defer the entry module's
        registrations past the circular CLI import, appending them last.
        """
        code = (
            f"import {entry}\n"
            "from repro.cli import EXPERIMENTS\n"
            "print(' '.join(EXPERIMENTS))\n"
        )
        listing = subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
        ).stdout
        assert listing.split() == list(EXPERIMENTS)


class TestPointFunctions:
    def test_burst_point_deterministic_and_tail_heavier_under_bursts(self):
        poisson = _slo_burst_point(("poisson", 0.5), seed=3)
        assert poisson == _slo_burst_point(("poisson", 0.5), seed=3)
        onoff = _slo_burst_point(("onoff", 0.5), seed=3)
        # Equal mean rate, heavier tail: p99 and burn both blow up.
        assert onoff[4] > poisson[4]
        assert onoff[6] >= poisson[6]

    def test_chaos_point_outage_shows_the_co_gap(self):
        cell = ("outage", "outage=3000-3500", 8)
        point = _slo_chaos_point(cell, seed=3)
        assert point == _slo_chaos_point(cell, seed=3)
        n_unc, n_cor, p99_unc, p99_cor, viol, burn, missed = point
        assert p99_cor > p99_unc
        assert missed > 0
        assert n_cor >= n_unc

    def test_chaos_point_clean_cell_has_no_gap(self):
        n_unc, n_cor, p99_unc, p99_cor, viol, burn, missed = _slo_chaos_point(
            ("clean", "", 8), seed=3
        )
        assert missed == 0
        assert n_unc == n_cor
        assert p99_cor == pytest.approx(p99_unc)
        assert burn == 0.0

    def test_fleet_point_deterministic_and_policies_differ(self):
        a = _slo_fleet_point("least_loaded", seed=1)
        assert a == _slo_fleet_point("least_loaded", seed=1)
        b = _slo_fleet_point("round_robin", seed=1)
        assert a != b


class TestOutputShape:
    def test_chaos_csv_covers_the_grid_and_shows_the_gap(self, tmp_path):
        code, text = run_cli(
            "run", "slo_chaos_grid", "--seed", "1", "--csv", str(tmp_path)
        )
        assert code == 0
        assert "p99 uncorr" in text and "p99 corr" in text
        with open(tmp_path / "slo_chaos_grid.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) - 1 == len(CHAOS_SCENARIOS) * len(CHAOS_SESSIONS)
        header = rows[0]
        unc = header.index("p99_uncorrected_ms")
        cor = header.index("p99_corrected_ms")
        fault = header.index("fault")
        gaps = [
            float(r[cor]) - float(r[unc]) for r in rows[1:] if r[fault] != "clean"
        ]
        # The committed EXPERIMENTS.md table shows this: at least one
        # faulted cell where correction moves p99 by a large margin.
        assert max(gaps) > 100.0

    def test_burst_table_lists_both_processes(self, tmp_path):
        code, text = run_cli(
            "run", "slo_burst", "--seed", "1", "--csv", str(tmp_path)
        )
        assert code == 0
        for process in BURST_PROCESSES:
            assert process in text
        assert "blow-up" in text
        with open(tmp_path / "slo_burst.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) - 1 == len(BURST_PROCESSES) * len(BURST_RHO_LEVELS)

    def test_fleet_table_lists_every_policy(self, tmp_path):
        code, text = run_cli(
            "run", "slo_fleet", "--seed", "1", "--csv", str(tmp_path)
        )
        assert code == 0
        for policy in FLEET_POLICIES_ORDER:
            assert policy in text
        with open(tmp_path / "slo_fleet.csv") as f:
            rows = list(csv.reader(f))
        assert [r[0] for r in rows[1:]] == FLEET_POLICIES_ORDER


class TestFaultBlindCache:
    """The grid injects its own faults: it takes the fault seed but no fault
    plan, so ``--faults`` alone replays the clean run's cache entries and a
    fault seed keys entries of its own."""

    def run(self, tmp_path, label, *extra):
        out, progress = io.StringIO(), io.StringIO()
        code = main(
            ["run", "slo_chaos_grid", "--seed", "1", "--csv",
             str(tmp_path / label), *extra],
            out=out,
            progress=progress,
        )
        assert code == 0
        with open(tmp_path / label / "slo_chaos_grid.csv", "rb") as f:
            return out.getvalue(), f.read(), progress.getvalue()

    def test_faulted_run_replays_the_clean_points(self, tmp_path):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        clean_out, clean_csv, __ = self.run(tmp_path, "clean", *cache)
        out, csv_bytes, progress = self.run(
            tmp_path, "faulted", "--faults", "loss=0.02", *cache
        )
        points = len(CHAOS_SCENARIOS) * len(CHAOS_SESSIONS)
        assert f"({points} cached, backend=serial)" in progress
        assert out == clean_out
        assert csv_bytes == clean_csv

    def test_a_fault_seed_keys_its_own_points(self, tmp_path):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        clean = self.run(tmp_path, "clean", *cache)
        seeded = ["--fault-seed", "3"]
        out, csv_bytes, progress = self.run(
            tmp_path, "faulted", "--faults", "loss=0.02", *seeded, *cache
        )
        assert "(0 cached, backend=serial)" in progress
        fresh = self.run(tmp_path, "fresh", *seeded, "--no-cache")
        assert (out, csv_bytes) == fresh[:2]
        assert csv_bytes != clean[1]
