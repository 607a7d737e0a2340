"""The registered fleet experiments: math, determinism, artifact identity."""

import csv
import io
import os

import pytest

from repro.cli import main
from repro.fleet.experiments import (
    CAPACITY_FLEET_SIZES,
    CAPACITY_PER_SERVER,
    PLACEMENT_POLICIES_ORDER,
    _fleet_capacity_point,
    _fleet_placement_point,
)
from repro.sim.stats import nearest_rank_percentile as _percentile


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestPercentile:
    def test_empty_is_zero(self):
        assert _percentile([], 99.0) == 0.0

    def test_single_sample_is_every_percentile(self):
        assert _percentile([7.0], 50.0) == 7.0
        assert _percentile([7.0], 99.0) == 7.0

    def test_nearest_rank_on_a_known_list(self):
        samples = list(map(float, range(1, 101)))  # 1..100
        assert _percentile(samples, 50.0) == 51.0  # rank round(0.5*99)=50
        assert _percentile(samples, 99.0) == 99.0
        assert _percentile(samples, 0.0) == 1.0
        assert _percentile(samples, 100.0) == 100.0

    def test_order_independent(self):
        assert _percentile([3.0, 1.0, 2.0], 50.0) == _percentile(
            [1.0, 2.0, 3.0], 50.0
        )


class TestPointFunctions:
    def test_capacity_point_is_deterministic(self):
        a = _fleet_capacity_point((2, 4), seed=9)
        b = _fleet_capacity_point((2, 4), seed=9)
        assert a == b
        p50, p99, admitted, rejected, util = a
        assert 0.0 < p50 <= p99
        assert admitted == 2 * 4  # full grid cell admits to capacity
        assert rejected >= 1  # offered load always exceeds capacity
        assert 0.0 < util <= 1.0

    def test_capacity_point_varies_with_seed(self):
        assert _fleet_capacity_point((2, 4), seed=1) != _fleet_capacity_point(
            (2, 4), seed=2
        )

    def test_placement_point_is_deterministic(self):
        a = _fleet_placement_point("least_loaded", seed=9)
        b = _fleet_placement_point("least_loaded", seed=9)
        assert a == b
        p50, p99, migrations, rejected = a
        assert 0.0 < p50 <= p99
        assert migrations >= 1  # the failed server held sessions

    def test_policies_actually_differ(self):
        results = {
            policy: _fleet_placement_point(policy, seed=1)
            for policy in ("least_loaded", "session_affinity")
        }
        assert len(set(results.values())) == len(results)


class TestArtifactIdentity:
    """The fleet sweeps honor the repo's executor-identity contract."""

    def read_all(self, directory):
        out = {}
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as f:
                out[name] = f.read()
        return out

    def test_placement_identical_serial_parallel_and_cached(self, tmp_path):
        cache = str(tmp_path / "cache")
        code, serial = run_cli(
            "run", "fleet_placement", "--seed", "1",
            "--csv", str(tmp_path / "a"), "--cache-dir", cache,
        )
        assert code == 0
        code, parallel = run_cli(
            "run", "fleet_placement", "--seed", "1", "--jobs", "4",
            "--csv", str(tmp_path / "b"),
        )
        assert code == 0
        code, warm = run_cli(
            "run", "fleet_placement", "--seed", "1",
            "--csv", str(tmp_path / "c"), "--cache-dir", cache,
        )
        assert code == 0
        assert serial == parallel == warm
        assert (
            self.read_all(tmp_path / "a")
            == self.read_all(tmp_path / "b")
            == self.read_all(tmp_path / "c")
        )

    def test_capacity_trace_artifacts_stable_across_jobs(self, tmp_path):
        code, serial = run_cli(
            "trace", "fleet_capacity", "--seed", "1",
            "--trace-dir", str(tmp_path / "a"),
        )
        assert code == 0
        code, parallel = run_cli(
            "trace", "fleet_capacity", "--seed", "1", "--jobs", "4",
            "--trace-dir", str(tmp_path / "b"),
        )
        assert code == 0
        assert serial == parallel
        assert self.read_all(tmp_path / "a") == self.read_all(tmp_path / "b")
        assert "fleet.admitted" in serial
        assert "fleet.session_latency_ms" in serial


class TestOutputShape:
    def test_capacity_csv_covers_the_grid(self, tmp_path):
        code, text = run_cli(
            "run", "fleet_capacity", "--seed", "1", "--csv", str(tmp_path)
        )
        assert code == 0
        assert "Fleet capacity frontier" in text
        with open(tmp_path / "fleet_capacity.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) - 1 == len(CAPACITY_FLEET_SIZES) * len(
            CAPACITY_PER_SERVER
        )
        with open(tmp_path / "fleet_capacity_frontier.csv") as f:
            frontier = list(csv.reader(f))
        assert [r[0] for r in frontier[1:]] == [
            str(n) for n in CAPACITY_FLEET_SIZES
        ]
        # The frontier is the point of the experiment: sessions/server must
        # not increase with fleet size (the shared backbone binds).
        per_server = [int(r[1]) for r in frontier[1:]]
        assert per_server == sorted(per_server, reverse=True)
        assert per_server[0] > per_server[-1]

    def test_placement_table_lists_every_policy(self, tmp_path):
        code, text = run_cli(
            "run", "fleet_placement", "--seed", "1", "--csv", str(tmp_path)
        )
        assert code == 0
        for policy in PLACEMENT_POLICIES_ORDER:
            assert policy in text
        with open(tmp_path / "fleet_placement.csv") as f:
            rows = list(csv.reader(f))
        assert [r[0] for r in rows[1:]] == PLACEMENT_POLICIES_ORDER
