"""The registered scale experiments: registration, determinism, artifacts.

Mirrors ``tests/slo/test_slo_experiments.py`` — the scale group joins the
same compatibility surface: canonical registry order, executor identity
(serial == ``--jobs`` == cold == warm, byte for byte), kernel and
recorder invariance, and CSV artifacts that cover the whole grid.
"""

import csv
import io

import pytest

pytest.importorskip("numpy")

from repro.cli import EXPERIMENTS, main
from repro.core.registry import REGISTRY
from repro.core.server import ServerConfig
from repro.errors import FleetError
from repro.fleet.cluster import Fleet, FleetConfig
from repro.scale.experiments import (
    CLOSED_CURVE_USERS,
    CLOSED_FLEET_BG_SESSIONS,
    FLEET_BG_USERS,
    FLEET_PROCESSES,
    LOAD_CURVE_PROCESSES,
    LOAD_CURVE_USERS,
    _scale_closed_curve_point,
    _scale_closed_fleet_point,
    _scale_fleet_point,
    _scale_load_curve_point,
)
from repro.scale.population import ClosedLoopSpec, PopulationSpec

SCALE_NAMES = [
    "scale_load_curve",
    "scale_closed_curve",
    "scale_fleet",
    "scale_closed_fleet",
]


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def small_fleet(**overrides):
    kwargs = dict(
        server=ServerConfig.tse(include_idle_activity=False),
        num_servers=2,
        placement="round_robin",
        admission_mode="reject",
        capacity_per_server=2,
        backbone_mbps=100.0,
        co_safe_sessions=True,
    )
    kwargs.update(overrides)
    return Fleet(FleetConfig(**kwargs), seed=1)


def small_spec(**overrides):
    kwargs = dict(users=1_000, per_user_bps=100.0, tick_ms=10.0)
    kwargs.update(overrides)
    return PopulationSpec(**kwargs)


def small_closed_spec(**overrides):
    kwargs = dict(
        users=2_000,
        think_ms=5_000.0,
        type_ms=300.0,
        burst_keys=2.0,
        tick_ms=10.0,
    )
    kwargs.update(overrides)
    return ClosedLoopSpec(**kwargs)


class TestRegistration:
    def test_scale_experiments_close_the_registry(self):
        names = list(EXPERIMENTS)
        assert names[-4:] == SCALE_NAMES

    def test_group_and_titles(self):
        for name in SCALE_NAMES:
            assert REGISTRY[name].group == "scale"
            assert REGISTRY[name].title


class TestPointFunctions:
    def test_load_curve_point_deterministic(self):
        point = _scale_load_curve_point(("poisson", 10_000), seed=3)
        assert point == _scale_load_curve_point(("poisson", 10_000), seed=3)

    def test_load_curve_knee_bends_upward(self):
        quiet = _scale_load_curve_point(("poisson", 10_000), seed=3)
        busy = _scale_load_curve_point(("poisson", 900_000), seed=3)
        # Columns: (n, offered, util, mean, p50, p99, p99.9, viol, burn).
        assert busy[2] > 5 * quiet[2]  # utilization tracks the population
        assert busy[5] > 4 * quiet[5]  # p99 has left the flat region

    def test_fleet_point_deterministic_and_cliff_is_sharp(self):
        low = _scale_fleet_point(("poisson", 20_000), seed=3)
        assert low == _scale_fleet_point(("poisson", 20_000), seed=3)
        over = _scale_fleet_point(("poisson", 95_000), seed=3)
        n, cpu, lan, p50, p99, viol, burn = over
        assert cpu > 0.99  # past saturation
        assert viol == pytest.approx(1.0)
        assert p99 > 100.0  # the budget is unreachable over the cliff
        assert low[5] == 0.0  # and trivially met below it

    def test_closed_curve_point_deterministic(self):
        point = _scale_closed_curve_point(10_000, seed=3)
        assert point == _scale_closed_curve_point(10_000, seed=3)

    def test_closed_curve_bends_at_the_mva_knee(self):
        light = _scale_closed_curve_point(10_000, seed=3)
        heavy = _scale_closed_curve_point(1_000_000, seed=3)
        # Columns: (n, util, p50, p99, X/s, X/s/session, R, mvaX/s, viol, burn).
        assert heavy[1] > 0.95  # the wire is saturated past the knee
        assert light[1] < 0.10  # and idle well below it
        assert light[5] > 3 * heavy[5]  # per-session rate decays ~1/N
        # Aggregate throughput never beats the MVA asymptote (plus CLT slack).
        assert heavy[4] <= 1.05 * heavy[7]

    def test_closed_fleet_point_deterministic_and_self_throttles(self):
        low = _scale_closed_fleet_point(20_000, seed=3)
        assert low == _scale_closed_fleet_point(20_000, seed=3)
        over = _scale_closed_fleet_point(95_000, seed=3)
        n, cpu, lan, keys_per_s, p50, p99, viol, burn = over
        # Closed-loop load clamps at capacity instead of running away.
        assert cpu > 0.9
        assert low[1] < cpu
        assert keys_per_s > low[3]  # throughput still rose toward the ceiling
        assert p99 > low[5]  # but the probes paid for it


class TestFleetIntegration:
    def test_pinned_sessions_land_on_their_server(self):
        fleet = small_fleet()
        for index in range(2):
            session = fleet.open_session(f"p{index}", pin_server=index)
            assert session.state is fleet.servers[index]

    def test_pinning_out_of_range_raises(self):
        with pytest.raises(FleetError):
            small_fleet().open_session("p", pin_server=9)

    def test_pinning_to_a_full_server_raises(self):
        fleet = small_fleet(capacity_per_server=1)
        fleet.open_session("a", pin_server=0)
        with pytest.raises(FleetError):
            fleet.open_session("b", pin_server=0)

    def test_attach_background_guards(self):
        fleet = small_fleet()
        fleet.attach_background(0, small_spec(), horizon_ms=1_000.0)
        with pytest.raises(FleetError):
            fleet.attach_background(0, small_spec(), horizon_ms=1_000.0)
        with pytest.raises(FleetError):
            fleet.attach_background(9, small_spec(), horizon_ms=1_000.0)

    def test_report_counts_background_users(self):
        fleet = small_fleet()
        fleet.attach_background(0, small_spec(users=1_000), horizon_ms=500.0)
        fleet.attach_background(1, small_spec(users=2_000), horizon_ms=500.0)
        fleet.run(500.0)
        assert fleet.report()["background_users"] == 3_000

    def test_populations_get_independent_derived_seeds(self):
        fleet = small_fleet()
        a = fleet.attach_background(0, small_spec(), horizon_ms=500.0)
        b = fleet.attach_background(1, small_spec(), horizon_ms=500.0)
        assert a.seed != b.seed

    def test_attach_background_dispatches_on_spec_type(self):
        from repro.scale.population import (
            BackgroundPopulation,
            ClosedLoopPopulation,
        )

        fleet = small_fleet()
        open_pop = fleet.attach_background(0, small_spec(), horizon_ms=500.0)
        closed = fleet.attach_background(
            1, small_closed_spec(), horizon_ms=500.0
        )
        assert isinstance(open_pop, BackgroundPopulation)
        assert isinstance(closed, ClosedLoopPopulation)

    def test_report_counts_closed_loop_throughput(self):
        fleet = small_fleet()
        fleet.attach_background(
            0,
            small_closed_spec(cpu_ms_per_echo=0.05),
            horizon_ms=2_000.0,
        )
        fleet.run(2_000.0)
        report = fleet.report()
        assert report["background_users"] == 2_000
        assert report["background_keys_per_s"] > 0.0
        assert report["background_backlog_ms"] >= 0.0


class TestOutputShape:
    def test_load_curve_csv_covers_the_grid(self, tmp_path):
        code, text = run_cli(
            "run", "scale_load_curve", "--seed", "1", "--csv", str(tmp_path)
        )
        assert code == 0
        assert "knee" in text
        with open(tmp_path / "scale_load_curve.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) - 1 == len(LOAD_CURVE_PROCESSES) * len(
            LOAD_CURVE_USERS
        )
        header = rows[0]
        users = header.index("users")
        p99 = header.index("rtt_p99_ms")
        by_users = {
            int(r[users]): float(r[p99])
            for r in rows[1:]
            if r[0] == "poisson"
        }
        # The committed EXPERIMENTS.md curve: flat, then the knee.
        assert by_users[1_000_000] > 10 * by_users[10_000]

    def test_fleet_csv_covers_the_frontier(self, tmp_path):
        code, text = run_cli(
            "run", "scale_fleet", "--seed", "1", "--csv", str(tmp_path)
        )
        assert code == 0
        for process in FLEET_PROCESSES:
            assert process in text
        with open(tmp_path / "scale_fleet.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) - 1 == len(FLEET_PROCESSES) * len(FLEET_BG_USERS)
        viol = rows[0].index("violation_rate")
        rates = [float(r[viol]) for r in rows[1:]]
        assert min(rates) == 0.0 and max(rates) == 1.0

    def test_closed_curve_csv_covers_the_grid(self, tmp_path):
        code, text = run_cli(
            "run", "scale_closed_curve", "--seed", "1", "--csv", str(tmp_path)
        )
        assert code == 0
        assert "MVA knee" in text
        with open(tmp_path / "scale_closed_curve.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) - 1 == len(CLOSED_CURVE_USERS)
        header = rows[0]
        sessions = header.index("sessions")
        per_session = header.index("per_session_keys_per_s")
        by_sessions = {
            int(r[sessions]): float(r[per_session]) for r in rows[1:]
        }
        # The committed EXPERIMENTS.md curve: flat until the knee, then 1/N.
        assert by_sessions[10_000] > 3 * by_sessions[1_000_000]

    def test_closed_fleet_csv_covers_the_frontier(self, tmp_path):
        code, text = run_cli(
            "run", "scale_closed_fleet", "--seed", "1", "--csv", str(tmp_path)
        )
        assert code == 0
        assert "frontier" in text
        with open(tmp_path / "scale_closed_fleet.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) - 1 == len(CLOSED_FLEET_BG_SESSIONS)
        header = rows[0]
        cpu = header.index("cpu_utilization")
        utils = [float(r[cpu]) for r in rows[1:]]
        # Self-throttling: utilization climbs toward (and clamps at) 1.0.
        assert utils == sorted(utils)
        assert max(utils) <= 1.05
