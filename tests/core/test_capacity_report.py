"""Tests for capacity planning and report formatting."""

import pytest

from repro.core import CapacityReport, plan_capacity
from repro.core.report import format_series, format_table, sparkline
from repro.errors import ExperimentError
from repro.units import mb
from repro.workloads import TASK_WORKER, WEB_BROWSER_USER


class TestCapacity:
    def test_web_users_are_network_limited(self):
        """§6.1.3: 'If just five users open their browsers to a page like
        this, the network link becomes saturated.'"""
        report = plan_capacity("nt_tse", WEB_BROWSER_USER)
        assert report.limiting_resource == "network"
        assert report.max_users == 5  # floor(10 * 0.8 / 1.6)

    def test_fast_network_shifts_the_bottleneck(self):
        report = plan_capacity(
            "nt_tse", WEB_BROWSER_USER, bandwidth_mbps=100.0, cpu_count=2
        )
        assert report.limiting_resource != "network"
        assert report.max_users > 5

    def test_task_workers_fit_more_than_web_users(self):
        light = plan_capacity("linux", TASK_WORKER)
        heavy = plan_capacity("linux", WEB_BROWSER_USER)
        assert light.max_users > heavy.max_users

    def test_linux_memory_dimension_beats_tse(self):
        """Smaller per-login footprint -> more users per MB (§5.1.1)."""
        linux = plan_capacity("linux", TASK_WORKER, physical_bytes=mb(128))
        tse = plan_capacity("nt_tse", TASK_WORKER, physical_bytes=mb(128))
        assert linux.memory_users > tse.memory_users

    def test_more_cpus_raise_cpu_ceiling(self):
        one = plan_capacity("linux", TASK_WORKER, cpu_count=1)
        four = plan_capacity("linux", TASK_WORKER, cpu_count=4)
        assert four.cpu_users > one.cpu_users

    def test_describe_names_the_bottleneck(self):
        report = plan_capacity("nt_tse", WEB_BROWSER_USER)
        assert "network" in report.describe()

    def test_validation(self):
        with pytest.raises(ExperimentError):
            plan_capacity("linux", TASK_WORKER, cpu_count=0)
        with pytest.raises(ExperimentError):
            plan_capacity("linux", TASK_WORKER, cpu_headroom=0.0)

    def test_report_max_users_is_min(self):
        report = CapacityReport("os", "p", 10, 5, 7)
        assert report.max_users == 5
        assert report.limiting_resource == "memory"


class TestReport:
    def test_format_table_aligns(self):
        out = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "333" in out and "22" in out
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equally wide

    def test_format_table_validates_row_width(self):
        with pytest.raises(ExperimentError):
            format_table(["a"], [[1, 2]])

    def test_format_series(self):
        out = format_series("x", "y", [1, 2], [0.5, 1.5])
        assert "0.500" in out and "1.500" in out

    def test_format_series_length_mismatch(self):
        with pytest.raises(ExperimentError):
            format_series("x", "y", [1], [1.0, 2.0])

    def test_sparkline(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] == "▁" and line[-1] == "█"
        assert sparkline([2.0, 2.0]) == "▁▁"
        with pytest.raises(ExperimentError):
            sparkline([])


class TestFleetCapacity:
    def test_single_server_wrapper_output_unchanged(self):
        """`plan_capacity` is now a one-server fleet; its report must be
        exactly what the pre-fleet planner produced."""
        from repro.core import plan_fleet_capacity

        single = plan_capacity("nt_tse", WEB_BROWSER_USER)
        fleet = plan_fleet_capacity(
            "nt_tse", WEB_BROWSER_USER, num_servers=1, backbone_mbps=None
        )
        assert fleet.servers == (single,)
        assert single == CapacityReport(
            os_name="nt_tse",
            profile_name=single.profile_name,
            cpu_users=single.cpu_users,
            memory_users=single.memory_users,
            network_users=single.network_users,
        )
        assert fleet.max_users == single.max_users
        assert fleet.limiting_resource == single.limiting_resource

    def test_unconstrained_backbone_scales_linearly(self):
        from repro.core import plan_fleet_capacity

        one = plan_fleet_capacity("nt_tse", TASK_WORKER, num_servers=1)
        four = plan_fleet_capacity("nt_tse", TASK_WORKER, num_servers=4)
        assert four.num_servers == 4
        assert four.server_users == 4 * one.server_users
        assert four.max_users == 4 * one.max_users
        assert four.backbone_users == four.UNLIMITED
        assert four.backbone_headroom == 1.0

    def test_backbone_becomes_the_binding_constraint(self):
        from repro.core import plan_fleet_capacity

        # Per web user: 1.6 Mbps.  An 8 Mbps backbone at the 0.8 cap
        # carries floor(6.4 / 1.6) = 4 users, fewer than even one server.
        fleet = plan_fleet_capacity(
            "nt_tse", WEB_BROWSER_USER, num_servers=8, backbone_mbps=8.0
        )
        assert fleet.backbone_users == 4
        assert fleet.max_users == 4
        assert fleet.limiting_resource == "backbone"
        assert "backbone" in fleet.describe()

    def test_wide_backbone_defers_to_server_resources(self):
        from repro.core import plan_fleet_capacity

        fleet = plan_fleet_capacity(
            "nt_tse", WEB_BROWSER_USER, num_servers=2, backbone_mbps=1000.0
        )
        assert fleet.max_users == fleet.server_users
        assert fleet.limiting_resource == "network"  # per-server LAN
        assert 0.0 < fleet.backbone_headroom <= 1.0

    def test_fleet_validation(self):
        from repro.core import plan_fleet_capacity

        with pytest.raises(ExperimentError):
            plan_fleet_capacity("linux", TASK_WORKER, num_servers=0)
        with pytest.raises(ExperimentError):
            plan_fleet_capacity("linux", TASK_WORKER, backbone_mbps=0.0)
        with pytest.raises(ExperimentError):
            plan_fleet_capacity(
                "linux", TASK_WORKER, backbone_utilization_cap=0.0
            )

    def test_mixed_fleet_wrapper(self):
        from repro.core import plan_fleet_capacity, plan_mixed_fleet_capacity

        mixed = plan_mixed_fleet_capacity(
            "nt_tse",
            {TASK_WORKER: 1, WEB_BROWSER_USER: 1},
            num_servers=2,
            backbone_mbps=10.0,
        )
        pure = plan_fleet_capacity(
            "nt_tse", TASK_WORKER, num_servers=2, backbone_mbps=10.0
        )
        assert mixed.num_servers == 2
        assert mixed.max_users < pure.max_users  # browsers drag the blend


class TestMixedCapacity:
    def test_blend_is_weighted_average(self):
        from repro.core import blend_profiles

        blended = blend_profiles({TASK_WORKER: 3, WEB_BROWSER_USER: 1})
        assert blended.cpu_load == pytest.approx(
            (3 * TASK_WORKER.cpu_load + WEB_BROWSER_USER.cpu_load) / 4
        )
        assert blended.network_mbps == pytest.approx(
            (3 * TASK_WORKER.network_mbps + WEB_BROWSER_USER.network_mbps) / 4
        )

    def test_blend_validation(self):
        from repro.core import blend_profiles

        with pytest.raises(ExperimentError):
            blend_profiles({})
        with pytest.raises(ExperimentError):
            blend_profiles({TASK_WORKER: -1.0})
        with pytest.raises(ExperimentError):
            blend_profiles({TASK_WORKER: 0.0})

    def test_mixed_plan_between_pure_plans(self):
        from repro.core import plan_mixed_capacity

        pure_light = plan_capacity("nt_tse", TASK_WORKER)
        pure_heavy = plan_capacity("nt_tse", WEB_BROWSER_USER)
        mixed = plan_mixed_capacity(
            "nt_tse", {TASK_WORKER: 1, WEB_BROWSER_USER: 1}
        )
        assert pure_heavy.max_users <= mixed.max_users <= pure_light.max_users

    def test_small_web_fraction_collapses_the_network_ceiling(self):
        """A 25% browsing minority drags the network dimension from
        hundreds of task workers down to a couple dozen blended users."""
        from repro.core import plan_mixed_capacity

        pure = plan_capacity("nt_tse", TASK_WORKER)
        mixed = plan_mixed_capacity(
            "nt_tse", {TASK_WORKER: 3, WEB_BROWSER_USER: 1}
        )
        assert mixed.network_users < pure.network_users / 10
        assert mixed.max_users < pure.max_users
