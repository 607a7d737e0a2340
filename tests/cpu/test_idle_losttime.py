"""Tests for idle-activity profiles and lost-time measurement (Figs. 1–2)."""

import gc
import tracemalloc

import pytest

from repro.cpu import (
    CPU,
    LostTimeMonitor,
    OS_NAMES,
    idle_profile,
    make_scheduler,
    run_idle_experiment,
)
from repro.errors import SchedulerError
from repro.sim import RngRegistry, Simulator


class TestProfiles:
    def test_all_oses_have_profiles(self):
        for os_name in OS_NAMES:
            profile = idle_profile(os_name)
            assert profile.os_name == os_name
            assert profile.activities

    def test_unknown_os_rejected(self):
        with pytest.raises(SchedulerError):
            idle_profile("beos")
        with pytest.raises(SchedulerError):
            make_scheduler("beos")

    def test_all_profiles_include_10ms_clock_tick(self):
        for os_name in OS_NAMES:
            ticks = [
                a
                for a in idle_profile(os_name).activities
                if a.name == "clock-interrupt"
            ]
            assert len(ticks) == 1
            assert ticks[0].interval_ms == 10.0

    def test_tse_includes_multiuser_services(self):
        names = {a.name for a in idle_profile("nt_tse").activities}
        assert "session-manager" in names
        assert "terminal-service" in names

    def test_expected_busy_ordering(self):
        """Calibration: expected TSE load ~3x NT and ~7x Linux (§4.2.1)."""
        window = 600_000.0
        nt = idle_profile("nt_workstation").expected_busy(window)
        tse = idle_profile("nt_tse").expected_busy(window)
        linux = idle_profile("linux").expected_busy(window)
        assert tse / nt == pytest.approx(3.0, rel=0.25)
        assert tse / linux == pytest.approx(7.0, rel=0.3)

    def test_install_creates_threads_and_stop_halts_them(self):
        sim = Simulator()
        cpu = CPU(sim, make_scheduler("linux"))
        installed = idle_profile("linux").install(sim, cpu, RngRegistry(1))
        assert len(installed.threads) == len(idle_profile("linux").activities)
        sim.run_until(60_000.0)
        busy_before = cpu.busy_trace.total_busy()
        assert busy_before > 0
        installed.stop()
        sim.run_until(120_000.0)
        # Allow in-flight bursts to finish; no *new* periodic work appears.
        busy_after = cpu.busy_trace.total_busy()
        assert busy_after - busy_before < 100.0


class TestLostTime:
    def test_monitor_merges_close_intervals(self):
        sim = Simulator()
        cpu = CPU(sim, make_scheduler("linux"))
        cpu.busy_trace.record(0.0, 5.0)
        cpu.busy_trace.record(5.5, 8.0)  # 0.5ms gap -> same event
        cpu.busy_trace.record(20.0, 22.0)  # far -> separate event
        monitor = LostTimeMonitor(cpu, merge_gap_ms=1.0)
        assert monitor.event_durations(0.0, 100.0) == [8.0, 2.0]

    def test_monitor_clips_to_window(self):
        sim = Simulator()
        cpu = CPU(sim, make_scheduler("linux"))
        cpu.busy_trace.record(0.0, 10.0)
        monitor = LostTimeMonitor(cpu)
        assert monitor.event_durations(5.0, 100.0) == [5.0]


class TestIdleExperiment:
    def test_deterministic_for_fixed_seed(self):
        a = run_idle_experiment("linux", duration_ms=30_000.0, seed=7)
        b = run_idle_experiment("linux", duration_ms=30_000.0, seed=7)
        assert a.event_durations_ms == b.event_durations_ms

    def test_seed_changes_the_trace(self):
        a = run_idle_experiment("linux", duration_ms=30_000.0, seed=1)
        b = run_idle_experiment("linux", duration_ms=30_000.0, seed=2)
        assert a.event_durations_ms != b.event_durations_ms

    def test_fig2_ordering_tse_nt_linux(self):
        """TSE generates ~3x NT's idle load and ~7x Linux's (§4.2.1)."""
        duration = 120_000.0
        nt = run_idle_experiment("nt_workstation", duration, seed=3)
        tse = run_idle_experiment("nt_tse", duration, seed=3)
        linux = run_idle_experiment("linux", duration, seed=3)
        assert tse.total_lost_time_ms > nt.total_lost_time_ms > linux.total_lost_time_ms
        assert tse.total_lost_time_ms / nt.total_lost_time_ms == pytest.approx(
            3.0, rel=0.4
        )
        assert tse.total_lost_time_ms / linux.total_lost_time_ms == pytest.approx(
            7.0, rel=0.5
        )

    def test_tse_has_events_beyond_200ms_nt_does_not(self):
        """Figure 2: TSE sees extra 250ms/400ms events; NT stays <=100ms."""
        duration = 120_000.0
        nt = run_idle_experiment("nt_workstation", duration, seed=3)
        tse = run_idle_experiment("nt_tse", duration, seed=3)
        assert max(nt.event_durations_ms) <= 150.0
        assert any(d > 200.0 for d in tse.event_durations_ms)

    def test_cumulative_curve_monotone_and_ends_at_total(self):
        result = run_idle_experiment("nt_tse", 60_000.0, seed=5)
        thresholds, curve = result.cumulative_latency_curve()
        assert curve == sorted(curve)
        assert curve[-1] == pytest.approx(result.total_lost_time_ms / 1000.0)

    def test_utilization_trace_bounded(self):
        result = run_idle_experiment("nt_tse", 30_000.0, seed=5)
        __, utils = result.utilization_trace(bin_ms=1000.0)
        assert len(utils) == 30
        assert all(0.0 <= u <= 1.0 for u in utils)

    def test_idle_utilization_is_small(self):
        """Even TSE's idle load is a few percent, not a busy system."""
        result = run_idle_experiment("nt_tse", 60_000.0, seed=5)
        assert 0.0 < result.idle_utilization < 0.15


class TestRetainedMemory:
    def test_idle_run_keeps_one_packed_row_per_slice(self):
        """A 60 s TSE idle run holds its ~6.6k busy slices as packed
        24-byte rows in one recorder (1.4 MB retained when each slice was
        two tuples in two recorders)."""
        run_idle_experiment("nt_tse", 1_000.0, seed=1)  # first-use imports
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_idle_experiment("nt_tse", 60_000.0, seed=1)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(result.cpu.busy_trace.starts) > 6_000
        assert retained <= 0.8e6


class TestAttribution:
    def test_busy_time_attributed_per_thread(self):
        sim = Simulator()
        cpu = CPU(sim, make_scheduler("linux"))
        from repro.cpu import Burst, Thread

        a = Thread("worker-a")
        a.push_burst(Burst(30.0))
        b = Thread("worker-b")
        b.push_burst(Burst(10.0))
        cpu.add_thread(a)
        cpu.add_thread(b)
        sim.run_until(100.0)
        attribution = LostTimeMonitor(cpu).attribution(0.0, 100.0)
        assert attribution["worker-a"] == pytest.approx(30.0)
        assert attribution["worker-b"] == pytest.approx(10.0)

    def test_attribution_sorted_descending(self):
        result = run_idle_experiment("nt_tse", 60_000.0, seed=2)
        attribution = LostTimeMonitor(result.cpu).attribution(0.0, 60_000.0)
        costs = list(attribution.values())
        assert costs == sorted(costs, reverse=True)

    def test_tse_multiuser_services_dominate(self):
        """The fig2 drill-down: TSE's extra lost time IS the session
        manager and terminal service."""
        result = run_idle_experiment("nt_tse", 120_000.0, seed=2)
        attribution = LostTimeMonitor(result.cpu).attribution(0.0, 120_000.0)
        services = sum(
            busy
            for name, busy in attribution.items()
            if "session-manager" in name or "terminal-service" in name
        )
        assert services > 0.5 * result.total_lost_time_ms

    def test_window_clips_attribution(self):
        sim = Simulator()
        cpu = CPU(sim, make_scheduler("linux"))
        from repro.cpu import Burst, Thread

        t = Thread("t")
        t.push_burst(Burst(20.0))
        cpu.add_thread(t)
        sim.run_until(100.0)
        attribution = LostTimeMonitor(cpu).attribution(10.0, 100.0)
        assert attribution["t"] == pytest.approx(10.0)
