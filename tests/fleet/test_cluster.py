"""The fleet composition: lifecycle, closed-loop latency, failures, obs."""

import pytest

from repro.core.server import ServerConfig
from repro.errors import FleetError
from repro.fleet import Fleet, FleetConfig
from repro.obs import observe


def small_fleet(seed=3, **overrides):
    defaults = dict(
        server=ServerConfig.tse(include_idle_activity=False),
        num_servers=2,
        placement="round_robin",
        capacity_per_server=2,
        backbone_mbps=10.0,
    )
    defaults.update(overrides)
    return Fleet(FleetConfig(**defaults), seed=seed)


class TestConfig:
    def test_rejects_empty_pool(self):
        with pytest.raises(FleetError):
            FleetConfig(num_servers=0)

    def test_rejects_nonpositive_backbone(self):
        with pytest.raises(FleetError):
            FleetConfig(backbone_mbps=0.0)

    def test_capacity_defaults_to_the_planner(self):
        from repro.fleet import planned_session_capacity

        config = FleetConfig()
        fleet = Fleet(config)
        assert fleet.admission.policy.capacity == planned_session_capacity(
            config.server, config.profile
        )


class TestSessionLifecycle:
    def test_open_places_and_counts(self):
        fleet = small_fleet()
        session = fleet.open_session("alice", start_typing=False)
        assert session is not None
        assert fleet.session_count == 1
        assert session.placements == [session.state.index]
        assert fleet.servers[session.state.index].active == 1

    def test_duplicate_name_rejected(self):
        fleet = small_fleet()
        fleet.open_session("alice", start_typing=False)
        with pytest.raises(FleetError):
            fleet.open_session("alice", start_typing=False)

    def test_reject_mode_returns_none_above_capacity(self):
        fleet = small_fleet()  # 2 servers x 2 sessions
        admitted = [
            fleet.open_session(f"u{i}", start_typing=False) for i in range(5)
        ]
        assert [s is not None for s in admitted] == [True] * 4 + [False]
        assert fleet.admission.rejected_total == 1

    def test_close_unknown_session_raises(self):
        fleet = small_fleet()
        with pytest.raises(FleetError):
            fleet.close_session("ghost")

    def test_queued_arrival_admitted_on_departure(self):
        fleet = small_fleet(admission_mode="queue")
        for i in range(4):
            fleet.open_session(f"u{i}", start_typing=False)
        assert fleet.open_session("waiter", start_typing=False) is None
        assert list(fleet.admission.waiting) == ["waiter"]
        fleet.close_session("u0")
        assert "waiter" in fleet.sessions
        assert not fleet.admission.waiting
        assert fleet.session_count == 4


class TestClosedLoopLatency:
    def test_typing_produces_paired_latencies(self):
        fleet = small_fleet()
        session = fleet.open_session("alice", rate_hz=4.0)
        fleet.run(3_000.0)
        assert session.latencies_ms, "no interaction completed"
        # Closed loop: completions can never exceed keystrokes offered.
        offered = len(session.latencies_ms) + session.skipped_ticks
        assert offered <= 3_000.0 / 250.0 + 1
        # Every sample crossed the backbone twice plus the server LAN:
        # strictly positive, and well under the watchdog.
        assert all(0.0 < lat < 2_000.0 for lat in session.latencies_ms)
        assert session.abandoned == 0

    def test_at_most_one_interaction_in_flight(self):
        fleet = small_fleet(backbone_mbps=0.01)  # crawlingly slow backbone
        session = fleet.open_session("alice", rate_hz=50.0)
        fleet.run(1_000.0)
        # At 50 Hz on a 10 kbit/s backbone almost every tick lands while
        # the previous interaction is still in flight.
        assert session.skipped_ticks > 0

    def test_same_seed_same_latencies(self):
        def sample():
            fleet = small_fleet(seed=11)
            fleet.open_session("a", rate_hz=4.0)
            fleet.open_session("b", rate_hz=2.0)
            fleet.run(4_000.0)
            return fleet.latencies_ms()

        first, second = sample(), sample()
        assert first == second
        assert first


class TestMeasure:
    """``Fleet.measure``: the one warm-up / discard / measure window."""

    def co_fleet(self):
        fleet = small_fleet(seed=5, co_safe_sessions=True)
        fleet.open_session("a", rate_hz=4.0)
        fleet.open_session("b", rate_hz=8.0)
        return fleet

    def test_discards_warmup_samples_from_both_series(self):
        whole = self.co_fleet()
        whole.run(1_000.0)
        warm = {
            name: (len(s.latencies_ms), len(s.intended_latencies_ms))
            for name, s in whole.sessions.items()
        }
        whole.run(2_000.0)
        assert all(raw and corrected for raw, corrected in warm.values())

        measured = self.co_fleet()
        measured.measure(1_000.0, 2_000.0)
        assert measured.sim.now == whole.sim.now
        for name, session in measured.sessions.items():
            raw, corrected = warm[name]
            reference = whole.sessions[name]
            assert session.latencies_ms == reference.latencies_ms[raw:]
            assert (
                session.intended_latencies_ms
                == reference.intended_latencies_ms[corrected:]
            )

    def test_tracker_counts_only_post_warmup_corrected_samples(self):
        from repro.slo import LatencyBudget, SloTracker

        fleet = self.co_fleet()
        tracker = SloTracker(LatencyBudget("interaction", 100.0))
        fleet.measure(1_000.0, 2_000.0, tracker)
        assert fleet.slo_tracker is tracker
        assert tracker.samples == len(fleet.corrected_latencies_ms()) > 0

    def test_without_tracker_detaches_the_previous_one(self):
        from repro.slo import LatencyBudget, SloTracker

        fleet = self.co_fleet()
        stale = SloTracker(LatencyBudget("interaction", 100.0))
        fleet.slo_tracker = stale
        fleet.measure(1_000.0, 1_000.0)
        assert fleet.slo_tracker is None
        # The stale tracker saw warmup only: more samples came after it.
        assert 0 < stale.samples
        assert fleet.corrected_latencies_ms()

    def test_empty_window_keeps_no_samples(self):
        fleet = self.co_fleet()
        fleet.measure(1_000.0, 0.0)
        assert fleet.latencies_ms() == []
        assert fleet.corrected_latencies_ms() == []


class TestFailure:
    def test_fail_server_migrates_sessions(self):
        fleet = small_fleet(num_servers=3, capacity_per_server=4)
        for i in range(6):
            fleet.open_session(f"u{i}", start_typing=False)
        victims = [
            name
            for name, s in fleet.sessions.items()
            if s.state.index == 0
        ]
        migrated = fleet.fail_server(0)
        assert migrated == victims
        assert fleet.migrations == len(victims)
        assert fleet.servers[0].active == 0
        for name in victims:
            assert fleet.sessions[name].state.index != 0

    def test_fail_with_no_room_drops_sessions(self):
        fleet = small_fleet(num_servers=2, capacity_per_server=1)
        fleet.open_session("a", start_typing=False)
        fleet.open_session("b", start_typing=False)
        migrated = fleet.fail_server(0)
        assert migrated == []
        assert fleet.session_count == 1
        assert fleet.admission.rejected_total == 1

    def test_double_failure_raises(self):
        fleet = small_fleet()
        fleet.fail_server(0)
        with pytest.raises(FleetError):
            fleet.fail_server(0)

    def test_unknown_index_raises(self):
        fleet = small_fleet()
        with pytest.raises(FleetError):
            fleet.fail_server(9)


class TestObservability:
    def test_counters_gauges_histogram_registered_lazily(self):
        with observe() as obs:
            fleet = small_fleet()
            # No fleet metric exists until its first event happens.
            assert not any(
                name.startswith("fleet.")
                for table in obs.metrics.snapshot().values()
                for name in table
            )
            fleet.open_session("alice", rate_hz=4.0)
            fleet.run(2_000.0)
        snap = obs.metrics.snapshot()
        assert snap["counters"]["fleet.admitted"] == 1
        assert "fleet.rejected" not in snap["counters"]  # never happened
        label = fleet.servers[fleet.sessions["alice"].state.index].label
        assert f"fleet.load.{label}" in snap["gauges"]
        assert snap["histograms"]["fleet.session_latency_ms"]["count"] == len(
            fleet.sessions["alice"].latencies_ms
        )

    def test_untraced_fleet_records_nothing(self):
        fleet = small_fleet()
        fleet.open_session("alice", rate_hz=4.0)
        fleet.run(1_000.0)
        assert fleet.sessions["alice"].latencies_ms  # still measures


class TestReport:
    def test_report_shape(self):
        fleet = small_fleet()
        fleet.open_session("alice", rate_hz=4.0)
        fleet.run(2_000.0)
        report = fleet.report()
        assert report["placement"] == "round_robin"
        assert report["num_servers"] == 2
        assert report["sessions"] == 1
        assert report["admitted"] == 1
        assert len(report["servers"]) == 2
        assert 0.0 < report["backbone_utilization"] < 1.0
        assert report["backbone_bytes"] > 0
        labels = [s["label"] for s in report["servers"]]
        assert labels == ["s00", "s01"]
