"""Tests for the tracer, the observation unit, and the ambient context."""

import pickle

import pytest

from repro.obs import (
    DEFAULT_MAX_EVENTS,
    Observation,
    ObservabilityError,
    Tracer,
    current_observation,
    observe,
)


class TestTracer:
    def test_records_events_in_emission_order(self):
        tracer = Tracer()
        tracer.emit(1.0, "a", x=1)
        tracer.emit(2.0, "b", y="z")
        assert tracer.events == [
            {"t": 1.0, "kind": "a", "x": 1},
            {"t": 2.0, "kind": "b", "y": "z"},
        ]
        assert len(tracer) == 2

    def test_caps_events_and_counts_the_dropped_tail(self):
        tracer = Tracer(max_events=2)
        for i in range(5):
            tracer.emit(float(i), "tick")
        assert len(tracer.events) == 2
        assert tracer.dropped == 3
        # The *first* events survive — dropping is deterministic tail-drop.
        assert [e["t"] for e in tracer.events] == [0.0, 1.0]

    def test_rejects_negative_cap(self):
        with pytest.raises(ObservabilityError):
            Tracer(max_events=-1)

    def test_default_cap(self):
        assert Tracer().max_events == DEFAULT_MAX_EVENTS


class TestObservation:
    def test_snapshot_combines_trace_and_metrics(self):
        obs = Observation()
        obs.trace(5.0, "cpu.switch", cpu="c0")
        obs.metrics.counter("n").inc()
        snap = obs.snapshot()
        assert snap["events"] == [{"t": 5.0, "kind": "cpu.switch", "cpu": "c0"}]
        assert snap["dropped_events"] == 0
        assert snap["metrics"]["counters"] == {"n": 1}

    def test_snapshot_is_picklable(self):
        obs = Observation()
        obs.trace(1.0, "e")
        obs.metrics.histogram("h").observe(2.0)
        snap = obs.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap

    def test_snapshot_copies_the_event_list(self):
        obs = Observation()
        obs.trace(1.0, "e")
        snap = obs.snapshot()
        obs.trace(2.0, "e")
        assert len(snap["events"]) == 1


class TestAmbientContext:
    def test_no_observation_by_default(self):
        assert current_observation() is None

    def test_observe_installs_and_restores(self):
        with observe() as obs:
            assert current_observation() is obs
        assert current_observation() is None

    def test_nested_observe_shadows_then_restores(self):
        with observe() as outer:
            with observe() as inner:
                assert inner is not outer
                assert current_observation() is inner
            assert current_observation() is outer

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with observe():
                raise RuntimeError("boom")
        assert current_observation() is None

    def test_max_events_threads_through(self):
        with observe(max_events=1) as obs:
            obs.trace(1.0, "a")
            obs.trace(2.0, "b")
        assert len(obs.tracer.events) == 1
        assert obs.tracer.dropped == 1
