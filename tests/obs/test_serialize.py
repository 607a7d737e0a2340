"""Tests for deterministic trace/metrics serialization and artifacts."""

import json
import os

from repro.obs import (
    Observation,
    dumps_snapshot,
    merge_counters,
    metrics_document,
    summary_rows,
    trace_lines,
    write_run_artifacts,
)


def sample_observations():
    """Two sweeps, the first with two points — covers tagging and totals."""
    a0 = Observation()
    a0.trace(1.0, "cpu.switch", cpu="c0")
    a0.metrics.counter("cpu.dispatches").inc(3)
    a0.metrics.gauge("net.queue_depth").set(2)
    a1 = Observation()
    a1.metrics.counter("cpu.dispatches").inc(4)
    a1.metrics.gauge("net.queue_depth").set(5)
    b0 = Observation()
    b0.trace(2.0, "net.drop", link="wan")
    b0.metrics.counter("net.packets_dropped").inc()
    b0.metrics.histogram("mem.fault_latency_ms", bounds=(10.0,)).observe(4.0)
    return {
        "sweep-a": [a0.snapshot(), a1.snapshot()],
        "sweep-b": [b0.snapshot()],
    }


class TestEncoders:
    def test_dumps_snapshot_is_key_sorted_and_newline_terminated(self):
        text = dumps_snapshot({"b": 1, "a": {"z": 2, "y": 3}})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": 1, "a": {"z": 2, "y": 3}}

    def test_equal_content_serializes_to_equal_bytes(self):
        assert dumps_snapshot({"a": 1, "b": 2}) == dumps_snapshot({"b": 2, "a": 1})


class TestTraceLines:
    def test_tags_each_event_with_sweep_and_point(self):
        lines = list(trace_lines(sample_observations()))
        parsed = [json.loads(line) for line in lines]
        assert [(e["sweep"], e["point"], e["kind"]) for e in parsed] == [
            ("sweep-a", 0, "cpu.switch"),
            ("sweep-b", 0, "net.drop"),
        ]

    def test_empty_observations_yield_no_lines(self):
        assert list(trace_lines({})) == []


class TestMetricsDocument:
    def test_merge_counters_sums_across_sweeps_and_points(self):
        totals = merge_counters(sample_observations())
        assert totals == {"cpu.dispatches": 7, "net.packets_dropped": 1}
        assert list(totals) == sorted(totals)

    def test_document_shape(self):
        doc = metrics_document("fig1", 7, sample_observations())
        assert doc["experiment"] == "fig1"
        assert doc["seed"] == 7
        assert doc["trace"] == {"events": 2, "dropped": 0}
        assert doc["totals"]["counters"]["cpu.dispatches"] == 7
        assert set(doc["sweeps"]) == {"sweep-a", "sweep-b"}
        assert len(doc["sweeps"]["sweep-a"]) == 2


class TestWriteRunArtifacts:
    def test_writes_trace_and_metrics_files(self, tmp_path):
        trace_path, metrics_path = write_run_artifacts(
            str(tmp_path / "out"), "fig1", 1, sample_observations()
        )
        assert os.path.basename(trace_path) == "fig1.trace.jsonl"
        assert os.path.basename(metrics_path) == "fig1.metrics.json"
        with open(trace_path) as f:
            lines = f.read().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)
        with open(metrics_path) as f:
            doc = json.load(f)
        assert doc["experiment"] == "fig1"

    def test_rewriting_produces_identical_bytes(self, tmp_path):
        observations = sample_observations()

        def write(sub):
            t, m = write_run_artifacts(str(tmp_path / sub), "x", 1, observations)
            with open(t, "rb") as tf, open(m, "rb") as mf:
                return tf.read(), mf.read()

        assert write("a") == write("b")


class TestSummaryRows:
    def test_rows_cover_every_instrument_kind(self):
        rows = dict(summary_rows(sample_observations()))
        assert rows["cpu.dispatches"] == "7"
        assert rows["net.queue_depth (peak)"] == "5"
        assert rows["mem.fault_latency_ms"] == "n=1 mean=4 min=4 max=4"
        assert rows["trace.events"] == "2"
        assert rows["trace.dropped"] == "0"

    def test_large_counters_render_with_thousands_separators(self):
        obs = Observation()
        obs.metrics.counter("big").inc(1234567)
        rows = dict(summary_rows({"s": [obs.snapshot()]}))
        assert rows["big"] == "1,234,567"
