"""Differential properties of the columnar recorder and template encoder.

The columnar pipeline (``Tracer`` → ``CompactSnapshot`` →
``_compact_trace_lines``) must be observationally identical to the seed
pipeline (``ReferenceTracer`` → per-event ``json.dumps``): same kept
events, same drop accounting, same artifact bytes.  These tests drive both
sides with the same adversarial inputs — hypothesis-generated shapes,
scalars (including NaN/inf floats and escape-heavy strings), caps, and
reserved-name collisions — and require byte equality, not just structural
equality.
"""

import math
import os
import pickle
from typing import Any, Callable, Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    DEFAULT_MAX_EVENTS,
    CompactSnapshot,
    Histogram,
    ObservabilityError,
    Observation,
    Tracer,
)
from repro.obs.metrics import DEFAULT_BOUNDS_MS
from repro.obs.serialize import trace_lines, write_run_artifacts


class ReferenceTracer:
    """The seed dict-per-event recorder, kept verbatim as the baseline.

    The columnar pipeline is differentially tested against it: same kept
    events, same drop accounting, and (through the per-event ``json.dumps``
    encoder) the same artifact bytes.
    """

    __slots__ = ("events", "max_events", "dropped")

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        if max_events < 0:
            raise ObservabilityError("max_events cannot be negative")
        self.events: List[Dict[str, Any]] = []
        self.max_events = max_events
        self.dropped = 0

    def emit(self, t: float, kind: str, **fields: Any) -> None:
        """Record one event at simulation time *t* (ms)."""
        events = self.events
        if len(events) >= self.max_events:
            self.dropped += 1
            return
        fields["t"] = t
        fields["kind"] = kind
        events.append(fields)

    def channel(self, kind: str, *names: str) -> Callable[..., None]:
        """Positional appender matching :meth:`Tracer.channel` semantics."""

        def append(t: float, *values: Any) -> None:
            events = self.events
            if len(events) >= self.max_events:
                self.dropped += 1
                return
            event = dict(zip(names, values))
            event["t"] = t
            event["kind"] = kind
            events.append(event)

        return append

    def __len__(self) -> int:
        return len(self.events)


# -- event-stream strategies ------------------------------------------------

#: Scalars a trace field may carry, including values the template encoder
#: must punt to json.dumps: non-finite floats, quotes/backslashes/control
#: characters/non-ASCII in strings, bools (an int subclass), huge ints.
scalars = st.one_of(
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.sampled_from(["", "plain", 'quo"te', "back\\slash", "new\nline", "√", "%s %"]),
    st.booleans(),
)

#: Field-name tuples for the positional channel API.  Deliberately includes
#: the reserved tag keys (t/kind/sweep/point) and duplicates, both of which
#: must disable the template and fall back to the dict encoder.
channel_names = st.lists(
    st.sampled_from(["x", "y", "z", "proc", "t", "kind", "sweep", "point"]),
    max_size=4,
).map(tuple)

kinds = st.sampled_from(["a", "cpu.switch", "k%d", 'odd"kind', "√kind"])

#: One recorded call: (kind, names, values) applied via channel().
channel_events = st.tuples(kinds, channel_names, st.lists(scalars, max_size=4)).map(
    lambda e: (e[0], e[1], tuple(e[2][: len(e[1])] + [0] * (len(e[1]) - len(e[2]))))
)


def _replay(recorder, events):
    """Apply the same channel calls to *recorder*, reusing channels per shape."""
    channels = {}
    for i, (kind, names, values) in enumerate(events):
        ch = channels.get((kind, names))
        if ch is None:
            ch = channels[(kind, names)] = recorder.channel(kind, *names)
        ch(float(i), *values)


def _events_equal(a, b):
    """Event-list equality that treats NaN as equal to itself."""
    sa, sb = pickle.dumps(a), pickle.dumps(b)
    if sa == sb:
        return True
    return repr(a) == repr(b)


class TestDropPathDeterminism:
    """Satellite: the cap drops the identical tail on both recorders."""

    @settings(max_examples=150)
    @given(
        events=st.lists(channel_events, max_size=20),
        max_events=st.integers(min_value=0, max_value=25),
    )
    def test_kept_prefix_and_dropped_count_match_reference(
        self, events, max_events
    ):
        columnar = Tracer(max_events=max_events)
        reference = ReferenceTracer(max_events=max_events)
        _replay(columnar, events)
        _replay(reference, events)
        assert len(columnar) == len(reference)
        assert columnar.dropped == reference.dropped
        assert columnar.dropped == max(0, len(events) - max_events)
        assert _events_equal(columnar.events, reference.events)

    @settings(max_examples=50)
    @given(events=st.lists(channel_events, max_size=12))
    def test_emit_and_channel_agree(self, events):
        """emit(**fields) and channel(...) record identically (safe shapes)."""
        via_emit = Tracer()
        via_channel = Tracer()
        for i, (kind, names, values) in enumerate(events):
            # emit() passes fields as kwargs, so only unique non-reserved
            # names can go that route.
            if len(set(names)) != len(names) or {"t", "kind"} & set(names):
                continue
            via_emit.emit(float(i), kind, **dict(zip(names, values)))
            via_channel.channel(kind, *names)(float(i), *values)
        assert _events_equal(via_emit.events, via_channel.events)


class TestTemplateEncoderRoundTrip:
    """The template JSONL encoder is byte-identical to the dict encoder."""

    @settings(max_examples=150)
    @given(
        events=st.lists(channel_events, max_size=16),
        sweep=st.sampled_from(["s", 'we"ird', "√sweep", "%d %s", ""]),
    )
    def test_columnar_lines_match_reference_lines(self, events, sweep):
        obs_columnar = Observation()
        reference = ReferenceTracer()
        _replay(obs_columnar.tracer, events)
        _replay(reference, events)
        reference_snapshot = {
            "events": reference.events,
            "dropped_events": reference.dropped,
            "metrics": obs_columnar.metrics.snapshot(),
        }
        fast = list(trace_lines({sweep: [obs_columnar.snapshot_compact()]}))
        slow = list(trace_lines({sweep: [reference_snapshot]}))
        assert fast == slow

    def test_duplicate_field_names_fall_back(self):
        tracer = Tracer()
        tracer.channel("k", "x", "x")(1.0, 1, 2)
        snap = CompactSnapshot(
            tracer.snapshot_columns(), tracer.snapshot_order(), 0, {}
        )
        (line,) = trace_lines({"s": [snap]})
        # The dict path resolves duplicates by last-write-wins.
        assert line == '{"kind":"k","point":0,"sweep":"s","t":1.0,"x":2}'

    def test_reserved_key_collision_falls_back(self):
        tracer = Tracer()
        tracer.channel("k", "sweep")(2.0, "hijack")
        snap = CompactSnapshot(
            tracer.snapshot_columns(), tracer.snapshot_order(), 0, {}
        )
        (line,) = trace_lines({"real": [snap]})
        # Tag keys win over event fields, matching the dict encoder.
        assert '"sweep":"real"' in line


class TestCompactSnapshotTransport:
    def _snapshot(self, n=3):
        obs = Observation()
        ch = obs.channel("k", "i", "name")
        for i in range(n):
            ch(float(i), i, f"n{i}")
        obs.metrics.counter("c").inc(2)
        return obs.snapshot_compact()

    def test_pickle_round_trip_small_is_raw(self):
        snap = self._snapshot()
        assert snap.__getstate__()[0] == "r"
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap
        assert clone.to_dict() == snap.to_dict()

    def test_pickle_round_trip_large_is_compressed(self):
        snap = self._snapshot(n=5000)
        assert snap.__getstate__()[0] == "z"
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap
        assert clone.event_count == 5000

    def test_dict_style_access(self):
        snap = self._snapshot()
        assert snap["metrics"]["counters"] == {"c": 2}
        assert snap["dropped_events"] == 0
        assert snap["events"][0] == {"t": 0.0, "kind": "k", "i": 0, "name": "n0"}
        with pytest.raises(KeyError):
            snap["nope"]

    def test_metrics_access_never_materializes(self):
        snap = self._snapshot()
        _ = snap["metrics"], snap["dropped_events"], snap.event_count
        assert snap._dict is None

    def test_to_dict_matches_classic_snapshot(self):
        obs = Observation()
        obs.trace(1.0, "e", x=1)
        obs.metrics.gauge("g").set(4)
        assert obs.snapshot_compact().to_dict() == obs.snapshot()


class TestRecorderSelection:
    def test_columnar_is_the_default(self):
        obs = Observation()
        assert type(obs.tracer) is Tracer
        assert isinstance(obs.snapshot_compact(), CompactSnapshot)


class TestHistogramBoundaries:
    """Satellite: bisect bucketing matches the linear first-edge scan."""

    @staticmethod
    def _linear_bucket(bounds, v):
        for i, edge in enumerate(bounds):
            if v <= edge:
                return i
        return len(bounds)

    def test_every_default_edge_is_inclusive(self):
        for i, edge in enumerate(DEFAULT_BOUNDS_MS):
            h = Histogram("h")
            h.observe(edge)
            assert h.bucket_counts[i] == 1, f"edge {edge} landed off-bucket"

    def test_boundary_neighborhoods(self):
        values = [0.0, -1.0, math.inf]
        for edge in DEFAULT_BOUNDS_MS:
            values += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
        for v in values:
            h = Histogram("h")
            h.observe(v)
            expected = self._linear_bucket(DEFAULT_BOUNDS_MS, v)
            assert h.bucket_counts[expected] == 1, f"value {v}"

    @settings(max_examples=200)
    @given(v=st.floats(allow_nan=False, min_value=-1e7, max_value=1e7))
    def test_bisect_equals_linear_scan(self, v):
        h = Histogram("h")
        h.observe(v)
        assert h.bucket_counts[self._linear_bucket(h.bounds, v)] == 1


class TestStreamingArtifacts:
    """Satellite: write_run_artifacts streams and stays byte-identical."""

    def test_trace_lines_is_a_generator(self):
        gen = trace_lines({})
        assert iter(gen) is gen
        assert list(gen) == []

    def test_artifacts_byte_identical_to_reference_pipeline(self, tmp_path):
        def build(recorder_cls):
            obs = Observation()
            obs.tracer = recorder_cls()
            obs.trace = obs.tracer.emit
            ch = obs.channel("net.drop", "link", "bytes")
            for i in range(50):
                ch(float(i) / 3.0, "ether0", i * 117)
                obs.trace(float(i), "tick", n=i, label=f"v{i}")
            obs.metrics.counter("c").inc(7)
            obs.metrics.histogram("h").observe(4.0)
            return obs

        paths = {}
        for tag, cls in (("columnar", Tracer), ("reference", ReferenceTracer)):
            obs = build(cls)
            snapshot = (
                obs.snapshot_compact() if tag == "columnar" else obs.snapshot()
            )
            out = tmp_path / tag
            paths[tag] = write_run_artifacts(
                str(out), "exp", 1, {"sweep": [snapshot]}
            )
        for a, b in zip(paths["columnar"], paths["reference"]):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read(), os.path.basename(a)
