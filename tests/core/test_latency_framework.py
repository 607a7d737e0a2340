"""Tests for latency metrics and the behaviour→load→latency framework."""

import pytest

from repro.core import (
    LoadKind,
    LoadProfile,
    LoadSource,
    PERCEPTION_THRESHOLD_MS,
    Resource,
    ResourceStudy,
    assess,
    compare,
    evaluate,
    threshold_for,
)
from repro.errors import ExperimentError


class TestThresholds:
    def test_paper_constant(self):
        assert PERCEPTION_THRESHOLD_MS == 100.0

    def test_continuous_tighter_than_discrete(self):
        assert threshold_for("continuous") < threshold_for("discrete")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError):
            threshold_for("sporadic")


class TestAssess:
    def test_all_fast_is_acceptable(self):
        a = assess([10.0, 20.0, 30.0])
        assert a.acceptable
        assert a.perceptible_fraction == 0.0
        assert a.worst_case_factor == pytest.approx(0.3)

    def test_perceptible_fraction(self):
        a = assess([50.0, 150.0, 250.0, 90.0])
        assert a.perceptible_fraction == 0.5
        assert not a.acceptable

    def test_worst_case_factor(self):
        """'latencies up to 100 times beyond the threshold of perception'"""
        a = assess([50.0, 10_000.0])
        assert a.worst_case_factor == pytest.approx(100.0)

    def test_jitter_computed(self):
        assert assess([100.0, 100.0]).jitter_ms == 0.0
        assert assess([50.0, 150.0]).jitter_ms > 0.0

    def test_describe_mentions_all_three(self):
        text = assess([50.0, 150.0]).describe()
        assert "threshold" in text and "perceptible" in text and "jitter" in text

    def test_validation(self):
        with pytest.raises(ExperimentError):
            assess([])
        with pytest.raises(ExperimentError):
            assess([1.0], threshold_ms=0.0)


class TestLoadProfile:
    def test_compulsory_vs_dynamic_split(self):
        profile = LoadProfile(Resource.PROCESSOR)
        profile.add(
            LoadSource("clock", LoadKind.COMPULSORY, Resource.PROCESSOR, 0.01)
        )
        profile.add(
            LoadSource("sinks", LoadKind.DYNAMIC, Resource.PROCESSOR, 0.9)
        )
        assert profile.compulsory == pytest.approx(0.01)
        assert profile.dynamic == pytest.approx(0.9)
        assert profile.total() == pytest.approx(0.91)

    def test_wrong_resource_rejected(self):
        profile = LoadProfile(Resource.PROCESSOR)
        with pytest.raises(ExperimentError):
            profile.add(
                LoadSource("traffic", LoadKind.DYNAMIC, Resource.NETWORK, 1.0)
            )

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ExperimentError):
            LoadSource("x", LoadKind.DYNAMIC, Resource.MEMORY, -1.0)


class TestEvaluate:
    def make_study(self, latencies):
        load = LoadProfile(Resource.PROCESSOR)
        load.add(
            LoadSource("idle", LoadKind.COMPULSORY, Resource.PROCESSOR, 0.05)
        )
        return ResourceStudy(
            name="study",
            resource=Resource.PROCESSOR,
            load=load,
            probe=lambda: latencies,
        )

    def test_evaluate_runs_probe_and_assesses(self):
        result = evaluate(self.make_study([10.0, 200.0]))
        assert result.compulsory_load == pytest.approx(0.05)
        assert result.assessment.perceptible_fraction == 0.5

    def test_empty_probe_rejected(self):
        with pytest.raises(ExperimentError):
            evaluate(self.make_study([]))

    def test_compare_indexes_by_name(self):
        r = evaluate(self.make_study([10.0]))
        assert compare([r])["study"] is r
        with pytest.raises(ExperimentError):
            compare([r, r])

    def test_threshold_override_without_rebuilding_the_study(self):
        study = self.make_study([10.0, 200.0])
        default = evaluate(study)
        strict = evaluate(study, threshold_ms=5.0)
        assert default.assessment.perceptible_fraction == 0.5
        assert strict.assessment.perceptible_fraction == 1.0
        # the study itself is untouched
        assert study.threshold_ms == PERCEPTION_THRESHOLD_MS
        assert evaluate(study).assessment == default.assessment

    def test_threshold_override_is_keyword_only(self):
        with pytest.raises(TypeError):
            evaluate(self.make_study([10.0]), 5.0)


class TestRunnable:
    def make_study(self, latencies):
        load = LoadProfile(Resource.PROCESSOR)
        return ResourceStudy(
            name="study",
            resource=Resource.PROCESSOR,
            load=load,
            probe=lambda: latencies,
        )

    def test_study_run_equals_evaluate(self):
        study = self.make_study([10.0, 200.0])
        assert study.run() == evaluate(study)

    def test_study_run_accepts_threshold_override(self):
        study = self.make_study([10.0, 200.0])
        assert study.run(threshold_ms=5.0) == evaluate(study, threshold_ms=5.0)
