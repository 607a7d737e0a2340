"""Tests for the sweep executor: backends, merge order, fallback."""

import gc
import random
import weakref

import pytest

from repro.errors import ExperimentError
from repro.exec import (
    ProcessBackend,
    SerialBackend,
    SweepExecutor,
    probe_process_backend,
)
from repro.sim import derive_point_seed


def square(n):
    """Module-level (picklable) point function."""
    return n * n


def noisy_metric(point):
    """A seeded stochastic point: deterministic given (value, seed)."""
    value, seed = point
    rng = random.Random(derive_point_seed(seed, "noisy", value))
    return value + rng.random()


class TestSerialBackend:
    def test_runs_in_order(self):
        backend = SerialBackend()
        out = list(backend.map(square, [(0, 3), (1, 4)]))
        assert [(i, r) for i, __, r in out] == [(0, 9), (1, 16)]

    def test_timing_is_nonnegative(self):
        backend = SerialBackend()
        ((__, seconds, __2),) = list(backend.map(square, [(0, 2)]))
        assert seconds >= 0.0


class TestProcessBackend:
    def test_matches_serial_results(self):
        tagged = [(i, v) for i, v in enumerate([1, 2, 3, 4, 5, 6, 7])]
        serial = {i: r for i, __, r in SerialBackend().map(square, tagged)}
        parallel = {
            i: r
            for i, __, r in ProcessBackend(jobs=2).map(square, tagged)
        }
        assert parallel == serial

    def test_chunking_covers_every_point(self):
        backend = ProcessBackend(jobs=2)
        tagged = [(i, i) for i in range(19)]
        assert max(len(chunk) for chunk in backend._chunks(tagged)) == 2
        out = {i: r for i, __, r in backend.map(square, tagged)}
        assert out == {i: i * i for i in range(19)}

    def test_rejects_zero_jobs(self):
        with pytest.raises(ExperimentError):
            ProcessBackend(jobs=0)
        with pytest.raises(ExperimentError, match="jobs >= 1"):
            SweepExecutor(jobs=0)

    def test_probe_rejects_lambdas(self):
        assert probe_process_backend(lambda n: n) is not None
        assert probe_process_backend(square) is None


class TestSweepExecutorMap:
    def test_serial_and_process_rows_identical(self):
        """The acceptance property: backends never change results."""
        values = [(v, 7) for v in range(6)]
        serial = SweepExecutor().map("noisy", noisy_metric, values)
        process = SweepExecutor(jobs=3).map("noisy", noisy_metric, values)
        assert process == serial

    def test_merge_is_by_index_not_completion_order(self):
        executor = SweepExecutor(jobs=4)
        values = list(range(8))
        assert executor.map("sq", square, values) == [v * v for v in values]

    def test_empty_values_rejected_with_sweep_name(self):
        with pytest.raises(ExperimentError, match="'sq'"):
            SweepExecutor().map("sq", square, [])

    def test_unpicklable_fn_falls_back_to_serial(self):
        executor = SweepExecutor(jobs=2)
        result = executor.map("sq", lambda n: n * n, [1, 2, 3])
        assert result == [1, 4, 9]
        assert executor.last_backend_used == "serial"
        assert "not picklable" in executor.last_fallback_reason

    def test_single_point_skips_the_pool(self):
        executor = SweepExecutor(jobs=2)
        assert executor.map("sq", square, [5]) == [25]
        assert executor.last_backend_used == "serial"

    def test_progress_lines_name_every_point(self):
        lines = []
        executor = SweepExecutor(progress=lines.append)
        executor.map("sq", square, [1, 2])
        assert any("point 1/2" in line for line in lines)
        assert any("sq: 2 points in" in line for line in lines)

    def test_progress_accepts_a_stream(self):
        import io

        stream = io.StringIO()
        SweepExecutor(progress=stream).map("sq", square, [1])
        assert "sq" in stream.getvalue()



class _SelfReferencing:
    def __init__(self):
        self.me = self


def test_serial_sweep_frees_each_point_before_the_next():
    previous = []  # a weak reference to the last point's cyclic object

    def cyclic_point(n):
        """Whether the previous point's cyclic garbage is still alive."""
        alive = bool(previous) and previous[0]() is not None
        previous[:] = [weakref.ref(_SelfReferencing())]
        return alive

    was_enabled = gc.isenabled()
    gc.disable()  # only the executor's own collection may free the cycle
    try:
        alive = SweepExecutor(jobs=1).map("cyclic", cyclic_point, [0, 1, 2])
    finally:
        if was_enabled:
            gc.enable()
    assert alive == [False, False, False]
