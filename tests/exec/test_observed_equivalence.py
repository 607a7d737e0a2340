"""Executor-equivalence tests for the observation layer.

The acceptance property: observation snapshots are **identical** whether a
sweep runs serially, across processes, or replays from a warm cache — the
snapshot rides with the result through worker pickling and the on-disk
cache, so the trace a user diffs never depends on how the run executed.
"""

import json

from repro.exec import ResultCache, SweepExecutor
from repro.obs import CompactSnapshot, dumps_snapshot
from repro.sim import Simulator


def traced_point(n):
    """Module-level (picklable) point: a tiny sim with observable activity."""
    sim = Simulator()

    def ticker():
        for __ in range(n):
            yield 1.0

    sim.spawn(ticker(), name=f"ticker-{n}")
    sim.run_until(50.0)
    return sim.now


class Sink:
    def __init__(self):
        self.snapshots = {}

    def __call__(self, name, snapshots):
        self.snapshots[name] = snapshots


def run_sweep(*, jobs=1, cache=None):
    sink = Sink()
    executor = SweepExecutor(jobs=jobs, cache=cache, observe_sink=sink)
    results = executor.map("ticks", traced_point, [1, 2, 3, 4])
    return results, sink.snapshots["ticks"], executor


def serialize(snapshots):
    return [dumps_snapshot(s) for s in snapshots]


class TestBackendEquivalence:
    def test_results_unchanged_by_observation(self):
        plain = SweepExecutor().map("ticks", traced_point, [1, 2, 3, 4])
        observed, __, __2 = run_sweep()
        assert observed == plain

    def test_serial_and_process_snapshots_byte_identical(self):
        __, serial, __2 = run_sweep()
        __, process, executor = run_sweep(jobs=2)
        assert executor.last_backend_used == "process"
        assert serialize(process) == serialize(serial)

    def test_one_snapshot_per_point_in_value_order(self):
        __, snapshots, __2 = run_sweep()
        assert len(snapshots) == 4
        dispatched = [s["metrics"]["counters"]["sim.events_dispatched"]
                      for s in snapshots]
        assert dispatched == sorted(dispatched)  # more ticks, more events

    def test_snapshots_are_json_clean(self):
        __, snapshots, __2 = run_sweep()
        for snapshot in snapshots:
            assert json.loads(dumps_snapshot(snapshot)) == snapshot.to_dict()

    def test_snapshots_ship_in_compact_form(self):
        __, snapshots, __2 = run_sweep()
        for snapshot in snapshots:
            assert isinstance(snapshot, CompactSnapshot)


class TestCacheEquivalence:
    def test_warm_cache_replays_identical_snapshots(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cold_results, cold_snaps, __ = run_sweep(cache=cache)
        assert cache.stats.hits == 0
        warm_results, warm_snaps, __2 = run_sweep(cache=cache)
        assert cache.stats.hits == 4
        assert warm_results == cold_results
        assert serialize(warm_snaps) == serialize(cold_snaps)

    def test_observed_and_plain_runs_use_separate_cache_entries(self, tmp_path):
        """A plain run must never replay an observed run's (result, snapshot)
        payload, and vice versa — the namespaces are disjoint."""
        cache = ResultCache(str(tmp_path))
        run_sweep(cache=cache)
        plain = SweepExecutor(cache=cache)
        results = plain.map("ticks", traced_point, [1, 2, 3, 4])
        assert cache.stats.hits == 0  # nothing leaked across namespaces
        assert results == [50.0] * 4  # run_until always advances the clock

    def test_process_run_against_warm_serial_cache_matches(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        __, serial_snaps, __2 = run_sweep(cache=cache)
        __, warm_snaps, __2 = run_sweep(jobs=2, cache=cache)
        assert cache.stats.hits == 4
        assert serialize(warm_snaps) == serialize(serial_snaps)
