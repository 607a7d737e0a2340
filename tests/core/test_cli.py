"""Tests for the command-line experiment runner and CSV export."""

import csv
import io
import os

import pytest

from repro import cli
from repro.cli import EXPERIMENTS, main
from repro.core.report import write_csv
from repro.exec import ResultCache


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestList:
    def test_list_names_every_experiment(self):
        code, text = run_cli("list")
        assert code == 0
        for name in EXPERIMENTS:
            assert name in text

    def test_registry_covers_all_figures_and_tables(self):
        figs = {f"fig{i}" for i in range(1, 10)}
        tabs = {"tab-mem", "tab-sessions", "tab-proto", "tab-setup"}
        extras = {
            "chaos",
            "fleet_capacity",
            "fleet_placement",
            "analytic_link",
            "analytic_closed",
            "slo_burst",
            "slo_chaos_grid",
            "slo_fleet",
            "scale_load_curve",
            "scale_closed_curve",
            "scale_fleet",
            "scale_closed_fleet",
        }
        assert figs | tabs | extras == set(EXPERIMENTS)

    def test_run_all_keeps_paper_experiments_first(self):
        """Registration appends new groups, never reorders the paper set.

        ``run all`` executes in registry order, and sweep cache keys embed
        that order's experiment names — so the historical sequence is part
        of the compatibility surface.
        """
        names = list(EXPERIMENTS)
        legacy = (
            [f"fig{i}" for i in range(1, 10)]
            + ["chaos", "tab-mem", "tab-sessions", "tab-proto", "tab-setup"]
        )
        assert names[: len(legacy)] == legacy

    def test_list_shows_group_headers(self):
        code, text = run_cli("list")
        assert code == 0
        for group in ("paper", "chaos", "fleet", "analytic", "slo", "scale"):
            assert f"Available experiments — {group}" in text


class TestRun:
    @pytest.mark.parametrize(
        "spec", ["loss=abc", "outage=a-b", "teleport=0.5", "loss"]
    )
    def test_bad_faults_spec_exits_2(self, spec):
        code, text = run_cli("run", "fig1", "--faults", spec)
        assert code == 2
        assert text.startswith("bad --faults spec: ")

    def test_unknown_experiment_exits_2(self):
        code, text = run_cli("run", "nope")
        assert code == 2
        assert "unknown experiment" in text

    def test_run_tab_sessions(self):
        code, text = run_cli("run", "tab-sessions")
        assert code == 0
        assert "752 KB" in text
        assert "3,244 KB" in text

    def test_run_tab_setup(self):
        code, text = run_cli("run", "tab-setup")
        assert code == 0
        assert "45,328" in text and "16,312" in text

    def test_run_fig7_with_csv(self, tmp_path):
        code, text = run_cli(
            "run", "fig7", "--csv", str(tmp_path / "out")
        )
        assert code == 0
        assert "Figure 7" in text
        with open(tmp_path / "out" / "fig7.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["frames", "mbps"]
        assert len(rows) > 5

    def test_seed_changes_stochastic_output(self):
        __, a = run_cli("run", "fig8", "--seed", "1")
        __, b = run_cli("run", "fig8", "--seed", "2")
        assert a != b
        __, a2 = run_cli("run", "fig8", "--seed", "1")
        assert a == a2


class TestExecutorRouting:
    def read_all_csvs(self, directory):
        out = {}
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as f:
                out[name] = f.read()
        return out

    def test_parallel_csvs_byte_identical_to_serial(self, tmp_path):
        """--jobs N must never change what the CLI produces."""
        code, serial_text = run_cli(
            "run", "fig8", "--seed", "3", "--csv", str(tmp_path / "serial")
        )
        assert code == 0
        code, parallel_text = run_cli(
            "run", "fig8", "--seed", "3", "--jobs", "2",
            "--csv", str(tmp_path / "parallel"),
        )
        assert code == 0
        assert parallel_text == serial_text
        assert self.read_all_csvs(tmp_path / "serial") == self.read_all_csvs(
            tmp_path / "parallel"
        )

    def test_cached_rerun_executes_zero_probe_calls(self, tmp_path, monkeypatch):
        import repro.workloads

        real = repro.workloads.run_stall_experiment
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.workloads, "run_stall_experiment", counting)
        cache = str(tmp_path / "cache")
        code, first = run_cli("run", "fig3", "--cache-dir", cache)
        assert code == 0
        first_calls = len(calls)
        assert first_calls > 0
        code, second = run_cli("run", "fig3", "--cache-dir", cache)
        assert code == 0
        assert len(calls) == first_calls  # every point replayed from disk
        assert second == first

    def test_no_cache_forces_recomputation(self, tmp_path, monkeypatch):
        import repro.workloads

        real = repro.workloads.run_stall_experiment
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.workloads, "run_stall_experiment", counting)
        cache = str(tmp_path / "cache")
        run_cli("run", "fig3", "--cache-dir", cache)
        first_calls = len(calls)
        run_cli("run", "fig3", "--cache-dir", cache, "--no-cache")
        assert len(calls) == 2 * first_calls

    def test_cached_output_identical_to_uncached(self, tmp_path):
        __, uncached = run_cli("run", "fig3", "--seed", "2")
        cache = str(tmp_path / "cache")
        run_cli("run", "fig3", "--seed", "2", "--cache-dir", cache)
        __, cached = run_cli("run", "fig3", "--seed", "2", "--cache-dir", cache)
        assert cached == uncached

    def test_faulted_sweep_caches_separately_from_the_clean_sweep(self, tmp_path):
        """A fault plan is part of the cache key: a faulted fig8 run into a
        warm clean cache recomputes, and the clean entries stay intact."""
        cache = str(tmp_path / "cache")

        def fig8(label, *faults):
            csv_dir = tmp_path / label
            code, text = run_cli(
                "run", "fig8", "--cache-dir", cache, "--csv", str(csv_dir),
                *faults,
            )
            assert code == 0
            return text, self.read_all_csvs(csv_dir)

        clean = fig8("clean")
        faulted = fig8("faulted", "--faults", "loss=0.05", "--fault-seed", "3")
        assert fig8("clean2") == clean
        assert faulted[1] != clean[1]

    @pytest.mark.parametrize(
        "name, sweep_name, value, seed, payload",
        [
            # chaos caches a 5-tuple per loss level under the run seed...
            ("chaos", "chaos[@0]", 0.05, 1, lambda: tuple(cli._chaos_point(0.05))),
            # ...fig7 a bare float per frame count under seed 0.
            ("fig7", "fig7", 66, 0, lambda: cli._fig7_point(66).mbps),
        ],
    )
    def test_cache_entries_stored_before_records_replay_byte_identically(
        self, tmp_path, name, sweep_name, value, seed, payload
    ):
        """Before points returned records, the cache held plain tuples (bare
        floats for one-value points) under the same keys.  A warm run that
        replays such an entry must write the cold run's stdout and CSVs."""
        code, cold = run_cli(
            "run", name, "--seed", "1", "--csv", str(tmp_path / "cold")
        )
        assert code == 0
        cache = str(tmp_path / "cache")
        legacy = payload()
        assert type(legacy) in (tuple, float)
        ResultCache(cache).store(sweep_name, value, seed, legacy)
        out, progress = io.StringIO(), io.StringIO()
        argv = ["run", name, "--seed", "1", "--cache-dir", cache,
                "--csv", str(tmp_path / "warm")]
        assert main(argv, out=out, progress=progress) == 0
        assert f"({value!r}) cached" in progress.getvalue()
        assert out.getvalue() == cold
        assert self.read_all_csvs(tmp_path / "warm") == self.read_all_csvs(
            tmp_path / "cold"
        )

    def test_bad_jobs_rejected(self):
        code, text = run_cli("run", "fig3", "--jobs", "0")
        assert code == 2
        assert "--jobs" in text

    def test_progress_reports_per_point_timing(self, tmp_path):
        import io

        progress = io.StringIO()
        out = io.StringIO()
        code = main(
            ["run", "fig7", "--cache-dir", str(tmp_path / "c")],
            out=out,
            progress=progress,
        )
        assert code == 0
        lines = progress.getvalue()
        assert "fig7: point 1/10" in lines
        assert "fig7: 10 points in" in lines
        progress2 = io.StringIO()
        main(
            ["run", "fig7", "--cache-dir", str(tmp_path / "c")],
            out=io.StringIO(),
            progress=progress2,
        )
        assert "(10 cached, backend=serial)" in progress2.getvalue()


class TestRunContext:
    def test_serial_by_default(self):
        from repro.exec import RunContext

        ctx = RunContext()
        assert ctx.executor.map("abs", abs, [-1, -2]) == [1, 2]
        assert ctx.executor.last_backend_used == "serial"
        assert ctx.executor.cache is None

    def test_jobs_select_process_backend(self):
        from repro.exec import RunContext

        ctx = RunContext(jobs=4)
        assert ctx.executor.map("abs", abs, [-1, -2]) == [1, 2]
        assert ctx.executor.last_backend_used == "process"
        assert ctx.executor.jobs == 4

    def test_no_cache_overrides_cache_dir(self, tmp_path):
        from repro.exec import RunContext

        ctx = RunContext(cache_dir=str(tmp_path), no_cache=True)
        assert ctx.executor.cache is None
        ctx2 = RunContext(cache_dir=str(tmp_path))
        assert ctx2.executor.cache is not None

    def test_executor_is_built_once(self):
        from repro.exec import RunContext

        ctx = RunContext()
        assert ctx.executor is ctx.executor


class TestWriteCsv:
    def test_writes_headers_and_rows(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "t.csv"
        write_csv(str(path), ["a", "b"], [(1, 2), (3, 4)])
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_relative_path_without_parent(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_csv("flat.csv", ["x"], [(1,)])
        assert os.path.exists(tmp_path / "flat.csv")
