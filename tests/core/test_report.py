"""The experiment-declaration helpers: records, sweeps, columns and CSVs."""

import csv
import io
from typing import NamedTuple

import pytest

from repro.core.report import (
    Column,
    format_columns,
    sweep,
    write_rows,
    write_series,
)
from repro.exec import RunContext


class TailPoint(NamedTuple):
    p99_ms: float
    violation_rate: float


def tail_point(cell):
    process, rho = cell
    return TailPoint(rho * 10.0 + len(process), rho / 7.0)


GRID = [(process, rho) for process in ("poisson", "onoff") for rho in (0.3, 0.5)]

COLUMNS = [
    Column("process", "process"),
    Column("rho", "rho", "{:.1f}"),
    Column("p99 (ms)", "p99_ms", "{:.2f}"),
    Column("viol rate", "violation_rate", "{:.2%}"),
]


def context(tmp_path=None, **kwargs):
    csv_dir = None if tmp_path is None else str(tmp_path)
    return RunContext(out=io.StringIO(), csv_dir=csv_dir, **kwargs)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestSweep:
    def test_rows_are_cell_keys_then_record_fields_in_grid_order(self):
        rows = sweep(context(), "demo", tail_point, GRID, ("process", "rho"), TailPoint)
        assert [list(row) for row in rows] == [
            ["process", "rho", "p99_ms", "violation_rate"]
        ] * len(GRID)
        assert [(row["process"], row["rho"]) for row in rows] == GRID
        assert rows[1]["p99_ms"] == tail_point(GRID[1]).p99_ms

    def test_a_single_key_names_the_bare_cell_value(self):
        rows = sweep(
            context(), "demo", lambda rho: TailPoint(rho, rho), [0.1, 0.2],
            ("rho",), TailPoint,
        )
        assert [row["rho"] for row in rows] == [0.1, 0.2]

    def test_plain_tuples_and_bare_values_fill_fields_by_position(self):
        """Points cached before records existed replay into the same rows."""

        class Stall(NamedTuple):
            avg_stall_ms: float

        tuples = sweep(context(), "t", lambda c: tuple(tail_point(c)), GRID,
                       ("process", "rho"), TailPoint)
        records = sweep(context(), "r", tail_point, GRID, ("process", "rho"),
                        TailPoint)
        assert tuples == records
        bare = sweep(context(), "b", lambda n: n * 2.0, [1, 2], ("n",), Stall)
        assert bare == [
            {"n": 1, "avg_stall_ms": 2.0},
            {"n": 2, "avg_stall_ms": 4.0},
        ]

    def test_seed_keys_the_cache_and_defaults_to_the_run_seed(self, tmp_path):
        ctx = context(seed=5, cache_dir=str(tmp_path / "cache"))
        sweep(ctx, "demo", tail_point, GRID, ("process", "rho"), TailPoint)
        assert ctx.executor.cache.load("demo", GRID[0], 5)[0]
        sweep(ctx, "fixed", tail_point, GRID, ("process", "rho"), TailPoint,
              seed=0)
        assert ctx.executor.cache.load("fixed", GRID[0], 0)[0]
        assert not ctx.executor.cache.load("fixed", GRID[0], 5)[0]


class TestTableAndCsv:
    def test_table_and_csv_come_from_the_same_rows(self, tmp_path):
        ctx = context(tmp_path)
        rows = sweep(ctx, "demo", tail_point, GRID, ("process", "rho"), TailPoint)
        table = format_columns(COLUMNS, rows, title="demo")
        write_rows(ctx, "demo.csv", rows)
        header, *body = read_csv(tmp_path / "demo.csv")
        # Rebuild the rows from the CSV alone: the table must not change.
        reread = [
            {f: v if f == "process" else float(v) for f, v in zip(header, line)}
            for line in body
        ]
        assert format_columns(COLUMNS, reread, title="demo") == table

    def test_default_csv_header_is_key_fields_then_record_fields(self, tmp_path):
        ctx = context(tmp_path)
        rows = sweep(ctx, "demo", tail_point, GRID, ("process", "rho"), TailPoint)
        write_rows(ctx, "demo.csv", rows)
        header, first, *__ = read_csv(tmp_path / "demo.csv")
        assert header == ["process", "rho", *TailPoint._fields]
        assert first == [str(v) for v in (*GRID[0], *tail_point(GRID[0]))]

    def test_explicit_fields_choose_the_csv_order_and_subset(self, tmp_path):
        ctx = context(tmp_path)
        rows = sweep(ctx, "demo", tail_point, GRID, ("process", "rho"), TailPoint)
        write_rows(ctx, "demo.csv", rows, ["violation_rate", "process"])
        assert read_csv(tmp_path / "demo.csv")[0] == ["violation_rate", "process"]

    def test_nothing_is_written_without_a_csv_dir(self, tmp_path):
        rows = sweep(context(), "demo", tail_point, GRID, ("process", "rho"),
                     TailPoint)
        write_rows(context(), "demo.csv", rows)
        assert not list(tmp_path.iterdir())

    def test_series_fields_become_csv_columns(self, tmp_path):
        row = {"os": "linux", "summary": 1.0, "time_ms": [0, 1], "mbps": [2.5, 3.5]}
        write_series(context(tmp_path), "series.csv", row, ("time_ms", "mbps"))
        assert read_csv(tmp_path / "series.csv") == [
            ["time_ms", "mbps"],
            ["0", "2.5"],
            ["1", "3.5"],
        ]


class TestColumn:
    @pytest.mark.parametrize("digits", [0, 1, 2])
    @pytest.mark.parametrize(
        "value", [0.005, 0.0005, 0.00005, 0.125, 0.995, 1 / 3, 2 / 3, 0.0]
    )
    def test_percent_format_matches_the_scaled_fixed_point_string(
        self, value, digits
    ):
        column = Column("util", "u", f"{{:.{digits}%}}")
        assert column.cell({"u": value}) == f"{value * 100:.{digits}f}%"

    def test_rounding_boundary_renders_like_the_old_f_string(self):
        assert Column("u", "u", "{:.0%}").cell({"u": 0.005}) == "0%"
        assert Column("u", "u", "{:.2%}").cell({"u": 0.005}) == "0.50%"

    def test_callable_format(self):
        column = Column("lost", "ms", lambda ms: f"{ms / 1000:.1f}s")
        assert column.cell({"ms": 12_345.0}) == "12.3s"

    def test_default_format_is_str(self):
        assert Column("n", "n").cell({"n": 42}) == "42"

    def test_headers_come_from_the_columns(self):
        table = format_columns(COLUMNS, [], title=None)
        assert table.splitlines()[0].split(" | ") == [
            "process", "rho", "p99 (ms)", "viol rate"
        ]
