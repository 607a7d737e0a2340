"""The experiment-declaration helpers: records, sweeps, columns, CSVs and
the spec runner."""

import csv
import io
from functools import partial
from typing import NamedTuple

import pytest

from repro.core.registry import ExperimentSpec
from repro.core.report import (
    Column,
    Table,
    format_columns,
    run_spec,
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


class ToyPoint(NamedTuple):
    score: float
    weight: int
    trace: list


def toy_point(cell, *, seed):
    return ToyPoint(cell * 10.0 + seed, 3 - cell, [cell, cell + 1])


def unseeded_point(cell):
    return ToyPoint(cell * 2.0, cell, [cell])


def faulted_point(cell, *, faults, fault_seed):
    """Takes no seed: the runner must bind only what a point names."""
    return ToyPoint(float(fault_seed), len(faults), [cell])


TOY_GRID = [0, 1, 2]

TOY_TABLE = Table(
    "toy table",
    (Column("cell", "cell"), Column("score", "score", "{:.1f}"),
     Column("weight", "weight")),
)

TOY_SERIES = Table(
    "toy series",
    (Column("cell", "cell"), Column("weight", "weight", "{:.2f}")),
    where=("weight", 1),
)


def toy_spec(**declared):
    fields = dict(point=toy_point, grid=TOY_GRID, keys=("cell",), record=ToyPoint)
    return ExperimentSpec("toy", "A toy sweep", "test", **{**fields, **declared})


class TestRunSpec:
    def test_tables_print_in_order_then_post_rows(self, tmp_path):
        ctx = context(tmp_path, seed=4)
        seen = []
        spec = toy_spec(
            tables=(TOY_TABLE, TOY_SERIES),
            post_rows=lambda ctx, rows: (seen.append(rows), ctx.out.write("post\n")),
        )
        run_spec(spec, ctx)
        rows = sweep(context(), "toy", partial(toy_point, seed=4), TOY_GRID,
                     ("cell",), ToyPoint)
        assert seen == [rows]
        assert ctx.out.getvalue() == (
            format_columns(TOY_TABLE.columns, rows, title="toy table") + "\n"
            + TOY_SERIES.format(rows) + "\n"
            + "post\n"
        )
        # The series keeps only the rows its filter names.
        assert TOY_SERIES.format(rows).splitlines()[1:] == [
            "cell | weight", "-----+-------", "   2 |   1.00",
        ]

    def test_default_csv_is_every_row_field(self, tmp_path):
        run_spec(toy_spec(tables=(TOY_TABLE,)), context(tmp_path, seed=4))
        header, first, *__ = read_csv(tmp_path / "toy.csv")
        assert header == ["cell", "score", "weight", "trace"]
        assert first == ["0", "4.0", "3", "[0, 1]"]

    def test_columns_layout_writes_the_table_fields_raw(self, tmp_path):
        table = Table("t", (Column("weight", "weight"), Column("score", "score", "{:.0f}")))
        spec = toy_spec(tables=(table,), csv="sub_{name}.csv", csv_layout="columns")
        run_spec(spec, context(tmp_path, seed=4))
        assert read_csv(tmp_path / "sub_toy.csv") == [
            ["weight", "score"], ["3", "4.0"], ["2", "14.0"], ["1", "24.0"],
        ]

    def test_cells_layout_writes_the_formatted_cells(self, tmp_path):
        spec = toy_spec(tables=(TOY_TABLE,), csv_layout="cells")
        run_spec(spec, context(tmp_path, seed=4))
        assert read_csv(tmp_path / "toy.csv")[1] == ["0", "4.0", "3"]

    def test_series_layout_writes_one_csv_per_row(self, tmp_path):
        spec = toy_spec(csv="toy_{cell}.csv", csv_layout="series")
        run_spec(spec, context(tmp_path, seed=4))
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "toy_0.csv", "toy_1.csv", "toy_2.csv",
        ]
        # Only the list-valued record fields become columns.
        assert read_csv(tmp_path / "toy_1.csv") == [["trace"], ["1"], ["2"]]

    def test_no_csv_is_written_for_a_csv_of_none(self, tmp_path):
        run_spec(toy_spec(tables=(TOY_TABLE,), csv=None), context(tmp_path))
        assert not list(tmp_path.iterdir())

    def test_an_unseeded_spec_caches_under_seed_zero(self, tmp_path):
        ctx = context(seed=7, cache_dir=str(tmp_path))
        run_spec(toy_spec(point=unseeded_point, seeded=False), ctx)
        cache = ctx.executor.cache
        assert cache.load("toy", TOY_GRID[1], 0) == (True, unseeded_point(1))
        assert not cache.load("toy", TOY_GRID[1], 7)[0]

    def test_a_seeded_spec_caches_under_the_run_seed(self, tmp_path):
        ctx = context(seed=7, cache_dir=str(tmp_path))
        run_spec(toy_spec(), ctx)
        hit, payload = ctx.executor.cache.load("toy", TOY_GRID[2], 7)
        assert hit and payload == toy_point(2, seed=7)

    def test_sweep_name_and_fault_suffix_key_the_cache(self, tmp_path):
        ctx = context(seed=2, cache_dir=str(tmp_path), faults="loss=0.05",
                      fault_seed=3)
        spec = toy_spec(point=faulted_point, sweep="shared{fault_suffix}")
        run_spec(spec, ctx)
        hit, payload = ctx.executor.cache.load(
            "shared+faults[loss=0.05@3]", TOY_GRID[0], 2
        )
        # The point got the run's fault plan and fault seed, and no seed.
        assert hit and payload == ToyPoint(3.0, len("loss=0.05"), [0])
        assert not ctx.executor.cache.load("toy", TOY_GRID[0], 2)[0]

    def test_a_fault_blind_point_keys_the_clean_sweep_name(self, tmp_path):
        ctx = context(seed=2, cache_dir=str(tmp_path), faults="loss=0.05",
                      fault_seed=3)
        run_spec(toy_spec(), ctx)
        hit, payload = ctx.executor.cache.load("toy", TOY_GRID[0], 2)
        assert hit and payload == toy_point(0, seed=2)
        assert not ctx.executor.cache.load(
            "toy+faults[loss=0.05@3]", TOY_GRID[0], 2
        )[0]

    def test_a_fault_seed_only_point_keys_a_nondefault_fault_seed(self, tmp_path):
        def seeded_point(cell, *, fault_seed):
            return ToyPoint(float(fault_seed), cell, [cell])

        for fault_seed, name in ((0, "toy"), (3, "toy+fault_seed[3]")):
            ctx = context(cache_dir=str(tmp_path), faults="loss=0.05",
                          fault_seed=fault_seed)
            run_spec(toy_spec(point=seeded_point), ctx)
            assert ctx.executor.cache.load(name, TOY_GRID[1], 0) == (
                True, ToyPoint(float(fault_seed), 1, [1]),
            )

    def test_sweep_name_can_format_the_fault_plan(self, tmp_path):
        ctx = context(cache_dir=str(tmp_path), fault_seed=9)
        spec = toy_spec(point=faulted_point, sweep="toy[{faults}@{fault_seed}]")
        run_spec(spec, ctx)
        assert ctx.executor.cache.load("toy[@9]", TOY_GRID[0], 0) == (
            True, ToyPoint(9.0, 0, [0]),
        )
