"""Plain-text rendering of tables and series for benches and examples.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that output aligned and consistent.

Registered experiments are declared as data and executed by
:func:`run_spec`: :func:`sweep` maps the point function over the grid and
returns one row per cell (the cell's key fields, then the point's record
fields), each :class:`Table` (a :class:`Column` list) or :class:`Overlay`
renders those rows to stdout, and the same rows become the CSV.
"""

from __future__ import annotations

import re
from functools import partial
from inspect import signature
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import ExperimentError

#: Eight-level unicode bars for quick-look series.
_BARS = "▁▂▃▄▅▆▇█"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: Optional[str] = None,
) -> str:
    """An aligned, pipe-separated text table."""
    materialized: List[List[str]] = [[str(c) for c in row] for row in rows]
    for row in materialized:
        if len(row) != len(headers):
            raise ExperimentError(
                f"row has {len(row)} cells for {len(headers)} headers"
            )
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(render_row(row) for row in materialized)
    return "\n".join(lines)


def format_series(
    x_label: str,
    y_label: str,
    xs: Sequence[object],
    ys: Sequence[float],
    *,
    title: Optional[str] = None,
    y_format: str = "{:.3f}",
) -> str:
    """A two-column table for a figure's series."""
    if len(xs) != len(ys):
        raise ExperimentError("series axes differ in length")
    rows = [(x, y_format.format(y)) for x, y in zip(xs, ys)]
    return format_table([x_label, y_label], rows, title=title)


def write_csv(
    path: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    """Write a series/table as CSV (creating parent directories)."""
    import csv
    import os

    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(list(headers))
        for row in rows:
            writer.writerow(list(row))


#: One sweep cell's row: key fields, then record fields, by name.
Row = Dict[str, Any]


class Column(NamedTuple):
    """One table column: *header*, the row *field* it shows, and *fmt*.

    *fmt* is a ``str.format`` pattern (``"{:.2f}"``, ``"{:.0%}"``) or a
    callable from the field's value to the cell text.
    """

    header: str
    field: str
    fmt: Union[str, Callable[[Any], str]] = "{}"

    def cell(self, row: Row) -> str:
        """This column's cell for *row*."""
        value = row[self.field]
        return self.fmt(value) if callable(self.fmt) else self.fmt.format(value)


def format_cells(columns: Sequence[Column], rows: Iterable[Row]) -> List[List[str]]:
    """The formatted table cells of *rows*, one list per row."""
    return [[column.cell(row) for column in columns] for row in rows]


def format_columns(
    columns: Sequence[Column],
    rows: Iterable[Row],
    *,
    title: Optional[str] = None,
) -> str:
    """*rows* as an aligned table with one column per :class:`Column`."""
    headers = [column.header for column in columns]
    return format_table(headers, format_cells(columns, rows), title=title)


def sweep(
    ctx: Any,
    name: str,
    fn: Callable[[Any], Any],
    grid: Sequence[Any],
    keys: Sequence[str],
    record: Any,
    *,
    seed: Optional[int] = None,
) -> List[Row]:
    """Map *fn* over *grid* through ``ctx.executor``; one :data:`Row` per cell.

    A cell is a tuple of *keys* (a bare value when there is one key), and
    *fn* returns a *record* (a ``NamedTuple`` type).  Values are matched to
    ``record._fields`` by position, so a point cached before its record
    type existed — a plain tuple, or a bare value for a one-field record —
    replays into the same row.  *seed* keys the cache (default
    ``ctx.seed``).
    """
    points = ctx.executor.map(name, fn, grid, seed=ctx.seed if seed is None else seed)
    fields = (*keys, *record._fields)
    rows = []
    for cell, point in zip(grid, points):
        if len(keys) == 1:
            cell = (cell,)
        if not isinstance(point, tuple):
            point = (point,)
        rows.append(dict(zip(fields, (*cell, *point))))
    return rows


def write_rows(
    ctx: Any,
    filename: str,
    rows: Sequence[Row],
    fields: Optional[Sequence[str]] = None,
) -> None:
    """Write *rows* to ``<ctx.csv_dir>/<filename>`` when ``--csv`` is set.

    The header is *fields*, by default every field of the rows: the sweep's
    key fields followed by its record's fields.
    """
    if ctx.csv_dir:
        header = list(rows[0]) if fields is None else list(fields)
        body = ([row[field] for field in header] for row in rows)
        write_csv(f"{ctx.csv_dir}/{filename}", header, body)


def write_series(ctx: Any, filename: str, row: Row, fields: Sequence[str]) -> None:
    """Write one row's equal-length series *fields* as the CSV's columns."""
    if ctx.csv_dir:
        body = zip(*(row[field] for field in fields))
        write_csv(f"{ctx.csv_dir}/{filename}", fields, body)


class Table(NamedTuple):
    """One printed table of a sweep's rows: a *title* and its columns.

    A two-column table is a figure's series.  *where* ``(field, value)``
    keeps only the rows whose *field* equals *value*.  A callable *title*
    is called when the table prints, so a title that needs a computed
    value costs nothing at import.
    """

    title: Union[str, Callable[[], str]]
    columns: Sequence[Column]
    where: Optional[Tuple[str, Any]] = None

    def format(self, rows: Sequence[Row]) -> str:
        """The table of *rows*, titled."""
        if self.where is not None:
            field, value = self.where
            rows = [row for row in rows if row[field] == value]
        title = self.title() if callable(self.title) else self.title
        return format_columns(self.columns, rows, title=title)


class Overlay(NamedTuple):
    """A predicted-vs-simulated table with relative-error columns.

    Each ``(name, field)`` in *series* reads ``predicted_<field>`` and
    ``simulated_<field>`` from the rows and contributes three columns —
    ``<name> pred``, ``<name> sim``, ``<name> err`` — values to four
    decimals, the error a percent of the prediction.  *x* is the first
    column.
    """

    title: str
    x: Column
    series: Sequence[Tuple[str, str]]

    def format(self, rows: Sequence[Row]) -> str:
        """The overlay table of *rows*, titled."""
        headers = [self.x.header]
        for name, __ in self.series:
            headers += [f"{name} pred", f"{name} sim", f"{name} err"]
        cells = []
        for row in rows:
            line = [self.x.cell(row)]
            for __, field in self.series:
                predicted = row[f"predicted_{field}"]
                simulated = row[f"simulated_{field}"]
                error = abs(simulated - predicted) / abs(predicted)
                line += [f"{predicted:.4f}", f"{simulated:.4f}", f"{error * 100:.1f}%"]
            cells.append(line)
        return format_table(headers, cells, title=self.title)


def run_spec(spec: Any, ctx: Any) -> None:
    """Run the sweep experiment *spec* declares (a registry ``ExperimentSpec``).

    The point function gets whichever of ``seed``, ``faults`` and
    ``fault_seed`` its signature names, from *ctx*.  The sweep name is
    ``spec.sweep`` formatted with the experiment ``name``, those three and
    ``fault_suffix``, which names only the fault inputs the point function
    takes; it keys the result cache (under seed 0 for an unseeded spec) and
    tags trace events.  Then the spec's tables print in order, its
    ``post_rows`` hook sees the rows, and the CSV is written in the spec's
    ``csv_layout``:

    ``rows``
        every row field (:func:`write_rows`);
    ``columns``
        the first table's column fields, raw values;
    ``cells``
        the first table's column fields, formatted cells;
    ``series``
        one CSV per row, ``spec.csv`` formatted with the row's fields,
        holding the row's list-valued record fields as columns.
    """
    given = {"seed": ctx.seed, "faults": ctx.faults or "", "fault_seed": ctx.fault_seed}
    wanted = signature(spec.point).parameters
    bound = {key: value for key, value in given.items() if key in wanted}
    # The suffix names only the fault inputs the point function takes, so a
    # sweep blind to --faults shares the clean run's cache entries.  One
    # that takes just the fault seed is tagged with it, unless it is the
    # default, which clean runs use too.
    if "faults" in wanted:
        suffix = ctx.fault_suffix
    elif "fault_seed" in wanted and ctx.fault_seed:
        suffix = f"+fault_seed[{ctx.fault_seed}]"
    else:
        suffix = ""
    name = spec.sweep.format(name=spec.name, fault_suffix=suffix, **given)
    rows = sweep(
        ctx,
        name,
        partial(spec.point, **bound) if bound else spec.point,
        list(spec.grid),
        spec.keys,
        spec.record,
        seed=None if spec.seeded else 0,
    )
    for table in spec.tables:
        ctx.out.write(table.format(rows) + "\n")
    if spec.post_rows is not None:
        spec.post_rows(ctx, rows)
    if spec.csv is None or not ctx.csv_dir:
        return
    if spec.csv_layout == "series":
        for row in rows:
            fields = [f for f in spec.record._fields if isinstance(row[f], list)]
            write_series(ctx, spec.csv.format(name=spec.name, **row), row, fields)
        return
    filename = spec.csv.format(name=spec.name)
    if spec.csv_layout == "rows":
        write_rows(ctx, filename, rows)
        return
    columns = spec.tables[0].columns
    fields = [column.field for column in columns]
    if spec.csv_layout == "cells":
        write_csv(f"{ctx.csv_dir}/{filename}", fields, format_cells(columns, rows))
    elif spec.csv_layout == "columns":
        write_rows(ctx, filename, rows, fields)
    else:
        raise ExperimentError(f"{spec.name}: unknown csv_layout {spec.csv_layout!r}")


#: Per-server fleet gauge rows, e.g. ``fleet.load.s03 (peak)`` — the
#: ``sNN`` label is the zero-padded server index the fleet layer assigns.
_FLEET_SERVER_ROW = re.compile(
    r"^(?P<base>fleet\.[A-Za-z0-9_.]+)\.s(?P<index>\d+) \(peak\)$"
)


def _collapse_fleet_rows(
    rows: Sequence[Sequence[object]],
) -> List[Sequence[object]]:
    """Fold per-server ``fleet.*.sNN`` gauge rows into one row per metric.

    A 64-server fleet publishes 64 ``fleet.load.sNN`` gauges; the summary
    table wants the fleet's *shape*, not a page of near-identical rows.
    Each group collapses — at the position of its first member — into
    ``fleet.<metric> (per-server peak)`` with count/min/mean/max and a
    per-server sparkline (servers in index order).  Rows that do not match
    the fleet naming scheme (every pre-fleet experiment) pass through
    untouched, so existing metrics-summary output is byte-identical.
    """
    collapsed: List[Sequence[object]] = []
    groups: dict = {}
    for metric, value in rows:
        match = _FLEET_SERVER_ROW.match(str(metric))
        if match is None:
            collapsed.append((metric, value))
            continue
        try:
            reading = float(str(value).replace(",", ""))
        except ValueError:
            collapsed.append((metric, value))
            continue
        base = match.group("base")
        group = groups.get(base)
        if group is None:
            # Placeholder keeps the group anchored where it first appeared.
            groups[base] = group = (len(collapsed), [])
            collapsed.append(None)  # type: ignore[arg-type]
        group[1].append((int(match.group("index")), reading))
    for base, (position, members) in groups.items():
        members.sort()
        readings = [reading for __, reading in members]
        mean = sum(readings) / len(readings)
        collapsed[position] = (
            f"{base} (per-server peak)",
            f"n={len(readings)} min={min(readings):.6g} "
            f"mean={mean:.6g} max={max(readings):.6g} {sparkline(readings)}",
        )
    return collapsed


def format_metrics_summary(
    experiment: str, rows: Sequence[Sequence[object]]
) -> str:
    """The metrics-summary table ``repro trace`` renders after a run.

    *rows* are ``(metric, value)`` pairs, typically produced by
    :func:`repro.obs.summary_rows`; values arrive pre-formatted so the
    table stays byte-stable across executor backends.  Per-server fleet
    gauges (``fleet.*.sNN``) are collapsed to one row per metric — see
    :func:`_collapse_fleet_rows`; all other rows render verbatim.
    """
    return format_table(
        ["metric", "value"],
        _collapse_fleet_rows(rows),
        title=f"{experiment}: metrics summary",
    )


def sparkline(values: Sequence[float]) -> str:
    """A one-line unicode rendering of a series' shape."""
    if not values:
        raise ExperimentError("empty series")
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return _BARS[0] * len(values)
    span = hi - lo
    return "".join(
        _BARS[min(len(_BARS) - 1, int((v - lo) / span * len(_BARS)))]
        for v in values
    )
