"""Plain-text rendering of tables and series for benches and examples.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that output aligned and consistent.

Registered experiments are declared with four of them: :func:`sweep` maps
a point function over a grid and returns one row per cell (the cell's key
fields, then the point's record fields), a :class:`Column` list renders
those rows as the table (:func:`format_columns`), and :func:`write_rows`
writes the same rows as the CSV.
"""

from __future__ import annotations

import re
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


def format_overlay(
    x_label: str,
    xs: Sequence[object],
    series: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
    *,
    title: Optional[str] = None,
    y_format: str = "{:.4f}",
) -> str:
    """A predicted-vs-simulated overlay table with relative-error columns.

    *series* holds ``(name, predicted, simulated)`` triples, one per
    observable; each contributes three columns — ``<name> pred``,
    ``<name> sim``, ``<name> err`` — with the error rendered as a percent
    of the prediction.  The analytic experiments print their comparison
    curves through this helper so every overlay reads the same way.
    """
    headers: List[str] = [x_label]
    for name, predicted, simulated in series:
        if len(predicted) != len(xs) or len(simulated) != len(xs):
            raise ExperimentError(f"overlay series {name!r} length mismatch")
        headers += [f"{name} pred", f"{name} sim", f"{name} err"]
    rows: List[List[object]] = []
    for i, x in enumerate(xs):
        row: List[object] = [x]
        for __, predicted, simulated in series:
            error = abs(simulated[i] - predicted[i]) / abs(predicted[i])
            row += [
                y_format.format(predicted[i]),
                y_format.format(simulated[i]),
                f"{error * 100:.1f}%",
            ]
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_slo_summary(reports: Iterable[object], *, title: Optional[str] = None) -> str:
    """One row per :class:`repro.slo.SloReport`: tail percentiles and burn.

    Renders the SLO accounting the ``slo_*`` experiments produce — budget,
    observed p50/p90/p99/p99.9, violation rate, and error-budget burn
    (whole-stream and worst-window) — in the same aligned style as every
    other table, so experiment outputs stay diffable byte-for-byte.
    """
    rows = [
        [
            r.operation,
            r.samples,
            f"{r.budget_ms:g}",
            f"{r.percentiles[0]:.2f}",
            f"{r.percentiles[1]:.2f}",
            f"{r.percentiles[2]:.2f}",
            f"{r.percentiles[3]:.2f}",
            r.violations,
            f"{r.violation_rate * 100:.2f}%",
            f"{r.budget_burn:.2f}",
            f"{r.worst_window_burn:.2f}",
        ]
        for r in reports
    ]
    return format_table(
        [
            "operation",
            "n",
            "budget ms",
            "p50",
            "p90",
            "p99",
            "p99.9",
            "viol",
            "viol rate",
            "burn",
            "worst burn",
        ],
        rows,
        title=title,
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
