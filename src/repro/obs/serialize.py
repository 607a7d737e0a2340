"""Deterministic serialization of observations: JSONL traces, JSON metrics.

All encoders here sort keys and contain no wall-clock or environment data,
so two observations with equal content serialize to **identical bytes** —
the property the golden-trace suite and the serial/parallel/cached
equivalence tests lock down.

Trace lines are rendered by a **template encoder**: for each event shape
(one column of a :class:`~repro.obs.tracer.CompactSnapshot`) the key-sorted
JSON skeleton — braces, quoted keys, and the constant ``kind``/``sweep``/
``point`` values — is precomputed once, and each event fills only its
variable slots (``t`` plus the field values) with scalar encoders chosen to
reproduce :func:`json.dumps` byte-for-byte (``repr`` for finite floats,
``str`` for ints, a raw quote for escape-free ASCII strings).  Any value or
shape the fast encoders cannot prove equivalent falls back to
``json.dumps`` itself, so the output is identical to the classic per-event
encoder *by construction* — a property the round-trip hypothesis suite
exercises with adversarial scalars.

Artifact layout for one experiment run (``write_run_artifacts``):

``<dir>/<experiment>.trace.jsonl``
    One compact JSON object per line, each carrying the sweep name, the
    point index within the sweep, and the event fields (``t`` in simulated
    ms, ``kind``, plus event-specific scalars).  Lines are ordered by sweep
    registration order, then point index, then emission order, and are
    **streamed** — a fig2-scale trace never materializes in memory.

``<dir>/<experiment>.metrics.json``
    Pretty-printed (stable, sorted, 2-space) JSON: per-sweep, per-point
    metric snapshots plus aggregated counter totals for the whole run.

Traces diff naturally: ``diff a/fig1.trace.jsonl b/fig1.trace.jsonl`` shows
exactly which simulated events moved between two runs.
"""

from __future__ import annotations

import json
import os
import re
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from .tracer import CompactSnapshot

#: {sweep_name: [per-point snapshots, in index order]} — values are either
#: classic ``Observation.snapshot()`` dicts or
#: :class:`~repro.obs.tracer.CompactSnapshot` instances; every consumer in
#: this module accepts both.
RunObservations = Dict[str, List[Any]]

#: The one JSON dialect every artifact uses: sorted keys, no whitespace.
_dumps = partial(json.dumps, sort_keys=True, separators=(",", ":"))

#: Strings matching this need no JSON escaping and survive ensure_ascii:
#: printable ASCII minus the quote (0x22) and backslash (0x5C).
_safe_str = re.compile(r'[ !#-\[\]-~]*\Z').match

#: Largest/smallest finite doubles — floats outside (NaN, ±inf) encode as
#: ``NaN``/``Infinity`` under json.dumps, not ``repr``.
_MAX_FINITE = 1.7976931348623157e308

#: Keys the trace-line tagger owns; a field using one of these names (only
#: possible through the positional channel API) disables the template.
_RESERVED_KEYS = frozenset(("t", "kind", "sweep", "point"))


def _encode_value(v: Any) -> str:
    """One scalar as JSON, byte-identical to ``json.dumps(v, sort_keys=True,
    separators=(",", ":"))``.

    Exact ``type()`` checks keep subclasses (bool *is* an int subclass;
    IntEnum, numpy scalars, str subclasses) on the proven ``json.dumps``
    path — the fast branches handle only values whose encoding we can
    reproduce exactly: ``repr`` for finite floats (CPython's json uses
    ``float.__repr__``), ``str`` for ints, a bare quote for escape-free
    ASCII strings.
    """
    t = type(v)
    if t is float:
        if -_MAX_FINITE <= v <= _MAX_FINITE:
            return repr(v)
        return _dumps(v)
    if t is int:
        return str(v)
    if t is str:
        if _safe_str(v):
            return '"' + v + '"'
        return _dumps(v)
    if t is bool:
        return "true" if v else "false"
    return _dumps(v)


def dumps_snapshot(snapshot: Union[dict, CompactSnapshot]) -> str:
    """A whole observation snapshot as canonical, diff-friendly JSON.

    Key-sorted, 1-space-indented, newline-terminated — the format the
    golden-trace files under ``tests/golden/`` are committed in.  Accepts
    compact snapshots (materialized first) as well as classic dicts.
    """
    if isinstance(snapshot, CompactSnapshot):
        snapshot = snapshot.to_dict()
    return json.dumps(snapshot, sort_keys=True, indent=1) + "\n"


def _line_template(
    kind: str, names: Tuple[str, ...], sweep: str, point: int
) -> Optional[Tuple[Tuple[str, ...], Tuple[int, ...]]]:
    """The precomputed JSON skeleton for one column's tagged trace lines.

    Returns ``(literals, slots)`` where the rendered line is
    ``literals[0] + enc(slot 0) + literals[1] + enc(slot 1) + ... +
    literals[-1]`` and each slot is ``-1`` for the timestamp or a field
    index into the column's value row.  Returns ``None`` when the shape
    cannot be proven equivalent to the dict encoder — duplicate field
    names, or a field reusing a reserved tag key (the dict path resolves
    those collisions by overwriting, which a baked template cannot).
    """
    if len(set(names)) != len(names) or _RESERVED_KEYS.intersection(names):
        return None
    constants = {
        "kind": _encode_value(kind),
        "sweep": _encode_value(sweep),
        "point": _encode_value(point),
    }
    literals: List[str] = []
    slots: List[int] = []
    buf = "{"
    first = True
    for key in sorted(tuple(names) + ("kind", "point", "sweep", "t")):
        prefix = ("" if first else ",") + '"' + key + '":'
        first = False
        const = constants.get(key)
        if const is not None:
            buf += prefix + const
        else:
            literals.append(buf + prefix)
            buf = ""
            slots.append(-1 if key == "t" else names.index(key))
    literals.append(buf + "}")
    return tuple(literals), tuple(slots)


def _compact_trace_lines(
    snapshot: CompactSnapshot, sweep: str, point: int
) -> Iterator[str]:
    """Tagged JSONL lines for one compact snapshot, in emission order.

    The hot loop renders each line as ``fmt % (encoded slot values)`` with
    the scalar encoders inlined — the same branches as
    :func:`_encode_value`, minus one function call per slot — and a cache
    of encoded strings (event fields carry a small set of names repeated
    tens of thousands of times, so each unique string is escaped once).
    Literal ``%`` in a template is escaped so the format pass cannot
    consume it.
    """
    columns = snapshot.columns
    contexts = []
    for kind, names, ts, values in columns:
        template = _line_template(kind, names, sweep, point)
        if template is not None:
            literals, slots = template
            fmt = "%s".join(part.replace("%", "%%") for part in literals)
            contexts.append((fmt, slots, len(names), ts, values))
        else:
            contexts.append((None, None, len(names), ts, values))
    cursors = [0] * len(columns)
    scache: Dict[str, str] = {}
    max_finite = _MAX_FINITE
    min_finite = -_MAX_FINITE
    for ci in snapshot.order:
        fmt, slots, n, ts, values = contexts[ci]
        j = cursors[ci]
        cursors[ci] = j + 1
        base = j * n
        if fmt is not None:
            vals = []
            ap = vals.append
            for slot in slots:
                v = ts[j] if slot < 0 else values[base + slot]
                tv = type(v)
                if tv is float:
                    if min_finite <= v <= max_finite:
                        ap(repr(v))
                    else:
                        ap(_dumps(v))
                elif tv is int:
                    ap(str(v))
                elif tv is str:
                    e = scache.get(v)
                    if e is None:
                        e = '"' + v + '"' if _safe_str(v) else _dumps(v)
                        scache[v] = e
                    ap(e)
                elif tv is bool:
                    ap("true" if v else "false")
                else:
                    ap(_dumps(v))
            yield fmt % tuple(vals)
        else:
            kind = columns[ci][0]
            names = columns[ci][1]
            tagged = dict(zip(names, values[base : base + n]))
            tagged["t"] = ts[j]
            tagged["kind"] = kind
            tagged["sweep"] = sweep
            tagged["point"] = point
            yield _dumps(tagged)


def trace_lines(observations: RunObservations) -> Iterator[str]:
    """Stream a run's observations as ordered JSONL trace lines.

    A generator: lines are produced one at a time (sweep registration
    order, then point index, then emission order) so writers can stream
    them to disk without holding a fig2-scale trace in memory.
    """
    for sweep, snapshots in observations.items():
        for point, snapshot in enumerate(snapshots):
            if isinstance(snapshot, CompactSnapshot):
                yield from _compact_trace_lines(snapshot, sweep, point)
            else:
                for event in snapshot["events"]:
                    tagged = dict(event)
                    tagged["sweep"] = sweep
                    tagged["point"] = point
                    yield _dumps(tagged)


def _event_count(snapshot: Any) -> int:
    """Recorded-event count without materializing a compact snapshot."""
    if isinstance(snapshot, CompactSnapshot):
        return snapshot.event_count
    return len(snapshot["events"])


def merge_counters(observations: RunObservations) -> Dict[str, Any]:
    """Sum every counter across all sweeps and points, sorted by name."""
    totals: Dict[str, Any] = {}
    for snapshots in observations.values():
        for snapshot in snapshots:
            for name, value in snapshot["metrics"]["counters"].items():
                totals[name] = totals.get(name, 0) + value
    return {name: totals[name] for name in sorted(totals)}


def _merged_events_dropped(observations: RunObservations) -> Tuple[int, int]:
    events = dropped = 0
    for snapshots in observations.values():
        for snapshot in snapshots:
            events += _event_count(snapshot)
            dropped += snapshot["dropped_events"]
    return events, dropped


def metrics_document(
    experiment: str, seed: int, observations: RunObservations
) -> dict:
    """The metrics artifact for one experiment run, as a plain dict."""
    events, dropped = _merged_events_dropped(observations)
    return {
        "experiment": experiment,
        "seed": seed,
        "trace": {"events": events, "dropped": dropped},
        "totals": {"counters": merge_counters(observations)},
        "sweeps": {
            sweep: [snapshot["metrics"] for snapshot in snapshots]
            for sweep, snapshots in sorted(observations.items())
        },
    }


def write_run_artifacts(
    directory: str,
    experiment: str,
    seed: int,
    observations: RunObservations,
) -> Tuple[str, str]:
    """Write the trace JSONL and metrics JSON for one experiment run.

    Returns ``(trace_path, metrics_path)``.  Both files are byte-stable:
    re-running the same experiment at the same seed — serially, with
    ``--jobs N``, or from a warm cache — rewrites identical bytes.  Trace
    lines stream straight from the recorder's columns to disk; the full
    line list is never held in memory.
    """
    os.makedirs(directory, exist_ok=True)
    trace_path = os.path.join(directory, f"{experiment}.trace.jsonl")
    metrics_path = os.path.join(directory, f"{experiment}.metrics.json")
    with open(trace_path, "w", newline="\n") as f:
        f.writelines(line + "\n" for line in trace_lines(observations))
    with open(metrics_path, "w", newline="\n") as f:
        f.write(dumps_snapshot(metrics_document(experiment, seed, observations)))
    return trace_path, metrics_path


def _format_value(value: Any) -> str:
    if isinstance(value, bool):  # pragma: no cover - no bool metrics today
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:.6g}"


def summary_rows(observations: RunObservations) -> List[Tuple[str, str]]:
    """(metric, value) rows for the human-readable metrics summary table.

    Counters render as run totals; gauges as their peak reading; histograms
    as count/mean/min/max.  A final pair of rows reports trace volume.
    """
    rows: List[Tuple[str, str]] = []
    for name, value in merge_counters(observations).items():
        rows.append((name, _format_value(value)))

    gauges: Dict[str, Any] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    for snapshots in observations.values():
        for snapshot in snapshots:
            for name, g in snapshot["metrics"]["gauges"].items():
                peak = gauges.get(name)
                if peak is None or g["peak"] > peak:
                    gauges[name] = g["peak"]
            for name, h in snapshot["metrics"]["histograms"].items():
                agg = histograms.setdefault(
                    name, {"count": 0, "sum": 0.0, "max": 0.0, "min": None}
                )
                agg["count"] += h["count"]
                agg["sum"] += h["sum"]
                if h["count"]:
                    if h["max"] > agg["max"]:
                        agg["max"] = h["max"]
                    if agg["min"] is None or h["min"] < agg["min"]:
                        agg["min"] = h["min"]
    for name in sorted(gauges):
        rows.append((f"{name} (peak)", _format_value(gauges[name])))
    for name in sorted(histograms):
        agg = histograms[name]
        mean = agg["sum"] / agg["count"] if agg["count"] else 0.0
        vmin = agg["min"] if agg["min"] is not None else 0.0
        rows.append(
            (
                name,
                f"n={agg['count']:,} mean={mean:.6g} "
                f"min={vmin:.6g} max={agg['max']:.6g}",
            )
        )

    events, dropped = _merged_events_dropped(observations)
    rows.append(("trace.events", _format_value(events)))
    rows.append(("trace.dropped", _format_value(dropped)))
    return rows
