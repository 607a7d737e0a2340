"""Structured event tracing and the ambient observation context.

:class:`Tracer` records timestamped, structured events in the order the
simulation produced them.  Since the event kernel is deterministic, the
recorded stream is a pure function of (configuration, seed): the same run
always yields the same events, which is what makes byte-for-byte golden
traces and serial/parallel/cached equivalence checks possible.

Recording is **columnar**: instead of allocating one dict per event, the
tracer groups events by *shape* — the ``(kind, field-name tuple)`` pair,
captured once at a shape's first emission — and appends the timestamp and
field values into flat per-shape lists.  A per-event shape index preserves
the global emission order, so the classic list-of-dicts view can always be
rebuilt exactly (:meth:`Observation.snapshot`), while hot consumers — the
executor's process transport and the JSONL encoder in
:mod:`~repro.obs.serialize` — work on the columns directly and never pay
for the dicts at all (:meth:`Observation.snapshot_compact`).

Instrumented components do **not** take a tracer parameter — they look up
the ambient :class:`Observation` (tracer + metrics) once, at construction,
via :func:`current_observation`:

* with no observation installed the lookup returns ``None`` and every
  instrumentation site reduces to one ``is not None`` test — the zero-cost
  disabled path;
* inside a ``with observe() as obs:`` block, components built in the block
  record into *obs*, and ``obs.snapshot()`` afterwards is a picklable,
  JSON-ready account of everything that happened.

Hot call sites can additionally pre-register a :meth:`Observation.channel`
for one event shape and emit through it with positional arguments — no
keyword-dict packing, no shape lookup per event.

The executor's process backend runs each sweep point in a worker that opens
its own observation around the point function, so snapshots ship back to the
parent exactly as a serial run would have produced them — in columnar form,
zlib-compressed when large, reconstructed on demand.
"""

from __future__ import annotations

import pickle
import sys
import zlib
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .metrics import MetricsRegistry, ObservabilityError

#: Default cap on recorded events per observation.  Dropping is deterministic
#: (always the tail) and counted, so capped traces still compare byte-for-byte.
DEFAULT_MAX_EVENTS = 100_000

#: Compact snapshots whose pickled event payload reaches this many bytes are
#: shipped zlib-compressed across the executor's process/cache boundary.
COMPRESS_MIN_BYTES = 16 * 1024


class _Column:
    """One event shape's flat storage: parallel timestamp/value lists.

    ``values`` holds every event's fields back to back (event *j* of a
    ``len(names) == w`` column occupies ``values[j*w:(j+1)*w]``), so a
    column never allocates per event — two list appends and one extend.
    """

    __slots__ = ("index", "kind", "names", "ts", "values")

    def __init__(self, index: int, kind: str, names: Tuple[str, ...]) -> None:
        self.index = index
        self.kind = sys.intern(kind)
        self.names = names
        self.ts: List[float] = []
        self.values: List[Any] = []


def _materialize_events(
    columns: Tuple[tuple, ...], order: Any
) -> List[Dict[str, Any]]:
    """Rebuild the classic list-of-dicts event view from columnar storage.

    ``order`` holds one column index per event in emission order; a cursor
    per column walks its rows, so interleaved shapes reconstruct exactly.
    ``t``/``kind`` are written last so they win over a (pathological) field
    reusing those names, exactly as the seed dict-per-event recorder did.
    """
    cursors = [0] * len(columns)
    events: List[Dict[str, Any]] = []
    append = events.append
    for ci in order:
        kind, names, ts, values = columns[ci]
        j = cursors[ci]
        cursors[ci] = j + 1
        base = j * len(names)
        event = dict(zip(names, values[base : base + len(names)]))
        event["t"] = ts[j]
        event["kind"] = kind
        append(event)
    return events


class CompactSnapshot:
    """One observation's record in columnar, transport-ready form.

    The executor ships these through worker pickling and the on-disk result
    cache instead of lists of event dicts: tuples of interned kind strings
    and field names, flat value lists, and one small per-event shape index.
    Pickling compresses the event payload with zlib once it is large enough
    to matter, so a fig2-scale trace crosses the process boundary in a
    fraction of the dict form's bytes.

    For consumers that still want the classic view, :meth:`to_dict`
    materializes the exact snapshot dict the seed recorder produced, and
    ``snapshot["events"] / ["metrics"] / ["dropped_events"]`` indexing is
    supported directly (metrics access never materializes the events).
    """

    __slots__ = ("columns", "order", "dropped_events", "metrics", "_dict")

    def __init__(
        self,
        columns: Tuple[tuple, ...],
        order: Any,
        dropped_events: int,
        metrics: dict,
    ) -> None:
        self.columns = columns
        self.order = order
        self.dropped_events = dropped_events
        self.metrics = metrics
        self._dict: Optional[dict] = None

    @property
    def event_count(self) -> int:
        """Number of recorded events (without materializing them)."""
        return len(self.order)

    def to_dict(self) -> dict:
        """The classic ``{"events", "dropped_events", "metrics"}`` snapshot."""
        d = self._dict
        if d is None:
            d = self._dict = {
                "events": _materialize_events(self.columns, self.order),
                "dropped_events": self.dropped_events,
                "metrics": self.metrics,
            }
        return d

    def __getitem__(self, key: str) -> Any:
        if key == "metrics":
            return self.metrics
        if key == "dropped_events":
            return self.dropped_events
        if key == "events":
            return self.to_dict()["events"]
        raise KeyError(key)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CompactSnapshot):
            return (
                self.columns == other.columns
                and tuple(self.order) == tuple(other.order)
                and self.dropped_events == other.dropped_events
                and self.metrics == other.metrics
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment] - mutable payload

    # -- transport -------------------------------------------------------

    def __getstate__(self) -> tuple:
        payload = (self.columns, self.order, self.dropped_events, self.metrics)
        blob = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        if len(blob) >= COMPRESS_MIN_BYTES:
            packed = zlib.compress(blob, 6)
            if len(packed) < len(blob):
                return ("z", packed)
        return ("r", payload)

    def __setstate__(self, state: tuple) -> None:
        tag, data = state
        if tag == "z":
            data = pickle.loads(zlib.decompress(data))
        self.columns, self.order, self.dropped_events, self.metrics = data
        self._dict = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CompactSnapshot {self.event_count} events in "
            f"{len(self.columns)} columns, dropped={self.dropped_events}>"
        )


class Tracer:
    """An append-only columnar buffer of structured trace events."""

    __slots__ = ("max_events", "dropped", "_count", "_columns", "_shapes", "_order")

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        if max_events < 0:
            raise ObservabilityError("max_events cannot be negative")
        self.max_events = max_events
        self.dropped = 0
        self._count = 0
        self._columns: List[_Column] = []
        self._shapes: Dict[Tuple[str, Tuple[str, ...]], _Column] = {}
        self._order: List[int] = []

    def emit(self, t: float, kind: str, **fields: Any) -> None:
        """Record one event at simulation time *t* (ms).

        Field values must be JSON-representable scalars (str/int/float/bool)
        so traces serialize deterministically.
        """
        if self._count >= self.max_events:
            self.dropped += 1
            return
        self._count += 1
        names = tuple(fields)
        col = self._shapes.get((kind, names))
        if col is None:
            col = self._add_column(kind, names)
        self._order.append(col.index)
        col.ts.append(t)
        col.values.extend(fields.values())

    def channel(
        self, kind: str, *names: str
    ) -> Callable[..., None]:
        """A positional fast-path appender for one event shape.

        ``channel("cpu.switch", "cpu", "prev", "next")`` returns an
        ``append(t, cpu, prev, next)`` callable equivalent to
        ``emit(t, "cpu.switch", cpu=..., prev=..., next=...)`` but without
        the keyword-dict packing or the per-event shape lookup.  Hot
        instrumentation sites resolve a channel once, at construction.
        """
        col = self._shapes.get((kind, names))
        if col is None:
            col = self._add_column(kind, names)
        order_append = self._order.append
        ts_append = col.ts.append
        values_extend = col.values.extend
        index = col.index
        tracer = self

        def append(t: float, *values: Any) -> None:
            if tracer._count >= tracer.max_events:
                tracer.dropped += 1
                return
            tracer._count += 1
            order_append(index)
            ts_append(t)
            values_extend(values)

        return append

    def _add_column(self, kind: str, names: Tuple[str, ...]) -> _Column:
        col = _Column(len(self._columns), kind, names)
        self._columns.append(col)
        self._shapes[(kind, names)] = col
        return col

    # -- views -----------------------------------------------------------

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The recorded events as fresh dicts, in emission order.

        A materialized *view* — mutating it never touches the columnar
        record.  Hot consumers should use :meth:`snapshot_columns` instead.
        """
        return _materialize_events(self.snapshot_columns(), self._order)

    def snapshot_columns(self) -> Tuple[tuple, ...]:
        """The columns as immutable ``(kind, names, ts, values)`` tuples."""
        return tuple(
            (c.kind, c.names, tuple(c.ts), tuple(c.values))
            for c in self._columns
        )

    def snapshot_order(self) -> Any:
        """The per-event column indices, packed to bytes when they fit."""
        order = self._order
        if len(self._columns) <= 0xFF:
            return bytes(order)
        return tuple(order)

    def __len__(self) -> int:
        return self._count


class Observation:
    """One run's worth of trace events and metrics, as a unit."""

    __slots__ = ("tracer", "metrics", "trace")

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.tracer = Tracer(max_events=max_events)
        self.metrics = MetricsRegistry()
        #: Shorthand for ``self.tracer.emit(...)`` — bound directly so the
        #: per-event cost on the traced path is one call, not a delegating
        #: frame plus a second ``**fields`` repack.
        self.trace = self.tracer.emit

    def channel(self, kind: str, *names: str) -> Callable[..., None]:
        """A positional appender for one event shape (see Tracer.channel)."""
        return self.tracer.channel(kind, *names)

    def snapshot(self) -> dict:
        """Everything observed, as a picklable, JSON-ready dict.

        The dict contains only simulation-domain data (no wall-clock time,
        no object identities), with deterministic key order, so equal runs
        produce equal snapshots.  This is the materialized (list-of-dicts)
        view; transport paths use :meth:`snapshot_compact`.
        """
        return {
            "events": list(self.tracer.events),
            "dropped_events": self.tracer.dropped,
            "metrics": self.metrics.snapshot(),
        }

    def snapshot_compact(self) -> CompactSnapshot:
        """The observed record in columnar transport form."""
        tracer = self.tracer
        return CompactSnapshot(
            tracer.snapshot_columns(),
            tracer.snapshot_order(),
            tracer.dropped,
            self.metrics.snapshot(),
        )


_current: Optional[Observation] = None


def current_observation() -> Optional[Observation]:
    """The ambient observation, or ``None`` when instrumentation is off.

    Instrumented components call this **once, at construction**, and keep
    the result; per-event work is then a single attribute test.
    """
    return _current


@contextmanager
def observe(max_events: int = DEFAULT_MAX_EVENTS) -> Iterator[Observation]:
    """Install a fresh ambient observation for the duration of the block.

    Nested blocks shadow the outer observation and restore it on exit, so a
    traced sweep point can itself run helper code that opens an observation
    without corrupting either record.
    """
    global _current
    previous = _current
    obs = Observation(max_events=max_events)
    _current = obs
    try:
        yield obs
    finally:
        _current = previous
