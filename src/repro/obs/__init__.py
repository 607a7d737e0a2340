"""Structured tracing and metrics for the simulation stack.

The observability layer the paper's methodology implies: every number in a
figure is the end of a *behavior → load → latency* chain, and this package
records the intermediate links — scheduler boosts, page faults, wire bytes,
queue depths — as structured events and metrics instead of discarding them.

Three pieces:

* :class:`Observation` (:func:`observe` / :func:`current_observation`) —
  the ambient recording context.  Components built inside a
  ``with observe():`` block instrument themselves; outside one, every
  instrumentation site is a single ``is not None`` test (zero cost).
* :class:`MetricsRegistry` — named :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments with deterministic snapshots.
* :mod:`~repro.obs.serialize` — byte-stable JSONL/JSON artifacts; the same
  run serializes to the same bytes whether it executed serially, on worker
  processes, or replayed from the result cache.

``python -m repro trace fig1 --seed 1 --trace-dir out/`` is the canonical
consumer; ``tests/golden/`` locks the output down byte-for-byte.
"""

from .metrics import (
    DEFAULT_BOUNDS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObservabilityError,
    bucket_quantile,
)
from .serialize import (
    RunObservations,
    dumps_snapshot,
    merge_counters,
    metrics_document,
    summary_rows,
    trace_lines,
    write_run_artifacts,
)
from .tracer import (
    DEFAULT_MAX_EVENTS,
    CompactSnapshot,
    Observation,
    Tracer,
    current_observation,
    observe,
)

__all__ = [
    "DEFAULT_BOUNDS_MS",
    "DEFAULT_MAX_EVENTS",
    "CompactSnapshot",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObservabilityError",
    "Observation",
    "RunObservations",
    "Tracer",
    "bucket_quantile",
    "current_observation",
    "dumps_snapshot",
    "merge_counters",
    "metrics_document",
    "observe",
    "summary_rows",
    "trace_lines",
    "write_run_artifacts",
]
