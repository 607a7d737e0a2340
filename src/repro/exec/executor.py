"""The sweep executor: cache, fan out, merge deterministically.

:class:`SweepExecutor` is the one engine behind every parameter sweep in the
package: every registered experiment (through ``repro.core.report.sweep``),
the benches and the examples call :meth:`SweepExecutor.map`.  Its contract:

* **Determinism.**  Results are keyed by parameter *index* and merged in
  index order, never completion order, so ``--jobs 8`` reproduces the
  serial run bit-for-bit.
* **Caching.**  With a :class:`~repro.exec.cache.ResultCache` attached,
  previously computed points replay from disk and only changed points
  recompute.
* **Graceful degradation.**  If the process backend cannot run (the
  point function doesn't pickle, the sandbox denies process pools), the
  executor falls back to serial and records why in
  :attr:`~SweepExecutor.last_fallback_reason` instead of failing the sweep.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Sequence, TypeVar, Union

from ..errors import ExperimentError
from ..obs import observe
from .backends import ProcessBackend, SerialBackend, probe_process_backend
from .cache import ResultCache

R = TypeVar("R")

#: Progress sinks: a callable taking one line, or any object with ``write``.
ProgressSink = Union[Callable[[str], None], Any]

#: Observation sinks receive ``(sweep_name, [per-point snapshots])`` after
#: each observed sweep, snapshots in parameter-index order.  Snapshots are
#: :class:`~repro.obs.CompactSnapshot` instances (columnar transport form).
ObserveSink = Callable[[str, List[Any]], None]


class _ObservedPoint:
    """A picklable wrapper running one point inside a fresh observation.

    Returns ``(result, snapshot)``, so the trace/metrics record rides the
    same path as the result — through worker pickling and the on-disk
    cache — and is therefore byte-identical across serial, parallel, and
    warm-cache executions.  The snapshot travels in columnar form
    (:meth:`~repro.obs.Observation.snapshot_compact`, zlib-compressed when
    large) so IPC and cache bytes stay small for event-heavy points.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, value: Any) -> tuple:
        with observe() as obs:
            result = self.fn(value)
        return result, obs.snapshot_compact()

    def __getstate__(self):
        return self.fn

    def __setstate__(self, state):
        self.fn = state


def _as_progress_fn(sink: Optional[ProgressSink]) -> Callable[[str], None]:
    if sink is None:
        return lambda line: None
    if callable(sink):
        return sink
    write = getattr(sink, "write", None)
    if write is None:
        raise ExperimentError(
            f"progress sink {sink!r} is neither callable nor writable"
        )
    return lambda line: write(line + "\n")


class SweepExecutor:
    """Run sweep points through a backend, with optional result caching.

    ``jobs > 1`` selects the process backend with that many workers;
    ``jobs=1`` (the default) runs points serially in the calling process.
    ``cache`` may be a :class:`ResultCache`, a directory path, or ``None``
    to disable caching.  ``progress`` receives one human-readable line per
    point plus a sweep summary.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Union[ResultCache, str, None] = None,
        progress: Optional[ProgressSink] = None,
        observe_sink: Optional[ObserveSink] = None,
    ) -> None:
        if jobs < 1:
            raise ExperimentError(f"sweep executor needs jobs >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = ResultCache(cache) if isinstance(cache, str) else cache
        self._progress = _as_progress_fn(progress)
        #: When set, every point runs inside an observation and the sink
        #: receives ``(sweep_name, snapshots)`` after each sweep.  Observed
        #: sweeps cache under a distinct namespace (``<name>+trace``) so
        #: traced and untraced runs never replay each other's entries.
        self.observe_sink = observe_sink
        #: Why the last sweep fell back to serial, or ``None`` if it didn't.
        self.last_fallback_reason: Optional[str] = None
        #: The backend the last sweep actually used.
        self.last_backend_used: Optional[str] = None
        #: Per-point compute seconds from the last sweep, keyed by parameter
        #: index; cached points are absent.
        self.last_point_seconds: dict = {}

    # -- the engine -----------------------------------------------------

    def map(
        self,
        name: str,
        fn: Callable[[Any], R],
        values: Sequence[Any],
        *,
        seed: int = 0,
    ) -> List[R]:
        """Compute ``[fn(v) for v in values]``, cached and possibly parallel.

        The returned list is always in *values* order regardless of which
        backend ran or in what order points completed.
        """
        if not values:
            raise ExperimentError(f"sweep {name!r} given no values")
        start = time.perf_counter()
        total = len(values)
        observing = self.observe_sink is not None
        run_fn: Callable[[Any], Any] = _ObservedPoint(fn) if observing else fn
        cache_name = f"{name}+trace" if observing else name
        results: dict = {}
        pending: List[tuple] = []
        for index, value in enumerate(values):
            if self.cache is not None:
                hit, payload = self.cache.load(cache_name, value, seed)
                if hit:
                    results[index] = payload
                    self._progress(
                        f"{name}: point {index + 1}/{total} ({value!r}) cached"
                    )
                    continue
            pending.append((index, value))

        self.last_point_seconds = point_seconds = {}
        backend = self._resolve_backend(run_fn, len(pending))
        for index, seconds, result in backend.map(run_fn, pending):
            results[index] = result
            point_seconds[index] = seconds
            if self.cache is not None:
                self.cache.store(cache_name, values[index], seed, result)
            self._progress(
                f"{name}: point {index + 1}/{total} "
                f"({values[index]!r}) {seconds:.2f}s"
            )

        elapsed = time.perf_counter() - start
        cached = total - len(pending)
        self._progress(
            f"{name}: {total} points in {elapsed:.2f}s "
            f"({cached} cached, backend={self.last_backend_used})"
        )
        merged = [results[index] for index in range(total)]
        if observing:
            assert self.observe_sink is not None
            self.observe_sink(name, [snapshot for __, snapshot in merged])
            merged = [result for result, __ in merged]
        return merged

    # -- backend resolution ---------------------------------------------

    def _resolve_backend(self, fn: Callable[[Any], Any], pending: int):
        """Pick the backend for this sweep, falling back to serial."""
        self.last_fallback_reason = None
        backend = SerialBackend()
        # One point gains nothing from a pool; skip the fork cost.
        if self.jobs > 1 and pending > 1:
            reason = probe_process_backend(fn)
            if reason is None:
                backend = ProcessBackend(jobs=self.jobs)
            else:
                self.last_fallback_reason = reason
                self._progress(f"falling back to serial: {reason}")
        self.last_backend_used = backend.name
        return backend

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SweepExecutor jobs={self.jobs} cache={self.cache!r}>"
        )
