"""Parallel, cached execution of parameter sweeps.

The package's experiments are deterministic pure functions of
(configuration, seed), which buys two things for free: points can run on
any worker in any order and merge back deterministically, and finished
points can replay from an on-disk cache instead of recomputing.  This
subpackage is the engine that exploits both:

* :class:`SweepExecutor` — maps a point function over parameter values,
  serially or (``jobs > 1``) across worker processes, merging results in
  index order;
* :class:`ResultCache` — content-hash-keyed pickle store of finished
  points, invalidated by experiment name, value, seed, or package version;
* :class:`RunContext` — the single-argument context the CLI hands each
  experiment (seed, streams, jobs, cache policy).

``python -m repro run all --jobs 8 --cache-dir .repro-cache`` is the
canonical consumer; see DESIGN.md §5 for the determinism argument.
"""

from .backends import ProcessBackend, SerialBackend, probe_process_backend
from .cache import CacheStats, ResultCache, point_key
from .context import RunContext
from .executor import ObserveSink, SweepExecutor

__all__ = [
    "CacheStats",
    "ObserveSink",
    "ProcessBackend",
    "ResultCache",
    "RunContext",
    "SerialBackend",
    "SweepExecutor",
    "point_key",
    "probe_process_backend",
]
