"""The single-argument run context every CLI experiment receives.

The old runner signature — ``run(seed, out, csv_dir)`` positional — grew a
flag at a time and couldn't carry executor settings without breaking every
call site.  :class:`RunContext` replaces it: one dataclass holding the seed,
the output stream, the CSV directory, and the execution policy (jobs, cache
directory, cache on/off), plus a lazily-built :class:`SweepExecutor` shared
by every sweep the experiment runs.

Tracing rides the same context: with ``observe=True`` (or a ``trace_dir``
set) the executor runs every sweep point inside an observation, and the
per-point trace/metrics snapshots accumulate here in sweep order.  The CLI
drains them with :meth:`RunContext.take_observations` after each experiment
to write artifacts and render the metrics summary.

Fault injection rides it too: ``faults`` holds the canonical ``--faults``
spec string (kept as a string so it pickles to workers and keys cache
entries) plus its ``fault_seed``; :attr:`RunContext.fault_suffix` tags
the names of sweeps that take the fault plan, so faulted and clean runs of
them never replay each other's cached points.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TextIO

from ..obs import RunObservations
from .executor import ProgressSink, SweepExecutor


@dataclass
class RunContext:
    """Everything one experiment run needs, passed as a single argument.

    ``jobs > 1`` selects the process backend; caching engages whenever
    ``cache_dir`` is set and ``no_cache`` is not.  ``progress`` (a stream
    or callable) receives per-point timing lines; ``None`` keeps runs
    silent, which also keeps ``out`` byte-stable across repeats.

    ``trace_dir``/``observe`` switch on the :mod:`repro.obs` layer: every
    sweep point records structured events and metrics, collected per sweep
    in :attr:`observations`.  Observation artifacts are byte-identical
    across the serial, process, and cached executor paths.
    """

    seed: int = 0
    out: TextIO = field(default_factory=lambda: sys.stdout)
    csv_dir: Optional[str] = None
    jobs: int = 1
    cache_dir: Optional[str] = None
    no_cache: bool = False
    progress: Optional[ProgressSink] = None
    trace_dir: Optional[str] = None
    observe: bool = False
    faults: Optional[str] = None
    fault_seed: int = 0
    _executor: Optional[SweepExecutor] = field(
        default=None, init=False, repr=False, compare=False
    )
    _observations: Dict[str, List[dict]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def observing(self) -> bool:
        """Whether sweeps run instrumented (``observe`` or a trace dir)."""
        return self.observe or self.trace_dir is not None

    # -- fault injection --------------------------------------------------

    @property
    def fault_suffix(self) -> str:
        """A sweep-name tag isolating faulted cache entries from clean ones."""
        if not self.faults:
            return ""
        return f"+faults[{self.faults}@{self.fault_seed}]"

    @property
    def executor(self) -> SweepExecutor:
        """The sweep engine for this run (built once, then reused)."""
        if self._executor is None:
            self._executor = SweepExecutor(
                jobs=self.jobs,
                cache=None if self.no_cache else self.cache_dir,
                progress=self.progress,
                observe_sink=self._record_observations if self.observing else None,
            )
        return self._executor

    # -- observation collection -----------------------------------------

    def _record_observations(self, sweep: str, snapshots: List[dict]) -> None:
        """Executor sink: append one sweep's per-point snapshots."""
        self._observations.setdefault(sweep, []).extend(snapshots)

    @property
    def observations(self) -> RunObservations:
        """Snapshots collected since the last :meth:`take_observations`."""
        return self._observations

    def take_observations(self) -> RunObservations:
        """Drain and return the collected observations (per-experiment)."""
        taken, self._observations = self._observations, {}
        return taken
