"""SLO definitions: latency budgets, violation counters, error-budget burn.

*10-millisecond Computing* argues the metric that matters for interactive
systems is the latency *tail* against a concrete budget, not the mean.
This module gives the repo that vocabulary:

* :class:`LatencyBudget` — one operation's contract: "``target`` of
  samples complete within ``budget_ms``" (e.g. 99% of keystroke echoes
  within 100 ms).  ``1 - target`` is the **error budget**: the fraction
  of samples *allowed* to violate.
* :class:`SloTracker` — the live accountant: feeds every sample into a
  :class:`~repro.slo.windows.WindowedPercentiles` rollup, counts
  violations globally and per window, and reports error-budget
  consumption and burn rate.  **Burn rate** is the SRE quantity: observed
  violation fraction divided by the allowed fraction, so burn 1.0 means
  "exactly spending the budget", burn 10 means "ten times over".
* :class:`SloReport` — one frozen row of the accounting.

When the tracker runs inside an observation (``with observe():`` /
``repro trace``), it publishes ``slo.<operation>.samples`` /
``slo.<operation>.violations`` counters, a ``slo.<operation>.latency_ms``
histogram, and a ``slo.<operation>.burn_rate`` gauge through the ambient
metrics registry, so SLO state rides the standard trace artifacts.  All
handles resolve lazily on first sample — an idle tracker leaves no
metrics behind, keeping pre-SLO trace artifacts byte-identical.

Determinism: the tracker is a pure fold over the observed
``(timestamp, latency)`` stream; identical streams produce identical
reports on every executor path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..errors import SloError
from ..obs import current_observation
from ..obs.metrics import DEFAULT_BOUNDS_MS
from .windows import PERCENTILE_LEVELS, WindowedPercentiles


@dataclass(frozen=True)
class LatencyBudget:
    """One operation's latency SLO: ``target`` of samples within ``budget_ms``.

    ``target`` is a fraction in (0, 1); the remainder is the error budget.
    The default target 0.99 with a 100 ms budget is the paper's perception
    threshold applied at p99 — the contract the fleet experiments already
    enforce informally.
    """

    operation: str
    budget_ms: float
    target: float = 0.99

    def __post_init__(self) -> None:
        if not self.operation:
            raise SloError("a latency budget needs an operation name")
        if self.budget_ms <= 0:
            raise SloError(f"latency budget must be positive, got {self.budget_ms}")
        if not 0.0 < self.target < 1.0:
            raise SloError(
                f"SLO target must be a fraction in (0, 1), got {self.target}"
            )

    @property
    def allowed_violation_fraction(self) -> float:
        """The error budget: the fraction of samples allowed past the budget."""
        return 1.0 - self.target


@dataclass(frozen=True)
class SloReport:
    """One operation's SLO accounting over a finished measurement.

    ``budget_burn`` is the whole-stream burn rate (violation fraction over
    allowed fraction); ``worst_window_burn`` is the same ratio in the
    single worst time window — the quantity paging policies alert on.
    ``percentiles`` aligns with
    :data:`~repro.slo.windows.PERCENTILE_LEVELS` (p50/p90/p99/p99.9).
    """

    operation: str
    budget_ms: float
    target: float
    samples: int
    violations: int
    percentiles: Tuple[float, ...]
    worst_window_burn: float = 0.0

    @property
    def violation_rate(self) -> float:
        """Fraction of samples that blew the budget (0.0 when empty)."""
        return self.violations / self.samples if self.samples else 0.0

    @property
    def budget_burn(self) -> float:
        """Error-budget burn rate: violation rate over the allowed rate."""
        return self.violation_rate / (1.0 - self.target)


class SloTracker:
    """The live SLO accountant for one operation; see module docstring."""

    def __init__(
        self,
        budget: LatencyBudget,
        *,
        window_ms: float = 1_000.0,
        bounds: Sequence[float] = DEFAULT_BOUNDS_MS,
    ) -> None:
        self.budget = budget
        self.windows = WindowedPercentiles(bounds=bounds, window_ms=window_ms)
        self.samples = 0
        self.violations = 0
        #: per-window ``index -> (samples, violations)``, insertion-ordered.
        self._window_counts: Dict[int, Tuple[int, int]] = {}
        # Lazy instrument handles: resolved on the first sample only, so an
        # idle tracker adds nothing to a trace artifact.
        self._obs = current_observation()
        self._samples_counter = None
        self._violations_counter = None
        self._latency_histogram = None

    # -- recording -------------------------------------------------------

    def observe(self, t_ms: float, latency_ms: float) -> None:
        """Fold one latency sample observed at simulation time *t_ms*."""
        self.windows.observe(t_ms, latency_ms)
        self.samples += 1
        violated = latency_ms > self.budget.budget_ms
        if violated:
            self.violations += 1
        index = math.floor(t_ms / self.windows.window_ms)
        seen, bad = self._window_counts.get(index, (0, 0))
        self._window_counts[index] = (seen + 1, bad + (1 if violated else 0))
        if self._obs is not None:
            self._publish(latency_ms, violated)

    def _publish(self, latency_ms: float, violated: bool) -> None:
        name = self.budget.operation
        if self._samples_counter is None:
            metrics = self._obs.metrics
            self._samples_counter = metrics.counter(f"slo.{name}.samples")
            self._violations_counter = metrics.counter(f"slo.{name}.violations")
            self._latency_histogram = metrics.histogram(f"slo.{name}.latency_ms")
        self._samples_counter.value += 1
        if violated:
            self._violations_counter.value += 1
        self._latency_histogram.observe(latency_ms)

    # -- accounting ------------------------------------------------------

    @property
    def violation_rate(self) -> float:
        """Fraction of samples past the budget so far (0.0 when empty)."""
        return self.violations / self.samples if self.samples else 0.0

    @property
    def budget_burn(self) -> float:
        """Whole-stream error-budget burn rate (1.0 = exactly on budget)."""
        return self.violation_rate / self.budget.allowed_violation_fraction

    def worst_window_burn(self) -> float:
        """The burn rate of the single worst window (0.0 when empty)."""
        worst = 0.0
        for seen, bad in self._window_counts.values():
            if seen:
                worst = max(
                    worst, (bad / seen) / self.budget.allowed_violation_fraction
                )
        return worst

    def report(
        self, levels: Sequence[float] = PERCENTILE_LEVELS
    ) -> SloReport:
        """The finished accounting as one frozen row.

        Publishes the ``slo.<operation>.burn_rate`` gauge when observing,
        so trace metrics carry the final budget state.
        """
        if self.samples == 0:
            raise SloError(
                f"SLO report for {self.budget.operation!r} with no samples"
            )
        report = SloReport(
            operation=self.budget.operation,
            budget_ms=self.budget.budget_ms,
            target=self.budget.target,
            samples=self.samples,
            violations=self.violations,
            percentiles=tuple(self.windows.quantile(pct) for pct in levels),
            worst_window_burn=self.worst_window_burn(),
        )
        if self._obs is not None and self._samples_counter is not None:
            self._obs.metrics.gauge(
                f"slo.{self.budget.operation}.burn_rate"
            ).set(report.budget_burn)
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SloTracker {self.budget.operation} samples={self.samples} "
            f"violations={self.violations}>"
        )
