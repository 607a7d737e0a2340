"""The behaviour → load → latency evaluation framework (§3).

The paper's methodological contribution is a structured way to evaluate
thin-client server operating systems:

1. pick a **hardware resource** (processor, memory, network);
2. characterize how **user behaviour** generates *load* on it, splitting
   **compulsory load** (behaviour-independent: multi-user services, clock
   ticks, session state) from **dynamic load** (application-driven);
3. analyze how the operating system's abstractions translate that load
   into **user-perceived latency**.

This module gives those notions first-class types so experiments read like
the paper: a :class:`ResourceStudy` binds a resource to load sources and a
latency probe, and :func:`evaluate` runs the pipeline and assesses the
result against a perception threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ExperimentError
from .latency import PERCEPTION_THRESHOLD_MS, LatencyAssessment, assess


class Resource(enum.Enum):
    """The hardware resources of the paper's analysis (§4, §5, §6)."""

    PROCESSOR = "processor"
    MEMORY = "memory"
    NETWORK = "network"


class LoadKind(enum.Enum):
    """Compulsory load exists regardless of behaviour; dynamic load doesn't."""

    COMPULSORY = "compulsory"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class LoadSource:
    """One contributor of load on a resource."""

    name: str
    kind: LoadKind
    resource: Resource
    #: Load in the resource's natural unit: CPU fraction, bytes, or Mbps.
    magnitude: float

    def __post_init__(self) -> None:
        if self.magnitude < 0:
            raise ExperimentError("load magnitude cannot be negative")


@dataclass
class LoadProfile:
    """The decomposed load on one resource."""

    resource: Resource
    sources: List[LoadSource] = field(default_factory=list)

    def add(self, source: LoadSource) -> None:
        """Attach one load source (must target this profile's resource)."""
        if source.resource is not self.resource:
            raise ExperimentError(
                f"source {source.name!r} is {source.resource.value} load, "
                f"not {self.resource.value}"
            )
        self.sources.append(source)

    def total(self, kind: Optional[LoadKind] = None) -> float:
        """Summed load magnitude, optionally restricted to one kind."""
        return sum(
            s.magnitude
            for s in self.sources
            if kind is None or s.kind is kind
        )

    @property
    def compulsory(self) -> float:
        """Behaviour-independent load (multi-user services, clock ticks)."""
        return self.total(LoadKind.COMPULSORY)

    @property
    def dynamic(self) -> float:
        """Application-driven load, dependent on user behaviour."""
        return self.total(LoadKind.DYNAMIC)


@dataclass
class ResourceStudy:
    """One §4/§5/§6-style study: load in, operation latencies out.

    ``probe`` runs the latency-sensitive operation under the described
    load and returns the observed per-operation latencies in ms.
    """

    name: str
    resource: Resource
    load: LoadProfile
    probe: Callable[[], Sequence[float]]
    threshold_ms: float = PERCEPTION_THRESHOLD_MS

    def run(self, *, threshold_ms: Optional[float] = None) -> "StudyResult":
        """Evaluate this study.

        ``study.run()`` is :func:`evaluate(study) <evaluate>`; pass
        *threshold_ms* to re-assess against a different perception
        threshold without rebuilding the study.
        """
        return evaluate(self, threshold_ms=threshold_ms)


@dataclass(frozen=True)
class StudyResult:
    """A completed study: the load decomposition plus the assessment."""

    name: str
    resource: Resource
    compulsory_load: float
    dynamic_load: float
    assessment: LatencyAssessment


def evaluate(
    study: ResourceStudy, *, threshold_ms: Optional[float] = None
) -> StudyResult:
    """Run one resource study end to end.

    *threshold_ms* overrides the study's own perception threshold for this
    evaluation only — callers comparing a study against several thresholds
    no longer have to rebuild it per threshold.
    """
    latencies = list(study.probe())
    if not latencies:
        raise ExperimentError(f"study {study.name!r} produced no operations")
    if threshold_ms is None:
        threshold_ms = study.threshold_ms
    return StudyResult(
        name=study.name,
        resource=study.resource,
        compulsory_load=study.load.compulsory,
        dynamic_load=study.load.dynamic,
        assessment=assess(latencies, threshold_ms),
    )


def compare(results: Sequence[StudyResult]) -> Dict[str, StudyResult]:
    """Index results by study name, verifying uniqueness."""
    out: Dict[str, StudyResult] = {}
    for result in results:
        if result.name in out:
            raise ExperimentError(f"duplicate study name {result.name!r}")
        out[result.name] = result
    return out
