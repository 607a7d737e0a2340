"""The paper's contribution: latency framework, server composition, tools."""

from .capacity import (
    CapacityReport,
    FleetCapacityReport,
    blend_profiles,
    plan_capacity,
    plan_fleet_capacity,
    plan_mixed_capacity,
    plan_mixed_fleet_capacity,
)
from .client import ThinClient
from .framework import (
    LoadKind,
    LoadProfile,
    LoadSource,
    Resource,
    ResourceStudy,
    StudyResult,
    compare,
    evaluate,
)
from .latency import (
    CONTINUOUS_THRESHOLD_MS,
    DISCRETE_THRESHOLD_MS,
    PERCEPTION_THRESHOLD_MS,
    LatencyAssessment,
    assess,
    threshold_for,
)
from .registry import ExperimentSpec
from .report import format_series, format_table, sparkline
from .server import ServerConfig, ThinClientServer, UserSession

__all__ = [
    "CONTINUOUS_THRESHOLD_MS",
    "CapacityReport",
    "DISCRETE_THRESHOLD_MS",
    "ExperimentSpec",
    "FleetCapacityReport",
    "LatencyAssessment",
    "LoadKind",
    "LoadProfile",
    "LoadSource",
    "PERCEPTION_THRESHOLD_MS",
    "Resource",
    "ResourceStudy",
    "ServerConfig",
    "StudyResult",
    "ThinClient",
    "ThinClientServer",
    "UserSession",
    "assess",
    "blend_profiles",
    "compare",
    "evaluate",
    "format_series",
    "format_table",
    "plan_capacity",
    "plan_fleet_capacity",
    "plan_mixed_capacity",
    "plan_mixed_fleet_capacity",
    "sparkline",
    "threshold_for",
]
