"""The experiment registry: named, grouped, runnable reproductions.

An experiment is declared as data, an :class:`ExperimentSpec`, and added
with :func:`register`.  A spec names its point function, grid, record,
tables and CSV layout, and :func:`repro.core.report.run_spec` runs it; only
an experiment whose output is not a sweep table (``tab-sessions``,
``tab-setup``) carries a bespoke ``runner`` instead.  Each experiments
module exports a ``SPECS`` tuple and never imports the CLI; ``repro.cli``
registers its paper set, then the fleet, analytic, SLO and scale tuples,
in that fixed sequence.  Every registry consumer — ``repro list``,
``repro run``, ``repro trace``, ``run all`` — picks a new spec up without
a CLI change.

Two ordering contracts keep historical artifacts stable:

* **Run order is registration order.**  ``run all`` iterates the registry
  in insertion order, so the paper experiments keep the exact sequence the
  pre-registry CLI hard-coded (goldens and cache keys are unchanged);
  later registrations append after them.
* **Groups are display-only.**  ``repro list`` renders one table per
  group (groups ordered by first registration), but grouping never
  reorders execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ExperimentError
from .report import Overlay, Row, Table, run_spec


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: id, ``repro list`` title, display group,
    and the sweep that produces its output.

    :func:`~repro.core.report.run_spec` documents how the sweep fields
    (``point`` … ``csv_layout``) are run.  ``point`` returns a *record*
    (a ``NamedTuple``) for one *grid* cell, named by *keys*.  *seeded*
    says whether the run seed keys the result cache (else seed 0).
    *sweep* formats to the sweep name.  *tables* are the stdout blocks,
    in order; *post_rows* ``(ctx, rows)`` prints or writes what is derived
    from the rows.  *csv* formats to the CSV file name, or is ``None``
    for no CSV.  A spec with a *runner* ``(ctx)`` runs that instead.
    """

    name: str
    title: str
    group: str
    runner: Optional[Callable[[Any], None]] = None
    point: Optional[Callable[..., Any]] = None
    grid: Sequence[Any] = ()
    keys: Tuple[str, ...] = ()
    record: Any = None
    seeded: bool = True
    sweep: str = "{name}{fault_suffix}"
    tables: Sequence[Union[Table, Overlay]] = ()
    post_rows: Optional[Callable[[Any, List[Row]], None]] = None
    csv: Optional[str] = "{name}.csv"
    csv_layout: str = "rows"

    def run(self, ctx: Any) -> None:
        """Run the experiment in *ctx* (a :class:`~repro.exec.RunContext`)."""
        if self.runner is not None:
            self.runner(ctx)
        else:
            run_spec(self, ctx)


#: The live registry, in registration order.  ``repro run all`` iterates
#: this mapping directly; mutate it only through :func:`register` /
#: :func:`unregister`.
REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add *spec* to the registry; duplicate names are a hard error."""
    if spec.name in REGISTRY:
        raise ExperimentError(
            f"experiment {spec.name!r} is already registered "
            f"(group {REGISTRY[spec.name].group!r})"
        )
    REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove one experiment (registration-order of the rest is kept)."""
    if name not in REGISTRY:
        raise ExperimentError(f"experiment {name!r} is not registered")
    del REGISTRY[name]


def get(name: str) -> Optional[ExperimentSpec]:
    """The spec registered under *name*, or ``None``."""
    return REGISTRY.get(name)


def names() -> List[str]:
    """All experiment ids, in registration (= ``run all``) order."""
    return list(REGISTRY)


def specs() -> List[ExperimentSpec]:
    """All registered specs, in registration order."""
    return list(REGISTRY.values())


def groups() -> Dict[str, List[ExperimentSpec]]:
    """Specs bucketed by group, groups ordered by first registration.

    Within a group, specs keep registration order — the same order
    ``run all`` executes them in.
    """
    grouped: Dict[str, List[ExperimentSpec]] = {}
    for spec in REGISTRY.values():
        grouped.setdefault(spec.group, []).append(spec)
    return grouped
