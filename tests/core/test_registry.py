"""The experiment registry: registration, ordering, groups, lookups."""

import pytest

from dataclasses import fields

from repro.core.registry import (
    REGISTRY,
    ExperimentSpec,
    get,
    names,
    register,
    specs,
)
from repro.errors import ExperimentError


@pytest.fixture
def scratch_registry(monkeypatch):
    """Run the test against an empty registry, restoring the real one."""
    monkeypatch.setattr("repro.core.registry.REGISTRY", {})
    import repro.core.registry as registry

    return registry


class TestRegister:
    def test_registers_and_returns_the_spec(self, scratch_registry):
        spec = ExperimentSpec("exp-a", "A", "g", runner=lambda ctx: None)
        assert register(spec) is spec
        assert scratch_registry.REGISTRY["exp-a"] is spec

    def test_run_calls_a_bespoke_runner(self, scratch_registry):
        calls = []
        spec = register(ExperimentSpec("exp-a", "A", "g", runner=calls.append))
        spec.run("ctx")
        assert calls == ["ctx"]

    def test_duplicate_name_is_a_hard_error(self, scratch_registry):
        register(ExperimentSpec("exp-a", "A", "g", runner=lambda ctx: None))
        with pytest.raises(ExperimentError):
            register(ExperimentSpec("exp-a", "A again", "g", runner=lambda ctx: None))


class TestOrdering:
    def test_registration_order_is_iteration_order(self, scratch_registry):
        for name in ("zeta", "alpha", "mid"):
            register(ExperimentSpec(name, name.title(), "g"))
        assert list(scratch_registry.REGISTRY) == ["zeta", "alpha", "mid"]

    def test_unregister_keeps_the_rest_in_order(self, scratch_registry):
        for name in ("a", "b", "c"):
            register(ExperimentSpec(name, name, "g"))
        scratch_registry.unregister("b")
        assert list(scratch_registry.REGISTRY) == ["a", "c"]

    def test_unregister_unknown_raises(self, scratch_registry):
        with pytest.raises(ExperimentError):
            scratch_registry.unregister("ghost")

    def test_groups_ordered_by_first_registration(self, scratch_registry):
        register(ExperimentSpec("p1", "P1", "paper"))
        register(ExperimentSpec("f1", "F1", "fleet"))
        register(ExperimentSpec("p2", "P2", "paper"))
        grouped = scratch_registry.groups()
        assert list(grouped) == ["paper", "fleet"]
        assert [s.name for s in grouped["paper"]] == ["p1", "p2"]


class TestLiveRegistry:
    """The real registry, as populated by importing the CLI."""

    def test_cli_import_populates_the_registry(self):
        import repro.cli  # noqa: F401  (registers on import)

        assert "fig1" in REGISTRY
        assert "fleet_capacity" in REGISTRY

    def test_lookup_helpers_agree_with_the_mapping(self):
        import repro.cli  # noqa: F401

        assert names() == list(REGISTRY)
        assert specs() == list(REGISTRY.values())
        assert get("fig1") is REGISTRY["fig1"]
        assert get("ghost") is None

    def test_every_spec_is_well_formed(self):
        import repro.cli  # noqa: F401

        for spec in specs():
            assert spec.name and spec.title and spec.group
            if spec.runner is None:
                assert callable(spec.point) and spec.grid and spec.keys
                assert spec.record._fields
            else:
                assert spec.point is None

    def test_only_non_sweep_experiments_have_a_bespoke_runner(self):
        import repro.cli  # noqa: F401

        bespoke = [spec.name for spec in specs() if spec.runner is not None]
        assert bespoke == ["tab-sessions", "tab-setup"]

    def test_every_declaration_field_takes_two_values(self):
        """A field only one experiment would set belongs in its code."""
        import repro.cli  # noqa: F401

        for field in fields(ExperimentSpec):
            values = {repr(getattr(spec, field.name)) for spec in specs()}
            assert len(values) >= 2, field.name
