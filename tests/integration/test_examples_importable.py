"""Smoke tests: every example script parses, imports, and defines main().

The unit suite only checks that the scripts import and are structured
correctly; running them end to end is ``make examples`` (all seven take
seconds), which the CI ``test`` job runs after the unit suite.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_expected_example_set():
    names = {p.stem for p in EXAMPLE_FILES}
    assert {
        "quickstart",
        "capacity_planning",
        "animation_cache_study",
        "scheduler_comparison",
        "memory_pathology",
        "framework_tour",
    } <= names
    assert len(EXAMPLE_FILES) >= 6


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_imports_and_has_main(path):
    module = load_module(path)
    assert callable(getattr(module, "main", None)), path.stem
    assert module.__doc__, "examples must explain themselves"
