"""Shared pytest configuration.

Adds ``--update-goldens`` for the golden suites (see
``tests/golden/README.md``): run

    PYTHONPATH=src python -m pytest tests/golden --update-goldens

after an intentional behaviour change to rewrite the committed goldens,
then review the diff like any other code change.

Also loads the suite's one Hypothesis profile.  It has no deadline: a
property test's wall time says nothing about its correctness, and a GC
pause on a loaded host must not fail it.  It is derandomized: every run
draws the same examples (which also turns off the example database), so
a failure reproduces on the next run.  A test's own ``@settings`` still
override the profile field by field.
"""

from hypothesis import settings

settings.register_profile("repro", deadline=None, derandomize=True)
settings.load_profile("repro")


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from current behaviour",
    )
