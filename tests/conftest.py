"""Suite options: `--seed-sweep` runs the opt-in sweeps of seed-dependent checks over many seeds.

Tests marked `seed_sweep` are skipped unless the option is given, so the
default run selects the same tests with or without them.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--seed-sweep", action="store_true", help="run the tests marked seed_sweep (minutes)"
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "seed_sweep: a check repeated over many seeds; runs only with --seed-sweep"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--seed-sweep"):
        return
    skip = pytest.mark.skip(reason="a seed sweep; pass --seed-sweep to run it")
    for item in items:
        if "seed_sweep" in item.keywords:
            item.add_marker(skip)
