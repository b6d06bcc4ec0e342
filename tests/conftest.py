import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles module


def pytest_addoption(parser):
    parser.addoption(
        "--full-survey",
        action="store_true",
        default=False,
        help="run the exhaustive survey over n < 3000 (about a minute on 2 cores)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "full_survey: the exhaustive n < 3000 survey, needs --full-survey"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--full-survey"):
        return
    skip = pytest.mark.skip(reason="pass --full-survey to run the n < 3000 batch")
    for item in items:
        if "full_survey" in item.keywords:
            item.add_marker(skip)
