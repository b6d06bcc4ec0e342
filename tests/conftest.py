import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles module


@pytest.fixture(scope="module")
def reference_pool():
    """Two spawned worker processes for one slow half of a differential
    test while this process computes the other; the comparison and its
    asserts stay here.  One pool a module, not one a session: its workers
    would outlive the module and fail the asserts that a run leaves no
    child process behind."""
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        yield pool


def pytest_addoption(parser):
    parser.addoption(
        "--full-survey",
        action="store_true",
        default=False,
        help="run the exhaustive survey over n < 3000 (about 25-30 s on 2 cores)",
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
