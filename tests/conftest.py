import random

import pytest

from gradedkernel.geometry import Chart

from helpers import ANNOUNCEMENTS


def pytest_addoption(parser):
    parser.addoption("--shuffle-seed", type=int, default=None, metavar="N",
                     help="run the collected tests in the order random.Random(N) "
                          "shuffles them into")


def pytest_collection_modifyitems(config, items):
    seed = config.getoption("--shuffle-seed")
    if seed is not None:
        random.Random(seed).shuffle(items)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ANNOUNCEMENTS:
        terminalreporter.section("acceptance criteria")
        for line in ANNOUNCEMENTS:
            terminalreporter.write_line(line)


@pytest.fixture
def mixed_chart():
    return Chart.build([("x", 0, 0), ("y", 0, 2), ("xi", 1, 1), ("eta", 1, -1)], "M")


@pytest.fixture
def rng():
    return random.Random(20240809)
