import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--slow",
        action="store_true",
        default=False,
        help="also run tests marked slow",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: needs --slow to run")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip = pytest.mark.skip(reason="slow test: pass --slow to enable")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def work_cap(monkeypatch):
    """Set `poly.WORK_CAP`, which every module reads from `poly`, for one test."""
    from neurovar import poly

    def set_cap(value):
        monkeypatch.setattr(poly, "WORK_CAP", value)

    return set_cap
