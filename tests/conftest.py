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
    """Set `poly.WORK_CAP` for one test, in every module that reads it."""
    from neurovar import poly, rank, scan, theory, veronese

    def set_cap(value):
        for module in (poly, rank, scan, theory, veronese):
            monkeypatch.setattr(module, "WORK_CAP", value)

    return set_cap
