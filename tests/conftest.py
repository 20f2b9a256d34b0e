import pytest

from svilab import analysis


@pytest.fixture
def fresh_pool():
    """No worker pool at the start of the test, and none forked during it
    left at its end: pool workers run the code as it stood when they were
    forked, so a pool forked under a monkeypatch must not serve later tests."""
    analysis.shutdown_pool()
    yield
    analysis.shutdown_pool()
