import pytest

from partbounds.exact import default_table


@pytest.fixture(scope="session", autouse=True)
def _warm_table():
    """Pre-grow the shared partition table once for the whole run."""
    default_table().ensure(10050)
