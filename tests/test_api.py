"""Every exported name resolves, so deletions leave no stale exports."""

import pytest

import partbounds
from partbounds import estimates, rademacher


@pytest.mark.parametrize("module", [partbounds, estimates, rademacher], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
