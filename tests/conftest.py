import json
from pathlib import Path

import pytest

from partbounds.exact import default_table
from partbounds.verify import SUITE_NAMES

GOLDEN = Path(__file__).resolve().parents[1] / "docs" / "golden"


@pytest.fixture(scope="session", autouse=True)
def _warm_table():
    """Pre-grow the shared partition table once for the whole run."""
    default_table().ensure(10050)


@pytest.fixture(scope="session")
def golden_summaries():
    """Assert that the summaries of every suite but the registry, as
    `report_of(name)` reports them with `seconds` zeroed, equal the list
    frozen in a golden file."""

    def compare(report_of, filename):
        summaries = []
        for name in SUITE_NAMES:
            if name == "inequalities":
                continue
            summary = report_of(name).summary()
            summary["seconds"] = 0.0
            # a JSON round trip, so tuples and floats compare as read back
            summaries.append(json.loads(json.dumps(summary)))
        assert summaries == json.loads((GOLDEN / filename).read_text())

    return compare
