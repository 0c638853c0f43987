"""Every exported name resolves, so deletions leave no stale exports, and
every name the benchmark's tracer patches still exists."""

import importlib.util
import sys
from pathlib import Path

import pytest

import partbounds
from partbounds import estimates, rademacher
from partbounds.enclosure import Enclosure

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("module", [partbounds, estimates, rademacher], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_tracer_patches_and_restores_its_names():
    # install looks each patched function up by name, so a rename fails here
    spec = importlib.util.spec_from_file_location("_partbounds_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = dict(vars(Enclosure))
    modules = {name: dict(vars(module)) for name, module in sys.modules.items()
               if name.startswith("partbounds")}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = {name for name, value in vars(Enclosure).items()
                   if value is not before.get(name)}
    finally:
        tracer.restore()
    assert {"__add__", "__mul__", "from_exact", "contains", "containment_margin"} <= patched
    assert all(vars(Enclosure)[name] is before[name] for name in patched)
    for name, attrs in modules.items():
        current = vars(sys.modules[name])
        assert all(current[attr] is value for attr, value in attrs.items()), name
