"""Every exported name resolves and every imported name is used, so
deletions leave no stale exports or imports, every name the benchmark's
tracer patches still exists, the partition table grows only through the
method it times, and no module-level memo grows without bound."""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import partbounds
from partbounds import estimates, exact, rademacher
from partbounds.cli import main
from partbounds.enclosure import Enclosure
from partbounds.exact import PartitionTable

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("module", [partbounds, estimates, rademacher], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_no_stale_imports():
    stale = []
    for path in sorted(Path(partbounds.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                exported = set(ast.literal_eval(node.value))
        stale += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used | exported]
    assert not stale


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


def test_table_grows_only_through_ensure(monkeypatch, capsys):
    # the tracer times PartitionTable.ensure by name, so every entry a table
    # gains must be added inside one call of it
    table = PartitionTable()
    monkeypatch.setattr(exact, "_default_table", table)
    original = PartitionTable.ensure
    grown = []

    def ensure(self, n):
        size = len(self)
        original(self, n)
        grown.append(len(self) - size)

    monkeypatch.setattr(PartitionTable, "ensure", ensure)
    assert table.p(40) == 37338 and grown == [40]
    assert table.p(41) == 44583 and grown == [40, 1]
    assert table.p(12) == 77 and grown == [40, 1, 0]
    exact.f_jn(60, 5)
    exact.delta_r_j_direct(70, 3, 4)
    exact.nu_k(80, 2)
    assert main(["exact", "90"]) == 0
    capsys.readouterr()
    assert len(table) == 91
    assert sum(grown) == len(table) - 1


# Keyed by precision alone, so they hold one entry per precision in use.
PRECISION_KEYED = {"partbounds.enclosure.constants", "partbounds.special.mp_context"}


def test_index_keyed_memos_are_bounded():
    memos = {}
    for info in pkgutil.iter_modules(partbounds.__path__, "partbounds."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == info.name:
                memos[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert PRECISION_KEYED <= set(memos)
    unbounded = [name for name, maxsize in memos.items()
                 if maxsize is None and name not in PRECISION_KEYED]
    assert not unbounded
