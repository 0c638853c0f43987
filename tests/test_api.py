"""Every exported name resolves and every imported name is used, so
deletions leave no stale exports or imports, no package function asserts,
every name the benchmark's tracer patches still exists, no module but
enclosure names its interval helpers, the partition table
grows only through the method it times, and no module-level memo grows
without bound."""

import ast
import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import partbounds
from partbounds import estimates, exact, fixed, rademacher
from partbounds.cli import main
from partbounds.enclosure import PRECISION_MEMO_MAXSIZE, Enclosure, constants
from partbounds.exact import PartitionTable
from partbounds.fixed import WIDTH_MEMO_MAXSIZE
from partbounds.inequalities import _power_sums
from partbounds.special import mp_context

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


def test_no_assert_in_package_functions():
    # python -O strips assert statements, so a check a function relies on
    # must record a failure or raise; a module-level invariant may assert
    found = set()
    for path in sorted(Path(partbounds.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                          if isinstance(inner, ast.Assert)}
    assert not found


def _package_bindings():
    # every attribute of every package module, and of every class defined in
    # one, by identity
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "partbounds" or name.startswith("partbounds."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    seen.update({(value, a): v for a, v in vars(value).items()})
    return seen


def test_tracer_patches_and_restores_its_names():
    # install looks each patched name up by getattr, so a rename fails here
    spec = importlib.util.spec_from_file_location("_partbounds_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = _package_bindings()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        during = _package_bindings()
    finally:
        tracer.restore()
    patched = {key for key, value in during.items() if value is not before.get(key)}
    # every Enclosure method the tracer names, arithmetic and decisions:
    # collapse-131 alone calls the arithmetic in the package now, so a
    # deletion of one of these would otherwise fail only the benchmark
    assert {(Enclosure, name) for name in (
        "__add__", "__neg__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__",
        "sqrt", "exp", "plus_minus", "from_exact", "from_bounds", "pi", "contains",
        "containment_margin")} <= patched
    assert (PartitionTable, "ensure") in patched
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_interval_helpers_named_only_in_enclosure():
    # outside the enclosure module the package builds no interval from
    # libmp's padded exp and pi or from the raw-pair arithmetic: every
    # estimate and margin is integer ends rounded once (_dyadic_ends,
    # _ratio_ends), and collapse-131 calls Enclosure's own operators
    named = re.compile(r"\b(_TRANSCENDENTAL_SLACK|_widen_raw|_exp_ends|_int_ends|_exact_ends"
                       r"|_(add|sub|mul|div|sqrt)_ends)\b")
    found = [f"{path.name}:{n}"
             for path in sorted(Path(partbounds.__file__).parent.glob("*.py"))
             if path.name != "enclosure.py"
             for n, line in enumerate(path.read_text().splitlines(), 1) if named.search(line)]
    assert not found


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


def test_index_keyed_memos_are_bounded():
    memos = {}
    for info in pkgutil.iter_modules(partbounds.__path__, "partbounds."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == info.name:
                memos[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert {"partbounds.enclosure.constants", "partbounds.special.mp_context"} <= set(memos)
    unbounded = [name for name, maxsize in memos.items() if maxsize is None]
    assert not unbounded


@pytest.mark.parametrize(
    "memo, bound, query",
    [
        (constants, PRECISION_MEMO_MAXSIZE, lambda prec: Enclosure.pi(prec)),
        (mp_context, PRECISION_MEMO_MAXSIZE, mp_context),
        (_power_sums, PRECISION_MEMO_MAXSIZE, _power_sums),
        # h_error reads the decay constants at one width per precision
        (fixed.at_width, WIDTH_MEMO_MAXSIZE, lambda prec: rademacher.h_error(20, prec)),
    ],
    ids=["constants", "mp_context", "_power_sums", "fixed.at_width"],
)
def test_precision_memo_size_is_bounded(memo, bound, query):
    # more distinct precisions than the bound, as a library caller may use
    assert memo.cache_info().maxsize == bound
    for prec in range(16, 16 + bound + 10):
        query(prec)
        assert memo.cache_info().currsize <= bound
    assert memo.cache_info().currsize == bound
