"""Every name a contextdep module exports in __all__ resolves and has a user
outside its module, every name a module imports is used, and every record
type keeps the record contract."""

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import contextdep
from contextdep.counts import CircuitRecord, ContextDataset
from contextdep.gstgen import CircuitSpec, GstDesign
from contextdep.llr import AggregateTestResult, TableTests, llr_tests
from contextdep.multitest import MultiTestOutcome, combined_procedure
from contextdep.pipeline import (CircuitAnalysis, Comparison, ComparisonPlan, ComparisonReport,
                                 PairwiseMatrices, pairwise_matrices, run_analysis)
from contextdep.qsim import ErrorModel, SimConfig

MODULES = sorted(m.name for m in pkgutil.iter_modules(contextdep.__path__, "contextdep."))
ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "contextdep").glob("*.py"))


def test_every_module_is_listed():
    assert "contextdep.counts" in MODULES and len(MODULES) >= 10


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert exported, f"{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"


def test_every_loader_is_fuzzed():
    # A loader reads files from outside the program, so each one exported
    # has a valid file and a mutation run in test_file_fuzz.
    from test_file_fuzz import KINDS

    loaders = set()
    for name in MODULES:
        module = importlib.import_module(name)
        loaders |= {getattr(module, attr) for attr in module.__all__ if attr.startswith("load_")}
    fuzzed = {loader for loader, _, _ in KINDS.values()}
    assert {f.__qualname__ for f in loaders} == {"load_dataset", "load_design",
                                                  "load_error_model", "load_plan",
                                                  "load_report"}
    assert loaders <= fuzzed, sorted(f.__qualname__ for f in loaders - fuzzed)


def test_every_export_is_used_outside_its_module():
    # The public surface is what a command, another module, a demo or a
    # README example uses: each exported name appears as a whole word in
    # another src/ module, the console script in pyproject.toml, README.md
    # or a demo.  The package root re-exports only such names.
    users = [path for path in SOURCES if path.name != "__init__.py"]
    users += [ROOT / "pyproject.toml", ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]
    texts = {path: path.read_text(encoding="utf-8") for path in users}
    unused = []
    for name in MODULES:
        own = ROOT / "src" / "contextdep" / f"{name.rsplit('.', 1)[1]}.py"
        for attr in importlib.import_module(name).__all__:
            word = re.compile(rf"\b{re.escape(attr)}\b")
            if not any(word.search(text) for path, text in texts.items() if path != own):
                unused.append(f"{name}.{attr}")
    assert not unused, unused
    exported = {attr for name in MODULES for attr in importlib.import_module(name).__all__}
    tree = ast.parse((ROOT / "src" / "contextdep" / "__init__.py").read_text(encoding="utf-8"))
    reexported = {alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert reexported <= exported, sorted(reexported - exported)


def test_sources_parse_at_the_declared_python_floor():
    # The interpreter running the tests may be newer than requires-python;
    # parsing with the floor's grammar catches syntax the floor lacks.
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$',
                      (ROOT / "pyproject.toml").read_text(), re.M)
    assert floor, "pyproject.toml declares no requires-python floor"
    assert len(SOURCES) == len(MODULES) + 1  # and __init__.py
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, int(floor.group(1))))


def test_every_import_is_used():
    # A name a module imports and never reads is left over from code that
    # moved; __init__.py imports only to re-export, so it is not checked.
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name).split(".")[0]: node.lineno
                                 for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: node.lineno for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                        if name not in used)
        assert not unused, unused


def _dataset(extra=0):
    counts = np.array([[[60, 40], [30 + extra, 70]], [[50, 50], [55, 45]]], dtype=object)
    return ContextDataset(("0", "1"), ("a", "b"), ("Gx", "Gy"), counts,
                          np.ones((2, 2), dtype=bool), ("Gx", "Gy"), (1, 1))


# Per record type, a builder of one small valid instance from fresh objects,
# arrays included: extra=0 builds the same value each call, extra=1 a value
# one field away from it.
RECORDS = {
    CircuitRecord: lambda extra: CircuitRecord("Gx", {"a": (60, 40), "b": (30 + extra, 70)},
                                               "Gx", 1),
    ContextDataset: _dataset,
    CircuitSpec: lambda extra: CircuitSpec("GxGy", 2 + extra),
    GstDesign: lambda extra: GstDesign(("Gx", "Gy"), ("{}", "Gx"), ("{}", "Gy"), ("Gx",),
                                       2 << extra),
    AggregateTestResult: lambda extra: AggregateTestResult(4.0 + extra, 1, 0.05),
    TableTests: lambda extra: llr_tests(_dataset(extra).counts),
    MultiTestOutcome: lambda extra: combined_procedure(llr_tests(_dataset(extra).counts),
                                                       ("Gx", "Gy"), 0.05),
    Comparison: lambda extra: Comparison("a_vs_b", ("a", "b"), 1.0 - extra / 2),
    ComparisonPlan: lambda extra: ComparisonPlan((Comparison("ab"[:1 + extra], ("a", "b"), 1),)),
    CircuitAnalysis: lambda extra: CircuitAnalysis("Gx", 4.0, 0.05, 0.01 + extra, 0.0125, 0.1,
                                                   None, None, False, False),
    ComparisonReport: lambda extra: run_analysis(_dataset(extra))[0],
    PairwiseMatrices: lambda extra: pairwise_matrices(run_analysis(_dataset(extra)), ("a", "b")),
    ErrorModel: lambda extra: ErrorModel({"a": {"Gx": 1e-3}}, 1e-4 * extra),
    SimConfig: lambda extra: SimConfig(100 + extra, 0, ("a", "b")),
}
GENERATED = ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__")


def test_every_record_type_has_an_example():
    found = {value for name in MODULES for value in vars(importlib.import_module(name)).values()
             if isinstance(value, type) and dataclasses.is_dataclass(value)}
    assert found == set(RECORDS)


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_record_contract(kind):
    record, same, other = RECORDS[kind](0), RECORDS[kind](0), RECORDS[kind](1)
    names = [f.name for f in dataclasses.fields(record)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, names[0], getattr(other, names[0]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, names[0])
    assert record == same and not record != same
    assert record != other and not record == other
    assert record != object()
    values = tuple(getattr(record, name) for name in names)
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    shown = dataclasses.make_dataclass(kind.__qualname__, names)
    assert repr(record) == repr(shown(*values))
    assert dataclasses.replace(record) == record
    # The methods are the package's own, not code dataclasses generate at import.
    for method in GENERATED:
        code = getattr(getattr(kind, method), "__code__", None)
        assert code is None or code.co_filename != "<string>", (kind, method)
