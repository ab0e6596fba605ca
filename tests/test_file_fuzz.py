"""Fuzzed input files of every kind through the command that reads them.

A valid file of each kind is mutated: values swapped for other JSON types,
fields dropped, strings put where arrays belong, floats and booleans where
integers belong, values nested in arrays or objects, and array items
repeated.  Each command in test_cli's FILE_COMMANDS table runs in process
on the file.  A run must exit 0, or exit 1 with exactly one stderr line;
it never raises.  _references has the rules of each kind: a
file the run accepts obeys them, and the loader accepts every file that
does.  A command may still reject a well-typed file, for example a plan
naming a context the dataset lacks.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextdep.cli import main
from contextdep.counts import load_dataset
from contextdep.gstgen import load_design
from contextdep.pipeline import load_plan, load_report
from contextdep.qsim import load_error_model

from _references import (dataset_file_is_valid, design_file_is_valid, error_model_file_is_valid,
                         load_dataset_reference, plan_file_is_valid, report_file_is_valid)
from test_cli import FILE_COMMANDS, _mutated_report

# Each kind of input file: its loader, a valid file, and its rules.
KINDS = {
    "dataset": (load_dataset, {
        "format_version": "1.0",
        "description": "three contexts, one circuit without 'c'",
        "outcomes": ["0", "1"],
        "contexts": ["a", "b", "c"],
        "circuits": [
            {"id": "Gx", "spec": "Gx", "core_length": 1,
             "counts": {"a": [5, 3], "b": [4, 4], "c": [2, 6]}},
            {"id": "GxGx", "spec": "GxGx", "core_length": 2,
             "counts": {"a": [7, 1], "b": [3, 5]}},
        ],
    }, dataset_file_is_valid),
    "design": (load_design, {
        "gates": ["Gx", "Gy"], "prep_fiducials": ["{}", ["Gx"]],
        "meas_fiducials": ["{}", "Gy"], "germs": ["Gx", "GxGy"], "max_germ_power": 4,
    }, design_file_is_valid),
    "error_model": (load_error_model, {
        "t1": {"Gx": 0.0, "Gy": 0.001}, "t2": {"Gx": 0.01}, "static_epsilon": 0.001,
    }, error_model_file_is_valid),
    "plan": (load_plan, {"comparisons": [
        {"id": "c1_vs_c2", "contexts": ["c1", "c2"], "weight": 1.0},
    ]}, plan_file_is_valid),
    "report": (load_report, _mutated_report(lambda entry: [entry]), report_file_is_valid),
}

# Huge integers among them: a max_germ_power of 2**40 must be one error
# line, not an attempt to build circuits of 2**40 gates.
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 12)
            | st.sampled_from([2 ** 40, -2 ** 40, 2 ** 64, 10 ** 30]) | st.floats()
            | st.sampled_from([2.0, 1e2, -0.0]) | st.text(max_size=3))
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=2), inner, max_size=2),
                       max_leaves=6)


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


def _node(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def mutated(draw, valid):
    obj = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        node = _node(obj, path)
        action = draw(st.sampled_from(["replace", "drop", "stringify", "wrap", "repeat"]))
        if action == "drop" and path:
            parent = _node(obj, path[:-1])
            del parent[path[-1]]
            continue
        if action == "repeat" and isinstance(node, list) and node:
            node.append(copy.deepcopy(draw(st.sampled_from(node))))
            continue
        if action == "stringify":
            new = "".join(map(str, node)) if isinstance(node, (list, dict)) else str(node)
        elif action == "wrap":
            new = draw(st.sampled_from([[node], {"value": node}]))
        else:
            new = draw(_VALUES)
        if path:
            _node(obj, path[:-1])[path[-1]] = new
        else:
            obj = new
    return obj


def _run(command, loader, path: Path):
    """(accepted, stderr) of the command, or of the loader if it is None, on the file."""
    if command is None:
        try:
            loader(path)
        except ValueError as exc:
            return False, f"error: {exc}\n"
        return True, ""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([arg.format(file=path, tmp=path.parent) for arg in command])
    assert code in (0, 1), err.getvalue()
    return code == 0, err.getvalue()


@pytest.mark.parametrize("kind, command", FILE_COMMANDS)
@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_mutated_file_exits_cleanly(kind, command, data):
    loader, valid, rules = KINDS[kind]
    obj = data.draw(mutated(valid))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.json"
        path.write_text(json.dumps(obj))
        if rules(obj):
            loader(path)
        accepted, err = _run(command, loader, path)
    if accepted:
        assert rules(obj), obj
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("kind, command", FILE_COMMANDS)
def test_unmutated_file_is_accepted(kind, command):
    loader, valid, rules = KINDS[kind]
    assert rules(valid)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.json"
        path.write_text(json.dumps(valid))
        assert _run(command, loader, path) == (True, "")


@pytest.mark.parametrize("comparisons", [lambda entry: [],
                                         lambda entry: [entry, copy.deepcopy(entry)]],
                         ids=["no comparisons", "repeated comparison_id"])
def test_report_rules_need_distinct_comparisons(comparisons):
    """The report rules and the loader both refuse a file without
    comparisons and one that repeats a comparison_id."""
    loader, valid, rules = KINDS["report"]
    obj = comparisons(valid[0])
    assert not rules(obj)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        path.write_text(json.dumps(obj))
        accepted, err = _run(None, loader, path)
    assert not accepted and err.count("\n") == 1


def _load_outcome(loader, path: Path):
    """The loaded dataset, or the type and message of what the loader raised."""
    try:
        return loader(path)
    except Exception as exc:  # a wrong exception type must fail the comparison
        return type(exc), str(exc)


_DATASET = KINDS["dataset"][1]


@settings(max_examples=300, deadline=None)
@given(obj=mutated(_DATASET))
@example(obj=_DATASET)  # GxGx has no pool in c
@example(obj={**_DATASET, "contexts": ["a", "b"]})  # Gx's pool in c is unknown
@example(obj={**_DATASET, "outcomes": ["0", "1", "2"]})  # every pool is too narrow
def test_dataset_loader_matches_per_circuit_reference(obj):
    """The column-pass loader against the per-circuit loop it replaced: the
    same dataset from a valid file, the same exception type and message
    from a faulty one."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.json"
        path.write_text(json.dumps(obj))
        assert _load_outcome(load_dataset, path) == _load_outcome(load_dataset_reference, path)
