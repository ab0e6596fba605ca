"""Fuzzed dataset files through `contextdep analyze`, in process.

A valid dataset is mutated: values swapped for other JSON types, required
fields dropped, strings put where arrays belong, floats and booleans where
counts belong, and values nested in arrays or objects.  The command must
exit 0 only on a file that is still well-typed by the rules kept in
_references, and otherwise exit 1 with exactly one stderr line; it never
raises.  The loader accepts every well-typed file; analyze may still
reject one, for example when no circuit has every context of a
comparison.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from contextdep.cli import main
from contextdep.counts import load_dataset

from _references import dataset_file_is_valid

VALID = {
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
}

_SCALARS = (st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
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
def mutated_datasets(draw):
    obj = copy.deepcopy(VALID)
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


@settings(max_examples=400, deadline=None)
@given(obj=mutated_datasets())
def test_analyze_on_mutated_dataset_exits_cleanly(obj):
    with tempfile.TemporaryDirectory() as tmp:
        data, report = Path(tmp) / "data.json", Path(tmp) / "report.json"
        data.write_text(json.dumps(obj))
        if dataset_file_is_valid(obj):
            load_dataset(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["analyze", "--data", str(data), "--out", str(report)])
    assert code in (0, 1)
    if code == 0:
        assert dataset_file_is_valid(obj), obj
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


def test_unmutated_dataset_analyzes():
    assert dataset_file_is_valid(VALID)
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.json"
        data.write_text(json.dumps(VALID))
        assert main(["analyze", "--data", str(data), "--out", str(Path(tmp) / "r.json")]) == 0
