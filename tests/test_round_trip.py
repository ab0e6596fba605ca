"""Every writer saves a file its loader reads back equal.  No loader reads
circuit lists, so a saved list must rebuild its specs from the parsed JSON.

Each constructor owns the rules of its file format, so any object it
accepts must survive its writer and its loader unchanged.  The arguments
are drawn loosely, wrong types and out-of-range values included: an
argument the constructor rejects ends the example, and one it accepts
must round-trip.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from contextdep.counts import ContextDataset, load_dataset, save_dataset
from contextdep.gstgen import CircuitSpec, GstDesign, load_design, save_circuits
from contextdep.qsim import ErrorModel, load_error_model

from test_demos import import_demo

# The package reads designs and error models; the script that writes the
# bundled ones holds their writers.
_BUNDLED_DATA = import_demo("build_bundled_data")


def _mostly(good, bad):
    """Values of ``good``, or one time in ten of ``bad``."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 0 else good)


# Values of the wrong type or out of range for every field they are put in.
_WRONG = (st.integers(-2, -1) | st.floats() | st.booleans() | st.text(max_size=2)
          | st.sampled_from([2.0, 2.5, -0.0, 10**400, None]))
_TEXT = st.text(max_size=3)
_GATE = _mostly(st.sampled_from(["Gx", "Gy", "Gi"]), st.just("Gq"))  # Gq is no gate label
_GATES = st.lists(_GATE, min_size=1, max_size=3)
_CIRCUIT = _mostly(_GATES | _GATES.map("".join) | st.just("{}"),
                   st.sampled_from(["", "Gx{}"]) | st.lists(_GATE | _WRONG, max_size=2))
_CORE = _mostly(st.integers(0, 2**70), _WRONG)
_ROTATION = _mostly(st.sampled_from(["Gx", "Gy"]), _GATE)
_ANGLE = _mostly(st.floats(-1.0, 1.0) | st.integers(-2, 2), _WRONG | st.just(-10**400))


def _accepted(build, *args, **kwargs):
    """build(...), or None where the constructor rejects the arguments."""
    try:
        return build(*args, **kwargs)
    except ValueError:
        return None


@st.composite
def dataset_arguments(draw):
    labels = _mostly(st.lists(_TEXT, min_size=2, max_size=3, unique=True),
                     st.lists(_TEXT | st.integers(0, 2), max_size=3))
    outcomes, contexts = draw(labels), draw(labels)
    n = draw(st.integers(0, 3))
    shape = (n, len(contexts), len(outcomes))
    cells = n * len(contexts) * len(outcomes)
    counts = draw(st.lists(_mostly(st.integers(0, 2**70), _WRONG), min_size=cells,
                           max_size=cells))
    counts = np.array(counts, dtype=object).reshape(shape)
    present = np.array([[any(pool) for pool in row] for row in counts.tolist()],
                       dtype=bool).reshape(shape[:2])
    ids = _mostly(st.lists(st.text(min_size=1, max_size=3), min_size=n, max_size=n,
                           unique=True), st.lists(_TEXT, min_size=n, max_size=n))
    return dict(outcomes=outcomes, contexts=contexts, counts=counts, present=present,
                circuit_ids=draw(ids),
                specs=draw(st.lists(_mostly(st.none() | _TEXT, _WRONG), min_size=n,
                                    max_size=n)),
                core_lengths=draw(st.lists(st.none() | _CORE, min_size=n, max_size=n)),
                description=draw(_mostly(st.none() | _TEXT, _WRONG)))


@settings(max_examples=300, deadline=None)
@given(arguments=dataset_arguments())
def test_dataset_round_trip(tmp_path_factory, arguments):
    dataset = _accepted(ContextDataset, **arguments)
    if dataset is not None:
        path = tmp_path_factory.mktemp("dataset") / "dataset.json"
        save_dataset(dataset, path)
        assert load_dataset(path) == dataset


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(st.tuples(_CIRCUIT, _CORE), max_size=4))
def test_circuit_list_round_trip(tmp_path_factory, entries):
    circuits = [spec for gates, core in entries
                if (spec := _accepted(CircuitSpec, gates, core)) is not None]
    path = tmp_path_factory.mktemp("circuits") / "circuits.json"
    save_circuits(circuits, path)
    entries = json.loads(path.read_text(encoding="utf-8"))
    assert [CircuitSpec(e["spec"], e["core_length"]) for e in entries] == circuits


@settings(max_examples=300, deadline=None)
@given(contexts=st.dictionaries(_mostly(_TEXT, st.just("static_epsilon")),
                                st.dictionaries(_ROTATION, _ANGLE, max_size=2), max_size=3),
       static=_ANGLE)
def test_error_model_round_trip(tmp_path_factory, contexts, static):
    error = _accepted(ErrorModel, contexts, static)
    if error is not None:
        path = tmp_path_factory.mktemp("error_model") / "error_model.json"
        _BUNDLED_DATA.save_error_model(error, path)
        assert load_error_model(path) == error


@settings(max_examples=300, deadline=None)
@given(gates=_mostly(_GATES.filter(lambda gates: len(set(gates)) == len(gates)),
                     st.lists(_GATE | _WRONG, max_size=3)),
       preps=st.lists(_CIRCUIT, min_size=1, max_size=2),
       meas=st.lists(_CIRCUIT, min_size=1, max_size=2),
       germs=st.lists(_CIRCUIT, max_size=2),
       power=_mostly(st.none() | st.sampled_from([1, 2, 4, 2**16]), _WRONG | st.just(2**17)))
def test_design_round_trip(tmp_path_factory, gates, preps, meas, germs, power):
    design = _accepted(GstDesign, gates, preps, meas, germs, power)
    if design is not None:
        path = tmp_path_factory.mktemp("design") / "design.json"
        _BUNDLED_DATA.save_design(design, path)
        assert load_design(path) == design
