"""Bundled example data: presence, shape, and the documented headline numbers."""

import pytest

from contextdep.datasets import (data_path, drift_design, drift_error_model,
                                 neighbor_design, neighbor_example,
                                 two_context_example)


def test_data_path_rejects_unknown_names():
    with pytest.raises(ValueError):
        data_path("no_such_file.json")


def test_two_context_example_shape():
    dataset = two_context_example()
    assert dataset.contexts == ("c1", "c2")
    assert len(dataset.circuits) == 1
    record = dataset.circuits[0]
    assert record.circuit_id == "Gx"
    assert record.pool("c1") == (99, 101)
    assert record.pool("c2") == (131, 69)


def test_neighbor_example_shape():
    dataset = neighbor_example()
    assert dataset.contexts == ("idle", "driven")
    assert len(dataset.circuits) == 40
    measured = dataset.circuit("GhGsGsGsGsGh")
    assert measured.pool("idle") == (1022, 2)
    assert measured.pool("driven") == (738, 286)
    assert (dataset.counts.sum(axis=2) == 1024).all() and dataset.present.all()


def test_bundled_designs_consistent_with_data():
    drift = drift_design()
    assert drift.max_germ_power == 256
    neighbor = neighbor_design()
    from contextdep.gstgen import lgst_circuits
    ids = {c.text for c in lgst_circuits(neighbor)}
    dataset_ids = {r.circuit_id for r in neighbor_example().circuits}
    assert dataset_ids == ids


def test_drift_error_model_is_linear_in_period():
    error = drift_error_model()
    gaps = [
        error.epsilon(b, "Gx") - error.epsilon(a, "Gx")
        for a, b in zip(error.contexts, error.contexts[1:])
    ]
    assert all(g == pytest.approx(1e-3) for g in gaps)
