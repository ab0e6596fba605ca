"""Simulator: unitaries, probabilities, error models, reproducible sampling."""

import dataclasses
import hashlib
import json
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from contextdep import qsim
from contextdep.cli import main
from contextdep.datasets import drift_design, drift_error_model
from contextdep.gstgen import (_GATE_LABELS, EMPTY_CIRCUIT_TEXT, MAX_GERM_POWER, CircuitSpec,
                               GstDesign, circuit_to_text, lsgst_circuits)
from contextdep.qsim import (MAX_SHOTS, ErrorModel, SimConfig, _cell_uniforms, _draw_cells,
                             _walk_probabilities, experiment_probabilities,
                             gate_model_for_context, ideal_gate_model, load_error_model,
                             rotation_unitary, run_drift_experiment, sample_experiment)

from _references import (cell_uniform_reference, circuit_probabilities_reference,
                         run_trie_reference, sample_counts)
from test_demos import import_demo

_BUNDLED_DATA = import_demo("build_bundled_data")


def one_circuit_probabilities(circuit, model):
    """(p(0), p(1)) of one circuit, its text or its labels, under one gate
    model: the walk over one circuit and one model."""
    return _walk_probabilities([CircuitSpec(circuit).text], [model])[0, 0]


class TestGateModel:
    def test_every_label_circuit_text_may_use_has_a_unitary(self):
        assert set(ideal_gate_model()) == _GATE_LABELS

    def test_all_gates_unitary(self):
        for label, matrix in ideal_gate_model().items():
            assert np.allclose(matrix.conj().T @ matrix, np.eye(2), atol=1e-14), label

    def test_rotation_unitary_closed_form(self):
        theta = 0.3
        u = rotation_unitary("Gx", theta)
        expected = np.array([
            [math.cos(theta / 2), -1j * math.sin(theta / 2)],
            [-1j * math.sin(theta / 2), math.cos(theta / 2)],
        ])
        assert np.allclose(u, expected, atol=1e-15)

    def test_quarter_turns_square_to_half_turns(self):
        model = ideal_gate_model()
        x_half = rotation_unitary("Gx", math.pi)
        assert np.allclose(model["Gx"] @ model["Gx"], x_half, atol=1e-15)

    def test_phase_gate_squares_to_z(self):
        model = ideal_gate_model()
        z = np.diag([1.0, -1.0])
        assert np.allclose(model["Gs"] @ model["Gs"], z, atol=1e-15)


class TestCircuitProbabilities:
    def test_ideal_values(self):
        model = ideal_gate_model()
        assert one_circuit_probabilities((), model) == pytest.approx([1.0, 0.0])
        assert one_circuit_probabilities(("Gx",), model) == pytest.approx([0.5, 0.5])
        assert one_circuit_probabilities(("Gx", "Gx"), model) == pytest.approx(
            [0.0, 1.0], abs=1e-15)
        assert one_circuit_probabilities(("Gh",), model) == pytest.approx([0.5, 0.5])
        # H Z H = X flips the qubit; H S^4 H is the identity.
        assert one_circuit_probabilities(("Gh", "Gs", "Gs", "Gh"), model) == pytest.approx(
            [0.0, 1.0], abs=1e-15)
        assert one_circuit_probabilities(
            ("Gh", "Gs", "Gs", "Gs", "Gs", "Gh"), model) == pytest.approx(
            [1.0, 0.0], abs=1e-15)

    def test_gate_model_without_a_used_label_is_an_error(self):
        model = {"Gx": ideal_gate_model()["Gx"]}
        with pytest.raises(ValueError, match=r"^no unitary for gate label 'Gy'$"):
            one_circuit_probabilities(("Gx", "Gy"), model)

    def test_over_rotated_quarter_turn(self):
        epsilon = 0.05 * math.pi
        error = ErrorModel(context_overrotations={"c": {"Gx": epsilon}})
        model = gate_model_for_context(error, "c")
        probs = one_circuit_probabilities(("Gx",), model)
        expected = math.cos(0.5 * (0.5 * math.pi + epsilon)) ** 2
        assert probs[0] == pytest.approx(expected, rel=1e-12)
        assert probs[0] == pytest.approx(0.4217827674798846, rel=1e-12)

    def test_accepts_circuit_spec(self):
        model = ideal_gate_model()
        spec = CircuitSpec(text=("Gx", "Gx"))
        assert one_circuit_probabilities(spec.text, model) == pytest.approx(
            [0.0, 1.0], abs=1e-15)

    def test_run_compression_matches_naive_product(self):
        error = ErrorModel(context_overrotations={"c": {"Gx": 0.01, "Gy": -0.02}})
        model = gate_model_for_context(error, "c")
        gates = ("Gx",) * 7 + ("Gy",) * 3 + ("Gh",) + ("Gx",) * 5 + ("Gs", "Gs")
        total = np.eye(2, dtype=complex)
        for g in gates:
            total = model[g] @ total
        naive = np.abs(total[:, 0]) ** 2
        assert one_circuit_probabilities(gates, model) == pytest.approx(
            list(naive), abs=1e-13)

    def test_germ_power_equals_matrix_power(self):
        error = ErrorModel(context_overrotations={"c": {"Gx": 0.003, "Gy": 0.003}})
        model = gate_model_for_context(error, "c")
        germ = ("Gx", "Gx", "Gy")
        block = model["Gy"] @ model["Gx"] @ model["Gx"]
        for reps in (1, 4, 85):
            direct = np.linalg.matrix_power(block, reps)
            probs = np.abs(direct[:, 0]) ** 2
            assert one_circuit_probabilities(germ * reps, model) == pytest.approx(
                list(probs), abs=1e-12)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="Gz"):
            one_circuit_probabilities(("Gz",), ideal_gate_model())

    def test_norm_loss_raises_runtime_error(self):
        broken = dict(ideal_gate_model())
        broken["Gx"] = 0.5 * np.eye(2, dtype=complex)
        with pytest.raises(RuntimeError, match="normalization"):
            one_circuit_probabilities(("Gx",), broken)

    def test_deepest_circuits_stay_normalized(self):
        # |p0 + p1 - 1| grows by up to eps per gate, to 9.2e-12 at 65,542
        # gates: a fixed 1e-12 bound once failed every germ power from 8192.
        design = dataclasses.replace(drift_design(), max_germ_power=MAX_GERM_POWER)
        deepest = sorted((c for c in lsgst_circuits(design) if c.core_length == MAX_GERM_POWER),
                         key=lambda c: c.length)[-4:]
        deep_germs = ErrorModel({"c1": {"Gx": 0.0, "Gy": 0.0}, "c2": {"Gx": 1e-4, "Gy": 1e-4}},
                                static_epsilon=1e-3)
        for error in (drift_error_model(), deep_germs):
            probs = experiment_probabilities(deepest, error, error.contexts)
            assert probs.shape == (4, len(error.contexts), 2)
            assert np.abs(probs.sum(axis=2) - 1.0).max() < 1e-10


@settings(max_examples=80, deadline=None)
@given(gates=st.lists(st.sampled_from(["Gi", "Gx", "Gy", "Gh", "Gs"]),
                      min_size=0, max_size=20).map(tuple))
def test_probabilities_always_normalized(gates):
    probs = one_circuit_probabilities(gates, ideal_gate_model())
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(probs >= -1e-15)


# Circuits built from a few stems cut at random points and extended: they
# share prefixes, some cut inside a run of equal gates (GxGx then Gy beside
# GxGxGx), and equal circuits and the empty circuit occur.
GATE_RUNS = st.lists(st.tuples(st.sampled_from(["Gi", "Gx", "Gy", "Gh", "Gs"]),
                               st.integers(min_value=1, max_value=4)),
                     max_size=5).map(lambda runs: tuple(g for g, r in runs for _ in range(r)))


@st.composite
def gate_lists(draw, runs=GATE_RUNS):
    stems = draw(st.lists(runs, min_size=1, max_size=4))
    circuits = [()]
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        stem = draw(st.sampled_from(stems))
        cut = draw(st.integers(min_value=0, max_value=len(stem)))
        circuits.append(stem[:cut] + draw(runs))
    return draw(st.permutations(circuits))


def circuit_lists():
    return gate_lists().map(lambda circuits: [CircuitSpec(text=g) for g in circuits])


@st.composite
def error_models(draw):
    """1-6 contexts; angles come from a small set, so some contexts coincide."""
    angle = st.sampled_from([0.0, 1e-3, 0.02, -0.3])
    n_contexts = draw(st.integers(min_value=1, max_value=6))
    table = {f"c{i}": {"Gx": draw(angle), "Gy": draw(angle)} for i in range(n_contexts)}
    return ErrorModel(context_overrotations=table, static_epsilon=draw(angle))


@settings(max_examples=150, deadline=None)
@given(circuits=circuit_lists(), error=error_models())
def test_shared_prefix_walk_is_bit_identical_to_per_circuit_products(circuits, error):
    contexts = error.contexts
    walked = []

    def walk(gates, models):
        walked.append(len(models))
        return _walk_probabilities(gates, models)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qsim, "_walk_probabilities", walk)
        table = experiment_probabilities(circuits, error, contexts)
    models = [gate_model_for_context(error, c) for c in contexts]
    reference = [[circuit_probabilities_reference(spec.gates, model) for model in models]
                 for spec in circuits]
    assert table.shape == (len(circuits), len(contexts), 2)
    assert table.tobytes() == np.array(reference).tobytes()
    for spec, model in zip(circuits, models):
        assert (one_circuit_probabilities(spec.text, model).tobytes()
                == circuit_probabilities_reference(spec.gates, model).tobytes())
    # Equal-angle contexts share one model: one walk, one model per distinct
    # angle set, and equal columns.
    angles = {tuple(error.epsilon(c, g) for g in ("Gx", "Gy")) for c in contexts}
    assert walked == [len(angles)]
    for j, a in enumerate(contexts):
        for k, b in enumerate(contexts):
            if all(error.epsilon(a, g) == error.epsilon(b, g) for g in ("Gx", "Gy")):
                assert table[:, j].tobytes() == table[:, k].tobytes()


def test_prefix_ending_inside_a_run_is_not_shared():
    """GxGx then Gy shares no run with GxGxGx: Gx^3 is one matrix power."""
    error = ErrorModel(context_overrotations={"a": {"Gx": 0.0123, "Gy": -0.0456}})
    model = gate_model_for_context(error, "a")
    circuits = [CircuitSpec(text=g) for g in (
        ("Gx", "Gx", "Gy"), ("Gx", "Gx", "Gx"), ("Gx", "Gx"), ("Gx", "Gx", "Gx", "Gy"))]
    table = experiment_probabilities(circuits, error, ("a",))
    for spec, row in zip(circuits, table):
        assert row[0].tobytes() == circuit_probabilities_reference(spec.gates, model).tobytes()


# Labels that are prefixes of one another: the texts GxGxx and GxGx share
# the characters GxGx but only the label Gx, and GxGxGxx shares no run with
# GxGxGx.  No checked circuit text holds these labels, but the walk reads
# any label that is 'G' plus a G-free suffix.
BOUNDARY_LABELS = ("Gx", "Gxx", "Gy", "Gxy")
BOUNDARY_RUNS = st.lists(st.tuples(st.sampled_from(BOUNDARY_LABELS),
                                   st.integers(min_value=1, max_value=4)),
                         max_size=5).map(lambda runs: tuple(g for g, r in runs for _ in range(r)))


@st.composite
def boundary_models(draw):
    """1-3 gate models, each label a rotation by a drawn angle about x or y."""
    angle = st.floats(min_value=-3.0, max_value=3.0)
    return [{label: rotation_unitary(draw(st.sampled_from(["Gx", "Gy"])), draw(angle))
             for label in BOUNDARY_LABELS}
            for _ in range(draw(st.integers(min_value=1, max_value=3)))]


@settings(max_examples=150, deadline=None)
@given(circuits=gate_lists(BOUNDARY_RUNS), models=boundary_models())
@example(circuits=[("Gx", "Gxx"), ("Gx", "Gx"), ("Gx", "Gx", "Gxx"), ("Gx", "Gx", "Gx"),
                   ("Gxx", "Gxx", "Gx"), ("Gxx", "Gxx"), ("Gxy", "Gx"), ("Gx", "Gy"), ()],
         models=[{label: rotation_unitary("Gx", 0.1 * i + 0.05)
                  for i, label in enumerate(BOUNDARY_LABELS)}])
def test_walk_shares_only_whole_labels_and_runs(circuits, models):
    table = _walk_probabilities([circuit_to_text(gates) for gates in circuits], models)
    reference = [[circuit_probabilities_reference(gates, model) for model in models]
                 for gates in circuits]
    assert table.tobytes() == np.array(reference).tobytes()


def test_prefix_ending_inside_a_label_is_not_shared():
    """GxGxGxx shares the run Gx^2 with GxGxGx only as characters: Gx^3 is one power."""
    model = {label: rotation_unitary("Gy" if "y" in label else "Gx", 0.3 + 0.2 * i)
             for i, label in enumerate(BOUNDARY_LABELS)}
    texts = ["GxGxGxx", "GxGxGx", "GxGx", "GxGxx", "GxxGx", "Gxx"]
    table = _walk_probabilities(texts, [model])
    gates = [tuple(re.findall("G[^G]*", text)) for text in texts]
    for labels, row in zip(gates, table):
        assert row[0].tobytes() == circuit_probabilities_reference(labels, model).tobytes()


class _CountingRun:
    """Stands in for qsim._RUN and records the text of every findall."""

    def __init__(self, pattern):
        self.pattern, self.texts = pattern, []

    def findall(self, text):
        self.texts.append(text)
        return self.pattern.findall(text)


def _tokenized_suffixes(texts):
    """The texts the walk over ``texts`` runs the run regex on."""
    counter = _CountingRun(qsim._RUN)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qsim, "_RUN", counter)
        _walk_probabilities(texts, [ideal_gate_model()])
    return counter.texts


def test_repeated_suffix_is_read_once_and_gives_the_reference_products():
    """Words whose shared prefix ends on, inside and next to a run of Gx,
    beside unshared suffixes that recur at other offsets: GxGy at 0, 4 and
    6, GhGxGy at 0 and 6.  Each later copy reuses the first one's run
    numbers and run ends relative to its start."""
    texts = ["GyGxGy", "GxGxGy", "GxGy", "GyGyGxGy", "GxGxGxGy", "GxGxGhGxGy", "GxGhGxGy",
             "GhGxGy", "GyGyGhGxGy", "GxGxGx", "GxGxGxGhGxGy", "GxGxGxGhGxGyGy",
             "GhGhGyGhGxGy", "GhGhGyGxGy"]
    tokenized = _tokenized_suffixes(texts)
    assert len(tokenized) == len(set(tokenized)) == len(texts) - 3
    error = ErrorModel(context_overrotations={"a": {"Gx": 0.0123, "Gy": -0.0456},
                                              "b": {"Gx": -0.031, "Gy": 0.027}})
    models = [gate_model_for_context(error, c) for c in error.contexts]
    table = _walk_probabilities(texts, models)
    reference = [[circuit_probabilities_reference(CircuitSpec(text).gates, model)
                  for model in models] for text in texts]
    assert table.tobytes() == np.array(reference).tobytes()


def test_each_distinct_unshared_suffix_is_tokenized_once():
    """On the bundled drift design's 1,405 circuits the regex runs over 146
    distinct unshared suffixes, once each."""
    circuits = lsgst_circuits(drift_design())
    tokenized = _tokenized_suffixes([c.text for c in circuits])
    assert len(circuits) == 1405
    assert len(tokenized) == len(set(tokenized)) == 146


@settings(max_examples=200, deadline=None)
@given(stem=st.text("Gxy", max_size=300), tails=st.lists(st.text("Gxy", max_size=20),
                                                        min_size=2, max_size=2))
def test_common_prefix_of_words_with_a_shared_stem(stem, tails):
    a, b = stem + tails[0], stem + tails[1]
    assert qsim._common_prefix(a, b) == len(os.path.commonprefix([a, b]))


def _trie_size_against_reference(texts):
    """Checks qsim._run_trie against the list-based reference; returns its node count."""
    words = ["" if text == EMPTY_CIRCUIT_TEXT else text for text in texts]
    trie, reference = qsim._run_trie(words), run_trie_reference(words)
    for got, expected in zip(trie[:4], reference[:4]):
        assert got.dtype == np.intp
        assert got.tolist() == expected
    assert dict(trie[4]) == dict(reference[4])
    return len(trie[0])


@settings(max_examples=150, deadline=None)
@given(circuits=gate_lists(BOUNDARY_RUNS))
@example(circuits=[("Gx", "Gxy"), ("Gy",), ("Gx", "Gxy")])
@example(circuits=[()])
@example(circuits=[("Gx", "Gx"), ("Gx", "Gx", "Gx", "Gxx"), ("Gx",), ("Gx", "Gx", "Gxx")])
@example(circuits=[])
def test_run_trie_equals_the_list_based_reference(circuits):
    """Duplicate words, the empty word, words that are prefixes of others
    and no words at all give the reference's nodes, numbered alike."""
    _trie_size_against_reference([circuit_to_text(gates) for gates in circuits])


@pytest.mark.parametrize("max_germ_power, nodes", [(None, 5837), (2048, 38651)])
def test_run_trie_of_the_bundled_designs_equals_the_reference(max_germ_power, nodes):
    """The bundled drift design, and it with germ powers to 2048, keep
    their node counts (root included), so a loss of sharing fails here."""
    design = drift_design()
    if max_germ_power:
        design = dataclasses.replace(design, max_germ_power=max_germ_power)
    assert _trie_size_against_reference([c.text for c in lsgst_circuits(design)]) == nodes


def test_deep_germ_session_dataset_bytes_are_unchanged(tmp_path):
    """Germ powers to 2048 on the drift fiducials and germs: the simulated
    dataset's digest, pinned since the sampler became the package's own
    inverse-CDF draw, with its 4,034 cells at 100 shots."""
    design = dataclasses.replace(drift_design(), max_germ_power=2048)
    _BUNDLED_DATA.save_design(design, tmp_path / "design.json")
    (tmp_path / "model.json").write_text(json.dumps(
        {"c1": {"Gx": 0.0, "Gy": 0.0}, "c2": {"Gx": 1e-4, "Gy": 1e-4},
         "static_epsilon": 1e-3}))
    assert main(["simulate", "--design", str(tmp_path / "design.json"),
                 "--error-model", str(tmp_path / "model.json"), "--shots", "100",
                 "--seed", "0", "--out", str(tmp_path / "data.json")]) == 0
    digest = hashlib.sha256((tmp_path / "data.json").read_bytes()).hexdigest()
    assert digest == "e36a7004776ef613e0e0f85f3340130c73d117d5a31729c68dcaf99dcb54294c"


class TestErrorModel:
    def test_epsilon_sums_static_and_context(self):
        error = ErrorModel(context_overrotations={"c": {"Gx": 0.002}},
                           static_epsilon=0.001)
        assert error.epsilon("c", "Gx") == pytest.approx(0.003)
        assert error.epsilon("c", "Gy") == pytest.approx(0.001)

    def test_only_rotation_gates_take_errors(self):
        with pytest.raises(ValueError, match="Gh"):
            ErrorModel(context_overrotations={"c": {"Gh": 0.01}})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ErrorModel(context_overrotations={"c": {"Gx": math.nan}})
        with pytest.raises(ValueError):
            ErrorModel(context_overrotations={"c": {}}, static_epsilon=math.inf)

    @pytest.mark.parametrize("angle", ["0.1", True, None, [0.1], 10**400, -math.inf])
    def test_angle_follows_the_file_rules(self, angle):
        # An angle is a finite int or float, never a bool: "0.1" once
        # simulated 0.1 rad and True 1.0 rad.
        with pytest.raises(ValueError, match=r"^context 'c', gate 'Gx': epsilon ") as exc:
            ErrorModel(context_overrotations={"c": {"Gx": angle}})
        assert "\n" not in str(exc.value)
        with pytest.raises(ValueError, match=r"^static_epsilon ") as exc:
            ErrorModel(context_overrotations={"c": {}}, static_epsilon=angle)
        assert "\n" not in str(exc.value)

    def test_integer_angles_accepted(self):
        error = ErrorModel(context_overrotations={"c": {"Gx": 0}}, static_epsilon=1)
        assert error.epsilon("c", "Gx") == 1.0

    def test_unknown_context(self):
        error = ErrorModel(context_overrotations={"c": {}})
        with pytest.raises(ValueError, match="'d'"):
            error.epsilon("d", "Gx")

    def test_static_error_leaves_non_rotation_gates_alone(self):
        error = ErrorModel(context_overrotations={"c": {}}, static_epsilon=0.1)
        model = gate_model_for_context(error, "c")
        ideal = ideal_gate_model()
        for label in ("Gi", "Gh", "Gs"):
            assert np.allclose(model[label], ideal[label], atol=1e-15)
        assert not np.allclose(model["Gx"], ideal["Gx"], atol=1e-6)

    def test_bundled_drift_model_shape(self):
        error = drift_error_model()
        assert error.contexts == ("t1", "t2", "t3", "t4", "t5")
        assert error.static_epsilon == pytest.approx(1e-3)
        for i, context in enumerate(error.contexts):
            assert error.epsilon(context, "Gx") == pytest.approx((i + 1) * 1e-3)
            assert error.epsilon(context, "Gy") == pytest.approx((i + 1) * 1e-3)


class TestErrorModelFiles:
    def test_round_trip(self, tmp_path):
        error = ErrorModel(
            context_overrotations={"a": {"Gx": 0.001}, "b": {"Gx": 0.02, "Gy": -0.01}},
            static_epsilon=5e-4,
        )
        path = tmp_path / "error.json"
        _BUNDLED_DATA.save_error_model(error, path)
        assert load_error_model(path) == error

    def test_model_without_contexts_is_rejected(self):
        # It once saved a file that load_error_model refused.
        with pytest.raises(ValueError, match="^no context entries$"):
            ErrorModel({})

    def test_static_epsilon_is_not_a_context(self):
        # It once saved a file whose reserved key swallowed the context.
        with pytest.raises(ValueError, match="'static_epsilon' names the static angle"):
            ErrorModel({"static_epsilon": {"Gx": 0.1}, "b": {"Gy": 0.2}})

    def test_load_errors(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text('{"static_epsilon": 0.1}')
        with pytest.raises(ValueError, match="no context entries"):
            load_error_model(empty)
        broken = tmp_path / "broken.json"
        broken.write_text("[]")
        with pytest.raises(ValueError, match="object"):
            load_error_model(broken)


class TestSampling:
    def test_sample_counts_total_and_determinism(self):
        counts_a = sample_counts([0.3, 0.7], 1000, 11, "Gx", 0)
        counts_b = sample_counts([0.3, 0.7], 1000, 11, "Gx", 0)
        assert counts_a == counts_b
        assert sum(counts_a) == 1000

    def test_streams_differ_across_cells(self):
        base = sample_counts([0.5, 0.5], 400, 11, "Gx", 0)
        other_seed = sample_counts([0.5, 0.5], 400, 12, "Gx", 0)
        other_circuit = sample_counts([0.5, 0.5], 400, 11, "Gy", 0)
        other_context = sample_counts([0.5, 0.5], 400, 11, "Gx", 1)
        assert len({base, other_seed, other_circuit, other_context}) > 1

    def test_sample_counts_validation(self):
        with pytest.raises(ValueError):
            sample_counts([0.3, 0.7], 0, 0, "q", 0)
        with pytest.raises(ValueError):
            sample_counts([0.5], 10, 0, "q", 0)
        with pytest.raises(ValueError):
            sample_counts([0.8, 0.8], 10, 0, "q", 0)
        with pytest.raises(ValueError):
            sample_counts([-0.2, 1.2], 10, 0, "q", 0)

    def test_tiny_negative_probabilities_tolerated(self):
        # Round-off from unitary products can leave probabilities a hair
        # below zero; sampling clips them instead of failing.
        assert sample_counts([1.0, -1e-13], 50, 0, "q", 0) == (50, 0)

    def test_sample_experiment_matches_per_cell_draws(self):
        circuits = [CircuitSpec(text=("Gx",)), CircuitSpec(text=("Gy", "Gy", "Gx"))]
        table = np.array([[[0.3, 0.7], [1.0, -1e-13]], [[0.5, 0.5], [0.9, 0.1]]])
        config = SimConfig(shots_per_context=50, seed=4, contexts=("a", "b"))
        dataset = sample_experiment(circuits, table, config)
        for spec, row in zip(circuits, table):
            for k, context in enumerate(config.contexts):
                draw = sample_counts(row[k], 50, 4, spec.text, k)
                assert dataset.circuit(spec.text).pool(context) == draw

    def test_sample_experiment_rejects_invalid_table(self):
        circuits = [CircuitSpec(text=("Gx",))]
        config = SimConfig(shots_per_context=10, seed=0, contexts=("a", "b"))
        with pytest.raises(ValueError, match="invalid probability vector"):
            sample_experiment(circuits, np.array([[[0.5, 0.5], [0.8, 0.8]]]), config)
        # A NaN entry is refused by the table check, not mid-draw.
        for bad in ([np.nan, 1.0], [0.5, np.nan]):
            with pytest.raises(ValueError, match="invalid probability vector"):
                sample_experiment(circuits, np.array([[[0.5, 0.5], bad]]), config)

    @pytest.mark.parametrize("bad", [[np.inf, -np.inf], [-np.inf, np.inf], [np.inf, 0.0],
                                     [np.nan, 0.5]])
    def test_non_finite_vector_is_refused_without_a_warning(self, bad):
        # inf + -inf once warned inside the sum, so -W error ended in numpy's
        # traceback instead of the one-line refusal.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="invalid probability vector"):
                qsim._sampling_distributions(np.array([[0.5, 0.5], bad]))

    @pytest.mark.parametrize("shape", [(1, 2, 3), (1, 1, 2), (2, 2, 2), (1, 2), (0, 2, 2)])
    def test_sample_experiment_checks_the_table_shape_before_any_draw(self, shape, monkeypatch):
        # A wrong outcome, context or circuit count is named as one line;
        # no cell is drawn first, and a short table is not truncated.
        circuits = [CircuitSpec(text=("Gx",))]
        config = SimConfig(shots_per_context=10, seed=0, contexts=("a", "b"))
        monkeypatch.setattr(qsim, "_draw_cells", None)
        table = np.full(shape, 1.0 / shape[-1])
        with pytest.raises(ValueError) as info:
            sample_experiment(circuits, table, config)
        assert str(info.value) == f"probability table of shape {shape}, need (1, 2, 2)"


def _two_outcome_table(p0, n_ids):
    """A (n_ids, len(p0), 2) table whose context k has p0[k] in every circuit."""
    return np.array([[[p, 1.0 - p] for p in p0]] * n_ids)


def _assert_draws_invert_the_cdf(seed, ids, table, shots):
    """Each cell of _draw_cells's one array pass is its inverse-CDF draw:
    up to 100 shots it equals the exact oracle, sample_counts; above, its
    count x of outcome 0 brackets the uniform u by scipy's binomial,
    CDF(x - 1) < u <= CDF(x), within 1e-9."""
    counts = _draw_cells(seed, ids, table, shots)
    assert counts.shape == table.shape
    for i, circuit_id in enumerate(ids):
        for k in range(table.shape[1]):
            assert [type(count) for count in counts[i, k]] == [int, int]
            if shots <= 100:
                assert tuple(counts[i, k]) == sample_counts(table[i, k], shots, seed,
                                                            circuit_id, k)
                continue
            p0, x = table[i, k, 0], counts[i, k, 0]
            if p0 > 0.5:  # the draw is on 1 - p0, so bracket its count of ones
                p0, x = 1.0 - p0, shots - x
            u = float(cell_uniform_reference(seed, circuit_id, k))
            assert stats.binom.cdf(x - 1, shots, p0) < u + 1e-9
            assert stats.binom.cdf(x, shots, p0) > u - 1e-9


_SEEDS = st.one_of(st.sampled_from([0, 1, 2**64 - 1, 2**64, 2**64 + 1, 2**200 - 3]),
                   st.integers(min_value=0, max_value=2**200))
_IDS = st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=4, unique=True)


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, ids=_IDS, n_contexts=st.integers(min_value=1, max_value=12))
@example(seed=0, ids=["G"], n_contexts=1)
@example(seed=2**64 - 1, ids=["é", "Gx"], n_contexts=12)
@example(seed=2**64, ids=["日本", "x"], n_contexts=5)
@example(seed=2**64 + 1, ids=["{}"], n_contexts=2)
@example(seed=2**200 - 3, ids=["GxGyGy", "\U0001d54f"], n_contexts=7)
def test_batched_keys_equal_the_integer_oracle(seed, ids, n_contexts):
    """The batch derives every cell's uniform exactly as the pure-integer
    oracle does, for seeds of one to four 64-bit words, non-ASCII ids and
    1-12 contexts, and its draws at 97 shots, a different distribution in
    every cell, are the exact inverse CDF at those uniforms."""
    uniforms = _cell_uniforms(seed, ids, n_contexts)
    assert uniforms.shape == (len(ids), n_contexts)
    assert uniforms.tolist() == [[float(cell_uniform_reference(seed, circuit_id, k))
                                  for k in range(n_contexts)] for circuit_id in ids]
    table = np.arange(1.0, 1.0 + len(ids) * n_contexts * 2) ** 1.5
    table = table.reshape(len(ids), n_contexts, 2)
    table /= table.sum(axis=2, keepdims=True)
    _assert_draws_invert_the_cdf(seed, ids, table, 97)


# p0 on both sides of the p0 > 0.5 reflection, down to the smallest double.
_EDGE_P0 = [0.0, 5e-324, 1e-300, 2.0**-53, 1e-3, 0.29, 0.31, 0.5, 0.71, 1 - 2.0**-53, 1.0]


@pytest.mark.parametrize("shots", [1, 97, 10**6])
@pytest.mark.parametrize("p0", _EDGE_P0)
def test_two_outcome_draw_equals_the_multinomial_draw(p0, shots):
    """Each cell's array draw is its two-outcome multinomial draw by
    inversion, at the edges of p0."""
    _assert_draws_invert_the_cdf(2**40 + 7, ("Gx", "GyGy"), _two_outcome_table([p0] * 3, 2),
                                 shots)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shots=st.sampled_from([1, 7, 30, 31, 100, 10**4, 10**6, MAX_SHOTS]), data=st.data())
def test_array_pass_equals_the_oracle_at_any_probability(shots, data):
    """Cells at random p0, some putting a mean of at most 5000 zeros or
    ones in the cell, which a uniform p0 almost never does at large shot
    counts."""
    near = min(1.0, 5000.0 / shots)
    p0 = data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0)
                            | st.floats(min_value=0.0, max_value=near)
                            | st.floats(min_value=1.0 - near, max_value=1.0),
                            min_size=1, max_size=8))
    _assert_draws_invert_the_cdf(3, ("GxGy", "Gi"), _two_outcome_table(p0, 2), shots)


@pytest.mark.parametrize("shots", [1, 7, 100, 1000, 10**5])
def test_draws_follow_the_binomial_by_randomized_pit(shots):
    """20,000 cells per shot count, 100,000 in all: the randomized
    probability integral transform F(x - 1) + w pmf(x), with F scipy's
    binomial CDF of the zeros count and w uniform, is uniform exactly when
    the counts are binomial.  Fixed seeds; a KS test must not reject it.
    The cells' p0 are uniform, with the edges 0, 5e-324, both sides of
    0.5 and 1 in every circuit."""
    rng = np.random.default_rng(shots)
    edges = [0.0, 5e-324, 0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 1.0]
    p0 = np.hstack([np.tile(edges, (200, 1)), rng.uniform(size=(200, 94))])
    ids = [f"c{i}" for i in range(200)]
    zeros = _draw_cells(17, ids, np.stack([p0, 1.0 - p0], axis=2), shots)[:, :, 0]
    x, p = zeros.astype(float).ravel(), p0.ravel()
    pit = stats.binom.cdf(x - 1, shots, p) + rng.uniform(size=x.size) * stats.binom.pmf(x, shots, p)
    assert stats.kstest(pit, "uniform").pvalue > 1e-3


@settings(max_examples=40, deadline=None)
@given(data=st.data(), ids=st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=12,
                                    unique=True))
def test_any_permuted_subset_of_circuits_draws_the_same_counts(data, ids):
    """A cell's counts depend on the seed, its circuit id, context index and
    probabilities alone, not on which other circuits are drawn or their order."""
    p0 = np.array(data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                                     min_size=3 * len(ids), max_size=3 * len(ids))))
    table = np.stack([p0, 1.0 - p0], axis=1).reshape(len(ids), 3, 2)
    every = _draw_cells(5, ids, table, 1000)
    order = data.draw(st.permutations(range(len(ids))))
    chosen = order[:data.draw(st.integers(min_value=1, max_value=len(ids)))]
    subset = _draw_cells(5, [ids[i] for i in chosen], table[chosen], 1000)
    assert subset.tolist() == every[chosen].tolist()


def test_seeds_past_one_word_draw_their_own_counts():
    """1, 2**64 and 2**64 + 1 share their low word; the fold over every
    word keeps them apart."""
    ids = [f"c{i}" for i in range(20)]
    table = _two_outcome_table([0.5] * 5, len(ids))
    draws = [_draw_cells(seed, ids, table, 100).tolist() for seed in (1, 2**64, 2**64 + 1)]
    assert draws[0] != draws[1] != draws[2] != draws[0]


def test_stream_limbs_stay_uint64(monkeypatch):
    """numpy turns uint64 mixed with int64 into float64, and a float step
    would lose a key's low bits.  Every splitmix64 step, in folding a
    two-word seed and in keying the cells, takes and gives uint64 arrays.
    (pyproject's filterwarnings makes any RuntimeWarning of these steps
    fail the test.)"""
    dtypes, step = set(), qsim._splitmix64

    def checked(words):
        result = step(words)
        dtypes.update((words.dtype, result.dtype))
        return result

    monkeypatch.setattr(qsim, "_splitmix64", checked)
    _draw_cells(2**64 + 1, ("Gx", "GyGy"), _two_outcome_table(_EDGE_P0, 2), 10**6)
    assert dtypes == {np.dtype(np.uint64)}


def small_design():
    return GstDesign(gates=("Gx", "Gy"), prep_fiducials=("{}", "Gx"),
                     meas_fiducials=("{}", "Gy"), germs=("Gx", "GxGy"),
                     max_germ_power=8)


def small_error():
    return ErrorModel(
        context_overrotations={"a": {"Gx": 0.0, "Gy": 0.0},
                               "b": {"Gx": 0.05, "Gy": 0.05}},
        static_epsilon=0.001,
    )


class TestExperiment:
    def test_dataset_shape(self):
        config = SimConfig(shots_per_context=64, seed=5, contexts=("a", "b"))
        dataset = run_drift_experiment(small_design(), small_error(), config)
        assert dataset.outcomes == ("0", "1")
        assert dataset.contexts == ("a", "b")
        for record in dataset.circuits:
            assert record.spec == record.circuit_id
            assert record.counts == {"a": record.pool("a"), "b": record.pool("b")}
            assert sum(record.pool("a")) == sum(record.pool("b")) == 64
            assert record.core_length is not None

    def test_reproducible_end_to_end(self):
        config = SimConfig(shots_per_context=64, seed=5, contexts=("a", "b"))
        first = run_drift_experiment(small_design(), small_error(), config)
        second = run_drift_experiment(small_design(), small_error(), config)
        assert first == second

    def test_counts_independent_of_context_order(self):
        """Each cell's counts depend on its context index, not on scheduling.

        Simulating contexts in a different positional order moves which
        stream feeds which label, but the per-index draws stay identical.
        """
        error = small_error()
        forward = run_drift_experiment(
            small_design(), error,
            SimConfig(shots_per_context=64, seed=5, contexts=("a", "b")))
        # Manual resampling of one cell reproduces the dataset's counts.
        from contextdep.gstgen import lsgst_circuits
        circuits = lsgst_circuits(small_design())
        table = experiment_probabilities(circuits, error, ("a", "b"))
        for i in (0, 3, len(circuits) - 1):
            circuit = circuits[i]
            redraw = sample_counts(table[i][1], 64, 5, circuit.text, 1)
            assert forward.circuit(circuit.text).pool("b") == redraw

    def test_identical_contexts_share_probabilities(self):
        error = ErrorModel(context_overrotations={"a": {"Gx": 0.01}, "b": {"Gx": 0.01}})
        circuits = [CircuitSpec(text=("Gx",)), CircuitSpec(text=("Gx", "Gx"))]
        table = experiment_probabilities(circuits, error, ("a", "b"))
        assert table[:, 0].tobytes() == table[:, 1].tobytes()

    def test_null_model_sees_no_context_dependence_signal(self):
        # Equal over-rotations in both contexts: statistics stay modest.
        error = ErrorModel(context_overrotations={"a": {"Gx": 0.01}, "b": {"Gx": 0.01}})
        config = SimConfig(shots_per_context=256, seed=9, contexts=("a", "b"))
        dataset = run_drift_experiment(small_design(), error, config)
        from contextdep.llr import llr_aggregate, llr_tests
        tests = llr_tests(dataset.counts)
        agg = llr_aggregate(tests.llr, tests.dof)
        assert agg.n_sigma < 4.0

    def test_unknown_context_rejected(self):
        config = SimConfig(shots_per_context=10, seed=0, contexts=("a", "zz"))
        with pytest.raises(ValueError, match="'zz'"):
            run_drift_experiment(small_design(), small_error(), config)

    def test_lgst_default_without_germs(self):
        design = GstDesign(gates=("Gx",), prep_fiducials=("{}",),
                           meas_fiducials=("{}",))
        config = SimConfig(shots_per_context=16, seed=1, contexts=("a", "b"))
        error = ErrorModel(context_overrotations={"a": {}, "b": {}})
        dataset = run_drift_experiment(design, error, config)
        assert [r.circuit_id for r in dataset.circuits] == ["{}", "Gx"]

    def test_drift_design_circuit_count(self):
        config = SimConfig(shots_per_context=1, seed=0, contexts=("t1", "t2"))
        dataset = run_drift_experiment(drift_design(), drift_error_model(), config)
        assert len(dataset.circuits) == 1405


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(shots_per_context=0, seed=0, contexts=("a",))
        with pytest.raises(ValueError):
            SimConfig(shots_per_context=1, seed=-1, contexts=("a",))
        with pytest.raises(ValueError):
            SimConfig(shots_per_context=1, seed=0, contexts=("a", "a"))
        with pytest.raises(ValueError):
            SimConfig(shots_per_context=1, seed=0, contexts=())

    def test_one_context_is_rejected_by_the_config(self):
        # It once passed, to fail only when the simulated dataset was built.
        with pytest.raises(ValueError, match="^simulated experiment: need at least two "
                                             "contexts, got 1$"):
            SimConfig(shots_per_context=1, seed=0, contexts=("a",))

    def test_shots_bounded_by_the_cap(self):
        # A draw's cost grows as sqrt(shots): MAX_SHOTS is the most.
        assert SimConfig(shots_per_context=MAX_SHOTS, seed=0,
                         contexts=("a", "b")).shots_per_context == MAX_SHOTS
        with pytest.raises(ValueError, match=rf"^shots_per_context must be in \[1, {MAX_SHOTS}\], "
                                             rf"got {MAX_SHOTS + 1}$"):
            SimConfig(shots_per_context=MAX_SHOTS + 1, seed=0, contexts=("a", "b"))

    @pytest.mark.parametrize("name,value", [
        ("shots_per_context", 2.5), ("shots_per_context", True), ("shots_per_context", "8"),
        ("seed", False), ("seed", 1.0), ("seed", "0"),
    ])
    def test_shots_and_seed_are_integers(self, name, value):
        arguments = {"shots_per_context": 4, "seed": 0, **{name: value}}
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            SimConfig(contexts=("a",), **arguments)
