"""Dataset model: validation, serialization round-trips, marginalization."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextdep.counts import (CircuitRecord, ContextDataset, DatasetError,
                               OutcomeCounts, load_dataset, marginalize,
                               save_dataset)

from _references import dataset_to_json


def make_dataset(**overrides):
    records = (
        CircuitRecord(
            circuit_id="Gx",
            spec="Gx",
            core_length=1,
            counts={"a": OutcomeCounts((60, 40)), "b": OutcomeCounts((55, 45))},
        ),
        CircuitRecord(
            circuit_id="GxGx",
            spec="GxGx",
            core_length=2,
            counts={"a": OutcomeCounts((10, 90)), "b": OutcomeCounts((12, 88))},
        ),
    )
    fields = dict(outcomes=("0", "1"), contexts=("a", "b"), circuits=records)
    fields.update(overrides)
    return ContextDataset(**fields)


class TestOutcomeCounts:
    def test_totals(self):
        pool = OutcomeCounts((3, 0, 7))
        assert pool.total == 10
        assert pool.n_outcomes == 3
        assert list(pool) == [3, 0, 7]
        assert pool[2] == 7

    def test_rejects_negative_and_fractional(self):
        with pytest.raises(DatasetError):
            OutcomeCounts((1, -1))
        with pytest.raises(DatasetError):
            OutcomeCounts((1.5, 2))

    def test_rejects_booleans(self):
        # JSON true/false must not pass as the counts 1 and 0.
        with pytest.raises(DatasetError, match="True"):
            OutcomeCounts((True, False))
        with pytest.raises(DatasetError):
            OutcomeCounts((3, False))

    def test_rejects_empty_pool(self):
        with pytest.raises(DatasetError, match="empty pool"):
            OutcomeCounts((0, 0))

    def test_rejects_single_category(self):
        with pytest.raises(DatasetError):
            OutcomeCounts((5,))


class TestCircuitRecord:
    def test_context_access(self):
        record = make_dataset().circuits[0]
        assert record.contexts == ("a", "b")
        assert record.pool("a").counts == (60, 40)
        assert record.total_shots() == 200
        assert record.total_shots(("a",)) == 100

    def test_unknown_context_named_in_error(self):
        record = make_dataset().circuits[0]
        with pytest.raises(DatasetError, match="'zz'"):
            record.pool("zz")

    def test_mismatched_pool_widths_rejected(self):
        with pytest.raises(DatasetError, match="disagree"):
            CircuitRecord(
                circuit_id="bad",
                counts={"a": OutcomeCounts((1, 2)), "b": OutcomeCounts((1, 2, 3))},
            )


class TestContextDataset:
    def test_duplicate_circuit_id_rejected(self):
        records = make_dataset().circuits
        with pytest.raises(DatasetError, match="duplicate circuit_id"):
            make_dataset(circuits=(records[0], records[0]))

    def test_unknown_context_in_record_rejected(self):
        bad = CircuitRecord(circuit_id="q", counts={"zz": OutcomeCounts((1, 1))})
        with pytest.raises(DatasetError, match="'zz'"):
            make_dataset(circuits=(bad,))

    def test_outcome_width_mismatch_rejected(self):
        bad = CircuitRecord(circuit_id="q", counts={"a": OutcomeCounts((1, 1, 1))})
        with pytest.raises(DatasetError, match="3 entries"):
            make_dataset(circuits=(bad,))

    def test_lookup(self):
        dataset = make_dataset()
        assert dataset.circuit("GxGx").core_length == 2
        assert dataset.circuit("Gx") is dataset.circuits[0]
        with pytest.raises(DatasetError, match="^no circuit with id 'nope'$"):
            dataset.circuit("nope")


class TestRecordFields:
    @pytest.mark.parametrize("core_length", [True, False, -1, 2.0, "3", 2.5])
    def test_core_length_must_be_non_negative_int(self, core_length):
        with pytest.raises(DatasetError, match="core_length must be a non-negative integer"):
            CircuitRecord(circuit_id="q", counts={"a": OutcomeCounts((1, 1))},
                          core_length=core_length)

    @pytest.mark.parametrize("spec", [5, ["Gx"], b"Gx"])
    def test_spec_must_be_string(self, spec):
        with pytest.raises(DatasetError, match="spec must be a string"):
            CircuitRecord(circuit_id="q", counts={"a": OutcomeCounts((1, 1))}, spec=spec)

    def test_circuit_id_must_be_string(self):
        with pytest.raises(DatasetError, match="circuit_id"):
            CircuitRecord(circuit_id=7, counts={"a": OutcomeCounts((1, 1))})


class TestSerialization:
    def test_round_trip_preserves_everything(self, tmp_path):
        dataset = make_dataset(description="round trip me")
        path = tmp_path / "data.json"
        save_dataset(dataset, path)
        assert load_dataset(path) == dataset

    def test_save_is_byte_stable(self, tmp_path):
        dataset = make_dataset()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_dataset(dataset, first)
        save_dataset(dataset, second)
        assert first.read_bytes() == second.read_bytes()

    def test_json_layout(self):
        obj = dataset_to_json(make_dataset())
        assert obj["format_version"] == "1.0"
        assert obj["outcomes"] == ["0", "1"]
        entry = obj["circuits"][0]
        assert entry["id"] == "Gx"
        assert entry["counts"]["b"] == [55, 45]

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(DatasetError, match="not valid JSON"):
            load_dataset(path)

    def test_load_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"format_version": "1.0", "outcomes": ["0", "1"]}))
        with pytest.raises(DatasetError, match="contexts"):
            load_dataset(path)

    def test_load_rejects_empty_pool_naming_circuit(self, tmp_path):
        payload = {
            "format_version": "1.0",
            "outcomes": ["0", "1"],
            "contexts": ["a", "b"],
            "circuits": [
                {"id": "q0", "counts": {"a": [0, 0], "b": [1, 1]}},
            ],
        }
        path = tmp_path / "empty_pool.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError, match="q0.*empty pool"):
            load_dataset(path)

    @pytest.mark.parametrize("entry, message", [
        (5, "circuit entry 5 is not an object"),
        ({"id": "q0", "counts": {"a": [True, False], "b": [1, 1]}}, "q0.*True"),
        ({"id": "q0", "counts": {"a": 7, "b": [1, 1]}}, "q0.*must be an array"),
        ({"id": "q0", "counts": {"a": [None, 2], "b": [1, 1]}}, "q0.*None"),
        ({"id": ["q0"], "counts": {"a": [1, 2], "b": [1, 1]}}, "not a string"),
    ])
    def test_load_rejects_malformed_circuit_entries(self, tmp_path, entry, message):
        payload = {"format_version": "1.0", "outcomes": ["0", "1"],
                   "contexts": ["a", "b"], "circuits": [entry]}
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError, match=message):
            load_dataset(path)

    def test_load_rejects_duplicate_keys(self, tmp_path):
        # The standard parser would keep the last pool, (10, 90), silently.
        path = tmp_path / "dup.json"
        path.write_text('{"format_version": "1.0", "outcomes": ["0", "1"], '
                        '"contexts": ["a", "b"], "circuits": [{"id": "Gx", '
                        '"counts": {"a": [90, 10], "a": [10, 90], "b": [5, 5]}}]}')
        with pytest.raises(DatasetError, match="dup.json: not valid JSON .duplicate key 'a'"):
            load_dataset(path)
        # Equal keys in different objects are fine.
        path.write_text('{"format_version": "1.0", "outcomes": ["0", "1"], '
                        '"contexts": ["a", "b"], "circuits": [{"id": "Gx", '
                        '"counts": {"a": [90, 10], "b": [5, 5]}}, {"id": "Gy", '
                        '"counts": {"a": [10, 90], "b": [5, 5]}}]}')
        assert load_dataset(path).circuit("Gy").pool("a").counts == (10, 90)

    def test_load_rejects_unknown_version(self, tmp_path):
        payload = {"format_version": "9.9", "outcomes": [], "contexts": [], "circuits": []}
        path = tmp_path / "version.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError, match="format_version"):
            load_dataset(path)


_LABELS = st.text(min_size=1, max_size=4)


@st.composite
def datasets(draw):
    """Datasets over the writer's cases: optional fields, partial pools, wide
    outcomes, counts past 2**63, non-ASCII text and zero circuits."""
    outcomes = draw(st.lists(_LABELS, min_size=2, max_size=4, unique=True))
    contexts = draw(st.lists(_LABELS, min_size=2, max_size=4, unique=True))
    ids = draw(st.lists(_LABELS, max_size=4, unique=True))
    counts = st.integers(min_value=0, max_value=2**70)
    records = []
    for circuit_id in ids:
        present = draw(st.permutations(contexts))[:draw(st.integers(1, len(contexts)))]
        pools = {}
        for context in present:
            pool = draw(st.lists(counts, min_size=len(outcomes), max_size=len(outcomes)))
            pool[0] += sum(pool) == 0
            pools[context] = OutcomeCounts(tuple(pool))
        records.append(CircuitRecord(
            circuit_id=circuit_id, counts=pools,
            spec=draw(st.none() | st.text(max_size=6)),
            core_length=draw(st.none() | counts)))
    return ContextDataset(outcomes=tuple(outcomes), contexts=tuple(contexts),
                          circuits=tuple(records),
                          description=draw(st.none() | st.text(max_size=12)))


def many_circuits(n):
    """More circuit entries than the writer puts in one write."""
    records = tuple(CircuitRecord(circuit_id=f"c{i}", spec=f"c{i}", core_length=i,
                                  counts={"a": OutcomeCounts((i, 1)), "b": OutcomeCounts((1, i))})
                    for i in range(n))
    return make_dataset(circuits=records)


@settings(max_examples=100, deadline=None)
@given(dataset=datasets())
@example(dataset=make_dataset())
@example(dataset=many_circuits(1500))
@example(dataset=make_dataset(circuits=(), description="\u00e9t\u00e9 \"quoted\"\n"))
def test_save_dataset_bytes_equal_json_dumps(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("dataset") / "data.json"
    save_dataset(dataset, path)
    expected = json.dumps(dataset_to_json(dataset), indent=2) + "\n"
    assert path.read_bytes() == expected.encode("ascii")
    assert load_dataset(path) == dataset


def two_bit_dataset():
    records = (
        CircuitRecord(
            circuit_id="q",
            counts={
                "a": OutcomeCounts((5, 7, 11, 13)),
                "b": OutcomeCounts((2, 3, 5, 8)),
            },
        ),
    )
    return ContextDataset(outcomes=("00", "01", "10", "11"), contexts=("a", "b"),
                          circuits=records)


class TestMarginalize:
    def test_keep_first_bit(self):
        reduced = marginalize(two_bit_dataset(), (0,))
        assert reduced.outcomes == ("0", "1")
        assert reduced.circuits[0].pool("a").counts == (12, 24)
        assert reduced.circuits[0].pool("b").counts == (5, 13)

    def test_keep_second_bit(self):
        reduced = marginalize(two_bit_dataset(), (1,))
        assert reduced.circuits[0].pool("a").counts == (16, 20)

    def test_keeping_all_bits_is_identity_on_counts(self):
        reduced = marginalize(two_bit_dataset(), (0, 1))
        assert reduced == two_bit_dataset()

    def test_bit_order_respected(self):
        swapped = marginalize(two_bit_dataset(), (1, 0))
        assert swapped.outcomes == ("00", "10", "01", "11")

    def test_totals_preserved(self):
        original = two_bit_dataset()
        reduced = marginalize(original, (0,))
        for record, original_record in zip(reduced.circuits, original.circuits):
            for context in record.contexts:
                assert record.pool(context).total == original_record.pool(context).total

    def test_rejects_bad_positions(self):
        with pytest.raises(DatasetError):
            marginalize(two_bit_dataset(), ())
        with pytest.raises(DatasetError):
            marginalize(two_bit_dataset(), (2,))
        with pytest.raises(DatasetError):
            marginalize(two_bit_dataset(), (0, 0))


@settings(max_examples=60, deadline=None)
@given(
    counts_a=st.lists(st.integers(min_value=0, max_value=50), min_size=4, max_size=4),
    counts_b=st.lists(st.integers(min_value=0, max_value=50), min_size=4, max_size=4),
)
def test_marginalize_commutes_with_context_pooling(counts_a, counts_b):
    """Reducing outcomes then summing contexts equals summing then reducing."""
    if sum(counts_a) == 0 or sum(counts_b) == 0:
        counts_a = [c + 1 for c in counts_a]
        counts_b = [c + 1 for c in counts_b]
    record = CircuitRecord(
        circuit_id="q",
        counts={"a": OutcomeCounts(tuple(counts_a)), "b": OutcomeCounts(tuple(counts_b))},
    )
    dataset = ContextDataset(outcomes=("00", "01", "10", "11"),
                             contexts=("a", "b"), circuits=(record,))
    reduced = marginalize(dataset, (1,))
    pooled_then_reduced = [
        counts_a[0] + counts_a[2] + counts_b[0] + counts_b[2],
        counts_a[1] + counts_a[3] + counts_b[1] + counts_b[3],
    ]
    reduced_record = reduced.circuits[0]
    reduced_then_pooled = [
        sum(reduced_record.pool(c)[m] for c in ("a", "b")) for m in range(2)
    ]
    assert reduced_then_pooled == pooled_then_reduced
