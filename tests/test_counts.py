"""Dataset model: validation, serialization round-trips, marginalization."""

import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextdep.counts import (CircuitRecord, ContextDataset, DatasetError, field,
                               load_dataset, marginalize, save_dataset, write_rows)

from _references import dataset_from_records, dataset_to_json


def make_dataset(records=None, **header):
    if records is None:
        records = (
            CircuitRecord(circuit_id="Gx", spec="Gx", core_length=1,
                          counts={"a": (60, 40), "b": (55, 45)}),
            CircuitRecord(circuit_id="GxGx", spec="GxGx", core_length=2,
                          counts={"a": (10, 90), "b": (12, 88)}),
        )
    return dataset_from_records(("0", "1"), ("a", "b"), records, **header)


def write_dataset(tmp_path, circuits, **fields):
    """A dataset file over outcomes 0, 1 and contexts a, b."""
    payload = {"format_version": "1.0", "outcomes": ["0", "1"], "contexts": ["a", "b"],
               "circuits": circuits, **fields}
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload))
    return path


def assert_both_reject(pool, match):
    """One rule, both ways in: a standalone record and a dataset's columns."""
    with pytest.raises(DatasetError, match=match):
        CircuitRecord(circuit_id="q", counts={"a": pool, "b": (1,) * len(pool)})
    with pytest.raises(DatasetError, match=match):
        ContextDataset(outcomes=tuple(map(str, range(len(pool)))), contexts=("a", "b"),
                       circuit_ids=("q",),
                       counts=np.array([[pool, (1,) * len(pool)]], dtype=object),
                       present=np.ones((1, 2), dtype=bool), specs=(None,),
                       core_lengths=(None,))


class TestCountChecks:
    def test_rejects_negative_and_fractional(self):
        assert_both_reject((1, -1), "circuit 'q', context 'a': counts must be "
                                    "non-negative integers, got -1")
        assert_both_reject((1.5, 2), "got 1.5")
        # An integral float is not a count either.
        assert_both_reject((2.0, 3), "got 2.0")

    def test_rejects_booleans(self):
        # JSON true/false must not pass as the counts 1 and 0.
        assert_both_reject((True, False), "got True")
        assert_both_reject((3, False), "got False")

    def test_rejects_empty_pool(self):
        assert_both_reject((0, 0), "circuit 'q', context 'a': empty pool")

    def test_rejects_single_category(self):
        # A dataset's pools are as wide as its outcome labels, of which it
        # needs two; a standalone record's pools need two entries.
        assert_both_reject((5,), "at least two outcome")
        with pytest.raises(DatasetError, match="a pool needs at least two outcome categories"):
            CircuitRecord(circuit_id="q", counts={"a": (5,), "b": (1,)})

    def test_absent_pools_hold_zeros(self):
        with pytest.raises(DatasetError, match="context 'b': absent pool has counts"):
            ContextDataset(outcomes=("0", "1"), contexts=("a", "b"), circuit_ids=("q",),
                           counts=np.array([[(1, 1), (0, 1)]], dtype=object),
                           present=np.array([[True, False]]), specs=(None,),
                           core_lengths=(None,))
        with pytest.raises(DatasetError, match="circuit 'q': no context pools"):
            ContextDataset(outcomes=("0", "1"), contexts=("a", "b"), circuit_ids=("q",),
                           counts=np.zeros((1, 2, 2), dtype=int).astype(object),
                           present=np.zeros((1, 2), dtype=bool), specs=(None,),
                           core_lengths=(None,))

    def test_columns_must_match_the_labels(self):
        dataset = make_dataset()
        with pytest.raises(DatasetError, match="2 circuits x 2 contexts x 3 outcomes"):
            replace(dataset, outcomes=("0", "1", "2"))
        with pytest.raises(DatasetError, match="columns do not match"):
            replace(dataset, specs=("Gx",))


class TestCircuitRecord:
    def test_context_access(self):
        record = make_dataset().circuits[0]
        assert record.contexts == ("a", "b")
        assert record.pool("a") == (60, 40)
        assert sum(record.pool("a")) == 100
        assert record.counts == {"a": (60, 40), "b": (55, 45)}

    def test_unknown_context_named_in_error(self):
        record = make_dataset().circuits[0]
        with pytest.raises(DatasetError, match="'zz'"):
            record.pool("zz")

    def test_context_labels_are_strings(self):
        # Once accepted, so that the record failed only later, when tested.
        with pytest.raises(DatasetError, match="circuit 'q': context must be a string, got 1"):
            CircuitRecord("q", {1: (1, 2), 2: (3, 4)})

    def test_mismatched_pool_widths_rejected(self):
        with pytest.raises(DatasetError, match="disagree"):
            CircuitRecord(
                circuit_id="bad",
                counts={"a": (1, 2), "b": (1, 2, 3)},
            )


class TestContextDataset:
    @pytest.mark.parametrize("labels", [
        {"outcomes": (0, 1)}, {"contexts": ("a", 2)},
    ])
    def test_labels_must_be_strings(self, labels):
        # Integer labels were once turned into strings without a word.
        with pytest.raises(DatasetError, match="label must be a string, got "):
            replace(make_dataset(), **labels)

    def test_header_holds_no_version(self, tmp_path):
        # A dataset built with format_version="2.0" once saved a file that
        # load_dataset rejected; the writer now owns the version.
        with pytest.raises(TypeError):
            replace(make_dataset(), format_version="2.0")
        path = tmp_path / "data.json"
        save_dataset(make_dataset(), path)
        assert json.loads(path.read_text())["format_version"] == "1.0"

    def test_duplicate_circuit_id_rejected(self):
        records = make_dataset().circuits
        with pytest.raises(DatasetError, match="duplicate circuit_id 'Gx'"):
            make_dataset(records=(records[0], records[0]))

    def test_unknown_context_in_record_rejected(self, tmp_path):
        path = write_dataset(tmp_path, [{"id": "q", "counts": {"zz": [1, 1]}}])
        with pytest.raises(DatasetError, match="circuit 'q': unknown context 'zz'"):
            load_dataset(path)

    def test_outcome_width_mismatch_rejected(self, tmp_path):
        path = write_dataset(tmp_path, [{"id": "q", "counts": {"a": [1, 1, 1]}}])
        with pytest.raises(DatasetError, match="3 entries but the dataset declares 2"):
            load_dataset(path)

    def test_lookup(self):
        dataset = make_dataset()
        assert dataset.circuit("GxGx").core_length == 2
        # Rows are built when read: equal, not the same object.
        assert dataset.circuit("Gx") == dataset.circuits[0]
        assert dataset.circuits[-1].circuit_id == "GxGx"
        assert [r.circuit_id for r in dataset.circuits[::-1]] == ["GxGx", "Gx"]
        with pytest.raises(DatasetError, match="^no circuit with id 'nope'$"):
            dataset.circuit("nope")


class TestRecordFields:
    @pytest.mark.parametrize("core_length", [True, False, -1, 2.0, "3", 2.5])
    def test_core_length_must_be_non_negative_int(self, core_length):
        with pytest.raises(DatasetError, match="core_length must be a non-negative integer"):
            CircuitRecord(circuit_id="q", counts={"a": (1, 1)},
                          core_length=core_length)

    @pytest.mark.parametrize("spec", [5, ["Gx"], b"Gx"])
    def test_spec_must_be_string(self, spec):
        with pytest.raises(DatasetError, match="spec must be a string"):
            CircuitRecord(circuit_id="q", counts={"a": (1, 1)}, spec=spec)

    def test_circuit_id_must_be_string(self):
        with pytest.raises(DatasetError, match="circuit_id"):
            CircuitRecord(circuit_id=7, counts={"a": (1, 1)})


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
        (5, "'circuits' must be an array of objects, got"),
        ({"id": "q0", "counts": {"a": [True, False], "b": [1, 1]}}, "q0.*True"),
        ({"id": "q0", "counts": {"a": 7, "b": [1, 1]}}, "q0.*must be an array"),
        ({"id": "q0", "counts": {"a": [None, 2], "b": [1, 1]}}, "q0.*None"),
        ({"id": ["q0"], "counts": {"a": [1, 2], "b": [1, 1]}},
         "circuit entry 0: 'id' must be a string, got"),
        # JSON floats are not counts, integral or not.
        ({"id": "q0", "counts": {"a": [2.0, 3], "b": [4, 1e2]}}, "'q0', context 'a'.*got 2.0$"),
        ({"id": "q0", "counts": {"a": [2, 3], "b": [4, 1e2]}}, "'q0', context 'b'.*got 100.0$"),
        ({"id": "q0", "counts": {"a": [[2], 3], "b": [1, 1]}}, "context 'a'.*got \\[2\\]$"),
        ({"id": "", "counts": {"a": [1, 2], "b": [1, 1]}}, "non-empty string"),
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
        assert load_dataset(path).circuit("Gy").pool("a") == (10, 90)

    @pytest.mark.parametrize("description", [5, ["x"], {"text": "x"}, True])
    def test_load_rejects_non_string_description(self, tmp_path, description):
        path = write_dataset(tmp_path, [{"id": "q", "counts": {"a": [1, 1]}}],
                             description=description)
        with pytest.raises(DatasetError, match="description must be a string"):
            load_dataset(path)

    def test_pools_follow_the_dataset_context_order(self, tmp_path):
        path = write_dataset(tmp_path, [{"id": "q", "counts": {"b": [1, 2], "a": [3, 4]}}],
                             description=None)
        dataset = load_dataset(path)
        assert dataset.description is None
        assert dataset.counts.tolist() == [[[3, 4], [1, 2]]]
        assert dataset.circuit("q").contexts == ("a", "b")
        save_dataset(dataset, path)
        assert list(json.loads(path.read_text())["circuits"][0]["counts"]) == ["a", "b"]

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
            pools[context] = tuple(pool)
        records.append(CircuitRecord(
            circuit_id=circuit_id, counts=pools,
            spec=draw(st.none() | st.text(max_size=6)),
            core_length=draw(st.none() | counts)))
    return dataset_from_records(outcomes, contexts, records,
                                description=draw(st.none() | st.text(max_size=12)))


def many_circuits(n):
    """More circuit entries than the writer puts in one write."""
    records = tuple(CircuitRecord(circuit_id=f"c{i}", spec=f"c{i}", core_length=i,
                                  counts={"a": (i, 1), "b": (1, i)})
                    for i in range(n))
    return make_dataset(records)


@settings(max_examples=100, deadline=None)
@given(dataset=datasets())
@example(dataset=make_dataset())
@example(dataset=many_circuits(512))
@example(dataset=many_circuits(513))
@example(dataset=many_circuits(1500))
@example(dataset=make_dataset((), description="\u00e9t\u00e9 \"quoted\"\n"))
def test_save_dataset_bytes_equal_json_dumps(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("dataset") / "data.json"
    save_dataset(dataset, path)
    expected = json.dumps(dataset_to_json(dataset), indent=2) + "\n"
    assert path.read_bytes() == expected.encode("ascii")
    assert load_dataset(path) == dataset


def test_load_dataset_reads_no_field_per_circuit(tmp_path, monkeypatch):
    """A valid file is checked by whole-column passes, so the loader reads
    the same header fields through field() for 10 circuits as for 1,000."""
    rng = np.random.default_rng(7)
    contexts = ("t1", "t2", "t3", "t4", "t5")
    read = []
    monkeypatch.setattr("contextdep.counts.field",
                        lambda obj, key, *args, **kwargs: read.append(key)
                        or field(obj, key, *args, **kwargs))
    fields_read = {}
    for n in (10, 1000):
        present = rng.random((n, len(contexts))) < 0.8
        present[:, 0] = True
        pools = rng.integers(1, 100, size=(n, len(contexts), 2)) * present[:, :, None]
        ids = tuple(f"G{i}" for i in range(n))
        dataset = ContextDataset(("0", "1"), contexts, ids, pools.astype(object), present,
                                 ids, tuple(i % 7 for i in range(n)))
        path = tmp_path / f"data_{n}.json"
        save_dataset(dataset, path)
        read.clear()
        assert load_dataset(path) == dataset
        fields_read[n] = list(read)
    assert fields_read[10] == fields_read[1000] == [
        "format_version", "outcomes", "contexts", "circuits"]


class RecordingFile(io.StringIO):
    """A text file that also keeps each write call's text."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 1100), pattern=st.lists(st.sampled_from(["", "x", "é\n", ",\n"]),
                                                min_size=1, max_size=4),
       separator=st.sampled_from(["", ",\n"]))
@example(n=0, pattern=["x"], separator=",\n")
@example(n=1, pattern=[""], separator=",\n")
@example(n=511, pattern=["x"], separator=",\n")
@example(n=512, pattern=["x", ""], separator=",\n")
@example(n=513, pattern=["x"], separator="")
@example(n=1024, pattern=["", "x"], separator=",\n")
@example(n=1025, pattern=["x"], separator=",\n")
def test_write_rows_equals_per_row_join(n, pattern, separator):
    # Each cell carries its row index, so a lost, repeated or reordered cell
    # changes the output; the pieces are the pattern's texts and a closing ">".
    pieces = [*pattern, ">"]
    columns = [[f"{text}{k}:{i}" for i in range(n)] for k, text in enumerate(pattern)]
    rows = ["".join(piece + cell for piece, cell in zip(pieces, [*row, ""]))
            for row in zip(*columns)]
    handle = RecordingFile()
    write_rows(handle, pieces, columns, separator)
    assert handle.getvalue() == separator.join(rows)
    assert len(handle.writes) == -(-n // 512)


@pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (513, 513, 512), (0, 1)])
def test_write_rows_refuses_columns_of_unequal_length(lengths):
    handle = RecordingFile()
    columns = [["x"] * n for n in lengths]
    short = lengths.index(min(lengths))
    with pytest.raises(ValueError, match=f"row column {short} is shorter"):
        write_rows(handle, [""] * (len(columns) + 1), columns)
    assert handle.writes == []


def two_bit_dataset():
    record = CircuitRecord(circuit_id="q", counts={"a": (5, 7, 11, 13), "b": (2, 3, 5, 8)})
    return dataset_from_records(("00", "01", "10", "11"), ("a", "b"), (record,))


class TestMarginalize:
    def test_keep_first_bit(self):
        reduced = marginalize(two_bit_dataset(), (0,))
        assert reduced.outcomes == ("0", "1")
        assert reduced.circuits[0].pool("a") == (12, 24)
        assert reduced.circuits[0].pool("b") == (5, 13)

    def test_keep_second_bit(self):
        reduced = marginalize(two_bit_dataset(), (1,))
        assert reduced.circuits[0].pool("a") == (16, 20)

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
                assert sum(record.pool(context)) == sum(original_record.pool(context))

    def test_rejects_bad_positions(self):
        with pytest.raises(DatasetError):
            marginalize(two_bit_dataset(), ())
        with pytest.raises(DatasetError):
            marginalize(two_bit_dataset(), (2,))
        with pytest.raises(DatasetError):
            marginalize(two_bit_dataset(), (0, 0))

    def test_rejects_outcome_labels_of_mixed_length(self):
        dataset = dataset_from_records(("0", "10"), ("a", "b"),
                                       [CircuitRecord("Gx", {"a": (1, 2), "b": (3, 4)})])
        with pytest.raises(DatasetError, match="^marginalize: outcome labels have mixed "
                                               "lengths$"):
            marginalize(dataset, (0,))


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
    record = CircuitRecord(circuit_id="q", counts={"a": counts_a, "b": counts_b})
    dataset = dataset_from_records(("00", "01", "10", "11"), ("a", "b"), (record,))
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
