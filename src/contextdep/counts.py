"""Count-data model for context-comparison experiments.

An experiment repeats each circuit N_c times in each of several contexts
(time periods, neighbor settings, and so on) and records how often each
measurement outcome occurred.  The objects here hold those counts and
enforce the structural rules every downstream routine relies on: at least
two outcomes per pool, no empty pools, consistent outcome labels across a
dataset, and unique circuit identifiers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "DatasetError",
    "OutcomeCounts",
    "CircuitRecord",
    "ContextDataset",
    "count_array",
    "load_dataset",
    "save_dataset",
    "marginalize",
]

FORMAT_VERSION = "1.0"


class DatasetError(ValueError):
    """Raised when count data violates the dataset contract."""


@dataclass(frozen=True)
class OutcomeCounts:
    """Counts for one circuit in one context, ordered by outcome label.

    Entries are non-negative integers and at least one repetition must have
    been recorded; a pool with zero total carries no information and would
    poison every ratio downstream.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            raw = tuple(self.counts)
            counts = tuple(map(int, raw))
        except (TypeError, ValueError, OverflowError):
            raise DatasetError(
                f"counts must be non-negative integers, got {self.counts!r}") from None
        # bool is an int subclass; a JSON true/false is not a count.
        if counts != raw or bool in map(type, raw) or (counts and min(counts) < 0):
            bad = next(r for c, r in zip(counts, raw) if isinstance(r, bool) or c != r or c < 0)
            raise DatasetError(f"counts must be non-negative integers, got {bad!r}")
        if len(counts) < 2:
            raise DatasetError("a pool needs at least two outcome categories")
        if sum(counts) == 0:
            raise DatasetError("empty pool: zero total repetitions")
        object.__setattr__(self, "counts", counts)

    @property
    def n_outcomes(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        """Number of repetitions N_c recorded in this pool."""
        return sum(self.counts)

    def __getitem__(self, index: int) -> int:
        return self.counts[index]

    def __iter__(self):
        return iter(self.counts)


@dataclass(frozen=True)
class CircuitRecord:
    """One circuit's counts across every context it was run in.

    ``spec`` is the gate-label string of the circuit (may be absent for
    externally collected data) and ``core_length`` the repetition depth of
    its germ block, used to organize length-resolved summaries.
    """

    circuit_id: str
    counts: Mapping[str, OutcomeCounts]
    spec: str | None = None
    core_length: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.circuit_id, str) or not self.circuit_id:
            raise DatasetError("circuit_id must be a non-empty string")
        counts = dict(self.counts)
        if not counts:
            raise DatasetError(f"circuit {self.circuit_id!r}: no context pools")
        widths = {len(pool.counts) for pool in counts.values()}
        if len(widths) > 1:
            raise DatasetError(
                f"circuit {self.circuit_id!r}: pools disagree on outcome count {sorted(widths)}"
            )
        if self.spec is not None and not isinstance(self.spec, str):
            raise DatasetError(
                f"circuit {self.circuit_id!r}: spec must be a string, got {self.spec!r}")
        core = self.core_length
        # bool is an int subclass; a JSON true is not a length.
        if core is not None and (not isinstance(core, int) or isinstance(core, bool) or core < 0):
            raise DatasetError(f"circuit {self.circuit_id!r}: core_length must be a "
                               f"non-negative integer, got {core!r}")
        object.__setattr__(self, "counts", counts)

    @property
    def contexts(self) -> tuple[str, ...]:
        return tuple(self.counts)

    @property
    def n_outcomes(self) -> int:
        return next(iter(self.counts.values())).n_outcomes

    def pool(self, context: str) -> OutcomeCounts:
        try:
            return self.counts[context]
        except KeyError:
            raise DatasetError(
                f"circuit {self.circuit_id!r}: no counts for context {context!r}"
            ) from None

    def total_shots(self, contexts: Sequence[str] | None = None) -> int:
        """Sum of N_c over the selected contexts (all contexts if None)."""
        if contexts is None:
            contexts = self.contexts
        return sum(self.pool(c).total for c in contexts)


@dataclass(frozen=True)
class ContextDataset:
    """A full experiment: shared outcome labels, context labels, circuits."""

    outcomes: tuple[str, ...]
    contexts: tuple[str, ...]
    circuits: tuple[CircuitRecord, ...]
    format_version: str = FORMAT_VERSION
    description: str | None = None

    def __post_init__(self) -> None:
        outcomes = tuple(str(o) for o in self.outcomes)
        contexts = tuple(str(c) for c in self.contexts)
        circuits = tuple(self.circuits)
        if len(outcomes) < 2:
            raise DatasetError("dataset needs at least two outcome labels")
        if len(set(outcomes)) != len(outcomes):
            raise DatasetError("duplicate outcome labels")
        if len(contexts) < 2:
            raise DatasetError("dataset needs at least two context labels")
        if len(set(contexts)) != len(contexts):
            raise DatasetError("duplicate context labels")
        known = set(contexts)
        index: dict[str, CircuitRecord] = {}
        for record in circuits:
            if record.circuit_id in index:
                raise DatasetError(f"duplicate circuit_id {record.circuit_id!r}")
            index[record.circuit_id] = record
            if record.n_outcomes != len(outcomes):
                raise DatasetError(
                    f"circuit {record.circuit_id!r}: pools have {record.n_outcomes} "
                    f"entries but the dataset declares {len(outcomes)} outcomes"
                )
            if not known.issuperset(record.counts):
                unknown = next(c for c in record.counts if c not in known)
                raise DatasetError(
                    f"circuit {record.circuit_id!r}: unknown context {unknown!r}"
                )
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "contexts", contexts)
        object.__setattr__(self, "circuits", circuits)
        # Not a field: equality and repr see only the circuits.
        object.__setattr__(self, "_index", index)

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def __len__(self) -> int:
        return len(self.circuits)

    def __iter__(self):
        return iter(self.circuits)

    def circuit(self, circuit_id: str) -> CircuitRecord:
        try:
            return self._index[circuit_id]
        except KeyError:
            raise DatasetError(f"no circuit with id {circuit_id!r}") from None


def count_array(dataset: ContextDataset) -> tuple[np.ndarray, np.ndarray]:
    """The dataset as one (circuits x contexts x outcomes) count array.

    Returns the counts, in dataset context order and zero where a circuit
    has no pool for a context, and the (circuits x contexts) mask of the
    pools that are present.  Counts are Python ints in an object array, so
    products such as x N - N_c x_m stay exact at any size.
    """
    zero = (0,) * dataset.n_outcomes
    present = [[c in record.counts for c in dataset.contexts] for record in dataset.circuits]
    rows = [[record.counts[c].counts if c in record.counts else zero
             for c in dataset.contexts] for record in dataset.circuits]
    shape = (len(rows), len(dataset.contexts), dataset.n_outcomes)
    counts = np.array(rows, dtype=object).reshape(shape)
    return counts, np.array(present, dtype=bool).reshape(shape[:2])


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def read_json(path: Path, error: type[ValueError] = ValueError):
    """Parse a JSON file; a repeated key in any object is an error.

    The standard parser keeps the last of two equal keys, which would
    silently drop data.  Parse failures raise ``error`` naming the file.
    """
    text = path.read_text()
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from exc


def _require(obj: Mapping, key: str, where: str):
    if key not in obj:
        raise DatasetError(f"{where}: missing required field {key!r}")
    return obj[key]


def _labels(obj: Mapping, key: str, where: str) -> tuple[str, ...]:
    labels = _require(obj, key, where)
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise DatasetError(f"{where}: {key!r} must be an array of strings")
    return tuple(labels)


def load_dataset(path: str | Path) -> ContextDataset:
    """Read a dataset from its JSON file representation."""
    path = Path(path)
    raw = read_json(path, DatasetError)
    if not isinstance(raw, dict):
        raise DatasetError(f"{path}: top level must be an object")

    version = _require(raw, "format_version", str(path))
    if version != FORMAT_VERSION:
        raise DatasetError(f"{path}: unsupported format_version {version!r}")
    outcomes = _labels(raw, "outcomes", str(path))
    contexts = _labels(raw, "contexts", str(path))

    entries = _require(raw, "circuits", str(path))
    if not isinstance(entries, list):
        raise DatasetError(f"{path}: 'circuits' must be an array of objects")
    records = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise DatasetError(f"{path}: circuit entry {entry!r} is not an object")
        circuit_id = _require(entry, "id", f"{path} circuit entry")
        if not isinstance(circuit_id, str):
            raise DatasetError(f"{path}: circuit id {circuit_id!r} is not a string")
        where = f"{path} circuit {circuit_id!r}"
        counts_obj = _require(entry, "counts", where)
        if not isinstance(counts_obj, dict) or not counts_obj:
            raise DatasetError(f"{where}: counts must map context labels to arrays")
        pools = {}
        for context, values in counts_obj.items():
            if not isinstance(values, list):
                raise DatasetError(f"{where}, context {context!r}: counts must be an array")
            try:
                pools[context] = OutcomeCounts(tuple(values))
            except DatasetError as exc:
                raise DatasetError(f"{where}, context {context!r}: {exc}") from None
        try:
            records.append(CircuitRecord(circuit_id=circuit_id, counts=pools,
                                         spec=entry.get("spec"),
                                         core_length=entry.get("core_length")))
        except DatasetError as exc:
            raise DatasetError(f"{path}: {exc}") from None

    return ContextDataset(
        outcomes=outcomes,
        contexts=contexts,
        circuits=tuple(records),
        format_version=version,
        description=raw.get("description"),
    )


def write_chunks(path: str | Path, chunks: Iterable[str]) -> None:
    """Write text to a file as its pieces are produced, 1024 pieces a write.

    The whole text is never held at once: a large dataset or report costs
    the memory of one batch, and a batch saves the cost of a write call
    per piece.
    """
    chunks = iter(chunks)
    with open(path, "w") as handle:
        while batch := list(islice(chunks, 1024)):
            handle.write("".join(batch))


def json_array(elements: Iterable[Iterable[str]], indent: str) -> Iterator[str]:
    """The pieces of a JSON array as json.dumps(..., indent=2) lays it out.

    Each element comes as the pieces of its text, already indented to its
    depth; ``indent`` is the indentation of the line that closes the array.
    """
    separator = "[\n"
    for pieces in elements:
        yield separator
        yield from pieces
        separator = ",\n"
    yield "[]" if separator == "[\n" else "\n" + indent + "]"


# One circuit entry exactly as json.dumps(..., indent=2) lays it out; the
# second slot holds the optional spec and core_length lines.
_CIRCUIT_TEMPLATE = """    {
      "id": %s,%s
      "counts": {
%s
      }
    }"""
_OUTCOME_SEPARATOR = ",\n          "


def _dataset_chunks(dataset: ContextDataset) -> Iterator[str]:
    head: dict = {"format_version": dataset.format_version}
    if dataset.description is not None:
        head["description"] = dataset.description
    head["outcomes"] = list(dataset.outcomes)
    head["contexts"] = list(dataset.contexts)
    head["circuits"] = []
    # Strip the closing "[]\n}": the circuits are written after the header.
    yield json.dumps(head, indent=2)[:-4]
    pool_heads = {c: f"        {encode_basestring_ascii(c)}: [\n          "
                  for c in dataset.contexts}

    def entry(record: CircuitRecord) -> str:
        optional = ""
        if record.spec is not None:
            optional += f'\n      "spec": {encode_basestring_ascii(record.spec)},'
        if record.core_length is not None:
            optional += f'\n      "core_length": {int.__repr__(record.core_length)},'
        pools = ",\n".join(
            pool_heads[c] + _OUTCOME_SEPARATOR.join(map(int.__repr__, pool.counts))
            + "\n        ]"
            for c, pool in record.counts.items())
        return _CIRCUIT_TEMPLATE % (encode_basestring_ascii(record.circuit_id), optional, pools)

    # zip of one iterable: each entry is a one-piece element.
    yield from json_array(zip(map(entry, dataset.circuits)), "  ")
    yield "\n}\n"


def save_dataset(dataset: ContextDataset, path: str | Path) -> None:
    """Write a dataset as JSON; identical datasets produce identical bytes.

    The bytes are those of json.dumps(..., indent=2) of the dataset's plain
    dict form plus a newline.  The header goes through json.dumps; each
    circuit entry is one template, written to the file as it is formatted.
    """
    write_chunks(path, _dataset_chunks(dataset))


def _merge_counts(counts: Sequence[int], groups: Mapping[str, tuple[int, ...]],
                  order: Sequence[str]) -> tuple[int, ...]:
    return tuple(sum(counts[i] for i in groups[label]) for label in order)


def marginalize(dataset: ContextDataset, keep: Sequence[int]) -> ContextDataset:
    """Restrict outcome labels to the bit positions in ``keep``.

    Outcome labels must be equal-length bit strings.  Counts for outcomes
    that agree on the kept positions are summed; the reduced labels appear
    in first-occurrence order.  At least one position must be kept and the
    reduction must leave at least two distinct labels.
    """
    if not keep:
        raise DatasetError("marginalize: must keep at least one bit position")
    widths = {len(label) for label in dataset.outcomes}
    if len(widths) != 1:
        raise DatasetError("marginalize: outcome labels have mixed lengths")
    width = widths.pop()
    positions = tuple(keep)
    for pos in positions:
        if not 0 <= pos < width:
            raise DatasetError(f"marginalize: bit position {pos} out of range for width {width}")
    if len(set(positions)) != len(positions):
        raise DatasetError("marginalize: repeated bit positions")

    reduced_order: list[str] = []
    groups: dict[str, list[int]] = {}
    for index, label in enumerate(dataset.outcomes):
        reduced = "".join(label[p] for p in positions)
        if reduced not in groups:
            groups[reduced] = []
            reduced_order.append(reduced)
        groups[reduced].append(index)
    if len(reduced_order) < 2:
        raise DatasetError("marginalize: reduction leaves a single outcome")
    group_index = {label: tuple(ix) for label, ix in groups.items()}

    records = []
    for record in dataset.circuits:
        pools = {
            context: OutcomeCounts(_merge_counts(pool.counts, group_index, reduced_order))
            for context, pool in record.counts.items()
        }
        records.append(replace(record, counts=pools))
    return replace(dataset, outcomes=tuple(reduced_order), circuits=tuple(records))
