"""Count-data model for context-comparison experiments.

An experiment repeats each circuit N_c times in each of several contexts
(time periods, neighbor settings, and so on) and records how often each
measurement outcome occurred.  A ContextDataset holds those counts as one
(circuits x contexts x outcomes) array, with a mask of the pools present,
and one check enforces the structural rules every downstream routine
relies on: at least two outcomes per pool, counts that are non-negative
integers, no empty pools, consistent outcome labels across a dataset, and
unique circuit identifiers.  A CircuitRecord is one circuit's row.
Record is the base of every record type of the package.
Every file loader of the package is a loader() and reads its JSON fields
through field() and column() here, so all input files obey the same type
and fault rules; distinct_labels() checks every label list of the package.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, fields, replace
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TextIO

import numpy as np

__all__ = [
    "DatasetError",
    "CircuitRecord",
    "ContextDataset",
    "load_dataset",
    "save_dataset",
    "marginalize",
]

FORMAT_VERSION = "1.0"


class DatasetError(ValueError):
    """Raised when count data, or a label list, violates the package's input rules."""


_AT_LEAST = ("", "at least one {}", "at least two {}s")


def distinct_labels(values: Iterable, what: str, where: str = "",
                    minimum: int = 2) -> tuple[str, ...]:
    """``values`` as a tuple of ``minimum`` (0, 1 or 2) or more distinct strings.

    The one check of every label list: outcomes, contexts, circuit and
    comparison ids, gates.  ``what`` names one label and ``where``, when
    given, begins the message of the DatasetError a fault raises.
    """
    values = tuple(values)
    prefix = f"{where}: " if where else ""
    wrong = [value for value in values if not isinstance(value, str)]
    if wrong:
        raise DatasetError(f"{prefix}{what} must be a string, got {wrong[0]!r}")
    if len(values) < minimum:
        raise DatasetError(f"{prefix}need {_AT_LEAST[minimum].format(what)}, got {len(values)}")
    if len(set(values)) != len(values):
        duplicate = next(value for value, n in Counter(values).items() if n > 1)
        raise DatasetError(f"{prefix}duplicate {what} {duplicate!r}")
    return values


def check_core_length(core, circuit_id: str) -> None:
    """The core-length rule of datasets and circuit lists: a non-negative int."""
    # type(...) is int: a JSON true is not a length, nor 2.0.
    if type(core) is not int or core < 0:
        raise DatasetError(f"circuit {circuit_id!r}: core_length must be a "
                           f"non-negative integer, got {core!r}")


def _count_table(pools: Iterable[Sequence], shape: tuple[int, int, int]) -> np.ndarray:
    """Pools, circuit-major, as an object array of ``shape``.

    Entries are taken as they are, never converted, so the check sees a
    float or a nested array where a file holds one.
    """
    return np.fromiter(chain.from_iterable(pools), dtype=object,
                       count=math.prod(shape)).reshape(shape)


def _check_rows(circuit_ids: Sequence[str], contexts: Sequence[str], counts: np.ndarray,
                present: np.ndarray, specs: Sequence, core_lengths: Sequence) -> None:
    """The rules every circuit row obeys, checked on the columns of a table.

    ``counts`` is a (circuits x contexts x outcomes) object array, zero
    where ``present`` marks no pool.  A dataset checks its whole table, a
    standalone CircuitRecord its one-row table.  The first fault raises a
    DatasetError naming the circuit and, for counts, the context.
    """
    if "" in distinct_labels(circuit_ids, "circuit_id", minimum=0):
        raise DatasetError("circuit_id must be a non-empty string")
    for circuit_id, spec, core in zip(circuit_ids, specs, core_lengths):
        if spec is not None and not isinstance(spec, str):
            raise DatasetError(f"circuit {circuit_id!r}: spec must be a string, got {spec!r}")
        if core is not None:
            check_core_length(core, circuit_id)
    if counts.shape[2] < 2:
        raise DatasetError("a pool needs at least two outcome categories")
    values = counts.ravel().tolist()
    # type(x) is int: a JSON float or true is not a count, even 2.0 or 1.
    if set(map(type, values)) - {int} or min(values, default=0) < 0:
        bad = next(i for i, x in enumerate(values) if type(x) is not int or x < 0)
        row, column, _ = np.unravel_index(bad, counts.shape)
        raise DatasetError(f"circuit {circuit_ids[row]!r}, context {contexts[column]!r}: "
                           f"counts must be non-negative integers, got {values[bad]!r}")
    wrong = np.argwhere((counts.sum(axis=2) > 0) != present)
    if wrong.size:
        row, column = wrong[0]
        fault = ("empty pool: zero total repetitions" if present[row, column]
                 else "absent pool has counts")
        raise DatasetError(f"circuit {circuit_ids[row]!r}, context {contexts[column]!r}: {fault}")
    bare = np.flatnonzero(~present.any(axis=1))
    if bare.size:
        raise DatasetError(f"circuit {circuit_ids[bare[0]]!r}: no context pools")


class Record:
    """Base of the package's records, each declared with @record and a
    written-out __init__ that fills its __dict__: frozen, equal by value
    field by field (arrays by value, see columns_equal), hashed by the
    field tuple, and shown as dataclasses show one.  Writing these once,
    not per class, keeps dataclasses from generating them at import."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return columns_equal(self, other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(getattr(self, f.name) for f in fields(self)))

    def __repr__(self):
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return f"{type(self).__qualname__}({shown})"


# Fields, for dataclasses.fields and replace; Record supplies the methods.
record = dataclass(init=False, repr=False, eq=False)


@record
class CircuitRecord(Record):
    """One circuit's row: its counts in every context it was run in.

    ``counts`` maps each context label to a pool, a tuple of Python ints
    ordered by outcome label.  ``spec`` is the gate-label string of the
    circuit (may be absent for externally collected data) and
    ``core_length`` the repetition depth of its germ block, used to
    organize length-resolved summaries.  A record made on its own is
    checked as a one-row table, by the rules of a dataset.
    """

    circuit_id: str
    counts: Mapping[str, tuple[int, ...]]
    spec: str | None = None
    core_length: int | None = None

    def __init__(self, circuit_id: str, counts: Mapping[str, tuple[int, ...]],
                 spec: str | None = None, core_length: int | None = None) -> None:
        pools = {context: tuple(pool) for context, pool in dict(counts).items()}
        if not pools:
            raise DatasetError(f"circuit {circuit_id!r}: no context pools")
        distinct_labels(pools, "context", f"circuit {circuit_id!r}", minimum=1)
        widths = sorted({len(pool) for pool in pools.values()})
        if len(widths) > 1:
            raise DatasetError(
                f"circuit {circuit_id!r}: pools disagree on outcome count {widths}")
        shape = (1, len(pools), widths[0])
        _check_rows((circuit_id,), tuple(pools), _count_table(pools.values(), shape),
                    np.ones(shape[:2], dtype=bool), (spec,), (core_length,))
        self.__dict__.update(circuit_id=circuit_id, counts=pools, spec=spec,
                             core_length=core_length)

    @property
    def contexts(self) -> tuple[str, ...]:
        return tuple(self.counts)

    def pool(self, context: str) -> tuple[int, ...]:
        try:
            return self.counts[context]
        except KeyError:
            raise DatasetError(
                f"circuit {self.circuit_id!r}: no counts for context {context!r}"
            ) from None


class RowView(Sequence):
    """A columnar table's rows, each built by ``row(i)`` when read."""

    def __init__(self, n_rows: int, row: Callable[[int], object]) -> None:
        self._n_rows, self._row = n_rows, row

    def __len__(self) -> int:
        return self._n_rows

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._row, range(self._n_rows)[index]))
        return self._row(range(self._n_rows)[index])


def columns_equal(first, second, names: Sequence[str] = ()) -> bool:
    """Equality of two objects attribute by attribute, arrays by value: the
    attributes ``names``, or else every dataclass field."""
    pairs = ((getattr(first, name), getattr(second, name))
             for name in names or [f.name for f in fields(first)])
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
               for a, b in pairs)


@record
class ContextDataset(Record):
    """A full experiment: shared outcome and context labels, circuit columns.

    ``counts`` is one (circuits x contexts x outcomes) object array of
    Python ints, in ``contexts`` order and zero where the (circuits x
    contexts) bool array ``present`` marks no pool; Python ints keep
    products such as x N - N_c x_m exact at any size.  ``circuit_ids``,
    ``specs`` and ``core_lengths`` hold one entry per circuit, None where
    a spec or core length is absent.  ``circuits`` is a read-only view of
    the rows as one CircuitRecord per circuit, built when a row is read.
    """

    outcomes: tuple[str, ...]
    contexts: tuple[str, ...]
    circuit_ids: tuple[str, ...]
    counts: np.ndarray
    present: np.ndarray
    specs: tuple[str | None, ...]
    core_lengths: tuple[int | None, ...]
    description: str | None = None

    def __init__(self, outcomes: tuple[str, ...], contexts: tuple[str, ...],
                 circuit_ids: tuple[str, ...], counts: np.ndarray, present: np.ndarray,
                 specs: tuple[str | None, ...], core_lengths: tuple[int | None, ...],
                 description: str | None = None) -> None:
        outcomes = distinct_labels(outcomes, "outcome label")
        contexts = distinct_labels(contexts, "context label")
        if description is not None and not isinstance(description, str):
            raise DatasetError(f"description must be a string, got {description!r}")
        ids, specs, cores = tuple(circuit_ids), tuple(specs), tuple(core_lengths)
        counts = np.asarray(counts, dtype=object)
        present = np.asarray(present, dtype=bool)
        shape = (len(ids), len(contexts), len(outcomes))
        if (counts.shape != shape or present.shape != shape[:2]
                or not len(specs) == len(cores) == len(ids)):
            raise DatasetError(f"columns do not match {len(ids)} circuits x "
                               f"{len(contexts)} contexts x {len(outcomes)} outcomes")
        _check_rows(ids, contexts, counts, present, specs, cores)
        # _index is not a field: equality and repr see only the columns.
        self.__dict__.update(outcomes=outcomes, contexts=contexts, circuit_ids=ids,
                             counts=counts, present=present, specs=specs, core_lengths=cores,
                             description=description, _index={c: i for i, c in enumerate(ids)})

    @property
    def circuits(self) -> Sequence[CircuitRecord]:
        return RowView(len(self.circuit_ids), self._row)

    def _row(self, i: int) -> CircuitRecord:
        pools = zip(self.contexts, self.counts[i].tolist(), self.present[i].tolist())
        # The dataset's check covered this row, so the record's is skipped.
        row = object.__new__(CircuitRecord)
        row.__dict__.update(circuit_id=self.circuit_ids[i], spec=self.specs[i],
                            counts={c: tuple(pool) for c, pool, here in pools if here},
                            core_length=self.core_lengths[i])
        return row

    def circuit(self, circuit_id: str) -> CircuitRecord:
        try:
            row = self._index[circuit_id]
        except KeyError:
            raise DatasetError(f"no circuit with id {circuit_id!r}") from None
        return self._row(row)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


# A kind is a parsed JSON type, or (list, kinds) / (dict, kinds) for an array
# or an object whose every item has one of those kinds.  Types are exact: a
# JSON true is a bool, not a number, and 2.0 is a float, not an integer.
NUMBER = (int, float)
STRINGS = ((list, (str,)),)
_REQUIRED = object()
_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
          float: "a number", bool: "a boolean", type(None): "null"}


def _fits(value, kinds) -> bool:
    return type(value) in kinds or any(
        not isinstance(kind, type) and type(value) is kind[0]
        and _all_fit(value.values() if kind[0] is dict else value, kind[1])
        for kind in kinds)


def _all_fit(values, kinds) -> bool:
    # One set of types settles the common case of plain kinds.
    return set(map(type, values)) <= set(kinds) or all(_fits(v, kinds) for v in values)


def _describe(kinds, plural: bool = False) -> str:
    names = []
    for kind in kinds:
        if kind is int and float in kinds:
            continue  # "a number" covers both
        outer, inner = (kind, None) if isinstance(kind, type) else kind
        name = _NAMES[outer].split()[-1] + "s" if plural else _NAMES[outer]
        names.append(name if inner is None else f"{name} of {_describe(inner, True)}")
    return " or ".join(names)


def field(obj: dict, key: str, kinds: tuple, where: str = "", default=_REQUIRED):
    """obj[key], which must have one of the JSON ``kinds``, or ``default``.

    Without a default the field is required.  A missing or mistyped field
    raises a ValueError, one line naming the key after ``where``, if given.
    """
    prefix = f"{where}: " if where else ""
    if key not in obj:
        if default is _REQUIRED:
            raise ValueError(f"{prefix}missing field {key!r}")
        return default
    value = obj[key]
    if not _fits(value, kinds):
        raise ValueError(f"{prefix}{key!r} must be {_describe(kinds)}, got {reprlib.repr(value)}")
    return value


def column(rows: list, key: str, kinds: tuple, where: str, default=_REQUIRED) -> list:
    """field(row, key, ...) of every row, read in one pass over the rows.

    ``default``, when given, must itself have one of the kinds.  A fault is
    reported for the first row that has one, as ``f"{where} {n}"``.
    """
    try:
        values = ([row[key] for row in rows] if default is _REQUIRED
                  else [row.get(key, default) for row in rows])
    except KeyError:
        values = None
    if values is None or not _all_fit(values, kinds):
        for n, row in enumerate(rows):
            field(row, key, kinds, f"{where} {n}", default)
    return values


def read_json(path: Path, kinds: tuple):
    """Parse a JSON file whose top level has one of the JSON ``kinds``.

    A repeated key in any object is an error: the standard parser keeps
    the last of two equal keys, which would silently drop data.  The file
    is read as UTF-8 (RFC 8259), whatever the locale.  Faults raise a
    ValueError; its loader names the file.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8 text ({exc})") from exc
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    # json raises RecursionError on deep nesting: a fault of the file, not a numeric one.
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"not valid JSON ({exc})") from exc
    if not _fits(raw, kinds):
        raise ValueError(f"top level must be {_describe(kinds)}")
    return raw


def loader(error: type[ValueError] = ValueError):
    """Decorate a file loader, called with its path as a Path: a ValueError
    it raises becomes one ``error`` line, the path and then the fault."""
    def decorate(load):
        @functools.wraps(load)
        def read(path: str | Path):
            path = Path(path)
            try:
                return load(path)
            except ValueError as exc:
                raise error(f"{path}: {exc}") from exc
        return read
    return decorate


@loader(DatasetError)
def load_dataset(path: Path) -> ContextDataset:
    """Read a dataset from its JSON file representation.

    Each rule on the pools is one pass over a whole column; only a file that
    fails one is scanned circuit by circuit, to name its first fault.  The
    pools fill one count array, which the dataset's check then covers.
    """
    raw = read_json(path, (dict,))
    version = field(raw, "format_version", (str,))
    if version != FORMAT_VERSION:
        raise DatasetError(f"unsupported format_version {version!r}")
    outcomes = tuple(field(raw, "outcomes", STRINGS))
    contexts = tuple(field(raw, "contexts", STRINGS))
    entries = field(raw, "circuits", ((list, (dict,)),))
    ids = column(entries, "id", (str,), "circuit entry")

    maps = [entry.get("counts") for entry in entries]
    valid = set(map(type, maps)) <= {dict}
    if valid:
        pools = list(chain.from_iterable(map(dict.values, maps)))
        valid = (set(map(type, pools)) <= {list}
                 and set(chain.from_iterable(maps)) <= set(contexts)
                 and set(map(len, pools)) <= {len(outcomes)})
    if not valid:  # find the first fault, in file order
        for circuit_id, entry in zip(ids, entries):
            where = f"circuit {circuit_id!r}"
            counts = field(entry, "counts", (dict,), where)
            for context in counts:
                values = field(counts, context, (list,), where + " counts")
                if context not in contexts:
                    raise DatasetError(f"{where}: unknown context {context!r}")
                if len(values) != len(outcomes):
                    raise DatasetError(f"{where}: pools have {len(values)} entries "
                                       f"but the dataset declares {len(outcomes)} outcomes")

    zero, shape = [0] * len(outcomes), (len(ids), len(contexts), len(outcomes))
    table = _count_table([m.get(c, zero) for m in maps for c in contexts], shape)
    present = np.array([c in m for m in maps for c in contexts], dtype=bool)
    return ContextDataset(outcomes, contexts, tuple(ids), table, present.reshape(shape[:2]),
                          tuple(entry.get("spec") for entry in entries),
                          tuple(entry.get("core_length") for entry in entries),
                          raw.get("description"))


def write_rows(handle: TextIO, pieces: Sequence[str], columns: Sequence[Sequence[str]],
               separator: str = "") -> None:
    """Write rows joined by ``separator``, 512 rows a write: the one batching loop.

    Row i is pieces[0] + columns[0][i] + pieces[1] + ... + pieces[-1].  A batch
    is the pieces repeated with each column's slice assigned into its stride,
    joined once; the whole text is never held.  Columns of unequal length
    raise before anything is written.
    """
    lengths = list(map(len, columns))
    if min(lengths) < max(lengths):
        raise ValueError(f"row column {lengths.index(min(lengths))} is shorter than the "
                         f"others: {min(lengths)} rows, not {max(lengths)}")
    stride, n_rows = 2 * len(columns) + 1, lengths[0]
    row = [text for piece in pieces[:-1] for text in (piece, None)]
    full = (row + [pieces[-1] + separator]) * 512
    for start in range(0, n_rows, 512):
        batch = full[:stride * min(512, n_rows - start)]
        for slot, column in enumerate(columns):
            batch[2 * slot + 1::stride] = column[start:start + 512]
        if start + 512 >= n_rows:
            batch[-1] = pieces[-1]
        handle.write("".join(batch))


_OUTCOME_SEPARATOR = ",\n          "


def save_dataset(dataset: ContextDataset, path: str | Path) -> None:
    """Write a dataset as JSON; identical datasets produce identical bytes.

    The bytes are those of json.dumps(..., indent=2) of the dataset's plain
    dict form plus a newline.  The header goes through json.dumps; the
    circuit entries are rows of write_rows, from columns of encoded ids, of
    optional spec and core_length lines, and of each context's pool texts.
    """
    described = {} if dataset.description is None else {"description": dataset.description}
    head = {"format_version": FORMAT_VERSION, **described, "outcomes": list(dataset.outcomes),
            "contexts": list(dataset.contexts), "circuits": []}
    ids = list(map(encode_basestring_ascii, dataset.circuit_ids))
    # A simulated circuit's spec is its id: its encoded text is reused.
    specs = ["" if s is None else f'\n      "spec": {e if s == c else encode_basestring_ascii(s)},'
             for c, e, s in zip(dataset.circuit_ids, ids, dataset.specs)]
    cores = ["" if n is None else f'\n      "core_length": {n},' for n in dataset.core_lengths]
    # Every pool's text at once, as a (circuits x contexts) object array of str.
    numbers = np.array(list(map(int.__repr__, dataset.counts.ravel().tolist())), dtype=object)
    numbers = numbers.reshape(dataset.counts.shape)
    heads = np.array([f"        {encode_basestring_ascii(c)}: [\n          "
                      for c in dataset.contexts], dtype=object)
    pools = heads + numbers[:, :, 0]
    for outcome in range(1, numbers.shape[2]):
        pools = pools + _OUTCOME_SEPARATOR + numbers[:, :, outcome]
    pools = pools + "\n        ]"
    # Each present pool but the first of its entry follows a ",\n".
    later = dataset.present & (dataset.present.cumsum(axis=1) > 1)
    pools[later] = ",\n" + pools[later]
    pools[~dataset.present] = ""
    with open(path, "w", encoding="utf-8") as handle:
        # The header up to its empty circuits array "[]\n}", which the entries replace.
        handle.write(json.dumps(head, indent=2)[:-4] + ("[\n" if dataset.circuit_ids else "[]"))
        # One entry as json.dumps(..., indent=2) lays it out, around its columns.
        write_rows(handle, ('    {\n      "id": ', ",", "", '\n      "counts": {\n',
                            *[""] * (len(heads) - 1), "\n      }\n    }"),
                   [ids, specs, cores, *pools.T.tolist()], ",\n")
        handle.write("\n  ]\n}\n" if dataset.circuit_ids else "\n}\n")


def marginalize(dataset: ContextDataset, keep: Sequence[int]) -> ContextDataset:
    """Restrict outcome labels to the bit positions in ``keep``.

    Outcome labels must be equal-length bit strings.  Counts for outcomes
    that agree on the kept positions are summed; the reduced labels appear
    in first-occurrence order.  The reduced dataset needs two or more
    distinct labels, as every dataset does.
    """
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

    groups: dict[str, list[int]] = {}
    for index, label in enumerate(dataset.outcomes):
        groups.setdefault("".join(label[p] for p in positions), []).append(index)
    counts = np.stack([dataset.counts[:, :, group].sum(axis=2) for group in groups.values()],
                      axis=2)
    return replace(dataset, outcomes=tuple(groups), counts=counts)
