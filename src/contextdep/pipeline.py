"""End-to-end analysis: comparisons, budgeting, reports, and table emission.

A plan lists the comparisons to run (the full joint set of contexts, any
pairs, or both) with a significance weight each; the global alpha times
the weight is the local budget handed to that comparison's combined
procedure.  The default plan for more than two contexts is the joint
comparison plus every pair at equal weight, so one analysis answers both
"is anything context dependent" and "which contexts differ".

Each comparison produces a ComparisonReport whose numbers are mutually
consistent by construction: one p_threshold drives the rejection set, the
statistic threshold, the per-circuit JSD thresholds, and SSTVD nullity.
The analysis works on one (circuits x contexts x outcomes) count array
per dataset; a comparison takes a slice of it, all circuits at once, and
each distinct count table of the plan is tested once.
Reports serialize to JSON and to the two CSV data layers used for
plotting (a pairwise N-sigma / rejection-count matrix and a JSD versus
core-length profile).  load_report builds each report from its file's
inputs and refuses a file that states a derived field otherwise.  A row's
jsd and jsd_threshold are inputs: a format-1 file holds no shot totals.
"""

from __future__ import annotations

import json
import math
import reprlib
from collections.abc import Sequence
from dataclasses import fields
from functools import cached_property
from itertools import combinations, compress
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .counts import (NUMBER, STRINGS, ContextDataset, DatasetError, Record, RowView, column,
                     columns_equal, distinct_labels, field, loader, open_output, read_json,
                     record, write_rows)
from .divergence import jsd_from_llr, tvd_rows
from .gstgen import CircuitSpec
from .llr import AggregateTestResult, TableTests, llr_aggregate, llr_tests
from .multitest import Decision, combined_procedure

__all__ = [
    "Comparison",
    "ComparisonPlan",
    "load_plan",
    "CircuitAnalysis",
    "ComparisonReport",
    "run_analysis",
    "save_report",
    "load_report",
    "pairwise_matrices",
    "write_pairwise_csv",
    "jsd_profile",
    "write_jsd_profile_csv",
]


@record
class Comparison(Record):
    """One question: do these contexts share an outcome distribution?"""

    comparison_id: str
    contexts: tuple[str, ...]
    weight: float

    def __init__(self, comparison_id: str, contexts: tuple[str, ...], weight: float) -> None:
        contexts = distinct_labels(contexts, "context", f"comparison {comparison_id!r}")
        # A weight is a positive share of alpha.  Comparing, not converting,
        # keeps a huge integer from overflowing; NaN fails every comparison.
        if isinstance(weight, bool) or not 0 < weight <= 1:
            raise ValueError(f"comparison {comparison_id!r}: weight must be a number "
                             f"in (0, 1], got {weight!r}")
        self.__dict__.update(comparison_id=comparison_id, contexts=contexts, weight=float(weight))


@record
class ComparisonPlan(Record):
    """An ordered list of comparisons whose weights split the global alpha."""

    comparisons: tuple[Comparison, ...]

    def __init__(self, comparisons: tuple[Comparison, ...]) -> None:
        comparisons = tuple(comparisons)
        distinct_labels([c.comparison_id for c in comparisons], "comparison_id", "plan",
                        minimum=1)
        total = math.fsum(c.weight for c in comparisons)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"comparison weights must sum to 1, got {total!r}")
        self.__dict__.update(comparisons=comparisons)

    def __iter__(self):
        return iter(self.comparisons)

    def __len__(self) -> int:
        return len(self.comparisons)

    @staticmethod
    def joint(contexts: Sequence[str]) -> "ComparisonPlan":
        return _equal_split([("joint", contexts)])

    @staticmethod
    def all_pairs(contexts: Sequence[str]) -> "ComparisonPlan":
        return _equal_split(_pairs(contexts))

    @staticmethod
    def default(contexts: Sequence[str]) -> "ComparisonPlan":
        """Joint comparison plus every pair, all weighted equally.

        With exactly two contexts the joint comparison is the only pair,
        so the plan collapses to a single full-budget comparison.
        """
        contexts = tuple(contexts)
        pairs = _pairs(contexts)
        return _equal_split(pairs if len(pairs) == 1 else [("joint", contexts), *pairs])


def _pairs(contexts: Sequence[str]) -> list[tuple[str, tuple[str, str]]]:
    """(a_vs_b, (a, b)) for every pair of two or more distinct contexts; two
    pairs that join to one id, as ("a", "vs_b") and ("a_vs", "b") do, are an error."""
    pairs: dict[str, tuple[str, str]] = {}
    for a, b in combinations(distinct_labels(contexts, "context"), 2):
        cid = f"{a}_vs_{b}"
        other = pairs.setdefault(cid, (a, b))
        if other != (a, b):
            raise ValueError(f"context pairs {other} and {(a, b)} both make the comparison "
                             f"id {cid!r}; name the comparisons in a --plan file")
    return list(pairs.items())


def _equal_split(entries: Sequence[tuple[str, Sequence[str]]]) -> ComparisonPlan:
    """A plan of one comparison per (id, contexts) entry, sharing alpha equally."""
    weight = 1.0 / len(entries)
    return ComparisonPlan(tuple(Comparison(cid, tuple(contexts), weight)
                                for cid, contexts in entries))


@loader()
def load_plan(path: Path) -> ComparisonPlan:
    """Read a plan from JSON: {"comparisons": [{id, contexts, weight}, ...]}.

    Weights may be omitted entirely, in which case the comparisons share
    the budget equally.  An absent or null id is the contexts joined by
    "_vs_".
    """
    entries = field(read_json(path, (dict,)), "comparisons", ((list, (dict,)),))
    contexts = column(entries, "contexts", STRINGS, "comparison")
    ids = ["_vs_".join(labels) if cid is None else cid for labels, cid in zip(
        contexts, column(entries, "id", (str, type(None)), "comparison", default=None))]
    weights = column(entries, "weight", NUMBER + (type(None),), "comparison", default=None)
    if None not in weights:
        return ComparisonPlan(tuple(map(Comparison, ids, map(tuple, contexts), weights)))
    if any(w is not None for w in weights):
        raise ValueError("give every comparison a weight, or none")
    return _equal_split(list(zip(ids, contexts)))


@record
class CircuitAnalysis(Record):
    """Per-circuit line of a comparison report: test plus effect size."""

    circuit_id: str
    llr: float
    p_value: float
    jsd: float
    jsd_threshold: float
    tvd: float | None
    sstvd: float | None
    sstvd_per_gate: float | None
    rejected: bool
    small_sample: bool

    def __init__(self, circuit_id: str, llr: float, p_value: float, jsd: float,
                 jsd_threshold: float, tvd: float | None, sstvd: float | None,
                 sstvd_per_gate: float | None, rejected: bool, small_sample: bool) -> None:
        self.__dict__.update(circuit_id=circuit_id, llr=llr, p_value=p_value, jsd=jsd,
                             jsd_threshold=jsd_threshold, tvd=tvd, sstvd=sstvd,
                             sstvd_per_gate=sstvd_per_gate, rejected=rejected,
                             small_sample=small_sample)


class TableStore:
    """The rows of one analysis, once for all its comparisons: ``circuit_ids``,
    an object array that reports' ``rows`` index, and per width (number of
    contexts) the _STORED columns over its distinct count tables, which
    ``tables`` index (tvd is 0.0 at widths but 2).  Writers keep texts here."""

    def __init__(self, circuit_ids: np.ndarray, columns: dict[int, dict[str, np.ndarray]]):
        self.circuit_ids, self.columns, self._texts = circuit_ids, columns, {}

    def texts(self, key, make):
        """make(), computed at the first call with ``key`` and kept."""
        if key not in self._texts:
            self._texts[key] = make()
        return self._texts[key]


_STORED = ("llr", "p_value", "jsd", "small_sample", "tvd")


def _gathered(name: str) -> property:
    return property(lambda report: report.store.columns[len(report.contexts)][name][report.tables])


def _check_k(k: int, n_rows: int, n_contexts: int) -> None:
    # Each row's test has (contexts - 1) (outcomes - 1) dof, and outcomes >= 2.
    if n_contexts < 2 or k < 1 or k % (n_rows * (n_contexts - 1)):
        raise ValueError(f"aggregate 'k' must be a positive multiple of rows x (contexts - 1)"
                         f" = {n_rows} x {n_contexts - 1}, got {reprlib.repr(k)}")


@record
class ComparisonReport(Decision, Record):
    """Everything one comparison concluded, internally consistent.

    The per-circuit rows, at least one, are indices in circuit order:
    ``rows`` into the store's ids and ``tables`` into its tables of this
    many contexts, from which ``circuit_ids`` and the _STORED columns
    (float64 llr, p_value, jsd and tvd, bool small_sample) are gathered when
    read; each row's test has ``dof`` degrees of freedom, and a tvd exactly
    when there are two contexts.  The report holds float64 jsd_threshold and
    sstvd_per_gate, null where sstvd_per_gate_null says.  The rest is
    derived: the ``aggregate`` of the rows' llr, and multitest.Decision's
    decision and thresholds, whose inputs it checks when the report is
    built, with the rules of the rows: distinct contexts and circuit ids,
    and a dof that is a positive multiple of contexts - 1; the id and the
    warnings are strings and the dof an int, as a file holds them.  ``nulls``
    says where the tvd, the SSTVD and the per-gate SSTVD of a row are null,
    for the writer, the row view and load_report alike.  ``circuits`` is a
    read-only view of the rows as one CircuitAnalysis per row.  Reports are
    equal when their headers and columns are, from one store or two.
    """

    comparison_id: str
    contexts: tuple[str, ...]
    alpha_local: float
    dof: int
    store: TableStore
    rows: np.ndarray
    tables: np.ndarray
    jsd_threshold: np.ndarray
    sstvd_per_gate: np.ndarray
    sstvd_per_gate_null: np.ndarray
    warnings: tuple[str, ...] = ()

    llr, p_value, jsd, small_sample, tvd = map(_gathered, _STORED)

    def __init__(self, comparison_id: str, contexts: tuple[str, ...], alpha_local: float,
                 dof: int, store: TableStore, rows: np.ndarray, tables: np.ndarray,
                 jsd_threshold: np.ndarray, sstvd_per_gate: np.ndarray,
                 sstvd_per_gate_null: np.ndarray, warnings: tuple[str, ...] = ()) -> None:
        if not (isinstance(comparison_id, str) and type(dof) is int
                and all(isinstance(warning, str) for warning in warnings)):
            raise ValueError(f"a comparison_id and warnings are strings and a dof an int, "
                             f"got {comparison_id!r}, {warnings!r} and {dof!r}")
        self.__dict__.update(
            comparison_id=comparison_id, alpha_local=alpha_local, dof=dof,
            contexts=distinct_labels(contexts, "context", minimum=0),
            store=store, rows=rows, tables=tables, jsd_threshold=jsd_threshold, warnings=warnings,
            sstvd_per_gate=sstvd_per_gate, sstvd_per_gate_null=sstvd_per_gate_null)
        if not len(self.rows):
            raise ValueError(f"comparison {self.comparison_id!r}: no circuit rows")
        distinct_labels(self.store.circuit_ids[self.rows].tolist(), "circuit id", minimum=0)
        _check_k(self.dof * len(self.rows), len(self.rows), len(self.contexts))
        self._check_decision(lambda i: self.store.circuit_ids[self.rows[i]])

    @classmethod
    def from_columns(cls, *, circuit_ids: Sequence[str], **values) -> "ComparisonReport":
        """A report in a store of its own, each row its own table, as
        load_report reads one; ``values`` hold the _STORED columns and fields."""
        columns = {name: values.pop(name) for name in _STORED}
        where = np.arange(len(circuit_ids))
        store = TableStore(np.array(circuit_ids, dtype=object), {len(values["contexts"]): columns})
        return cls(store=store, rows=where, tables=where, **values)

    def __eq__(self, other):
        if not isinstance(other, ComparisonReport):
            return NotImplemented
        names = [f.name for f in fields(self) if f.name not in ("store", "rows", "tables")]
        return columns_equal(self, other, ["circuit_ids", *_STORED, *names])

    @property
    def circuit_ids(self) -> tuple[str, ...]:
        return tuple(self.store.circuit_ids[self.rows].tolist())

    @property
    def circuits(self) -> Sequence[CircuitAnalysis]:
        return RowView(len(self.rows), self._row)

    def _row(self, i: int) -> CircuitAnalysis:
        column, table = self.store.columns[len(self.contexts)], self.tables[i]
        tvd, per_gate = float(column["tvd"][table]), float(self.sstvd_per_gate[i])
        return CircuitAnalysis(
            self.store.circuit_ids[self.rows[i]],
            *(float(column[name][table]) for name in ("llr", "p_value", "jsd")),
            float(self.jsd_threshold[i]), *(None if mask[i] else value for mask, value in zip(
                self.nulls.values(), (tvd, tvd, per_gate))),
            bool(self.rejected[i]), bool(column["small_sample"][table]))

    @cached_property
    def aggregate(self) -> AggregateTestResult:
        return llr_aggregate(self.llr, self.dof)

    @cached_property
    def nulls(self) -> dict[str, np.ndarray]:
        """Where each nullable row field is null, in file order: a tvd outside
        a pair, and an SSTVD, like a per-gate SSTVD, on rows not rejected."""
        no_tvd = np.full(len(self.rows), len(self.contexts) != 2)
        sstvd = no_tvd | ~self.rejected
        return {"tvd": no_tvd, "sstvd": sstvd, "sstvd_per_gate": sstvd | self.sstvd_per_gate_null}

    @property
    def rejected_ids(self) -> tuple[str, ...]:
        return tuple(self.store.circuit_ids[self.rows[self.rejected]].tolist())

    @property
    def max_sstvd(self) -> float | None:
        values = self.tvd[~self.nulls["sstvd"]]
        return float(values.max()) if values.size else None


def _complete_rows(dataset: ContextDataset, comparison: Comparison):
    """A comparison's context columns, the rows of the circuits that have them
    all, and a warning for each circuit skipped."""
    columns = [dataset.contexts.index(c) for c in comparison.contexts]
    present = dataset.present[:, columns]
    complete = present.all(axis=1)
    warnings = []
    for i in np.flatnonzero(~complete).tolist():
        missing = compress(comparison.contexts, ~present[i])
        warnings.append(
            f"circuit {dataset.circuit_ids[i]!r}: missing context(s) "
            f"{', '.join(map(repr, missing))}; skipped"
        )
    rows = np.flatnonzero(complete)
    if not rows.size:
        raise DatasetError(
            f"comparison {comparison.comparison_id!r}: no circuit has all of "
            f"{comparison.contexts}"
        )
    return columns, rows, tuple(warnings)


def _test_distinct_tables(dataset: ContextDataset, slices):
    """Test each distinct exact count table of the plan once.

    Tables are grouped by width (number of contexts) and keyed on their
    ints.  Returns the analysis' TableStore; per width, the llr_tests of its
    distinct tables; and per comparison, its rows' positions in those.
    """
    distinct: dict[int, dict[tuple, int]] = {}
    positions = []
    for columns, rows, _ in slices:
        index = distinct.setdefault(len(columns), {})
        tables = dataset.counts[np.ix_(rows, columns)].reshape(len(rows), -1).tolist()
        positions.append(np.array([index.setdefault(table, len(index))
                                   for table in map(tuple, tables)]))
    tested, columns = {}, {}
    for width, index in distinct.items():
        stack = np.array(list(index), dtype=object).reshape(len(index), width, -1)
        tests = tested[width] = llr_tests(stack)
        columns[width] = {
            "llr": tests.llr, "p_value": tests.p_value, "small_sample": tests.small_sample,
            "jsd": jsd_from_llr(tests.llr, tests.n_total),
            "tvd": tvd_rows(stack) if width == 2 else np.zeros(len(index))}
    return TableStore(np.array(dataset.circuit_ids, dtype=object), columns), tested, positions


def run_analysis(dataset: ContextDataset, plan: ComparisonPlan | None = None,
                 alpha: float = 0.05) -> list[ComparisonReport]:
    """Run every planned comparison against a dataset, in plan order.

    Local budgets are alpha times each comparison's weight.  Each
    comparison analyses a slice of the dataset's count array.  The
    comparisons of a plan share most of their count tables, so each
    distinct exact table is tested once, in one llr_tests call per number
    of contexts (and one tvd_rows call for the pairs), into one TableStore
    that every report indexes.  A table with its contexts swapped is
    another table: it sums its terms in another order.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if plan is None:
        plan = ComparisonPlan.default(dataset.contexts)
    for comparison in plan:
        for context in comparison.contexts:
            if context not in dataset.contexts:
                raise DatasetError(
                    f"comparison {comparison.comparison_id!r}: dataset has no "
                    f"context {context!r}"
                )
    slices = [_complete_rows(dataset, comparison) for comparison in plan]
    store, tested, positions = _test_distinct_tables(dataset, slices)
    reports = []
    for comparison, (_, rows, warnings), where in zip(plan, slices, positions):
        tests, columns = tested[len(comparison.contexts)], store.columns[len(comparison.contexts)]
        tests = TableTests(tests.llr[where], tests.dof, tests.p_value[where],
                           tests.n_total[where], tests.small_sample[where])
        alpha_local = alpha * comparison.weight
        try:
            outcome = combined_procedure(tests, store.circuit_ids[rows], alpha_local)
        except ValueError as exc:
            raise ValueError(f"comparison {comparison.comparison_id!r}: {exc}") from None
        per_gate, per_gate_null = np.zeros(len(rows)), np.ones(len(rows), dtype=bool)
        for i in np.flatnonzero(outcome.rejected & (len(comparison.contexts) == 2)).tolist():
            try:  # an absent or unparseable spec has no gate count
                n_gates = CircuitSpec(dataset.specs[rows[i]]).length
            except ValueError:
                continue
            if n_gates:
                per_gate[i], per_gate_null[i] = columns["tvd"][where[i]] / n_gates, False
        reports.append(ComparisonReport(
            comparison_id=comparison.comparison_id, contexts=comparison.contexts,
            alpha_local=alpha_local, dof=tests.dof, store=store, rows=rows, tables=where,
            # All rows share one dof, so the outcome's statistic threshold is theirs.
            jsd_threshold=jsd_from_llr(outcome.llr_threshold, tests.n_total),
            sstvd_per_gate=per_gate, sstvd_per_gate_null=per_gate_null, warnings=warnings))
    return reports


def _format_distinct(values: np.ndarray, format_all, texts: dict[int, str]) -> np.ndarray:
    """format_all(list of floats) -> texts, spread over values as an object array.

    Each value not yet in ``texts``, a dict of texts by bit pattern, is
    formatted once and added: keying on the value would merge -0.0 with 0.0.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    bits = bits.tolist()
    new = [b for b in bits if b not in texts]
    texts.update(zip(new, format_all(np.array(new, dtype=np.int64).view(np.float64).tolist())))
    return np.array(list(map(texts.__getitem__, bits)), dtype=object)[inverse]


def _json_floats(values: list[float]) -> list[str]:
    # json's own spellings, none containing ", "; a non-finite value raises.
    return json.dumps(values, allow_nan=False)[1:-1].split(", ")


def _g10_floats(values: list[float]) -> list[str]:
    return [format(value, ".10g") for value in values]


def _texts(report: ComparisonReport, spell, name: str) -> np.ndarray:
    """A report column as spell writes it, each value spelled once per store:
    the store's ids at the report's rows, a store column at its tables, or a
    float column of the report's own, against the store's texts."""
    store, width = report.store, len(report.contexts)
    if name == "circuit_ids":
        return store.texts(spell, lambda: np.array(list(map(spell, store.circuit_ids.tolist())),
                                                   dtype=object))[report.rows]
    shared = store.texts(spell, dict)
    if name not in store.columns[width]:
        return _format_distinct(getattr(report, name), spell, shared)
    return store.texts((spell, width, name), lambda: _format_distinct(
        store.columns[width][name], spell, shared))[report.tables]


# A report row's fields in file order, each with the report column it shows.
_ROW = {"id": "circuit_ids", "llr": "llr", "p": "p_value", "jsd": "jsd",
        "jsd_threshold": "jsd_threshold", "tvd": "tvd", "sstvd": "tvd",
        "sstvd_per_gate": "sstvd_per_gate", "rejected": "rejected", "small_sample": "small_sample"}
# One row as json.dumps(..., indent=2) lays it out, cut at its values; the id is a string.
_ROW_PIECES = ("      {\n" + ",\n".join(f'        "{key}": %s' for key in _ROW)
               + "\n      }").replace("%s", '"%s"', 1).split("%s")
# The header fields load_report reads to build a report; it checks the others.
_READ = ("comparison_id", "contexts", "alpha_local", "aggregate", "k", "warnings")


def _header(report: ComparisonReport) -> dict:
    """The comparison's fields before its circuits, as save_report writes them."""
    agg = report.aggregate
    return {"comparison_id": report.comparison_id, "contexts": list(report.contexts),
            "alpha_local": report.alpha_local,
            "aggregate": {"llr": agg.llr, "k": agg.dof, "p": agg.p_value, "n_sigma": agg.n_sigma,
                          "n_sigma_threshold": report.n_sigma_threshold,
                          "triggered": report.aggregate_triggered},
            "p_threshold": report.p_threshold, "llr_threshold": report.llr_threshold,
            "detected": report.detected, "warnings": list(report.warnings)}


def _comparison_rows(report: ComparisonReport) -> tuple[str, list[list[str]]]:
    """The comparison's object as json.dumps(reports, indent=2) writes it:
    the text up to its circuits array, and the ten text columns of its rows."""
    # Strip the enclosing "[\n" and "\n  }\n]": the circuits go last.
    text = json.dumps([_header(report)], indent=2, allow_nan=False)[2:-6] + ',\n    "circuits": '
    columns = []
    for key, name in _ROW.items():
        texts = (np.where(getattr(report, name), "true", "false")
                 if key in ("rejected", "small_sample")
                 else _texts(report, _json_body if key == "id" else _json_floats, name))
        columns.append(np.where(report.nulls[key], "null", texts) if key in report.nulls else texts)
    # A column of another length than the ids fails write_rows' length check.
    return text, [column.tolist() for column in columns]


def _json_body(text: str) -> str:
    # The id itself where nothing needs escaping, so it is not held twice.
    body = encode_basestring_ascii(text)[1:-1]
    return text if body == text else body


def save_report(reports: Sequence[ComparisonReport], path: str | Path) -> None:
    """Write reports as a JSON array; identical analyses give identical bytes.

    The bytes are those of json.dumps(payload, indent=2) plus a newline,
    written one comparison at a time, its rows by write_rows from ten text
    columns, each id and distinct float of a TableStore encoded once.  Like
    load_report, it refuses no reports and a repeated comparison_id.  A
    NaN or an infinity in a float column, which RFC 8259 cannot spell and
    no analysis makes, raises a ValueError naming its comparison.  The file
    is whole or absent, as open_output writes every file.
    """
    if not reports or len({report.comparison_id for report in reports}) < len(reports):
        raise ValueError("a report file holds at least one comparison, each with its own id")
    with open_output(path) as handle:
        separator = "[\n"
        for report in reports:
            try:
                text, columns = _comparison_rows(report)
                handle.write(separator + text + "[\n")
                write_rows(handle, _ROW_PIECES, columns, ",\n")
            except ValueError as exc:
                raise ValueError(f"comparison {report.comparison_id!r}: {exc}") from None
            handle.write("\n    ]\n  }")
            separator = ",\n"
        handle.write("\n]\n")


def _float(value, key: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key!r} is out of float range") from None


def _load_comparison(entry: dict) -> ComparisonReport:
    agg = field(entry, "aggregate", (dict,))
    rows = field(entry, "circuits", ((list, (dict,)),))
    if not rows:
        raise ValueError("'circuits' is empty; a comparison has circuit rows")
    k = field(agg, "k", (int,))
    # Held as floats, so an integer here must lie within float range.
    alpha_local = _float(field(entry, "alpha_local", NUMBER), "alpha_local")
    _float(k, "k")
    numbers, nulls = {}, {}
    try:
        for key in ("llr", "p", "jsd", "jsd_threshold"):
            numbers[key] = np.array(column(rows, key, NUMBER, "circuit"), dtype=float)
        for key in ("tvd", "sstvd", "sstvd_per_gate"):
            values = column(rows, key, NUMBER + (type(None),), "circuit")
            nulls[key] = np.array([value is None for value in values], dtype=bool)
            numbers[key] = np.array([0.0 if value is None else value for value in values],
                                    dtype=float)
    except OverflowError:
        raise ValueError(f"circuit: {key!r} is out of float range") from None
    rejected = np.array(column(rows, "rejected", (bool,), "circuit"), dtype=bool)
    small_sample = np.array(column(rows, "small_sample", (bool,), "circuit"), dtype=bool)
    contexts = tuple(field(entry, "contexts", STRINGS))
    circuit_ids = tuple(column(rows, "id", (str,), "circuit"))
    warnings = tuple(field(entry, "warnings", STRINGS))
    _check_k(k, len(rows), len(contexts))
    try:  # the chi-squared functions fail only for a huge k
        report = ComparisonReport.from_columns(
            comparison_id=entry["comparison_id"], contexts=contexts, alpha_local=alpha_local,
            dof=k // len(rows), circuit_ids=circuit_ids, warnings=warnings,
            small_sample=small_sample, sstvd_per_gate_null=nulls["sstvd_per_gate"],
            **{_ROW[key]: numbers[key] for key in numbers if key != "sstvd"})
        header = _header(report)
    except (RuntimeError, ArithmeticError) as exc:
        raise ValueError(f"aggregate 'k' {reprlib.repr(k)} is beyond the chi-squared "
                         f"functions' range ({exc})") from None
    # json reads the token NaN as a NaN, and a number beyond float range as infinity.
    wrong = np.argwhere(~np.isfinite(np.array(list(numbers.values()))).T)
    if wrong.size:
        n, key = int(wrong[0, 0]), list(numbers)[wrong[0, 1]]
        raise ValueError(f"{key!r} of circuit {n} must be a finite number, got {rows[n][key]!r}")
    # Every other field is the report's, in file order: the header's, then the rows'
    # rejected and nullable fields, null where its nulls say, floats bit for bit.
    for obj, derived in ((agg, header["aggregate"]), (entry, header)):
        for key in [key for key in derived if key not in _READ]:
            stated = field(obj, key, (bool,) if type(derived[key]) is bool else NUMBER)
            if repr(_float(stated, key)) != repr(float(derived[key])):
                raise ValueError(f"{key!r} must be {derived[key]!r}, got {stated!r}")
    numbers["rejected"], nulls["rejected"] = rejected, np.zeros(len(rows), dtype=bool)
    for key in ("rejected", *report.nulls):
        derived, null = getattr(report, _ROW[key]), report.nulls.get(key, nulls["rejected"])
        bits = [np.asarray(a, dtype=float).view(np.int64) for a in (numbers[key], derived)]
        wrong = (nulls[key] != null) | (~null & (bits[0] != bits[1]))
        if wrong.any():
            n = int(np.argmax(wrong))
            # A field that shows its own column is derived only where it is null.
            value = ("a number" if nulls[key][n] and not null[n] and _ROW[key] == key
                     else repr(None if null[n] else derived[n].item()))
            raise ValueError(f"{key!r} of circuit {n} must be {value}, got {rows[n][key]!r}")
    return report


@loader()
def load_report(path: Path) -> list[ComparisonReport]:
    """Read back a report file written by save_report.

    Every field save_report writes is required, with its JSON type, and
    rows are objects.  Also a ValueError: no comparisons, a repeated
    comparison_id, a comparison without rows, an alpha_local, k or row
    number beyond float range, a k that is not a positive multiple of rows
    x (contexts - 1) or is beyond the chi-squared functions, a report that
    ComparisonReport refuses, a row number that is not finite, or a field
    the report derives (_header's, and a row's rejected and nulls) stated
    otherwise.  A fault in a comparison begins with its index and id.
    """
    raw = read_json(path, ((list, (dict,)),))
    if not raw:
        raise ValueError("no comparisons; an analysis writes at least one")
    reports = []
    for n, entry in enumerate(raw):
        where = f"comparison {n} ({field(entry, 'comparison_id', (str,), f'comparison {n}')!r})"
        try:
            reports.append(_load_comparison(entry))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    first: dict[str, int] = {}
    for n, report in enumerate(reports):
        if first.setdefault(report.comparison_id, n) != n:
            raise ValueError(f"comparison {n} ({report.comparison_id!r}): "
                             f"comparison_id repeats comparison {first[report.comparison_id]}")
    return reports


@record
class PairwiseMatrices(Record):
    """Fig-2-style summary: N_sigma above the diagonal, rejection counts below."""

    contexts: tuple[str, ...]
    n_sigma: tuple[tuple[float | None, ...], ...]
    rejected_counts: tuple[tuple[int | None, ...], ...]

    def __init__(self, contexts: tuple[str, ...], n_sigma: tuple[tuple[float | None, ...], ...],
                 rejected_counts: tuple[tuple[int | None, ...], ...]) -> None:
        self.__dict__.update(contexts=contexts, n_sigma=n_sigma, rejected_counts=rejected_counts)


def pairwise_matrices(reports: Sequence[ComparisonReport],
                      contexts: Sequence[str]) -> PairwiseMatrices:
    """Assemble the pairwise N_sigma / rejection-count matrices, in ``contexts`` order.

    Needs exactly one report for every unordered pair of ``contexts``; a
    pair that two reports compare is a ValueError naming both.
    """
    pair_reports: dict[frozenset, ComparisonReport] = {}
    for report in reports:
        if len(report.contexts) == 2:
            first = pair_reports.setdefault(frozenset(report.contexts), report)
            if first is not report:
                raise ValueError(
                    f"comparisons {first.comparison_id!r} and {report.comparison_id!r} "
                    f"both compare contexts {first.contexts[0]!r}, {first.contexts[1]!r}")
    contexts = distinct_labels(contexts, "context", "pairwise matrices")
    size = len(contexts)
    sigma: list[list[float | None]] = [[None] * size for _ in range(size)]
    counts: list[list[int | None]] = [[None] * size for _ in range(size)]
    for i, j in combinations(range(size), 2):
        report = pair_reports.get(frozenset((contexts[i], contexts[j])))
        if report is None:
            raise ValueError(f"no pair comparison for contexts {contexts[i]!r}, {contexts[j]!r}")
        sigma[i][j] = report.aggregate.n_sigma
        counts[j][i] = len(report.rejected_ids)
    return PairwiseMatrices(
        contexts=contexts,
        n_sigma=tuple(tuple(row) for row in sigma),
        rejected_counts=tuple(tuple(row) for row in counts),
    )


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(value, ".10g")


def write_pairwise_csv(matrices: PairwiseMatrices, path: str | Path) -> None:
    """One combined matrix: N_sigma upper triangle, rejection counts lower.

    The bytes csv.writer writes; N_sigma is written as .10g.  The file is
    whole or absent, as open_output writes every file.
    """
    contexts = matrices.contexts
    lines = [",".join(map(_csv_field, ("context", *contexts))) + "\r\n"]
    for i, context in enumerate(contexts):
        cells = (_format_cell(matrices.n_sigma[i][j] if j > i else
                              matrices.rejected_counts[i][j] if j < i else None)
                 for j in range(len(contexts)))
        lines.append(",".join((_csv_field(context), *cells)) + "\r\n")
    with open_output(path) as handle:
        handle.write("".join(lines))


class JsdProfile(RowView):
    """A report's JSD profile: read as a sequence, the rows (circuit_id,
    core_length, jsd, jsd_threshold), each built when read.  ``core_texts``
    spells the int ``core_lengths``."""

    def __init__(self, report: ComparisonReport, core_lengths: Sequence[int],
                 core_texts: Sequence[str]) -> None:
        self.report, self.core_lengths, self.core_texts = report, core_lengths, core_texts
        ids, jsd, threshold = report.circuit_ids, report.jsd, report.jsd_threshold
        super().__init__(len(ids), lambda i: (
            ids[i], core_lengths[i], float(jsd[i]), float(threshold[i])))


def jsd_profile(report: ComparisonReport, dataset: ContextDataset) -> JsdProfile:
    """The (circuit_id, core_length, jsd, jsd_threshold) profile of a report.

    Core lengths come from the dataset's core_lengths column, read once per
    id of the report's store; every circuit in the report must have one.
    """
    store, column = report.store, dataset.core_lengths

    def core_lengths():  # holding the dataset keeps its id from naming another
        cores = [None if row is None or column[row] is None else int(column[row])
                 for row in map(dataset._index.get, store.circuit_ids.tolist())]
        return dataset, np.array(cores, dtype=object), np.array(list(map(str, cores)), dtype=object)

    _, cores, texts = store.texts(("core_length", id(dataset)), core_lengths)
    cores = cores[report.rows].tolist()
    if None in cores:
        raise ValueError(f"circuit {report.circuit_ids[cores.index(None)]!r} has no "
                         "core_length; profile needs one")
    return JsdProfile(report, cores, texts[report.rows].tolist())


def _csv_field(text: str) -> str:
    # csv.writer's minimal quoting in its default (excel) dialect.
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_jsd_profile_csv(profile: JsdProfile, path: str | Path) -> None:
    """The bytes csv.writer writes for the header and the profile's rows: the
    store's texts of the ids, jsd and jsd_threshold, each formatted once.
    The file is whole or absent, as open_output writes every file."""
    report = profile.report
    with open_output(path) as handle:
        handle.write("circuit_id,core_length,jsd,jsd_threshold\r\n")
        write_rows(handle, ("", ",", ",", ",", "\r\n"), [
            _texts(report, _csv_field, "circuit_ids").tolist(), profile.core_texts,
            *(_texts(report, _g10_floats, name).tolist() for name in ("jsd", "jsd_threshold"))])
