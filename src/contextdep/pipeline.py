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
core-length profile).
"""

from __future__ import annotations

import json
import math
import reprlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, compress
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .counts import (NUMBER, STRINGS, ContextDataset, DatasetError, RowView, column,
                     columns_equal, distinct_labels, field, read_json, write_rows)
from .divergence import jsd_from_llr, tvd_rows
from .gstgen import CircuitSpec
from .llr import AggregateTestResult, TableTests, llr_tests
from .multitest import _step_up, combined_procedure

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


@dataclass(frozen=True)
class Comparison:
    """One question: do these contexts share an outcome distribution?"""

    comparison_id: str
    contexts: tuple[str, ...]
    weight: float

    def __post_init__(self) -> None:
        contexts = distinct_labels(self.contexts, "context", f"comparison {self.comparison_id!r}")
        # A weight is a positive share of alpha.  Comparing, not converting,
        # keeps a huge integer from overflowing; NaN fails every comparison.
        if isinstance(self.weight, bool) or not 0 < self.weight <= 1:
            raise ValueError(f"comparison {self.comparison_id!r}: weight must be a number "
                             f"in (0, 1], got {self.weight!r}")
        object.__setattr__(self, "contexts", contexts)
        object.__setattr__(self, "weight", float(self.weight))


@dataclass(frozen=True)
class ComparisonPlan:
    """An ordered list of comparisons whose weights split the global alpha."""

    comparisons: tuple[Comparison, ...]

    def __post_init__(self) -> None:
        comparisons = tuple(self.comparisons)
        distinct_labels([c.comparison_id for c in comparisons], "comparison_id", "plan",
                        minimum=1)
        total = math.fsum(c.weight for c in comparisons)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"comparison weights must sum to 1, got {total!r}")
        object.__setattr__(self, "comparisons", comparisons)

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


def load_plan(path: str | Path) -> ComparisonPlan:
    """Read a plan from JSON: {"comparisons": [{id, contexts, weight}, ...]}.

    Weights may be omitted entirely, in which case the comparisons share
    the budget equally.  An absent or null id is the contexts joined by
    "_vs_".
    """
    path = Path(path)
    entries = field(read_json(path, (dict,)), "comparisons", ((list, (dict,)),), str(path))
    where = f"{path}: comparison"
    contexts = column(entries, "contexts", STRINGS, where)
    ids = ["_vs_".join(labels) if cid is None else cid for labels, cid in zip(
        contexts, column(entries, "id", (str, type(None)), where, default=None))]
    weights = column(entries, "weight", NUMBER + (type(None),), where, default=None)
    try:
        if None not in weights:
            return ComparisonPlan(tuple(map(Comparison, ids, map(tuple, contexts), weights)))
        if any(w is not None for w in weights):
            raise ValueError("give every comparison a weight, or none")
        return _equal_split(list(zip(ids, contexts)))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class CircuitAnalysis:
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


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Everything one comparison concluded, internally consistent.

    The per-circuit rows, at least one, are held as columns in circuit
    order: float64 arrays llr, p_value, jsd and jsd_threshold, the bool
    array small_sample, and the optional float64 columns tvd and
    sstvd_per_gate, null where tvd_null and sstvd_per_gate_null say (the
    value under a null is 0.0).  The rest is derived, one rule each, as
    multitest.combined_procedure decides: ``aggregate_triggered`` is the
    aggregate p below alpha_local / 2; ``p_threshold`` is the step-up
    threshold of p_value at alpha_local, or at half of it when not
    triggered; ``rejected`` is p_value < p_threshold; and the SSTVD, like
    a per-gate SSTVD, is shown only on rejected rows with a tvd
    (``sstvd_null``).  ``circuits`` is a read-only view of the rows as one
    CircuitAnalysis per row.
    """

    comparison_id: str
    contexts: tuple[str, ...]
    alpha_local: float
    aggregate: AggregateTestResult
    n_sigma_threshold: float
    llr_threshold: float | None
    circuit_ids: tuple[str, ...]
    llr: np.ndarray
    p_value: np.ndarray
    jsd: np.ndarray
    jsd_threshold: np.ndarray
    small_sample: np.ndarray
    tvd: np.ndarray
    tvd_null: np.ndarray
    sstvd_per_gate: np.ndarray
    sstvd_per_gate_null: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.circuit_ids:
            raise ValueError(f"comparison {self.comparison_id!r}: no circuit rows")

    def __eq__(self, other):
        if not isinstance(other, ComparisonReport):
            return NotImplemented
        return columns_equal(self, other)

    @property
    def circuits(self) -> Sequence[CircuitAnalysis]:
        return RowView(len(self.circuit_ids), self._row)

    def _row(self, i: int) -> CircuitAnalysis:
        tvd = None if self.tvd_null[i] else float(self.tvd[i])
        shown = not self.sstvd_null[i]
        per_gate = (float(self.sstvd_per_gate[i])
                    if shown and not self.sstvd_per_gate_null[i] else None)
        return CircuitAnalysis(self.circuit_ids[i], float(self.llr[i]), float(self.p_value[i]),
                               float(self.jsd[i]), float(self.jsd_threshold[i]), tvd,
                               tvd if shown else None, per_gate,
                               bool(self.rejected[i]), bool(self.small_sample[i]))

    @property
    def aggregate_triggered(self) -> bool:
        return self.aggregate.p_value < 0.5 * self.alpha_local

    # Cached: the step-up sorts the p-values, and the row view reads the
    # masks once per row.
    @cached_property
    def p_threshold(self) -> float:
        beta = self.alpha_local if self.aggregate_triggered else 0.5 * self.alpha_local
        return _step_up(self.p_value, self.circuit_ids, beta)[2]

    @cached_property
    def rejected(self) -> np.ndarray:
        return self.p_value < self.p_threshold

    @cached_property
    def sstvd_null(self) -> np.ndarray:
        return self.tvd_null | ~self.rejected

    @property
    def detected(self) -> bool:
        return self.aggregate_triggered or bool(self.rejected.any())

    @property
    def rejected_ids(self) -> tuple[str, ...]:
        return tuple(compress(self.circuit_ids, self.rejected.tolist()))

    @property
    def max_sstvd(self) -> float | None:
        values = self.tvd[~self.sstvd_null]
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
    ints.  Returns, per width, the llr_tests of that width's distinct
    tables, their JSDs and, for pairs, their TVDs; and for each comparison
    the positions of its rows' tables in those results.
    """
    distinct: dict[int, dict[tuple, int]] = {}
    positions = []
    for columns, rows, _ in slices:
        index = distinct.setdefault(len(columns), {})
        tables = dataset.counts[np.ix_(rows, columns)].reshape(len(rows), -1).tolist()
        positions.append(np.array([index.setdefault(table, len(index))
                                   for table in map(tuple, tables)]))
    shared = {}
    for width, index in distinct.items():
        stack = np.array(list(index), dtype=object).reshape(len(index), width, -1)
        tests = llr_tests(stack)
        shared[width] = (tests, jsd_from_llr(tests.llr, tests.n_total),
                         tvd_rows(stack) if width == 2 else None)
    return shared, positions


def run_analysis(dataset: ContextDataset, plan: ComparisonPlan | None = None,
                 alpha: float = 0.05) -> list[ComparisonReport]:
    """Run every planned comparison against a dataset, in plan order.

    Local budgets are alpha times each comparison's weight.  Each
    comparison analyses a slice of the dataset's count array.  The
    comparisons of a plan share most of their count tables, so each
    distinct exact table is tested once, in one llr_tests call per number
    of contexts (and one tvd_rows call for the pairs), and each comparison
    gathers its rows from those.  A table with its contexts swapped is
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
    shared, positions = _test_distinct_tables(dataset, slices)
    ids = np.array(dataset.circuit_ids, dtype=object)
    reports = []
    for comparison, (_, rows, warnings), where in zip(plan, slices, positions):
        tests, jsd, tvd = shared[len(comparison.contexts)]
        tests = TableTests(llr=tests.llr[where], dof=tests.dof, p_value=tests.p_value[where],
                           n_total=tests.n_total[where],
                           small_sample=tests.small_sample[where])
        circuit_ids = tuple(ids[rows].tolist())
        alpha_local = alpha * comparison.weight
        try:
            outcome = combined_procedure(tests, circuit_ids, alpha_local)
        except ValueError as exc:
            raise ValueError(f"comparison {comparison.comparison_id!r}: {exc}") from None
        tvd_null = np.full(len(rows), tvd is None)
        tvd = np.zeros(len(rows)) if tvd is None else tvd[where]
        per_gate, per_gate_null = np.zeros_like(tvd), np.ones_like(tvd_null)
        for i in np.flatnonzero(outcome.rejected & ~tvd_null).tolist():
            try:  # an absent or unparseable spec has no gate count
                n_gates = CircuitSpec(dataset.specs[rows[i]]).length
            except ValueError:
                continue
            if n_gates:
                per_gate[i], per_gate_null[i] = tvd[i] / n_gates, False
        reports.append(ComparisonReport(
            comparison_id=comparison.comparison_id,
            contexts=comparison.contexts,
            alpha_local=alpha_local,
            aggregate=outcome.aggregate,
            n_sigma_threshold=outcome.n_sigma_threshold,
            llr_threshold=outcome.llr_threshold,
            circuit_ids=circuit_ids,
            llr=tests.llr,
            p_value=tests.p_value,
            jsd=jsd[where],
            # All rows share one dof, so the outcome's statistic threshold is theirs.
            jsd_threshold=jsd_from_llr(outcome.llr_threshold, tests.n_total),
            small_sample=tests.small_sample,
            tvd=tvd,
            tvd_null=tvd_null,
            sstvd_per_gate=per_gate,
            sstvd_per_gate_null=per_gate_null,
            warnings=warnings,
        ))
    return reports


def _format_distinct(values: np.ndarray, format_all, texts: dict[int, str]) -> np.ndarray:
    """format_all(list of floats) -> texts, spread over values as an object array.

    Count tables repeat, within a comparison and across a plan, so each
    distinct value is formatted once, keyed on its bit pattern: keying on
    the value would merge -0.0 with 0.0.  ``texts`` maps each bit pattern
    formatted so far to its text; the values new to it are formatted and
    added, so one dict shared by the columns of a file formats each value
    of the file once.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    bits = bits.tolist()
    new = [b for b in bits if b not in texts]
    texts.update(zip(new, format_all(np.array(new, dtype=np.int64).view(np.float64).tolist())))
    return np.array(list(map(texts.__getitem__, bits)), dtype=object)[inverse]


def _json_floats(values: list[float]) -> list[str]:
    # json's own spellings, NaN and Infinity included; none contains ", ".
    return json.dumps(values)[1:-1].split(", ")


def _g10_floats(values: list[float]) -> list[str]:
    return [format(value, ".10g") for value in values]


# One circuit row as json.dumps(..., indent=2) lays it out, cut at its ten values.
_ROW_PIECES = """      {
        "id": "%s",
        "llr": %s,
        "p": %s,
        "jsd": %s,
        "jsd_threshold": %s,
        "tvd": %s,
        "sstvd": %s,
        "sstvd_per_gate": %s,
        "rejected": %s,
        "small_sample": %s
      }""".split("%s")

# The stored float columns of a report row, in _ROW_PIECES order; tvd also
# gives the sstvd texts.  The last two are null where their mask says so.
_FLOAT_COLUMNS = ("llr", "p_value", "jsd", "jsd_threshold", "tvd", "sstvd_per_gate")


def _comparison_rows(report: ComparisonReport, encoded_ids: Mapping[str, str],
                     float_texts: dict[int, str]) -> tuple[str, list[list[str]]]:
    """The comparison's object as json.dumps(reports, indent=2) writes it:
    the text up to its circuits array, and the ten text columns of its rows.

    ``encoded_ids`` maps each circuit id to its JSON string body, and
    ``float_texts`` is the file's _format_distinct dict of float texts.
    """
    head = {
        "comparison_id": report.comparison_id,
        "contexts": list(report.contexts),
        "alpha_local": report.alpha_local,
        "aggregate": {
            "llr": report.aggregate.llr,
            "k": report.aggregate.dof,
            "p": report.aggregate.p_value,
            "n_sigma": report.aggregate.n_sigma,
            "n_sigma_threshold": report.n_sigma_threshold,
            "triggered": report.aggregate_triggered,
        },
        "p_threshold": report.p_threshold,
        "llr_threshold": report.llr_threshold,
        "detected": report.detected,
        "warnings": list(report.warnings),
    }
    # Strip the enclosing "[\n" and "\n  }\n]": the circuits go last.
    text = json.dumps([head], indent=2)[2:-6] + ',\n    "circuits": '
    # All six float columns in one pass; a column of another length than
    # the ids must fail write_rows' length check, not shift the others.
    columns = [getattr(report, name) for name in _FLOAT_COLUMNS]
    texts = _format_distinct(np.concatenate(columns), _json_floats, float_texts)
    floats = np.split(texts, np.cumsum([len(column) for column in columns])[:-1])
    tvd, per_gate = floats[4:]
    floats[4:] = [np.where(null, "null", column) for column, null in (
        (tvd, report.tvd_null), (tvd, report.sstvd_null),
        (per_gate, report.sstvd_per_gate_null | report.sstvd_null))]
    return text, [list(map(encoded_ids.__getitem__, report.circuit_ids)),
                  *(column.tolist() for column in floats),
                  *(np.where(values, "true", "false").tolist()
                    for values in (report.rejected, report.small_sample))]


def _json_body(text: str) -> str:
    body = encode_basestring_ascii(text)[1:-1]
    return text if body == text else body


def save_report(reports: Sequence[ComparisonReport], path: str | Path) -> None:
    """Write reports as a JSON array; identical analyses give identical bytes.

    The bytes are those of json.dumps(payload, indent=2) plus a newline,
    written one comparison at a time, its rows by write_rows from ten text
    columns.  The comparisons of a plan share circuits and values, so each
    id is encoded once and each distinct float of the file formatted once.
    Like load_report, it refuses no reports and a repeated comparison_id.
    """
    if not reports or len({report.comparison_id for report in reports}) < len(reports):
        raise ValueError("a report file holds at least one comparison, each with its own id")
    # A JSON string body is the id itself where nothing needs escaping: a
    # plan's long circuit ids are then not held twice while the file is written.
    ids = set(chain.from_iterable(report.circuit_ids for report in reports))
    encoded = {cid: _json_body(cid) for cid in ids}
    float_texts: dict[int, str] = {}
    separator = "[\n"
    with open(path, "w", encoding="utf-8") as handle:
        for report in reports:
            text, columns = _comparison_rows(report, encoded, float_texts)
            handle.write(separator + text + "[\n")
            write_rows(handle, _ROW_PIECES, columns, ",\n")
            handle.write("\n    ]\n  }")
            separator = ",\n"
        handle.write("\n]\n")


def _float(value, key: str, where: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{where}: {key!r} is out of float range") from None


def _load_comparison(entry: dict, where: str) -> ComparisonReport:
    where = f"{where} ({field(entry, 'comparison_id', (str,), where)!r})"
    agg = field(entry, "aggregate", (dict,), where)
    rows = field(entry, "circuits", ((list, (dict,)),), where)
    if not rows:
        raise ValueError(f"{where}: 'circuits' is empty; a comparison has circuit rows")
    dof = field(agg, "k", (int,), where)
    if dof < 1:
        raise ValueError(f"{where}: 'k' must be a positive integer, got {reprlib.repr(dof)}")
    # The decision and N_sigma compute with these as floats.
    alpha_local = _float(field(entry, "alpha_local", NUMBER, where), "alpha_local", where)
    llr = _float(field(agg, "llr", NUMBER, where), "llr", where)
    _float(dof, "k", where)
    row = f"{where}: circuit"
    columns = {}
    try:
        for key, name in (("llr", "llr"), ("p", "p_value"), ("jsd", "jsd"),
                          ("jsd_threshold", "jsd_threshold")):
            columns[name] = np.array(column(rows, key, NUMBER, row), dtype=float)
        for key in ("tvd", "sstvd", "sstvd_per_gate"):
            values = column(rows, key, NUMBER + (type(None),), row, default=None)
            columns[key + "_null"] = np.array([value is None for value in values], dtype=bool)
            columns[key] = np.array([0.0 if value is None else value for value in values],
                                    dtype=float)
    except OverflowError:
        raise ValueError(f"{row}: {key!r} is out of float range") from None
    sstvd, sstvd_null = columns.pop("sstvd"), columns.pop("sstvd_null")
    rejected = np.array(column(rows, "rejected", (bool,), row), dtype=bool)
    columns["small_sample"] = np.array(column(rows, "small_sample", (bool,), row, False),
                                       dtype=bool)
    report = ComparisonReport(
        comparison_id=entry["comparison_id"],
        contexts=tuple(field(entry, "contexts", STRINGS, where)),
        alpha_local=alpha_local,
        aggregate=AggregateTestResult(llr=llr, dof=dof, p_value=field(agg, "p", NUMBER, where)),
        n_sigma_threshold=field(agg, "n_sigma_threshold", NUMBER, where),
        llr_threshold=field(entry, "llr_threshold", NUMBER + (type(None),), where),
        circuit_ids=tuple(column(rows, "id", (str,), row)),
        warnings=tuple(field(entry, "warnings", STRINGS, where, default=[])),
        **columns,
    )
    # A derived value the file states must be the report's, the header's
    # first: an omitted one is not checked, and a stated number is the
    # report's float bit for bit (repr tells -0.0 from 0.0, and NaN is NaN).
    for obj, key, kinds, derived, rule in (
            (agg, "n_sigma", NUMBER, report.aggregate.n_sigma, "(llr - k) / sqrt(2 k)"),
            (agg, "triggered", (bool,), report.aggregate_triggered,
             "whether p < alpha_local / 2"),
            (entry, "p_threshold", NUMBER, report.p_threshold, "the step-up threshold of the "
             "rows' p at alpha_local, or at alpha_local / 2 if the aggregate did not trigger")):
        stated = field(obj, key, kinds, where, default=derived)
        if repr(_float(stated, key, where)) != repr(float(derived)):
            raise ValueError(f"{where}: {key!r} must be {derived!r}: {rule}, got {stated!r}")
    for key, wrong, rule in (
            ("rejected", rejected != report.rejected, "p < p_threshold"),
            ("sstvd", (sstvd_null != report.sstvd_null)
             | (~sstvd_null & (sstvd.view(np.int64) != report.tvd.view(np.int64))),
             "the tvd of a rejected row, and null elsewhere"),
            ("sstvd_per_gate", report.sstvd_null & ~report.sstvd_per_gate_null,
             "null where sstvd is null")):
        stated = [i for i in np.flatnonzero(wrong).tolist() if key in rows[i]]
        if stated:
            raise ValueError(f"{where}: circuit {stated[0]}: {key!r} must be {rule}, "
                             f"got {rows[stated[0]][key]!r}")
    if field(entry, "detected", (bool,), where, default=report.detected) != report.detected:
        raise ValueError(f"{where}: 'detected' must be {report.detected!r}: whether the "
                         "aggregate triggered or a circuit is rejected")
    return report


def load_report(path: str | Path) -> list[ComparisonReport]:
    """Read back a report file written by save_report.

    Anything but an array of comparison objects with correctly typed
    fields, and circuit rows that are objects, is a ValueError; so is a
    file without comparisons, a comparison_id that repeats, a comparison
    without rows, a k below 1, an alpha_local, llr, k or row number beyond
    float range, and a stated n_sigma, triggered, p_threshold, rejected,
    sstvd or detected other than the report derives, or an sstvd_per_gate
    where the sstvd is null.
    """
    path = Path(path)
    raw = read_json(path, ((list, (dict,)),))
    if not raw:
        raise ValueError(f"{path}: no comparisons; an analysis writes at least one")
    reports = [_load_comparison(entry, f"{path}: comparison {n}") for n, entry in enumerate(raw)]
    first: dict[str, int] = {}
    for n, report in enumerate(reports):
        if first.setdefault(report.comparison_id, n) != n:
            raise ValueError(f"{path}: comparison {n} ({report.comparison_id!r}): "
                             f"comparison_id repeats comparison {first[report.comparison_id]}")
    return reports


@dataclass(frozen=True)
class PairwiseMatrices:
    """Fig-2-style summary: N_sigma above the diagonal, rejection counts below."""

    contexts: tuple[str, ...]
    n_sigma: tuple[tuple[float | None, ...], ...]
    rejected_counts: tuple[tuple[int | None, ...], ...]


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

    The bytes csv.writer writes; N_sigma is written as .10g.
    """
    contexts = matrices.contexts
    lines = [",".join(map(_csv_field, ("context", *contexts))) + "\r\n"]
    for i, context in enumerate(contexts):
        cells = (_format_cell(matrices.n_sigma[i][j] if j > i else
                              matrices.rejected_counts[i][j] if j < i else None)
                 for j in range(len(contexts)))
        lines.append(",".join((_csv_field(context), *cells)) + "\r\n")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(lines)


class JsdProfile(RowView):
    """A JSD profile's columns in report order: ids, int core lengths, and the
    report's jsd and jsd_threshold arrays.  Read as a sequence, it is the
    rows (circuit_id, core_length, jsd, jsd_threshold), each built when read."""

    def __init__(self, circuit_ids: Sequence[str], core_lengths: Sequence[int],
                 jsd: np.ndarray, jsd_threshold: np.ndarray) -> None:
        self.columns = (circuit_ids, core_lengths, jsd, jsd_threshold)
        super().__init__(len(circuit_ids), lambda i: (
            circuit_ids[i], core_lengths[i], float(jsd[i]), float(jsd_threshold[i])))


def jsd_profile(report: ComparisonReport, dataset: ContextDataset) -> JsdProfile:
    """The (circuit_id, core_length, jsd, jsd_threshold) profile of a report.

    Core lengths come from the dataset's core_lengths column; every circuit
    in the report must have one there.
    """
    # The dataset's own id -> row index; a missing id finds no row.
    column = dataset.core_lengths
    cores = [None if row is None else column[row]
             for row in map(dataset._index.get, report.circuit_ids)]
    if None in cores:
        raise ValueError(
            f"circuit {report.circuit_ids[cores.index(None)]!r} has no core_length; "
            "profile needs one"
        )
    return JsdProfile(report.circuit_ids, list(map(int, cores)), report.jsd,
                      report.jsd_threshold)


def _needs_quotes(text: str) -> bool:
    # csv.writer's minimal quoting in its default (excel) dialect.  csv.writer
    # inspects each field character by character, and so does a regex; on
    # long circuit ids four substring searches are far cheaper.
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _csv_field(text: str) -> str:
    if _needs_quotes(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_jsd_profile_csv(profile: JsdProfile, path: str | Path) -> None:
    """The bytes csv.writer writes for the header and the profile's rows.

    The four columns go to write_rows as texts: jsd and jsd_threshold as
    .10g, each distinct value formatted once.
    """
    ids, cores, jsds, thresholds = profile.columns
    # One scan of all the ids tells whether any needs quoting.
    if _needs_quotes("".join(ids)):
        ids = list(map(_csv_field, ids))
    cells = _format_distinct(np.concatenate((jsds, thresholds)), _g10_floats, {}).tolist()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("circuit_id,core_length,jsd,jsd_threshold\r\n")
        write_rows(handle, ("", ",", ",", ",", "\r\n"),
                   [ids, list(map(str, cores)), cells[:len(cores)], cells[len(cores):]])
