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
per dataset; a comparison tests a slice of it, all circuits at once.
Reports serialize to JSON and to the two CSV data layers used for
plotting (a pairwise N-sigma / rejection-count matrix and a JSD versus
core-length profile).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .counts import ContextDataset, DatasetError, count_array, read_json
from .divergence import jsd_from_llr, tvd_rows
from .gstgen import parse_circuit_text
from .llr import (AggregateTestResult, CircuitTestResult, llr_aggregate,
                  llr_tests, n_sigma_threshold)
from .multitest import combined_procedure

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
        contexts = tuple(self.contexts)
        if len(contexts) < 2:
            raise ValueError(f"comparison {self.comparison_id!r}: needs at least two contexts")
        if len(set(contexts)) != len(contexts):
            raise ValueError(f"comparison {self.comparison_id!r}: repeated context")
        if self.weight < 0.0:
            raise ValueError(f"comparison {self.comparison_id!r}: negative weight")
        object.__setattr__(self, "contexts", contexts)


@dataclass(frozen=True)
class ComparisonPlan:
    """An ordered list of comparisons whose weights split the global alpha."""

    comparisons: tuple[Comparison, ...]

    def __post_init__(self) -> None:
        comparisons = tuple(self.comparisons)
        if not comparisons:
            raise ValueError("plan has no comparisons")
        ids = [c.comparison_id for c in comparisons]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate comparison_id in plan")
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
        return ComparisonPlan((Comparison("joint", tuple(contexts), 1.0),))

    @staticmethod
    def all_pairs(contexts: Sequence[str]) -> "ComparisonPlan":
        pairs = list(combinations(tuple(contexts), 2))
        if not pairs:
            raise ValueError("need at least two contexts")
        weight = 1.0 / len(pairs)
        return ComparisonPlan(tuple(
            Comparison(f"{a}_vs_{b}", (a, b), weight) for a, b in pairs
        ))

    @staticmethod
    def default(contexts: Sequence[str]) -> "ComparisonPlan":
        """Joint comparison plus every pair, all weighted equally.

        With exactly two contexts the joint comparison is the only pair,
        so the plan collapses to a single full-budget comparison.
        """
        contexts = tuple(contexts)
        if len(contexts) == 2:
            return ComparisonPlan(
                (Comparison(f"{contexts[0]}_vs_{contexts[1]}", contexts, 1.0),)
            )
        pairs = list(combinations(contexts, 2))
        weight = 1.0 / (1 + len(pairs))
        entries = [Comparison("joint", contexts, weight)]
        entries.extend(Comparison(f"{a}_vs_{b}", (a, b), weight) for a, b in pairs)
        return ComparisonPlan(tuple(entries))


def load_plan(path: str | Path) -> ComparisonPlan:
    """Read a plan from JSON: {"comparisons": [{id, contexts, weight}, ...]}.

    Weights may be omitted entirely, in which case the comparisons share
    the budget equally.
    """
    path = Path(path)
    raw = read_json(path)
    entries = raw.get("comparisons") if isinstance(raw, dict) else None
    if (not entries or not isinstance(entries, list)
            or not all(isinstance(entry, dict) for entry in entries)):
        raise ValueError(f"{path}: expected an object with a 'comparisons' array of objects")
    weights = [entry.get("weight") for entry in entries]
    if any(w is None for w in weights):
        if any(w is not None for w in weights):
            raise ValueError(f"{path}: give every comparison a weight, or none")
        weights = [1.0 / len(entries)] * len(entries)
    comparisons = []
    for entry, weight in zip(entries, weights):
        if "contexts" not in entry:
            raise ValueError(f"{path}: comparison entry without 'contexts'")
        contexts = entry["contexts"]
        if not isinstance(contexts, list) or not all(isinstance(c, str) for c in contexts):
            raise ValueError(f"{path}: 'contexts' must be an array of context labels")
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ValueError(f"{path}: comparison weight {weight!r} is not a number")
        contexts = tuple(contexts)
        comparison_id = entry.get("id", "_vs_".join(contexts))
        if not isinstance(comparison_id, str):
            raise ValueError(f"{path}: comparison id {comparison_id!r} is not a string")
        comparisons.append(Comparison(comparison_id, contexts, float(weight)))
    return ComparisonPlan(tuple(comparisons))


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


@dataclass(frozen=True)
class ComparisonReport:
    """Everything one comparison concluded, internally consistent."""

    comparison_id: str
    contexts: tuple[str, ...]
    alpha_local: float
    aggregate: AggregateTestResult
    n_sigma_threshold: float
    aggregate_triggered: bool
    p_threshold: float
    llr_threshold: float | None
    circuits: tuple[CircuitAnalysis, ...]
    warnings: tuple[str, ...] = ()

    @property
    def detected(self) -> bool:
        return self.aggregate_triggered or any(c.rejected for c in self.circuits)

    @property
    def rejected_ids(self) -> tuple[str, ...]:
        return tuple(c.circuit_id for c in self.circuits if c.rejected)

    @property
    def max_sstvd(self) -> float | None:
        values = [c.sstvd for c in self.circuits if c.sstvd is not None]
        return max(values) if values else None


def _gate_count(spec: str | None) -> int | None:
    if spec is None:
        return None
    try:
        return len(parse_circuit_text(spec))
    except ValueError:
        return None


def _run_comparison(dataset: ContextDataset, counts: np.ndarray, present: np.ndarray,
                    comparison: Comparison, alpha_local: float) -> ComparisonReport:
    columns = [dataset.contexts.index(c) for c in comparison.contexts]
    complete = present[:, columns].all(axis=1)
    warnings = []
    for record, ok in zip(dataset.circuits, complete.tolist()):
        if not ok:
            missing = [c for c in comparison.contexts if c not in record.contexts]
            warnings.append(
                f"circuit {record.circuit_id!r}: missing context(s) "
                f"{', '.join(repr(m) for m in missing)}; skipped"
            )
    rows = np.flatnonzero(complete)
    if not rows.size:
        raise DatasetError(
            f"comparison {comparison.comparison_id!r}: no circuit has all of "
            f"{comparison.contexts}"
        )

    table = counts[rows][:, columns]
    tests = llr_tests(table)
    records = [dataset.circuits[i] for i in rows.tolist()]
    results = [
        CircuitTestResult(record.circuit_id, llr, tests.dof, p, n, small)
        for record, llr, p, n, small in zip(
            records, tests.llr.tolist(), tests.p_value.tolist(),
            tests.n_total.tolist(), tests.small_sample.tolist())
    ]
    aggregate = llr_aggregate(results)
    outcome = combined_procedure(results, aggregate, alpha_local)
    sigma_threshold = n_sigma_threshold(0.5 * alpha_local, aggregate.dof)
    # All rows share one dof, so the outcome's statistic threshold is theirs.
    jsds = jsd_from_llr(tests.llr, tests.n_total).tolist()
    jsd_thresholds = jsd_from_llr(outcome.llr_threshold, tests.n_total).tolist()
    is_pair = len(comparison.contexts) == 2
    tvds = tvd_rows(table).tolist() if is_pair else [None] * len(records)

    lines = []
    for record, result, jsd, jsd_cut, tvd in zip(records, results, jsds,
                                                 jsd_thresholds, tvds):
        rejected = record.circuit_id in outcome.rejected_ids
        significant_tvd = tvd if (is_pair and rejected) else None
        per_gate = None
        if significant_tvd is not None:
            length = _gate_count(record.spec)
            if length:
                per_gate = significant_tvd / length
        lines.append(
            CircuitAnalysis(
                circuit_id=record.circuit_id,
                llr=result.llr,
                p_value=result.p_value,
                jsd=jsd,
                jsd_threshold=jsd_cut,
                tvd=tvd,
                sstvd=significant_tvd,
                sstvd_per_gate=per_gate,
                rejected=rejected,
                small_sample=result.small_sample,
            )
        )

    return ComparisonReport(
        comparison_id=comparison.comparison_id,
        contexts=comparison.contexts,
        alpha_local=alpha_local,
        aggregate=aggregate,
        n_sigma_threshold=sigma_threshold,
        aggregate_triggered=outcome.aggregate_triggered,
        p_threshold=outcome.p_threshold,
        llr_threshold=outcome.llr_threshold,
        circuits=tuple(lines),
        warnings=tuple(warnings),
    )


def run_analysis(dataset: ContextDataset, plan: ComparisonPlan | None = None,
                 alpha: float = 0.05) -> list[ComparisonReport]:
    """Run every planned comparison against a dataset, in plan order.

    Local budgets are alpha times each comparison's weight.  The dataset's
    count array is built once and each comparison analyses a slice of it.
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
    counts, present = count_array(dataset)
    return [_run_comparison(dataset, counts, present, comparison, alpha * comparison.weight)
            for comparison in plan]


def _report_to_json(report: ComparisonReport) -> dict:
    return {
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
        "circuits": [
            {
                "id": line.circuit_id,
                "llr": line.llr,
                "p": line.p_value,
                "jsd": line.jsd,
                "jsd_threshold": line.jsd_threshold,
                "tvd": line.tvd,
                "sstvd": line.sstvd,
                "sstvd_per_gate": line.sstvd_per_gate,
                "rejected": line.rejected,
                "small_sample": line.small_sample,
            }
            for line in report.circuits
        ],
    }


def save_report(reports: Sequence[ComparisonReport], path: str | Path) -> None:
    """Write reports as a JSON array; identical analyses give identical bytes."""
    payload = [_report_to_json(r) for r in reports]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_report(path: str | Path) -> list[ComparisonReport]:
    """Read back a report file written by save_report."""
    path = Path(path)
    raw = read_json(path)
    if not isinstance(raw, list):
        raise ValueError(f"{path}: top level must be an array of comparisons")
    reports = []
    for entry in raw:
        try:
            agg = entry["aggregate"]
            reports.append(
                ComparisonReport(
                    comparison_id=entry["comparison_id"],
                    contexts=tuple(entry["contexts"]),
                    alpha_local=entry["alpha_local"],
                    aggregate=AggregateTestResult(
                        llr=agg["llr"], dof=agg["k"], p_value=agg["p"],
                        n_sigma=agg["n_sigma"],
                    ),
                    n_sigma_threshold=agg["n_sigma_threshold"],
                    aggregate_triggered=agg["triggered"],
                    p_threshold=entry["p_threshold"],
                    llr_threshold=entry["llr_threshold"],
                    circuits=tuple(
                        CircuitAnalysis(
                            circuit_id=line["id"],
                            llr=line["llr"],
                            p_value=line["p"],
                            jsd=line["jsd"],
                            jsd_threshold=line["jsd_threshold"],
                            tvd=line.get("tvd"),
                            sstvd=line.get("sstvd"),
                            sstvd_per_gate=line.get("sstvd_per_gate"),
                            rejected=line["rejected"],
                            small_sample=line.get("small_sample", False),
                        )
                        for line in entry["circuits"]
                    ),
                    warnings=tuple(entry.get("warnings", ())),
                )
            )
        except KeyError as exc:
            raise ValueError(f"{path}: report entry missing field {exc}") from None
    return reports


@dataclass(frozen=True)
class PairwiseMatrices:
    """Fig-2-style summary: N_sigma above the diagonal, rejection counts below."""

    contexts: tuple[str, ...]
    n_sigma: tuple[tuple[float | None, ...], ...]
    rejected_counts: tuple[tuple[int | None, ...], ...]


def pairwise_matrices(reports: Sequence[ComparisonReport],
                      contexts: Sequence[str] | None = None) -> PairwiseMatrices:
    """Assemble the pairwise N_sigma / rejection-count matrices.

    Needs a report for every unordered context pair.  Context order comes
    from ``contexts`` when given, else from a joint report, else from
    first appearance across the pair reports.
    """
    pair_reports = {frozenset(r.contexts): r for r in reports if len(r.contexts) == 2}
    if contexts is None:
        joint = [r for r in reports if len(r.contexts) > 2]
        if joint:
            contexts = joint[0].contexts
        else:
            seen: list[str] = []
            for report in reports:
                if len(report.contexts) == 2:
                    for context in report.contexts:
                        if context not in seen:
                            seen.append(context)
            contexts = seen
    contexts = tuple(contexts)
    if len(contexts) < 2:
        raise ValueError("need at least two contexts for pairwise matrices")

    size = len(contexts)
    sigma: list[list[float | None]] = [[None] * size for _ in range(size)]
    counts: list[list[int | None]] = [[None] * size for _ in range(size)]
    for i, a in enumerate(contexts):
        for j, b in enumerate(contexts):
            if j <= i:
                continue
            report = pair_reports.get(frozenset((a, b)))
            if report is None:
                raise ValueError(f"no pair comparison for contexts {a!r}, {b!r}")
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
    """One combined matrix: N_sigma upper triangle, rejection counts lower."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["context", *matrices.contexts])
        for i, context in enumerate(matrices.contexts):
            row = [context]
            for j in range(len(matrices.contexts)):
                if j > i:
                    row.append(_format_cell(matrices.n_sigma[i][j]))
                elif j < i:
                    row.append(_format_cell(matrices.rejected_counts[i][j]))
                else:
                    row.append("")
            writer.writerow(row)


def jsd_profile(report: ComparisonReport,
                core_lengths: ContextDataset | Mapping[str, int | None] | None = None,
                ) -> list[tuple[str, int, float, float]]:
    """Rows of (circuit_id, core_length, jsd, jsd_threshold) in report order.

    Core lengths come from a dataset's circuit records or any mapping;
    every circuit in the report must have one.
    """
    if isinstance(core_lengths, ContextDataset):
        lookup: Mapping[str, int | None] = {
            r.circuit_id: r.core_length for r in core_lengths.circuits
        }
    else:
        lookup = core_lengths or {}
    rows = []
    for line in report.circuits:
        core = lookup.get(line.circuit_id)
        if core is None:
            raise ValueError(
                f"circuit {line.circuit_id!r} has no core_length; profile needs one"
            )
        rows.append((line.circuit_id, int(core), line.jsd, line.jsd_threshold))
    return rows


def write_jsd_profile_csv(rows: Iterable[tuple[str, int, float, float]],
                          path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["circuit_id", "core_length", "jsd", "jsd_threshold"])
        for circuit_id, core, jsd, threshold in rows:
            writer.writerow([circuit_id, core, _format_cell(jsd), _format_cell(threshold)])
