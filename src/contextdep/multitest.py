"""Family-wise error control across many per-circuit tests.

Testing hundreds of circuits at a fixed significance would all but
guarantee false detections, so per-circuit p-values pass through a
step-up (Hochberg) correction.  Independent question families (the
comparisons of a plan, see pipeline.ComparisonPlan) split the global
significance budget by their weights.

The combined procedure mirrors how a detection campaign actually runs:
first ask the high-power aggregate test whether anything at all depends
on context, spending half the local budget there; the per-circuit tests
then run at the full budget if the aggregate already triggered (the
global null is gone, so they only localize) and at the remaining half
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .llr import (AggregateTestResult, TableTests, llr_aggregate, llr_threshold,
                  n_sigma_threshold)

__all__ = [
    "MultiTestOutcome",
    "hochberg",
    "combined_procedure",
]


@dataclass(frozen=True, eq=False)
class MultiTestOutcome:
    """Rejection set and thresholds produced by a correction procedure.

    ``rejected`` is the rejection mask in input order and rejected_ids
    names the same rows.  p_threshold is always well defined: when nothing
    clears the step-up conditions it is reported as alpha/Q, below which
    (by the failed l=1 condition) no p-value lies.  llr_threshold is the
    statistic value equivalent to p_threshold; hochberg, which sees
    p-values only, leaves it None, and likewise the aggregate test and its
    N_sigma threshold, which only combined_procedure runs.
    """

    rejected_ids: frozenset[str]
    p_threshold: float
    llr_threshold: float | None
    rejected: np.ndarray
    aggregate_triggered: bool = False
    aggregate: AggregateTestResult | None = None
    n_sigma_threshold: float | None = None

    @property
    def detected(self) -> bool:
        return self.aggregate_triggered or bool(self.rejected_ids)


def _check_budget(n: int, alpha: float, parts: int) -> None:
    # The smallest threshold the step-up can set over n tests, at a budget
    # of alpha / parts, is alpha / parts / n; it must be a positive double.
    if not n:
        raise ValueError("no p-values to correct")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not alpha / parts / n > 0.0:
        split = f"alpha / {parts} / {n}" if parts > 1 else f"alpha / {n}"
        raise ValueError(f"alpha {alpha!r} is too small to split over {n} tests: "
                         f"{split} underflows to 0")


def _step_up_threshold(p_values: np.ndarray, alpha: float) -> float:
    """Hochberg's p_threshold of the p-values at alpha (see hochberg)."""
    q = len(p_values)
    # The l-th smallest p-value against alpha / (Q - l + 1), l = 1..Q.
    hits = np.flatnonzero(np.sort(p_values) <= alpha / np.arange(q, 0, -1))
    # With l_max = hits[-1] + 1, Q - l_max + 1 = Q - hits[-1].
    return alpha / (q - int(hits[-1])) if hits.size else alpha / q


def _outcome(p_values: np.ndarray, ids: Sequence[str], p_threshold: float,
             **fields) -> MultiTestOutcome:
    # Everything strictly below the threshold is rejected.
    rejected = p_values < p_threshold
    return MultiTestOutcome(rejected_ids=frozenset(compress(ids, rejected.tolist())),
                            p_threshold=p_threshold, rejected=rejected, **fields)


def hochberg(p_values: Sequence[tuple[str, float]], alpha: float) -> MultiTestOutcome:
    """Step-up correction over one family of (id, p-value) pairs.

    Orders the Q p-values ascending and finds the largest l with
    p_(l) <= alpha / (Q - l + 1).  Everything with p strictly below
    p_threshold = alpha / (Q - l_max + 1) is rejected; a boundary p equal
    to the threshold is not.  With no qualifying l, nothing is rejected
    and the reported pseudo-threshold is alpha / Q.
    """
    ids = [cid for cid, _ in p_values]
    p = np.array([value for _, value in p_values], dtype=float)
    _check_budget(len(p), alpha, 1)
    outside = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
    if outside.size:
        i = outside[0]
        raise ValueError(f"p-value for {ids[i]!r} outside [0, 1]: {float(p[i])!r}")
    return _outcome(p, ids, _step_up_threshold(p, alpha), llr_threshold=None)


def combined_procedure(tests: TableTests, circuit_ids: Sequence[str],
                       alpha: float) -> MultiTestOutcome:
    """Aggregate-then-localize detection over one comparison.

    ``tests`` holds the comparison's per-circuit results and
    ``circuit_ids`` names its rows.  The aggregate statistic, their sum,
    is tested at alpha/2.  The per-circuit tests then run through the
    step-up correction at budget beta = alpha when the aggregate triggered
    and beta = alpha/2 otherwise.  Detection is declared if either stage
    rejects anything.  All rows share one dof, so the outcome always
    carries the statistic threshold, along with the aggregate and its
    N_sigma threshold at alpha/2.
    """
    if len(circuit_ids) != len(tests.p_value):
        raise ValueError(f"{len(circuit_ids)} circuit ids for {len(tests.p_value)} results")
    _check_budget(len(circuit_ids), alpha, 2)

    aggregate = llr_aggregate(tests)
    half = 0.5 * alpha
    triggered = aggregate.p_value < half
    p_threshold = _step_up_threshold(tests.p_value, alpha if triggered else half)
    return _outcome(
        tests.p_value, circuit_ids, p_threshold,
        llr_threshold=llr_threshold(p_threshold, tests.dof),
        aggregate_triggered=triggered,
        aggregate=aggregate,
        n_sigma_threshold=n_sigma_threshold(half, aggregate.dof),
    )
