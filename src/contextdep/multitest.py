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


@dataclass(frozen=True)
class MultiTestOutcome:
    """Rejection set and thresholds produced by a correction procedure.

    p_threshold is always well defined: when nothing clears the step-up
    conditions it is reported as alpha/Q, below which (by the failed l=1
    condition) no p-value lies.  llr_threshold is the statistic value
    equivalent to p_threshold; hochberg, which sees p-values only, leaves
    it None, and likewise the aggregate test and its N_sigma threshold,
    which only combined_procedure runs.
    """

    rejected_ids: frozenset[str]
    p_threshold: float
    llr_threshold: float | None
    aggregate_triggered: bool = False
    aggregate: AggregateTestResult | None = None
    n_sigma_threshold: float | None = None

    @property
    def detected(self) -> bool:
        return self.aggregate_triggered or bool(self.rejected_ids)


def _step_up_threshold(p_values: np.ndarray, ids: Sequence[str], alpha: float) -> float:
    """Hochberg's p_threshold (see hochberg) for p-values named by ids."""
    q = len(p_values)
    if not q:
        raise ValueError("no p-values to correct")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    outside = np.flatnonzero(~((p_values >= 0.0) & (p_values <= 1.0)))
    if outside.size:
        i = outside[0]
        raise ValueError(f"p-value for {ids[i]!r} outside [0, 1]: {float(p_values[i])!r}")
    # The l-th smallest p-value against alpha / (Q - l + 1), l = 1..Q.
    hits = np.flatnonzero(np.sort(p_values) <= alpha / np.arange(q, 0, -1))
    # With l_max = hits[-1] + 1, Q - l_max + 1 = Q - hits[-1].
    return alpha / (q - int(hits[-1])) if hits.size else alpha / q


def hochberg(p_values: Sequence[tuple[str, float]], alpha: float) -> MultiTestOutcome:
    """Step-up correction over one family of (id, p-value) pairs.

    Orders the Q p-values ascending and finds the largest l with
    p_(l) <= alpha / (Q - l + 1).  Everything with p strictly below
    p_threshold = alpha / (Q - l_max + 1) is rejected; a boundary p equal
    to the threshold is not.  With no qualifying l, nothing is rejected
    and the reported pseudo-threshold is alpha / Q.
    """
    p_threshold = _step_up_threshold(np.array([p for _, p in p_values], dtype=float),
                                     [cid for cid, _ in p_values], alpha)
    rejected = frozenset(cid for cid, p in p_values if p < p_threshold)
    return MultiTestOutcome(
        rejected_ids=rejected,
        p_threshold=p_threshold,
        llr_threshold=None,
    )


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
    if not len(circuit_ids):
        raise ValueError("no per-circuit results")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    # The smallest threshold either stage can set is alpha / 2 / Q.
    n = len(circuit_ids)
    if not 0.5 * alpha / n > 0.0:
        raise ValueError(f"alpha {alpha!r} is too small to split over {n} tests: "
                         f"alpha / 2 / {n} underflows to 0")

    aggregate = llr_aggregate(tests)
    half = 0.5 * alpha
    triggered = aggregate.p_value < half
    p_threshold = _step_up_threshold(tests.p_value, circuit_ids, alpha if triggered else half)
    return MultiTestOutcome(
        rejected_ids=frozenset(compress(circuit_ids, (tests.p_value < p_threshold).tolist())),
        p_threshold=p_threshold,
        llr_threshold=llr_threshold(p_threshold, tests.dof),
        aggregate_triggered=triggered,
        aggregate=aggregate,
        n_sigma_threshold=n_sigma_threshold(half, aggregate.dof),
    )
