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
otherwise.  The decision has one implementation, Decision: MultiTestOutcome
and pipeline.ComparisonReport hold its inputs and inherit it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Sequence

import numpy as np

from .chi2 import chi2_isf
from .counts import Record, record
from .llr import AggregateTestResult, TableTests, llr_aggregate, n_sigma_threshold

__all__ = [
    "Decision",
    "MultiTestOutcome",
    "combined_procedure",
]


class Decision:
    """A correction procedure's decision, derived from ``p_value`` (the Q
    rows' p-values), ``alpha_local``, ``aggregate`` (None for Hochberg) and
    ``dof``, the rows' common degrees of freedom (None where unknown).

    ``aggregate_triggered`` is the aggregate's p strictly below
    alpha_local / 2.  ``p_threshold`` is Hochberg's at the budget beta:
    alpha_local for Hochberg or a triggered aggregate, else alpha_local / 2.
    With l_max the largest l with p_(l) <= beta / (Q - l + 1), it is
    beta / (Q - l_max + 1); with no such l, beta / Q, below which (by the
    failed l = 1 condition) no p-value lies.  ``rejected`` is the mask
    p_value < p_threshold, so a p at the threshold is not rejected, and
    ``detected`` is a trigger or any rejection.  ``llr_threshold`` (p_threshold
    on dof) and ``n_sigma_threshold`` (alpha_local / 2 on the aggregate's dof)
    are chi-squared quantiles, None where their input is."""

    def _check_decision(self, row_id) -> None:
        """Refuse inputs no decision exists for: no rows, a budget outside
        (0, 1) or whose smallest step-up threshold underflows, or a p-value
        outside [0, 1] (NaN included).  row_id(i) names row i."""
        p, alpha, parts = self.p_value, self.alpha_local, 1 if self.aggregate is None else 2
        n = len(p)
        if not n:
            raise ValueError("no p-values to correct")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
        # The smallest threshold the step-up can set is alpha / parts / n.
        if not alpha / parts / n > 0.0:
            split = f"alpha / {parts} / {n}" if parts > 1 else f"alpha / {n}"
            raise ValueError(f"alpha {alpha!r} is too small to split over {n} tests: "
                             f"{split} underflows to 0")
        outside = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
        if outside.size:
            i = int(outside[0])
            raise ValueError(f"p-value for {row_id(i)!r} outside [0, 1]: {float(p[i])!r}")
        if parts > 1 and not 0.0 <= self.aggregate.p_value <= 1.0:
            raise ValueError(f"aggregate p-value outside [0, 1]: {self.aggregate.p_value!r}")

    @property
    def aggregate_triggered(self) -> bool:
        return self.aggregate is not None and self.aggregate.p_value < 0.5 * self.alpha_local

    # Cached: the step-up sorts the p-values, and row views read the mask
    # once per row.
    @cached_property
    def p_threshold(self) -> float:
        beta = self.alpha_local
        if self.aggregate is not None and not self.aggregate_triggered:
            beta = 0.5 * beta
        p = self.p_value
        q = len(p)
        # The l-th smallest p-value against beta / (Q - l + 1), l = 1..Q.
        hits = np.flatnonzero(np.sort(p) <= beta / np.arange(q, 0, -1))
        # With l_max = hits[-1] + 1, Q - l_max + 1 = Q - hits[-1].
        return beta / (q - int(hits[-1])) if hits.size else beta / q

    @cached_property
    def rejected(self) -> np.ndarray:
        return self.p_value < self.p_threshold

    @property
    def detected(self) -> bool:
        return self.aggregate_triggered or bool(self.rejected.any())

    @cached_property
    def llr_threshold(self) -> float | None:
        return None if self.dof is None else chi2_isf(self.p_threshold, self.dof)

    @cached_property
    def n_sigma_threshold(self) -> float | None:
        agg = self.aggregate
        return None if agg is None else n_sigma_threshold(0.5 * self.alpha_local, agg.dof)


@record
class MultiTestOutcome(Decision, Record):
    """A procedure's inputs: the rows' ``ids`` and p-values, the budget, and
    for combined_procedure the aggregate and the rows' common ``dof``.
    Derived when read: the Decision and ``rejected_ids``."""

    ids: Sequence[str]
    p_value: np.ndarray
    alpha_local: float
    aggregate: AggregateTestResult | None = None
    dof: int | None = None

    def __init__(self, ids: Sequence[str], p_value: np.ndarray, alpha_local: float,
                 aggregate: AggregateTestResult | None = None, dof: int | None = None) -> None:
        self.__dict__.update(ids=ids, p_value=p_value, alpha_local=alpha_local,
                             aggregate=aggregate, dof=dof)
        self._check_decision(ids.__getitem__)

    @property
    def rejected_ids(self) -> frozenset[str]:
        return frozenset(compress(self.ids, self.rejected.tolist()))


def combined_procedure(tests: TableTests, circuit_ids: Sequence[str],
                       alpha: float) -> MultiTestOutcome:
    """Aggregate-then-localize detection over one comparison.

    ``tests`` holds the comparison's per-circuit results and
    ``circuit_ids`` names its rows.  Their summed statistic is the
    aggregate test; Decision gives what it and the step-up decide.
    """
    if len(circuit_ids) != len(tests.p_value):
        raise ValueError(f"{len(circuit_ids)} circuit ids for {len(tests.p_value)} results")
    return MultiTestOutcome(circuit_ids, tests.p_value, alpha,
                            llr_aggregate(tests.llr, tests.dof), tests.dof)
