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

from dataclasses import dataclass, replace
from typing import Sequence

from .llr import AggregateTestResult, CircuitTestResult, llr_threshold as _llr_threshold

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
    equivalent to p_threshold and is None when the tests in the family do
    not share a degrees-of-freedom count.
    """

    rejected_ids: frozenset[str]
    p_threshold: float
    llr_threshold: float | None
    aggregate_triggered: bool = False

    @property
    def detected(self) -> bool:
        return self.aggregate_triggered or bool(self.rejected_ids)


def _check_p_values(p_values: Sequence[tuple[str, float]], alpha: float) -> None:
    if not p_values:
        raise ValueError("no p-values to correct")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    for circuit_id, p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value for {circuit_id!r} outside [0, 1]: {p!r}")


def hochberg(p_values: Sequence[tuple[str, float]], alpha: float) -> MultiTestOutcome:
    """Step-up correction over one family of (id, p-value) pairs.

    Orders the Q p-values ascending and finds the largest l with
    p_(l) <= alpha / (Q - l + 1).  Everything with p strictly below
    p_threshold = alpha / (Q - l_max + 1) is rejected; a boundary p equal
    to the threshold is not.  With no qualifying l, nothing is rejected
    and the reported pseudo-threshold is alpha / Q.
    """
    _check_p_values(p_values, alpha)
    q = len(p_values)
    ordered = sorted(p_values, key=lambda item: (item[1], item[0]))

    l_max = 0
    for l in range(q, 0, -1):
        if ordered[l - 1][1] <= alpha / (q - l + 1):
            l_max = l
            break
    if l_max == 0:
        p_threshold = alpha / q
    else:
        p_threshold = alpha / (q - l_max + 1)

    rejected = frozenset(cid for cid, p in p_values if p < p_threshold)
    return MultiTestOutcome(
        rejected_ids=rejected,
        p_threshold=p_threshold,
        llr_threshold=None,
    )


def _attach_llr_threshold(outcome: MultiTestOutcome,
                          results: Sequence[CircuitTestResult]) -> MultiTestOutcome:
    dofs = {r.dof for r in results}
    if len(dofs) != 1:
        return outcome
    return replace(outcome, llr_threshold=_llr_threshold(outcome.p_threshold, dofs.pop()))


def combined_procedure(results: Sequence[CircuitTestResult],
                       agg: AggregateTestResult,
                       alpha: float) -> MultiTestOutcome:
    """Aggregate-then-localize detection over one comparison.

    The aggregate statistic is tested at alpha/2.  The per-circuit tests
    then run through the step-up correction at budget beta = alpha when
    the aggregate triggered and beta = alpha/2 otherwise.  Detection is
    declared if either stage rejects anything.
    """
    if not results:
        raise ValueError("no per-circuit results")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    dof_total = sum(r.dof for r in results)
    if agg.dof != dof_total:
        raise ValueError(
            f"aggregate has {agg.dof} degrees of freedom but the per-circuit "
            f"results sum to {dof_total}; not the same comparison"
        )
    llr_total = sum(r.llr for r in results)
    if abs(agg.llr - llr_total) > 1e-6 * max(1.0, llr_total):
        raise ValueError("aggregate statistic does not match the per-circuit results")

    triggered = agg.p_value < 0.5 * alpha
    beta = alpha if triggered else 0.5 * alpha
    outcome = hochberg([(r.circuit_id, r.p_value) for r in results], beta)
    outcome = replace(outcome, aggregate_triggered=triggered)
    return _attach_llr_threshold(outcome, results)

