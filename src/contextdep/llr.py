"""Log-likelihood-ratio tests for context dependence of count data.

For one circuit measured in C contexts with M possible outcomes, the null
hypothesis says every context draws from the same multinomial distribution.
The test statistic is

    lambda = -2 [ sum_m x_m log(x_m / N) - sum_{c,m} x_{c,m} log(x_{c,m} / N_c) ]

with x_{c,m} the count of outcome m in context c, N_c the context totals,
x_m the pooled counts and N the grand total; terms with a zero count
contribute zero.  Under the null, lambda is asymptotically chi-squared with
k = (C - 1)(M - 1) degrees of freedom, which turns lambda into a p-value.

Statistics from many circuits probe the same physical question, so their
sum is also chi-squared under the joint null, with the degrees of freedom
added.  Because that aggregate k is typically large, the aggregate result
also carries the normal-approximation z-score

    N_sigma = (lambda_agg - k_agg) / sqrt(2 k_agg),

the number of standard deviations by which the aggregate exceeds its null
expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chi2 import chi2_isf, chi2_sf

__all__ = [
    "AggregateTestResult",
    "TableTests",
    "llr_statistics",
    "llr_tests",
    "llr_aggregate",
    "llr_threshold",
    "n_sigma_threshold",
]

# Below this many shots per outcome category the chi-squared calibration of
# the p-value starts to degrade; results get flagged, not suppressed.
SMALL_SAMPLE_SHOTS_PER_OUTCOME = 10


@dataclass(frozen=True)
class AggregateTestResult:
    """Summed statistic over a collection of per-circuit tests."""

    llr: float
    dof: int
    p_value: float
    n_sigma: float


@dataclass(frozen=True)
class TableTests:
    """Per-table test results for R stacked count tables, as length-R arrays."""

    llr: np.ndarray
    dof: int
    p_value: np.ndarray
    n_total: np.ndarray
    small_sample: np.ndarray


def llr_statistics(counts: np.ndarray) -> np.ndarray:
    """The statistic lambda for each table of an (R, C, M) count stack.

    Counts are Python ints in an object array (see counts.ContextDataset).
    The stack must obey the dataset rules, as a slice of a ContextDataset
    does; it is not checked here, since every comparison runs this on
    already checked data.  Each table
    is summed as lambda = 2 sum_{c,m} x log(x N / (N_c x_m)), context by
    context and outcome by outcome.  The ratio's numerator and denominator
    are exact integer products, so a context whose frequencies equal the
    pooled ones adds exactly log1p(0) = 0: identical or proportional pools
    give exactly zero, not a rounding residue of two large sums.
    """
    totals = counts.sum(axis=2)
    pooled = counts.sum(axis=1)
    grand = totals.sum(axis=1)
    num = counts * grand[:, None, None]
    den = totals[:, :, None] * pooled[:, None, :]
    seen = counts > 0
    ratio = np.where(seen, (num - den) / np.where(seen, den, 1), 0.0).astype(float).ravel()
    # A count far below its context's share (x N / (N_c x_m) < 2**-53, only
    # in pools past 2**53 shots) rounds the ratio to -1.0, where log1p has
    # no value: those terms take log(x N) - log(N_c x_m) of the exact ints.
    vanishing = np.flatnonzero(ratio == -1.0).tolist()
    ratio[vanishing] = 0.0
    # math.log1p, not np.log1p: numpy's vectorised log1p may differ from
    # the C library in the last bit.
    logs = np.fromiter(map(math.log1p, ratio.tolist()), float, ratio.size)
    for i in vanishing:
        logs[i] = math.log(num.flat[i]) - math.log(den.flat[i])
    logs = logs.reshape(counts.shape)
    n_tables, n_contexts, n_outcomes = counts.shape
    terms = (counts.astype(float) * logs).reshape(n_tables, n_contexts * n_outcomes)
    # One term at a time, in context-then-outcome order: numpy's pairwise
    # sum would round wider tables differently.
    half = np.zeros(n_tables)
    for column in terms.T:
        half += column
    # Rounding in the sum can still leave a tiny negative residue.
    return np.where(half > 0.0, 2.0 * half, 0.0)


def _p_values(statistics: np.ndarray, dof: int) -> np.ndarray:
    # One survival-function evaluation per distinct statistic.
    distinct, inverse = np.unique(statistics, return_inverse=True)
    return np.array([chi2_sf(x, dof) for x in distinct.tolist()])[inverse]


def llr_tests(counts: np.ndarray) -> TableTests:
    """Test each table of an (R, C, M) count stack for context dependence.

    The stack must obey the dataset rules, unchecked, as for llr_statistics.
    small_sample is set for a table when any of its pools has fewer than
    10 shots per outcome category, where the asymptotic p-value is
    unreliable.
    """
    _, n_contexts, n_outcomes = counts.shape
    statistics = llr_statistics(counts)
    dof = (n_contexts - 1) * (n_outcomes - 1)
    totals = counts.sum(axis=2)
    return TableTests(
        llr=statistics,
        dof=dof,
        p_value=_p_values(statistics, dof),
        n_total=totals.sum(axis=1),
        small_sample=(totals < SMALL_SAMPLE_SHOTS_PER_OUTCOME * n_outcomes).any(axis=1),
    )


def llr_aggregate(tests: TableTests) -> AggregateTestResult:
    """Sum per-circuit statistics into one high-power joint test."""
    if not len(tests.llr):
        raise ValueError("cannot aggregate zero test results")
    # Python's sum, left to right, not numpy's pairwise sum.
    llr_total = sum(tests.llr.tolist())
    dof_total = tests.dof * len(tests.llr)
    n_sigma = (llr_total - dof_total) / math.sqrt(2.0 * dof_total)
    return AggregateTestResult(
        llr=llr_total,
        dof=dof_total,
        p_value=chi2_sf(llr_total, dof_total),
        n_sigma=n_sigma,
    )


def llr_threshold(p_threshold: float, dof: int) -> float:
    """Statistic value whose p-value equals p_threshold, for k = dof."""
    return chi2_isf(p_threshold, dof)


def n_sigma_threshold(alpha: float, dof: int) -> float:
    """Detection threshold for N_sigma at significance alpha.

    The aggregate triggers when its N_sigma exceeds this value, which is the
    exact chi-squared quantile mapped onto the same z-score scale (for large
    dof it approaches the usual one-sided normal quantile).
    """
    return (chi2_isf(alpha, dof) - dof) / math.sqrt(2.0 * dof)
