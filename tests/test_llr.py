"""Likelihood-ratio test: frozen values, invariances, chi-squared calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextdep.chi2 import chi2_sf
from contextdep.counts import CircuitRecord, DatasetError
from contextdep.llr import (SMALL_SAMPLE_SHOTS_PER_OUTCOME, TableTests, llr_aggregate,
                            llr_statistics, llr_tests, llr_threshold, n_sigma_threshold)

from _references import llr_reference, one_table


class TestStatistic:
    def test_two_context_frozen_value(self):
        lam = llr_statistics(one_table([(99, 101), (131, 69)]))[0]
        assert lam == pytest.approx(10.52626478790387, rel=1e-12)

    def test_near_null_frozen_value(self):
        lam = llr_statistics(one_table([(108, 92), (107, 93)]))[0]
        assert lam == pytest.approx(0.010056611289883222, rel=1e-9)

    def test_three_by_three_frozen_value(self):
        lam = llr_statistics(one_table([(10, 20, 30), (30, 20, 10), (20, 20, 20)]))[0]
        assert lam == pytest.approx(20.929925750582015, rel=1e-12)

    def test_identical_pools_give_zero(self):
        """Pools with equal outcome frequencies give exactly zero.

        Swept over every identical two-outcome pair with up to 59 counts per
        outcome, every pair of identical 500-shot pools, and proportional
        pools of different sizes; an inexact evaluation leaves a positive
        rounding residue in a large share of these.
        """
        tables = [[(h, t), (h, t)] for h in range(60) for t in range(60) if h + t > 0]
        tables += [[(a, 500 - a), (a, 500 - a)] for a in range(501)]
        tables += [
            [(5, 5), (5, 5)],
            [(7, 0, 3), (7, 0, 3), (7, 0, 3)],
            [(10, 20), (20, 40)],
            [(1, 3), (3, 9), (7, 21)],
            [(3, 0, 7), (6, 0, 14), (9, 0, 21)],
            [(12, 30, 6), (2, 5, 1)],
        ]
        nonzero = [rows for rows in tables if llr_statistics(one_table(rows))[0] != 0.0]
        assert not nonzero, f"{len(nonzero)} tables, e.g. {nonzero[:3]}"

    def test_zero_counts_contribute_nothing(self):
        # A shared zero column must not produce NaN or shift the statistic.
        with_zeros = llr_statistics(one_table([(10, 0, 30), (25, 0, 15)]))[0]
        without = llr_statistics(one_table([(10, 30), (25, 15)]))[0]
        assert with_zeros == pytest.approx(without, rel=1e-12)

    def test_context_order_irrelevant(self):
        rows = [(3, 9, 1), (8, 2, 5), (4, 4, 4)]
        assert llr_statistics(one_table(rows))[0] == pytest.approx(
            llr_statistics(one_table(rows[::-1]))[0], rel=1e-12)

    def test_outcome_relabeling_irrelevant(self):
        rows = [(3, 9, 1), (8, 2, 5)]
        permuted = [(1, 3, 9), (5, 8, 2)]
        assert llr_statistics(one_table(rows))[0] == pytest.approx(
            llr_statistics(one_table(permuted))[0], rel=1e-12)

    @pytest.mark.parametrize("rows, message", [
        ([[-1, 2], [3, 4]], "context '0': counts must be non-negative integers, got -1"),
        ([[True, 2], [3, 4]], "context '0': counts must be non-negative integers, got True"),
        ([[5], [3]], "a pool needs at least two outcome categories"),
    ])
    def test_follows_the_dataset_count_rules(self, rows, message):
        # Each table once gave a number (4.98, 0.080 and 0.0).  llr_statistics
        # does not check its stack, so the record holding it must refuse it.
        with pytest.raises(DatasetError, match=message):
            CircuitRecord("table", {str(row): pool for row, pool in enumerate(rows)})

def test_empty_stack_gives_empty_results():
    for shape in ((0, 2, 2), (0, 3, 4)):
        tests = llr_tests(np.zeros(shape, dtype=object))
        assert tests.dof == (shape[1] - 1) * (shape[2] - 1)
        for column in (tests.llr, tests.p_value, tests.n_total, tests.small_sample):
            assert column.shape == (0,)


count_rows = st.lists(
    st.lists(st.integers(min_value=0, max_value=200), min_size=3, max_size=3)
    .map(tuple)
    .filter(lambda row: sum(row) > 0),
    min_size=2,
    max_size=4,
)


@settings(max_examples=120, deadline=None)
@given(rows=count_rows)
def test_statistic_matches_entropy_identity(rows):
    """lambda equals 2N times the weighted Jensen-Shannon divergence."""
    assert llr_statistics(one_table(rows))[0] == pytest.approx(llr_reference(rows), abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(rows=count_rows, factor=st.integers(min_value=2, max_value=9))
def test_statistic_scales_linearly_with_counts(rows, factor):
    scaled = [tuple(factor * x for x in row) for row in rows]
    assert llr_statistics(one_table(scaled))[0] == pytest.approx(
        factor * llr_statistics(one_table(rows))[0], rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(rows=count_rows)
def test_statistic_nonnegative(rows):
    assert llr_statistics(one_table(rows))[0] >= 0.0


class TestSingleCircuit:
    def test_frozen_two_context_result(self):
        tests = llr_tests(one_table([(99, 101), (131, 69)]))
        assert tests.llr[0] == pytest.approx(10.52626478790387, rel=1e-12)
        assert tests.p_value[0] == pytest.approx(1.1768983895047386e-3, rel=1e-9)
        assert tests.dof == 1
        assert tests.n_total[0] == 400
        assert not tests.small_sample[0]

    def test_dof_formula(self):
        tests = llr_tests(one_table([(5, 6, 7, 8), (8, 7, 6, 5), (6, 6, 7, 7)]))
        assert tests.dof == (3 - 1) * (4 - 1)

    def test_context_subset(self):
        rows = [(99, 101), (131, 69), (100, 100)]
        full = llr_tests(one_table(rows))
        pair = llr_tests(one_table(rows[:2]))
        assert pair.dof == 1
        assert pair.llr[0] == pytest.approx(10.52626478790387, rel=1e-12)
        assert full.dof == 2
        assert full.llr[0] > pair.llr[0]

    def test_small_sample_flag_boundary(self):
        threshold = 2 * SMALL_SAMPLE_SHOTS_PER_OUTCOME
        at_limit = one_table([(threshold - 5, 5), (threshold, 0)])
        assert not llr_tests(at_limit).small_sample[0]
        below = one_table([(threshold - 6, 5), (threshold, 0)])
        assert llr_tests(below).small_sample[0]


class TestAggregate:
    def test_sums_and_sigma(self):
        results = llr_tests(np.array([[(99, 101), (131, 69)], [(10, 20), (30, 20)]],
                                     dtype=object))
        agg = llr_aggregate(results)
        assert agg.llr == pytest.approx(sum(results.llr.tolist()), rel=1e-12)
        assert agg.dof == results.dof * len(results.llr)
        assert agg.n_sigma == pytest.approx(
            (agg.llr - agg.dof) / math.sqrt(2.0 * agg.dof), rel=1e-12)
        assert agg.p_value == pytest.approx(chi2_sf(agg.llr, agg.dof), rel=1e-12)

    def test_single_result_passthrough(self):
        result = llr_tests(np.array([[(99, 101), (131, 69)]], dtype=object))
        agg = llr_aggregate(result)
        assert agg.llr == result.llr[0]
        assert agg.dof == result.dof

    def test_empty_rejected(self):
        empty = np.array([])
        with pytest.raises(ValueError):
            llr_aggregate(TableTests(llr=empty, dof=1, p_value=empty, n_total=empty,
                                     small_sample=empty.astype(bool)))


class TestThresholds:
    def test_llr_threshold_frozen(self):
        assert llr_threshold(0.05, 1) == pytest.approx(3.84145882069412, rel=1e-9)

    def test_llr_threshold_round_trip(self):
        for p, dof in [(0.05, 1), (0.0022727, 5620), (0.5, 3), (1e-6, 10)]:
            cut = llr_threshold(p, dof)
            assert chi2_sf(cut, dof) == pytest.approx(p, rel=1e-8)

    def test_llr_threshold_degenerate_alpha(self):
        assert llr_threshold(1.0, 5) == 0.0
        with pytest.raises(ValueError):
            llr_threshold(0.0, 5)
        with pytest.raises(ValueError):
            llr_threshold(1.5, 5)

    def test_n_sigma_threshold_frozen(self):
        assert n_sigma_threshold(0.05 / 22, 5620) == pytest.approx(
            2.881968528135377, rel=1e-9)
        assert n_sigma_threshold(0.05, 100) == pytest.approx(
            1.7212473456383117, rel=1e-9)

    def test_n_sigma_threshold_round_trip(self):
        for alpha, dof in [(0.05, 10), (0.01, 1000), (0.0025, 5620)]:
            t = n_sigma_threshold(alpha, dof)
            lam = dof + t * math.sqrt(2.0 * dof)
            assert chi2_sf(lam, dof) == pytest.approx(alpha, rel=1e-8)

    def test_n_sigma_threshold_grows_as_alpha_shrinks(self):
        assert n_sigma_threshold(0.001, 500) > n_sigma_threshold(0.05, 500)


def test_null_statistic_follows_chi_squared():
    """Simulated null tables produce lambda distributed as chi-squared.

    Two contexts, four outcomes, 500 shots each: the empirical distribution
    of lambda over ten thousand draws stays within KS distance 0.02 of the
    three-degree-of-freedom chi-squared law.
    """
    rng = np.random.default_rng(7)
    trials, n_shots = 10_000, 500
    probs = np.full(4, 0.25)
    a = rng.multinomial(n_shots, probs, size=trials).astype(float)
    b = rng.multinomial(n_shots, probs, size=trials).astype(float)

    def xlogx(v):
        out = np.zeros_like(v)
        mask = v > 0
        out[mask] = v[mask] * np.log(v[mask])
        return out

    pooled = a + b
    lam = 2.0 * (
        xlogx(a).sum(axis=1) + xlogx(b).sum(axis=1)
        - 2 * n_shots * math.log(n_shots)
        - xlogx(pooled).sum(axis=1) + 2 * n_shots * math.log(2 * n_shots)
    )
    lam.sort()
    model = np.array([1.0 - chi2_sf(x, 3) for x in lam])
    steps = np.arange(trials + 1) / trials
    ks = max(np.max(np.abs(steps[1:] - model)), np.max(np.abs(steps[:-1] - model)))
    assert ks < 0.02, f"KS distance {ks:.4f} exceeds 0.02"
