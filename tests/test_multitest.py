"""Multiple-testing corrections: hand traces, boundaries, reference agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextdep.chi2 import chi2_isf, chi2_sf
from contextdep.llr import AggregateTestResult, llr_aggregate, llr_tests, n_sigma_threshold
from contextdep.multitest import MultiTestOutcome, combined_procedure

from _references import bonferroni, hochberg_reference


def labeled(p_values):
    return [(f"q{i}", p) for i, p in enumerate(p_values)]


def rows(p_values):
    """The ids q0, q1, ... and the p-values as a float array, the step-up
    correction's inputs."""
    return [f"q{i}" for i in range(len(p_values))], np.array(p_values, dtype=float)


class TestHochberg:
    def test_all_rejected_hand_trace(self):
        # l = 4 passes: p_(4) = 0.04 <= 0.05/1, so the threshold is 0.05.
        outcome = MultiTestOutcome(*rows([0.01, 0.02, 0.03, 0.04]), 0.05)
        assert outcome.p_threshold == pytest.approx(0.05)
        assert outcome.rejected_ids == {"q0", "q1", "q2", "q3"}

    def test_partial_rejection_hand_trace(self):
        # Only l = 1 passes (0.01 <= 0.05/4), so the threshold is 0.0125.
        outcome = MultiTestOutcome(*rows([0.01, 0.04, 0.03, 0.9]), 0.05)
        assert outcome.p_threshold == pytest.approx(0.05 / 4)
        assert outcome.rejected_ids == {"q0"}
        assert outcome.rejected.tolist() == [True, False, False, False]

    def test_nothing_rejected_reports_floor_threshold(self):
        outcome = MultiTestOutcome(*rows([0.3, 0.5, 0.7]), 0.05)
        assert outcome.rejected_ids == frozenset()
        assert outcome.p_threshold == pytest.approx(0.05 / 3)
        assert not outcome.detected

    def test_boundary_p_equal_to_threshold_not_rejected(self):
        outcome = MultiTestOutcome(*rows([0.05]), 0.05)
        assert outcome.p_threshold == pytest.approx(0.05)
        assert outcome.rejected_ids == frozenset()

    def test_tied_p_values(self):
        outcome = MultiTestOutcome(*rows([0.02, 0.02, 0.9]), 0.05)
        assert outcome.p_threshold == pytest.approx(0.05 / 2)
        assert outcome.rejected_ids == {"q0", "q1"}

    def test_zero_p_always_rejected(self):
        outcome = MultiTestOutcome(*rows([0.0, 0.99]), 0.05)
        assert "q0" in outcome.rejected_ids

    def test_input_order_irrelevant(self):
        p_values = [0.011, 0.9, 0.004, 0.031, 0.05]
        forward = MultiTestOutcome(*rows(p_values), 0.05)
        ids, p = rows(p_values)
        shuffled = MultiTestOutcome(ids[::-1], p[::-1], 0.05)
        assert forward.rejected_ids == shuffled.rejected_ids
        assert forward.p_threshold == shuffled.p_threshold

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            MultiTestOutcome(*rows([]), 0.05)
        with pytest.raises(ValueError):
            MultiTestOutcome(*rows([0.5]), 0.0)
        with pytest.raises(ValueError):
            MultiTestOutcome(*rows([1.5]), 0.05)

    def test_underflowing_budget_is_rejected_by_name(self):
        # 5e-324 / 3 rounds to 0, so the step-up's l = 2 for the two zero
        # p-values would give a threshold of 0.0 that rejects nothing.
        ids, p = ["a", "b", "c"], np.array([0.0, 0.0, 0.5])
        with pytest.raises(ValueError, match=r"^alpha 5e-324 is too small to split over "
                                             r"3 tests: alpha / 3 underflows to 0$"):
            MultiTestOutcome(ids, p, 5e-324)
        outcome = MultiTestOutcome(ids, p, 2e-323)
        assert outcome.p_threshold == 1e-323
        assert outcome.rejected_ids == {"a", "b"}


grid_p = st.integers(min_value=0, max_value=100).map(lambda n: n / 100)


@settings(max_examples=300, deadline=None)
@given(p_values=st.lists(grid_p, min_size=1, max_size=8),
       alpha=st.sampled_from([0.01, 0.05, 0.1, 0.25]))
def test_hochberg_matches_counting_reference(p_values, alpha):
    """The sort-based implementation agrees with an independent counting one."""
    outcome = MultiTestOutcome(*rows(p_values), alpha)
    ref_rejected, ref_threshold = hochberg_reference(labeled(p_values), alpha)
    assert outcome.rejected_ids == ref_rejected
    assert outcome.p_threshold == pytest.approx(ref_threshold, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(p_values=st.lists(st.floats(min_value=0.0, max_value=1.0,
                                   allow_nan=False), min_size=1, max_size=10),
       alpha=st.floats(min_value=0.001, max_value=0.3))
def test_hochberg_dominates_bonferroni(p_values, alpha):
    assert (MultiTestOutcome(*rows(p_values), alpha).rejected_ids
            >= bonferroni(labeled(p_values), alpha)[0])


@settings(max_examples=150, deadline=None)
@given(p_values=st.lists(grid_p, min_size=2, max_size=8),
       index=st.integers(min_value=0, max_value=7))
def test_hochberg_monotone_in_p_values(p_values, index):
    """Lowering one p-value to zero never removes other rejections."""
    index %= len(p_values)
    before = MultiTestOutcome(*rows(p_values), 0.05).rejected_ids
    lowered = list(p_values)
    lowered[index] = 0.0
    after = MultiTestOutcome(*rows(lowered), 0.05).rejected_ids
    assert before - {f"q{index}"} <= after


class TestBonferroni:
    def test_strict_inequality(self):
        # The reference behind test_hochberg_dominates_bonferroni.
        rejected, p_threshold = bonferroni(labeled([0.025, 0.024, 0.9]), alpha=0.075)
        assert p_threshold == pytest.approx(0.025)
        assert rejected == {"q1"}


def results_for(tables):
    """Test results and circuit ids for a stack of equal-shape count tables."""
    return llr_tests(np.array(tables, dtype=object)), [f"q{i}" for i in range(len(tables))]


class TestCombinedProcedure:
    def test_triggered_aggregate_doubles_budget(self):
        # One blatant effect plus mild ones: the aggregate triggers, so the
        # per-circuit stage runs at alpha, not alpha/2.
        tables = [
            [(150, 50), (50, 150)],
            [(108, 92), (107, 93)],
            [(99, 101), (110, 90)],
        ]
        results, ids = results_for(tables)
        outcome = combined_procedure(results, ids, alpha=0.05)
        assert outcome.aggregate.p_value < 0.025
        assert outcome.aggregate_triggered
        assert outcome.detected
        assert "q0" in outcome.rejected_ids
        relaxed = MultiTestOutcome(ids, results.p_value, 0.05)
        assert outcome.p_threshold == pytest.approx(relaxed.p_threshold)

    def test_quiet_aggregate_halves_budget(self):
        tables = [
            [(108, 92), (107, 93)],
            [(99, 101), (101, 99)],
        ]
        results, ids = results_for(tables)
        outcome = combined_procedure(results, ids, alpha=0.05)
        assert not outcome.aggregate_triggered
        assert not outcome.detected
        strict = MultiTestOutcome(ids, results.p_value, 0.025)
        assert outcome.p_threshold == pytest.approx(strict.p_threshold)

    def test_detection_via_aggregate_alone(self):
        # Many small shifts in the same direction: individually unremarkable,
        # collectively loud.
        tables = [[(116, 84), (84, 116)] for _ in range(12)]
        results, ids = results_for(tables)
        outcome = combined_procedure(results, ids, alpha=0.05)
        assert outcome.aggregate_triggered
        assert outcome.detected

    def test_llr_threshold_attached_for_uniform_dof(self):
        tables = [
            [(150, 50), (50, 150)],
            [(108, 92), (107, 93)],
        ]
        results, ids = results_for(tables)
        outcome = combined_procedure(results, ids, alpha=0.05)
        assert outcome.llr_threshold == chi2_isf(outcome.p_threshold, 1)
        assert chi2_sf(outcome.llr_threshold, 1) == pytest.approx(
            outcome.p_threshold, rel=1e-8)

    def test_subnormal_budget_is_rejected_by_name(self):
        # 5e-324 / 2 rounds to 0, so no threshold of either stage exists.
        results, ids = results_for([[(150, 50), (50, 150)], [(108, 92), (107, 93)]])
        with pytest.raises(ValueError, match=r"^alpha 5e-324 is too small to split over "
                                             r"2 tests: alpha / 2 / 2 underflows to 0$"):
            combined_procedure(results, ids, alpha=5e-324)
        assert combined_procedure(results, ids, alpha=4e-323).p_threshold > 0.0

    def test_fewer_ids_than_results_is_an_error(self):
        results, ids = results_for([[(150, 50), (50, 150)], [(108, 92), (107, 93)]])
        with pytest.raises(ValueError, match=r"^1 circuit ids for 2 results$"):
            combined_procedure(results, ids[:1], alpha=0.05)

    def test_aggregate_and_n_sigma_threshold_attached(self):
        # The outcome carries the summed test and its threshold at alpha/2.
        results, ids = results_for([[(150, 50), (50, 150)], [(108, 92), (107, 93)]])
        outcome = combined_procedure(results, ids, alpha=0.05)
        assert outcome.aggregate == llr_aggregate(results.llr, results.dof)
        assert outcome.n_sigma_threshold == n_sigma_threshold(0.025, outcome.aggregate.dof)
        hochberg = MultiTestOutcome(*rows([0.01]), 0.05)
        assert (hochberg.aggregate, hochberg.n_sigma_threshold, hochberg.llr_threshold) == (
            None, None, None)

    @pytest.mark.parametrize("p", [1.5, -0.5, float("nan")])
    def test_aggregate_p_outside_unit_interval_is_refused(self, p):
        # A report derives its aggregate from its rows; an outcome is given one.
        with pytest.raises(ValueError, match=r"^aggregate p-value outside \[0, 1\]: "):
            MultiTestOutcome(*rows([0.5]), 0.05, AggregateTestResult(4.0, 1, p), 1)


def test_null_family_wise_error_stays_near_alpha():
    """Quick null-calibration check of the combined procedure.

    Three hundred null experiments of twenty circuits each; the fraction
    declaring a detection should sit near alpha = 0.05.  The tight version
    of this check (two thousand trials, rate below 0.065) runs with the
    acceptance suite; here a loose 0.10 bound guards against gross
    miscalibration while keeping the module tests fast.
    """
    rng = np.random.default_rng(42)
    trials, n_circuits, n_shots = 300, 20, 100
    false_detections = 0
    for _ in range(trials):
        tables = []
        for i in range(n_circuits):
            p = rng.uniform(0.1, 0.9)
            row_a = rng.multinomial(n_shots, [p, 1 - p])
            row_b = rng.multinomial(n_shots, [p, 1 - p])
            tables.append([tuple(int(v) for v in row_a), tuple(int(v) for v in row_b)])
        results, ids = results_for(tables)
        outcome = combined_procedure(results, ids, alpha=0.05)
        false_detections += outcome.detected
    rate = false_detections / trials
    assert rate <= 0.10, f"false detection rate {rate:.3f}"
