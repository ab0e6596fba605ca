"""Accuracy and contract tests for the chi-squared tail functions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextdep.chi2 import chi2_isf, chi2_sf

from _references import chi2_sf_reference, log10_tail_magnitude

GRID_KS = [1, 2, 3, 4, 5, 7, 10, 50, 100, 1000, 10000]
GRID_FRACTIONS = [1e-8, 1e-4, 0.01, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0, 10.0]


def test_sf_matches_high_precision_oracle():
    worst = 0.0
    for k in GRID_KS:
        for fraction in GRID_FRACTIONS:
            x = k * fraction
            if log10_tail_magnitude(x, k) < -330.0:
                # The smaller tail underflows even subnormal doubles here;
                # relative error is meaningless, so require the saturated
                # outputs instead.
                assert chi2_sf(x, k) == (1.0 if x < k else 0.0)
                continue
            ours, ref = chi2_sf(x, k), chi2_sf_reference(x, k)
            if ref > 1e-290:
                worst = max(worst, abs(ours - ref) / float(ref))
            else:
                # Down near the edge of double range, agree absolutely.
                assert abs(ours - float(ref)) <= 1e-295, (k, x)
    assert worst <= 1e-9, f"worst relative error {worst}"


def test_exponential_closed_form_k2():
    for x in [0.0, 0.3, 1.0, 2.0, 10.0, 50.0]:
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-0.5 * x), rel=1e-14)
    for p in [1.0, 0.5, 1e-3, 1e-100, 5e-324]:
        assert chi2_isf(p, 2) == pytest.approx(-2.0 * math.log(p), rel=1e-14, abs=0.0)


def test_cdf_at_zero_is_exactly_zero():
    # The CDF is 1 - chi2_sf: exactly zero at x = 0, where the quantile of
    # tail probability one sits.
    for k in [1, 2, 5, 100]:
        assert chi2_sf(0.0, k) == 1.0
        assert chi2_isf(1.0, k) == 0.0


def test_sf_underflows_to_zero_in_extreme_tail():
    # Not clipped: a survival value below the smallest double is 0.0.
    assert chi2_sf(5000.0, 1) == 0.0
    assert chi2_sf(1e6, 10) == 0.0


def test_quantile_known_values():
    assert chi2_isf(0.05, 1) == pytest.approx(3.841458820694124, rel=1e-12)
    assert chi2_isf(0.5, 2) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
    assert chi2_isf(0.05, 4) == pytest.approx(9.487729036781154, rel=1e-12)


def test_quantile_round_trip_probability():
    # Through the mpmath oracle, across every tail probability a
    # multiple-testing budget can reach; 1 - p rounds to 1 below 1.1e-16.
    for k in [1, 2, 3, 4, 5, 10, 16, 100, 1000, 5620, 10000]:
        for p in [0.999, 0.9, 0.5, 0.3141, 0.05, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15,
                  1e-17, 1e-30, 1e-100, 1e-200, 1e-300, 5e-324]:
            ratio = chi2_sf_reference(chi2_isf(p, k), k) / p
            assert abs(float(ratio) - 1.0) <= 1e-11, (k, p)


@given(
    k=st.integers(min_value=1, max_value=200),
    x1=st.floats(min_value=0.0, max_value=500.0),
    x2=st.floats(min_value=0.0, max_value=500.0),
)
@settings(max_examples=200, deadline=None)
def test_cdf_monotone_and_bounded(k, x1, x2):
    # The CDF, 1 - chi2_sf, rises within [0, 1]: the survival side falls.
    lo, hi = sorted((x1, x2))
    assert 0.0 <= chi2_sf(hi, k) <= chi2_sf(lo, k) <= 1.0


@given(
    k=st.integers(min_value=1, max_value=10000),
    p1=st.floats(min_value=5e-324, max_value=1.0),
    p2=st.floats(min_value=5e-324, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_quantile_monotone(k, p1, p2):
    lo, hi = sorted((p1, p2))
    assert chi2_isf(hi, k) <= chi2_isf(lo, k) * (1.0 + 1e-13)


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        chi2_sf(-1.0, 3)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 2.5)
    with pytest.raises(ValueError):
        chi2_sf(float("nan"), 3)
    for p in [0.0, -0.1, 1.0 + 1e-12, 2.0, float("nan"), float("inf")]:
        with pytest.raises(ValueError, match=r"probability must lie in \(0, 1\]"):
            chi2_isf(p, 3)
    with pytest.raises(ValueError):
        chi2_isf(0.5, 0)
