"""Effect-size metrics: JSD, TVD, and the significance-gated SSTVD."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextdep.counts import CircuitRecord, DatasetError
from contextdep.divergence import jsd_threshold, observed_jsd, observed_tvd, sstvd
from contextdep.llr import llr_single, llr_threshold

from _references import weighted_jsd_reference


def record_from_rows(*rows):
    counts = {f"c{i}": tuple(row) for i, row in enumerate(rows)}
    return CircuitRecord(circuit_id="q", counts=counts)


class TestObservedJsd:
    def test_frozen_two_context_value(self):
        record = record_from_rows((99, 101), (131, 69))
        assert observed_jsd(record) == pytest.approx(0.013157830984879836, rel=1e-12)

    def test_equals_statistic_over_two_n(self):
        record = record_from_rows((99, 101), (131, 69))
        result = llr_single(record)
        assert observed_jsd(record) == pytest.approx(
            result.llr / (2 * result.n_total), rel=1e-12)

    def test_disjoint_supports_hit_log_two(self):
        record = record_from_rows((100, 0), (0, 100))
        assert observed_jsd(record) == pytest.approx(math.log(2), rel=1e-12)

    def test_identical_contexts_give_zero(self):
        record = record_from_rows((40, 60), (40, 60))
        assert observed_jsd(record) == 0.0

    def test_reported_in_nats_not_bits(self):
        # If the implementation used log base 2 this would read 1.0.
        record = record_from_rows((100, 0), (0, 100))
        assert observed_jsd(record) < 0.70


rows_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=150), min_size=2, max_size=4)
    .map(tuple)
    .filter(lambda row: sum(row) > 0),
    min_size=2,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=120, deadline=None)
@given(rows=rows_strategy)
def test_jsd_matches_entropy_formula(rows):
    """lambda/(2N) equals the weighted mixture-entropy form of the JSD."""
    record = record_from_rows(*rows)
    assert observed_jsd(record) == pytest.approx(
        weighted_jsd_reference(rows), abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(rows=rows_strategy)
def test_jsd_bounded_by_log_context_count(rows):
    value = observed_jsd(record_from_rows(*rows))
    assert 0.0 <= value <= math.log(len(rows)) + 1e-12


class TestJsdThreshold:
    def test_frozen_value(self):
        assert jsd_threshold(3.84145882069412, 400) == pytest.approx(
            0.00480182352586765, rel=1e-12)

    def test_scales_inversely_with_shots(self):
        assert jsd_threshold(10.0, 2000) == pytest.approx(
            jsd_threshold(10.0, 1000) / 2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            jsd_threshold(10.0, 0)
        with pytest.raises(ValueError):
            jsd_threshold(-1.0, 100)


class TestObservedTvd:
    def test_frozen_two_context_value(self):
        record = record_from_rows((99, 101), (131, 69))
        assert observed_tvd(record, ("c0", "c1")) == pytest.approx(0.16, rel=1e-15)

    def test_frozen_dyadic_value(self):
        record = record_from_rows((1022, 2), (738, 286))
        assert observed_tvd(record, ("c0", "c1")) == 0.27734375

    def test_symmetry(self):
        record = record_from_rows((99, 101), (131, 69))
        assert observed_tvd(record, ("c0", "c1")) == observed_tvd(record, ("c1", "c0"))

    def test_extremes(self):
        assert observed_tvd(record_from_rows((50, 50), (50, 50)), ("c0", "c1")) == 0.0
        assert observed_tvd(record_from_rows((100, 0), (0, 100)), ("c0", "c1")) == 1.0

    def test_needs_exactly_two_distinct_contexts(self):
        record = record_from_rows((9, 1), (8, 2), (7, 3))
        with pytest.raises(DatasetError):
            observed_tvd(record, ("c0", "c1", "c2"))
        with pytest.raises(DatasetError):
            observed_tvd(record, ("c0", "c0"))

    def test_unequal_pool_sizes_use_frequencies(self):
        record = record_from_rows((30, 10), (150, 50))
        assert observed_tvd(record, ("c0", "c1")) == 0.0


@settings(max_examples=120, deadline=None)
@given(rows=st.tuples(
    st.lists(st.integers(min_value=0, max_value=150), min_size=3, max_size=3)
    .map(tuple).filter(lambda row: sum(row) > 0),
    st.lists(st.integers(min_value=0, max_value=150), min_size=3, max_size=3)
    .map(tuple).filter(lambda row: sum(row) > 0),
))
def test_tvd_in_unit_interval(rows):
    value = observed_tvd(record_from_rows(*rows), ("c0", "c1"))
    assert 0.0 <= value <= 1.0 + 1e-12


class TestSstvd:
    def test_gated_on_rejection(self):
        loud = record_from_rows((150, 50), (50, 150))
        quiet = record_from_rows((108, 92), (107, 93))
        cut = llr_threshold(0.05, 1)
        assert sstvd(loud, ("c0", "c1"), cut) == observed_tvd(loud, ("c0", "c1"))
        assert sstvd(quiet, ("c0", "c1"), cut) is None

    def test_boundary_statistic_reports_null(self):
        record = record_from_rows((99, 101), (131, 69))
        statistic = llr_single(record).llr
        assert sstvd(record, ("c0", "c1"), statistic) is None
        assert sstvd(record, ("c0", "c1"), statistic * (1 - 1e-9)) is not None

    def test_needs_exactly_two_contexts_even_below_threshold(self):
        # SSTVD is a pair's TVD: a third context is an error, not a null.
        record = record_from_rows((9, 1), (8, 2), (7, 3))
        with pytest.raises(DatasetError):
            sstvd(record, ("c0", "c1", "c2"), 1e9)
        with pytest.raises(DatasetError):
            sstvd(record, ("c0", "c0"), 1e9)

    def test_null_is_none_not_zero(self):
        quiet = record_from_rows((108, 92), (107, 93))
        value = sstvd(quiet, ("c0", "c1"), llr_threshold(0.05, 1))
        assert value is None
        assert value != 0.0

