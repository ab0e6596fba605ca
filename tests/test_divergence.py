"""Effect-size metrics: JSD, TVD, and the significance-gated SSTVD."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextdep.counts import CircuitRecord
from contextdep.divergence import jsd_from_llr, tvd_rows
from contextdep.llr import llr_tests
from contextdep.pipeline import run_analysis, save_report

from _references import dataset_from_records, one_table, weighted_jsd_reference


def jsd_of(rows):
    tests = llr_tests(one_table(rows))
    return jsd_from_llr(tests.llr, tests.n_total)[0]


def tvd_of(rows):
    return tvd_rows(one_table(rows))[0]


def dataset_of(*tables):
    """Circuits q0, q1, ... over contexts c0, c1, ..., one per table of rows."""
    records = [CircuitRecord(f"q{i}", {f"c{k}": row for k, row in enumerate(rows)})
               for i, rows in enumerate(tables)]
    return dataset_from_records(tuple(map(str, range(len(tables[0][0])))),
                                tuple(f"c{k}" for k in range(len(tables[0]))), records)


class TestObservedJsd:
    def test_frozen_two_context_value(self):
        rows = [(99, 101), (131, 69)]
        assert jsd_of(rows) == pytest.approx(0.013157830984879836, rel=1e-12)

    def test_equals_statistic_over_two_n(self):
        rows = [(99, 101), (131, 69)]
        tests = llr_tests(one_table(rows))
        assert jsd_of(rows) == pytest.approx(
            tests.llr[0] / (2 * tests.n_total[0]), rel=1e-12)

    def test_disjoint_supports_hit_log_two(self):
        assert jsd_of([(100, 0), (0, 100)]) == pytest.approx(math.log(2), rel=1e-12)

    def test_identical_contexts_give_zero(self):
        assert jsd_of([(40, 60), (40, 60)]) == 0.0

    def test_reported_in_nats_not_bits(self):
        # If the implementation used log base 2 this would read 1.0.
        assert jsd_of([(100, 0), (0, 100)]) < 0.70


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
    assert jsd_of(rows) == pytest.approx(weighted_jsd_reference(rows), abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(rows=rows_strategy)
def test_jsd_bounded_by_log_context_count(rows):
    value = jsd_of(rows)
    assert 0.0 <= value <= math.log(len(rows)) + 1e-12


class TestJsdThreshold:
    def test_frozen_value(self):
        assert jsd_from_llr(3.84145882069412, 400) == pytest.approx(
            0.00480182352586765, rel=1e-12)

    def test_scales_inversely_with_shots(self):
        assert jsd_from_llr(10.0, 2000) == pytest.approx(
            jsd_from_llr(10.0, 1000) / 2, rel=1e-12)


class TestObservedTvd:
    def test_frozen_two_context_value(self):
        assert tvd_of([(99, 101), (131, 69)]) == pytest.approx(0.16, rel=1e-15)

    def test_frozen_dyadic_value(self):
        assert tvd_of([(1022, 2), (738, 286)]) == 0.27734375

    def test_symmetry(self):
        rows = [(99, 101), (131, 69)]
        assert tvd_of(rows) == tvd_of(rows[::-1])

    def test_extremes(self):
        assert tvd_of([(50, 50), (50, 50)]) == 0.0
        assert tvd_of([(100, 0), (0, 100)]) == 1.0

    def test_unequal_pool_sizes_use_frequencies(self):
        assert tvd_of([(30, 10), (150, 50)]) == 0.0


@settings(max_examples=120, deadline=None)
@given(rows=st.tuples(
    st.lists(st.integers(min_value=0, max_value=150), min_size=3, max_size=3)
    .map(tuple).filter(lambda row: sum(row) > 0),
    st.lists(st.integers(min_value=0, max_value=150), min_size=3, max_size=3)
    .map(tuple).filter(lambda row: sum(row) > 0),
))
def test_tvd_in_unit_interval(rows):
    value = tvd_of(rows)
    assert 0.0 <= value <= 1.0 + 1e-12


class TestSstvd:
    """SSTVD as run_analysis gates it: a pair's TVD where the row is rejected."""

    def test_gated_on_rejection(self):
        loud, quiet = [(150, 50), (50, 150)], [(108, 92), (107, 93)]
        loud_line, quiet_line = run_analysis(dataset_of(loud, quiet))[0].circuits
        assert loud_line.rejected and loud_line.sstvd == tvd_of(loud)
        assert not quiet_line.rejected and quiet_line.sstvd is None

    def test_boundary_statistic_reports_null(self):
        # Rejection is strict.  One circuit at alpha = 2p: the aggregate (the
        # same statistic) does not trigger, so p_threshold is alpha / 2 = p.
        dataset = dataset_of([(99, 101), (131, 69)])
        p = run_analysis(dataset)[0].p_value[0]
        at = run_analysis(dataset, alpha=2 * p)[0]
        assert at.p_threshold == p and at.circuits[0].sstvd is None
        above = run_analysis(dataset, alpha=2 * p * (1 + 1e-9))[0]
        assert above.circuits[0].sstvd == above.circuits[0].tvd is not None

    def test_null_is_none_not_zero(self, tmp_path):
        report = run_analysis(dataset_of([(108, 92), (107, 93)]))[0]
        value = report.circuits[0].sstvd
        assert value is None
        assert value != 0.0
        save_report([report], tmp_path / "report.json")
        row = json.loads((tmp_path / "report.json").read_text())[0]["circuits"][0]
        assert row["sstvd"] is None and row["tvd"] > 0.0
