"""The array analysis core against the per-record loop, compared exactly.

run_analysis tests every circuit of a comparison at once on a slice of one
count array.  Its statistics, p-values, JSDs, TVDs and small-sample flags
must equal, with ==, what the plain per-record loop in _references gives,
including for circuits that lack a context and for pools far beyond 2**53
shots, where only exact integer products give the right ratio.
"""

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextdep.chi2 import chi2_sf
from contextdep.counts import CircuitRecord
from contextdep.divergence import observed_jsd, observed_tvd
from contextdep.llr import llr_single, llr_statistic, llr_threshold
from contextdep.pipeline import ComparisonPlan, run_analysis

from _references import (comparison_rows_reference, dataset_from_records,
                         llr_loop_reference, tvd_loop_reference)


def check_against_loop(dataset):
    reports = run_analysis(dataset, ComparisonPlan.default(dataset.contexts), alpha=0.05)
    for report in reports:
        rows, warnings = comparison_rows_reference(dataset, report.contexts)
        assert list(report.warnings) == warnings
        assert [line.circuit_id for line in report.circuits] == [r["circuit_id"] for r in rows]
        assert report.llr_threshold == llr_threshold(report.p_threshold, rows[0]["dof"])
        for line, row in zip(report.circuits, rows):
            assert line.llr == row["llr"]
            assert line.p_value == chi2_sf(row["llr"], row["dof"])
            assert line.jsd == row["jsd"]
            assert line.jsd_threshold == report.llr_threshold / (2.0 * row["n_total"])
            assert line.tvd == row["tvd"]
            assert line.small_sample == row["small_sample"]
            assert line.rejected == (line.p_value < report.p_threshold)

            record = dataset.circuit(line.circuit_id)
            single = llr_single(record, report.contexts)
            assert (single.llr, single.p_value, single.n_total, single.small_sample) == (
                row["llr"], line.p_value, row["n_total"], row["small_sample"])
            assert observed_jsd(record, report.contexts) == row["jsd"]
            pools = [record.counts[c] for c in report.contexts]
            assert llr_statistic(pools) == row["llr"]
            if row["tvd"] is not None:
                assert observed_tvd(record, report.contexts) == row["tvd"]


@st.composite
def datasets(draw):
    n_contexts = draw(st.integers(min_value=2, max_value=6))
    n_outcomes = draw(st.integers(min_value=2, max_value=4))
    contexts = tuple(f"t{i}" for i in range(n_contexts))
    pool = st.lists(st.integers(min_value=0, max_value=60),
                    min_size=n_outcomes, max_size=n_outcomes).filter(lambda row: sum(row) > 0)
    records = []
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        # The first circuit has every context, so every comparison has a row;
        # later ones may lack some.
        dropped = set() if i == 0 else draw(
            st.sets(st.sampled_from(contexts), max_size=n_contexts - 1))
        counts = {c: tuple(draw(pool)) for c in contexts if c not in dropped}
        records.append(CircuitRecord(circuit_id=f"q{i}", counts=counts))
    outcomes = tuple(str(m) for m in range(n_outcomes))
    return dataset_from_records(outcomes, contexts, records)


@settings(max_examples=80, deadline=None)
@given(dataset=datasets())
def test_array_core_equals_per_record_loop(dataset):
    check_against_loop(dataset)


@pytest.mark.parametrize("shots", [2**40, 2**62, 2**70])
def test_exact_products_beyond_float_precision(shots):
    """Near-identical pools of 2**40, 2**62 and 2**70 shots: N * N is far
    past 2**53, so a float64 numerator x N - N_c x_m would cancel to noise.
    At 2**62 every count fits in int64 but a pool total reaches 2**63,
    where int64 totals would wrap."""
    records = (
        CircuitRecord(circuit_id="near", counts={
            "a": (shots + 1, shots - 1),
            "b": (shots, shots),
            "c": (shots - 3, shots + 3)}),
        CircuitRecord(circuit_id="mixed", counts={
            "a": (shots, shots // 2),
            "b": (5, 9),
            "c": (shots // 3, shots)}),
    )
    dataset = dataset_from_records(("0", "1"), ("a", "b", "c"), records)
    check_against_loop(dataset)
    near = [(shots + 1, shots - 1), (shots, shots)]
    assert llr_statistic(near) == llr_loop_reference(near)
    assert observed_tvd(records[0], ("a", "b")) == tvd_loop_reference(*near)


def test_count_far_below_its_share():
    """Pools (2**70, 7), (5, 9), (2**70 // 3, 2**70): for the 7, x N / (N_c x_m)
    is below 2**-53, so the rounded log1p argument is exactly -1.0, where
    log1p has no value.  That term is log(x N) - log(N_c x_m) of the exact
    ints; the statistic is finite and agrees with a 60-digit evaluation."""
    pools = [(2**70, 7), (5, 9), (2**70 // 3, 2**70)]
    n = sum(map(sum, pools))
    n_a, x_1 = sum(pools[0]), sum(row[1] for row in pools)
    assert (7 * n - n_a * x_1) / (n_a * x_1) == -1.0
    contexts = ("a", "b", "c")
    record = CircuitRecord(circuit_id="far", counts={
        c: pool for c, pool in zip(contexts, pools)})
    check_against_loop(dataset_from_records(("0", "1"), contexts, (record,)))
    with mp.workdps(60):
        pooled = [sum(row[m] for row in pools) for m in range(2)]
        exact = 2 * mp.fsum(x * mp.log(mp.mpf(x) * n / (sum(row) * pooled[m]))
                            for row in pools for m, x in enumerate(row) if x)
    assert llr_statistic(pools) == pytest.approx(float(exact), rel=1e-12)
