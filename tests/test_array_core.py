"""The array analysis core against the per-record loop, compared exactly.

run_analysis tests every circuit of a comparison at once on a slice of one
count array.  Its statistics, p-values, JSDs, TVDs and small-sample flags
must equal, with ==, what the plain per-record loop in _references gives,
including for circuits that lack a context and for pools far beyond 2**53
shots, where only exact integer products give the right ratio.

It also tests each distinct count table once across the whole plan.  Every
column must then equal, bit for bit, what the kernels give on each
comparison's own slice, and the files written from the reports must equal
the plain writers' bytes.
"""

import tempfile
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextdep import llr
from contextdep.chi2 import chi2_sf
from contextdep.counts import CircuitRecord
from contextdep.divergence import jsd_from_llr, tvd_rows
from contextdep.gstgen import parse_circuit_text
from contextdep.llr import llr_statistics, llr_tests, llr_threshold
from contextdep.multitest import combined_procedure
from contextdep.pipeline import (ComparisonPlan, jsd_profile, run_analysis, save_report,
                                 write_jsd_profile_csv)

from _references import (comparison_rows_reference, dataset_from_records,
                         llr_loop_reference, one_table, save_report_reference,
                         tvd_loop_reference, write_jsd_profile_csv_reference)


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

            # The kernels on this row's table alone give the batched values.
            record = dataset.circuit(line.circuit_id)
            table = one_table([record.counts[c] for c in report.contexts])
            single = llr_tests(table)
            assert (single.llr[0], single.p_value[0], single.n_total[0],
                    single.small_sample[0]) == (
                row["llr"], line.p_value, row["n_total"], row["small_sample"])
            assert jsd_from_llr(single.llr, single.n_total)[0] == row["jsd"]
            if row["tvd"] is not None:
                assert tvd_rows(table)[0] == row["tvd"]


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
    assert llr_statistics(one_table(near))[0] == llr_loop_reference(near)
    assert tvd_rows(one_table(near))[0] == tvd_loop_reference(*near)


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
    assert llr_statistics(one_table(pools))[0] == pytest.approx(float(exact), rel=1e-12)


def records_dataset(n_outcomes, contexts, rows):
    """A dataset of circuits q0, q1, ..., each row a {context: pool} dict."""
    records = [CircuitRecord(circuit_id=f"q{i}", counts=pools, core_length=i)
               for i, pools in enumerate(rows)]
    return dataset_from_records(tuple(map(str, range(n_outcomes))), contexts, records)


@st.composite
def shared_tables(draw):
    """Datasets whose comparisons share count tables: pools of 0 to 3 shots
    repeat across circuits and comparisons, in either context order."""
    n_contexts = draw(st.integers(min_value=3, max_value=5))
    n_outcomes = draw(st.integers(min_value=2, max_value=3))
    contexts = tuple(f"t{i}" for i in range(n_contexts))
    pool = st.lists(st.integers(min_value=0, max_value=3),
                    min_size=n_outcomes, max_size=n_outcomes).filter(lambda row: sum(row) > 0)
    records = []
    for i in range(draw(st.integers(min_value=1, max_value=8))):
        # The first circuit has every context, so every comparison has a row.
        dropped = set() if i == 0 else draw(
            st.sets(st.sampled_from(contexts), max_size=n_contexts - 1))
        records.append(CircuitRecord(
            circuit_id=f"q{i}" + draw(st.sampled_from(["", ",", '"', "\r\n", "é"])),
            counts={c: tuple(draw(pool)) for c in contexts if c not in dropped},
            spec=draw(st.sampled_from([None, "{}", "Gx", "GxGyGx"])),
            core_length=draw(st.integers(min_value=0, max_value=4))))
    outcomes = tuple(str(m) for m in range(n_outcomes))
    return dataset_from_records(outcomes, contexts, records)


# q0 and q1 hold the same t0/t1 table with its contexts swapped, which sums
# to another last bit.  q2's joint statistic has the bits of its t0_vs_t1
# statistic, at another dof.
SWAPS_AND_SHARED_STATISTICS = records_dataset(2, ("t0", "t1", "t2"), [
    {"t0": (0, 1), "t1": (2, 1), "t2": (1, 1)},
    {"t0": (2, 1), "t1": (0, 1), "t2": (1, 1)},
    {"t0": (2, 0), "t1": (0, 2), "t2": (1, 1)},
])


@settings(max_examples=60, deadline=None)
@example(dataset=SWAPS_AND_SHARED_STATISTICS)
@given(dataset=shared_tables())
def test_plan_wide_core_equals_each_comparison_slice(dataset):
    reports = run_analysis(dataset, ComparisonPlan.default(dataset.contexts), alpha=0.05)
    for report in reports:
        columns = [dataset.contexts.index(c) for c in report.contexts]
        rows = np.flatnonzero(dataset.present[:, columns].all(axis=1))
        table = dataset.counts[rows][:, columns]
        tests = llr_tests(table)
        outcome = combined_procedure(tests, report.circuit_ids, report.alpha_local)
        pair = len(columns) == 2
        tvd = tvd_rows(table) if pair else np.zeros(len(rows))
        shown = outcome.rejected & pair
        lengths = [len(parse_circuit_text(dataset.specs[row])) if dataset.specs[row] else 0
                   for row in rows]
        per_gate_null = np.array([not (show and n) for n, show in zip(lengths, shown)])
        per_gate = np.where(per_gate_null, 0.0, tvd / np.maximum(lengths, 1))
        expected = {
            "llr": tests.llr, "p_value": tests.p_value, "small_sample": tests.small_sample,
            "jsd": jsd_from_llr(tests.llr, tests.n_total),
            "jsd_threshold": jsd_from_llr(outcome.llr_threshold, tests.n_total),
            "rejected": outcome.rejected,
            "tvd": tvd, "tvd_null": np.full(len(rows), not pair),
            "sstvd": np.where(shown, tvd, 0.0), "sstvd_null": ~shown,
            "sstvd_per_gate": per_gate, "sstvd_per_gate_null": per_gate_null,
        }
        assert report.circuit_ids == tuple(dataset.circuit_ids[row] for row in rows)
        for name, column in expected.items():
            assert getattr(report, name).tobytes() == column.tobytes(), name
        assert (report.aggregate, report.p_threshold, report.llr_threshold) == (
            outcome.aggregate, outcome.p_threshold, outcome.llr_threshold)

    with tempfile.TemporaryDirectory() as tmp:
        written, reference = Path(tmp, "written"), Path(tmp, "reference")
        save_report(reports, written)
        save_report_reference(reports, reference)
        assert written.read_bytes() == reference.read_bytes()
        for report in reports:
            rows = jsd_profile(report, dataset)
            write_jsd_profile_csv(rows, written)
            write_jsd_profile_csv_reference(rows, reference)
            assert written.read_bytes() == reference.read_bytes()


def test_each_table_and_p_value_computed_once_per_plan(monkeypatch):
    """The work is counted: one statistic per distinct count table of the
    plan, one survival function per distinct (dof, statistic bits), plus
    one per comparison's aggregate."""
    rng = np.random.default_rng(3)
    contexts = ("t0", "t1", "t2", "t3")
    dataset = records_dataset(2, contexts, [
        {c: tuple(rng.integers(1, 4, size=2).tolist()) for c in contexts
         if i % 5 or c != "t3"}
        for i in range(40)])
    sf_calls, statistic_rows = [], []
    chi2_sf_, llr_statistics_ = llr.chi2_sf, llr.llr_statistics
    monkeypatch.setattr(llr, "chi2_sf", lambda x, k: sf_calls.append((x, k)) or chi2_sf_(x, k))
    monkeypatch.setattr(llr, "llr_statistics",
                        lambda counts: statistic_rows.append(len(counts)) or
                        llr_statistics_(counts))
    reports = run_analysis(dataset, ComparisonPlan.default(contexts))

    tables, statistics = set(), set()
    for report in reports:
        columns = [contexts.index(c) for c in report.contexts]
        rows = [dataset.circuit_ids.index(cid) for cid in report.circuit_ids]
        dof = len(columns) - 1
        tables.update((dof, tuple(table)) for table in
                      dataset.counts[rows][:, columns].reshape(len(rows), -1).tolist())
        statistics.update((dof, bits) for bits in report.llr.view(np.int64).tolist())
    n_rows = sum(len(report.circuit_ids) for report in reports)
    assert len(reports) == 7 and len(tables) < n_rows
    assert sum(statistic_rows) == len(tables)
    assert len(sf_calls) == len(statistics) + len(reports)
