"""Analysis pipeline: plans, internal consistency, serialization, tables."""

import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextdep.counts import CircuitRecord, DatasetError
from contextdep.datasets import (drift_design, drift_error_model, neighbor_example,
                                 two_context_example)
from contextdep.llr import AggregateTestResult, TableTests, n_sigma_threshold
from contextdep.multitest import MultiTestOutcome, combined_procedure
from contextdep.pipeline import (Comparison, ComparisonPlan, ComparisonReport, JsdProfile,
                                 PairwiseMatrices, jsd_profile, load_plan, load_report,
                                 pairwise_matrices, run_analysis, save_report,
                                 write_jsd_profile_csv, write_pairwise_csv)
from contextdep.qsim import ErrorModel, SimConfig, run_drift_experiment
from contextdep.gstgen import GstDesign

from _references import (combined_procedure_reference, dataset_from_records,
                         save_report_reference, tvd_loop_reference,
                         write_jsd_profile_csv_reference, write_pairwise_csv_reference)


def drifting_dataset(contexts=("t1", "t2", "t3"), seed=3):
    design = GstDesign(gates=("Gx", "Gy"), prep_fiducials=("{}", "Gx", "Gy"),
                       meas_fiducials=("{}", "Gx"), germs=("Gx", "GxGy"),
                       max_germ_power=16)
    error = ErrorModel(
        context_overrotations={
            c: {"Gx": 0.03 * i, "Gy": 0.03 * i} for i, c in enumerate(contexts)
        },
        static_epsilon=0.001,
    )
    config = SimConfig(shots_per_context=256, seed=seed, contexts=tuple(contexts))
    return run_drift_experiment(design, error, config)


@pytest.fixture(scope="module")
def drift_seed_0():
    """The bundled drift experiment: 1405 circuits, five periods, 100 shots."""
    error = drift_error_model()
    config = SimConfig(shots_per_context=100, seed=0, contexts=error.contexts)
    return run_drift_experiment(drift_design(), error, config)


class TestComparisonPlan:
    def test_default_two_contexts_single_pair(self):
        plan = ComparisonPlan.default(("a", "b"))
        assert len(plan) == 1
        only = plan.comparisons[0]
        assert only.comparison_id == "a_vs_b"
        assert only.contexts == ("a", "b")
        assert only.weight == 1.0

    def test_default_many_contexts_joint_plus_pairs(self):
        plan = ComparisonPlan.default(("t1", "t2", "t3", "t4", "t5"))
        ids = [c.comparison_id for c in plan]
        assert ids[0] == "joint"
        assert len(plan) == 1 + 10
        assert all(c.weight == pytest.approx(1 / 11) for c in plan)
        assert "t1_vs_t5" in ids

    def test_colliding_pair_ids_name_both_pairs(self):
        message = ("context pairs ('a', 'vs_b') and ('a_vs', 'b') both make the comparison "
                   "id 'a_vs_vs_b'; name the comparisons in a --plan file")
        for make in (ComparisonPlan.default, ComparisonPlan.all_pairs):
            with pytest.raises(ValueError, match=re.escape(message)):
                make(("a", "vs_b", "a_vs", "b"))

    def test_pair_ids_that_do_not_collide_are_unchanged(self):
        plan = ComparisonPlan.default(("a", "vs_b", "a_vs"))
        assert [c.comparison_id for c in plan] == ["joint", "a_vs_vs_b", "a_vs_a_vs",
                                                   "vs_b_vs_a_vs"]

    def test_joint_and_all_pairs_constructors(self):
        joint = ComparisonPlan.joint(("a", "b", "c"))
        assert len(joint) == 1 and joint.comparisons[0].weight == 1.0
        pairs = ComparisonPlan.all_pairs(("a", "b", "c"))
        assert [c.comparison_id for c in pairs] == ["a_vs_b", "a_vs_c", "b_vs_c"]
        assert math.fsum(c.weight for c in pairs) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ComparisonPlan(())
        with pytest.raises(ValueError):
            ComparisonPlan((Comparison("x", ("a", "b"), 0.4),))
        dup = (Comparison("x", ("a", "b"), 0.5), Comparison("x", ("a", "c"), 0.5))
        with pytest.raises(ValueError):
            ComparisonPlan(dup)
        with pytest.raises(ValueError):
            Comparison("x", ("a",), 1.0)
        with pytest.raises(ValueError):
            Comparison("x", ("a", "a"), 1.0)
        with pytest.raises(ValueError, match="weight"):
            Comparison("x", ("a", "b"), True)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -0.25, 1.5, 0, -0.0,
                                        pytest.param(10**400, id="10**400")])
    def test_weight_must_be_a_share_of_alpha(self, tmp_path, weight):
        with pytest.raises(ValueError, match="'x': weight must be a number in \\(0, 1\\]"):
            Comparison("x", ("a", "b"), weight)
        # A NaN once passed the plan's sum check, since nan - 1.0 > 1e-12 is false.
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"comparisons": [
            {"id": "x", "contexts": ["a", "b"], "weight": weight}]}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: comparison 'x': weight"):
            load_plan(path)

    def test_load_plan_with_weights(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "comparisons": [
                {"id": "joint", "contexts": ["a", "b", "c"], "weight": 0.5},
                {"contexts": ["a", "c"], "weight": 0.5},
            ]
        }))
        plan = load_plan(path)
        assert [c.comparison_id for c in plan] == ["joint", "a_vs_c"]
        assert plan.comparisons[0].weight == 0.5

    def test_load_plan_equal_split_when_unweighted(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "comparisons": [
                {"contexts": ["a", "b"]},
                {"contexts": ["b", "c"]},
            ]
        }))
        plan = load_plan(path)
        assert [c.weight for c in plan] == [0.5, 0.5]

    @pytest.mark.parametrize("payload, message", [
        ({"comparisons": [5]}, "array of objects"),
        ({"comparisons": "ab"}, "array of objects"),
        ({"comparisons": [{"contexts": [1, 2]}]}, "comparison 0: 'contexts' must be an array"),
        ({"comparisons": [{"contexts": "ab"}]}, "comparison 0: 'contexts' must be an array"),
        ({"comparisons": [{"contexts": ["a", "b"], "weight": [1]}]},
         "comparison 0: 'weight' must be a number or null"),
        ({"comparisons": [{"id": 7, "contexts": ["a", "b"]}]},
         "comparison 0: 'id' must be a string or null"),
    ])
    def test_load_plan_rejects_malformed_entries(self, tmp_path, payload, message):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_plan(path)

    def test_load_plan_rejects_mixed_weights(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "comparisons": [
                {"contexts": ["a", "b"], "weight": 0.5},
                {"contexts": ["b", "c"]},
            ]
        }))
        with pytest.raises(ValueError, match="every comparison"):
            load_plan(path)


class TestRunAnalysis:
    def test_two_context_bundled_example(self):
        reports = run_analysis(two_context_example(), alpha=0.05)
        assert len(reports) == 1
        report = reports[0]
        assert report.comparison_id == "c1_vs_c2"
        assert report.alpha_local == pytest.approx(0.05)
        assert report.detected
        line = report.circuits[0]
        assert line.rejected
        assert line.tvd == pytest.approx(0.16, rel=1e-15)
        assert line.sstvd == line.tvd

    def test_default_plan_shape_for_three_contexts(self):
        dataset = drifting_dataset()
        reports = run_analysis(dataset, alpha=0.05)
        ids = [r.comparison_id for r in reports]
        assert ids == ["joint", "t1_vs_t2", "t1_vs_t3", "t2_vs_t3"]
        for report in reports:
            assert report.alpha_local == pytest.approx(0.05 / 4)

    def test_report_internal_consistency(self):
        """One p_threshold coherently drives every derived field."""
        dataset = drifting_dataset()
        for report in run_analysis(dataset, alpha=0.05):
            agg = report.aggregate
            assert agg.dof == sum(1 for _ in report.circuits) * (len(report.contexts) - 1)
            assert agg.llr == pytest.approx(
                math.fsum(c.llr for c in report.circuits), rel=1e-9)
            assert report.n_sigma_threshold == pytest.approx(
                n_sigma_threshold(report.alpha_local / 2, agg.dof), rel=1e-12)
            assert report.aggregate_triggered == (agg.p_value < report.alpha_local / 2)
            for line in report.circuits:
                assert line.rejected == (line.p_value < report.p_threshold)
                assert (line.sstvd is not None) == (
                    line.rejected and len(report.contexts) == 2)
                if line.sstvd is not None:
                    assert line.sstvd == line.tvd
                if report.llr_threshold is not None:
                    n_total = len(report.contexts) * 256
                    assert line.jsd_threshold == pytest.approx(
                        report.llr_threshold / (2 * n_total), rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.05, 1e-11])
    def test_statistic_threshold_separates_rejections(self, drift_seed_0, alpha):
        # At alpha 1e-11 the t1_vs_t5 p_threshold is near 6.5e-16, where a
        # quantile solved through 1 - p fell short and left four rows above
        # llr_threshold unrejected.
        for report in run_analysis(drift_seed_0, alpha=alpha):
            if len(report.contexts) != 2:
                continue
            assert ((report.llr > report.llr_threshold) == report.rejected).all()
            for line in report.circuits:
                assert line.sstvd == (line.tvd if line.rejected else None)

    def test_decision_is_derived_as_the_procedure_made_it(self, drift_seed_0):
        """Neither the decision nor the header is stored: the report derives
        the aggregate, p_threshold, aggregate_triggered, N_sigma and both
        thresholds from its rows, dof and alpha_local, bit for bit as
        combined_procedure computed them."""
        assert not {"aggregate", "n_sigma_threshold", "llr_threshold", "p_threshold",
                    "aggregate_triggered"} & {
            field.name for field in dataclasses.fields(ComparisonReport)}
        assert "n_sigma" not in {field.name for field in dataclasses.fields(AggregateTestResult)}
        reports = run_analysis(drift_seed_0, alpha=0.05)
        assert len(reports) == 11
        for report in reports:
            # Two outcomes: one dof per context beyond the first.
            tests = TableTests(llr=report.llr, dof=len(report.contexts) - 1,
                               p_value=report.p_value, n_total=None,
                               small_sample=report.small_sample)
            outcome = combined_procedure(tests, report.circuit_ids, report.alpha_local)
            assert report.aggregate == outcome.aggregate
            assert report.aggregate_triggered is outcome.aggregate_triggered
            assert report.p_threshold.hex() == outcome.p_threshold.hex()
            assert report.n_sigma_threshold.hex() == outcome.n_sigma_threshold.hex()
            assert report.llr_threshold.hex() == outcome.llr_threshold.hex()
            assert report.aggregate.n_sigma.hex() == (
                (outcome.aggregate.llr - outcome.aggregate.dof)
                / math.sqrt(2.0 * outcome.aggregate.dof)).hex()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_decision_at_its_boundaries_matches_the_reference(self, data):
        """The aggregate's p at alpha_local / 2 and its neighbours, and rows
        on the step-up cutoffs of either budget and their neighbours, with
        ties, 0.0 and 1.0: Decision decides as the reference, bit for bit.
        A report derives its aggregate from its rows, so an outcome, which
        is given one, holds these p."""
        alpha = data.draw(st.sampled_from([0.05, 0.0125, 0.3, 1e-11, 1e-300, 1e-320])
                          | st.floats(1e-300, 1.0, exclude_max=True), label="alpha_local")
        half = alpha / 2
        aggregate_p = data.draw(st.sampled_from(
            [float(np.nextafter(half, 0.0)), half, float(np.nextafter(half, 1.0))]), label="p")
        n = data.draw(st.integers(1, 8), label="rows")
        cutoffs = [beta / k for beta in (alpha, half) for k in range(1, n + 1)]
        near = [float(np.nextafter(c, edge)) for c in cutoffs for edge in (0.0, 1.0)]
        p_value = np.array(data.draw(st.lists(st.sampled_from([*cutoffs, *near, 0.0, 1.0]),
                                              min_size=n, max_size=n), label="row p"))
        ids = tuple(f"c{i}" for i in range(n))
        triggered, rejected, p_threshold, detected = combined_procedure_reference(
            list(zip(ids, p_value.tolist())), alpha, aggregate_p)
        aggregate = AggregateTestResult(llr=0.0, dof=n, p_value=aggregate_p)
        decision = MultiTestOutcome(ids, p_value, alpha, aggregate)
        assert decision.aggregate_triggered is triggered
        assert decision.p_threshold.hex() == p_threshold.hex()
        assert decision.rejected.tolist() == [i in rejected for i in ids]
        assert decision.detected is detected
        assert decision.rejected_ids == rejected

    def test_pair_reports_carry_tvd_joint_does_not(self):
        dataset = drifting_dataset()
        reports = {r.comparison_id: r for r in run_analysis(dataset)}
        assert all(c.tvd is None for c in reports["joint"].circuits)
        pair = reports["t1_vs_t3"]
        record = dataset.circuit(pair.circuits[0].circuit_id)
        assert pair.circuits[0].tvd == pytest.approx(
            tvd_loop_reference(record.pool("t1"), record.pool("t3")), rel=1e-12)

    def test_sstvd_per_gate_divides_by_length(self):
        reports = run_analysis(drifting_dataset(), alpha=0.05)
        saw_one = False
        for report in reports:
            for line in report.circuits:
                if line.sstvd_per_gate is not None:
                    dataset_record = drifting_dataset().circuit(line.circuit_id)
                    from contextdep.gstgen import parse_circuit_text
                    n_gates = len(parse_circuit_text(dataset_record.spec))
                    assert line.sstvd_per_gate == pytest.approx(
                        line.sstvd / n_gates, rel=1e-12)
                    saw_one = True
        assert saw_one

    def test_max_sstvd_is_largest_non_null_sstvd(self):
        reports = run_analysis(drifting_dataset(), alpha=0.05)
        widest = max(reports, key=lambda r: sum(c.sstvd is not None for c in r.circuits))
        values = [c.sstvd for c in widest.circuits if c.sstvd is not None]
        assert len(values) >= 2 and len(values) < len(widest.circuits)
        assert widest.max_sstvd == max(values)
        assert reports[0].max_sstvd is None  # the joint comparison has no TVD

    def test_rejected_subset_of_circuits_and_detection_definition(self):
        for report in run_analysis(drifting_dataset(), alpha=0.05):
            ids = {c.circuit_id for c in report.circuits}
            assert set(report.rejected_ids) <= ids
            assert report.detected == (
                report.aggregate_triggered or bool(report.rejected_ids))

    def test_custom_plan_and_alpha_budget(self):
        dataset = drifting_dataset()
        plan = ComparisonPlan((
            Comparison("everything", ("t1", "t2", "t3"), 0.75),
            Comparison("ends", ("t1", "t3"), 0.25),
        ))
        reports = run_analysis(dataset, plan, alpha=0.04)
        assert reports[0].alpha_local == pytest.approx(0.03)
        assert reports[1].alpha_local == pytest.approx(0.01)

    def test_deterministic(self):
        a = run_analysis(drifting_dataset(), alpha=0.05)
        b = run_analysis(drifting_dataset(), alpha=0.05)
        assert a == b

    def test_missing_context_in_dataset_rejected(self):
        dataset = drifting_dataset()
        plan = ComparisonPlan((Comparison("bad", ("t1", "zz"), 1.0),))
        with pytest.raises(DatasetError, match="'zz'"):
            run_analysis(dataset, plan)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            run_analysis(drifting_dataset(), alpha=0.0)

    def test_circuit_missing_a_context_is_skipped_with_warning(self):
        records = (
            CircuitRecord(circuit_id="full", counts={
                "a": (60, 40), "b": (40, 60)}),
            CircuitRecord(circuit_id="partial", counts={
                "a": (50, 50)}),
        )
        dataset = dataset_from_records(("0", "1"), ("a", "b"), records)
        report = run_analysis(dataset, alpha=0.05)[0]
        assert [c.circuit_id for c in report.circuits] == ["full"]
        assert any("partial" in w and "skipped" in w for w in report.warnings)

    def test_no_usable_circuit_is_an_error(self):
        records = (
            CircuitRecord(circuit_id="partial", counts={
                "a": (50, 50)}),
        )
        dataset = dataset_from_records(("0", "1"), ("a", "b"), records)
        with pytest.raises(DatasetError, match="no circuit"):
            run_analysis(dataset, alpha=0.05)

    @pytest.mark.parametrize("alpha", [1e-300, 1e-305])
    def test_p_values_below_every_double_are_rejected(self, alpha):
        # Each row's statistic is about 27,726, so its p-value underflows to
        # 0.0, below every positive threshold.  A p-value floor of 1e-300
        # once left these rows unrejected at budgets this small.
        records = [CircuitRecord(f"q{i}", {"a": (10000, 0), "b": (0, 10000)})
                   for i in range(3)]
        dataset = dataset_from_records(("0", "1"), ("a", "b"), records)
        (report,) = run_analysis(dataset, alpha=alpha)
        assert report.p_value.tolist() == [0.0, 0.0, 0.0]
        assert (report.llr > report.llr_threshold).all()
        assert report.rejected.all()
        assert report.aggregate_triggered and report.detected

    def test_neighbor_bundled_example(self):
        report = run_analysis(neighbor_example(), alpha=0.05)[0]
        assert report.detected
        assert report.rejected_ids == ("GhGsGsGsGsGh",)
        assert report.max_sstvd == 0.27734375


def _one_row_report():
    """One unrejected two-context row (p = 1) with a tvd of 0.1 and a
    per-gate value of 0.1."""
    return ComparisonReport.from_columns(
        comparison_id="a_vs_b", contexts=("a", "b"), alpha_local=0.05, dof=1,
        circuit_ids=("Gx",), llr=np.zeros(1), p_value=np.ones(1),
        jsd=np.zeros(1), jsd_threshold=np.zeros(1), small_sample=np.zeros(1, dtype=bool),
        tvd=np.full(1, 0.1), sstvd_per_gate=np.full(1, 0.1),
        sstvd_per_gate_null=np.zeros(1, dtype=bool))


class TestReportFiles:
    def test_round_trip(self, tmp_path):
        # One analysis shares one store; each loaded comparison has its own,
        # with each row its own table, and equals its analysed report.
        reports = run_analysis(drifting_dataset(), alpha=0.05)
        assert all(report.store is reports[0].store for report in reports)
        path = tmp_path / "report.json"
        save_report(reports, path)
        loaded = load_report(path)
        assert loaded == reports
        assert len({id(report.store) for report in loaded}) == len(loaded)
        for report in loaded:
            assert report.rows.tolist() == report.tables.tolist() == list(range(len(report.rows)))

    def test_per_gate_sstvd_is_saved_only_with_the_sstvd(self, tmp_path):
        # One unrejected row (p = 1) with a tvd and a per-gate value: the
        # per-gate value was once saved, and load_report refused the file.
        report = _one_row_report()
        assert report.circuits[0].sstvd_per_gate is None
        save_report([report], tmp_path / "a.json")
        (loaded,) = load_report(tmp_path / "a.json")
        assert loaded.circuits[0].sstvd_per_gate is None
        save_report([loaded], tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_report_without_rows_is_refused(self):
        # No analysis compares zero circuits, so no report has zero rows.
        with pytest.raises(ValueError, match=r"^comparison 'a_vs_b': no circuit rows$"):
            dataclasses.replace(_one_row_report(), rows=np.arange(0), tables=np.arange(0))

    # dof is each row's; the message names the aggregate's, rows x dof, as a
    # report file states it.
    @pytest.mark.parametrize("ids, contexts, dof, message", [
        (("Gx", "Gx"), ("a", "b"), 2, "duplicate circuit id 'Gx'"),
        (("Gx", "Gy"), ("a", "b", "c"), 3, "= 2 x 2, got 6"),
        (("Gx", "Gy"), ("a", "b"), 0, "= 2 x 1, got 0"),
        (("Gx", "Gy"), ("a",), 2, "= 2 x 0, got 4"),
        (("Gx", "Gy"), ("a", "a"), 2, "duplicate context 'a'"),
    ])
    def test_report_no_analysis_makes_is_refused(self, ids, contexts, dof, message):
        # Rows of distinct circuits, (contexts - 1) (outcomes - 1) dof each,
        # between distinct contexts; a report file is held to the same rules
        # by load_report.
        flags = np.zeros(2, dtype=bool)
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            ComparisonReport.from_columns(
                comparison_id="c", contexts=contexts, alpha_local=0.05, dof=dof,
                circuit_ids=ids, llr=np.zeros(2),
                p_value=np.ones(2), jsd=np.zeros(2), jsd_threshold=np.zeros(2),
                small_sample=flags, tvd=np.full(2, 0.1),
                sstvd_per_gate=np.zeros(2), sstvd_per_gate_null=~flags)

    @pytest.mark.parametrize("reports", [lambda report: [],
                                         lambda report: [report, report]],
                             ids=["no comparisons", "repeated comparison_id"])
    def test_report_files_load_report_refuses_are_not_written(self, tmp_path, reports):
        with pytest.raises(ValueError, match="^a report file holds at least one comparison, "
                                             "each with its own id$"):
            save_report(reports(_one_row_report()), tmp_path / "report.json")
        assert not (tmp_path / "report.json").exists()

    def test_columns_of_unequal_length_are_not_truncated(self, tmp_path):
        # A short column once cut every row to its length: 5 of 40 rows saved.
        report = run_analysis(neighbor_example())[0]
        with pytest.raises(ValueError, match="shorter"):
            save_report([dataclasses.replace(report, jsd_threshold=report.jsd_threshold[:5])],
                        tmp_path / "report.json")

    def test_bytes_stable(self, tmp_path):
        reports = run_analysis(drifting_dataset(), alpha=0.05)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_report(reports, a)
        save_report(reports, b)
        assert a.read_bytes() == b.read_bytes()

    def test_schema_keys(self, tmp_path):
        reports = run_analysis(two_context_example(), alpha=0.05)
        path = tmp_path / "report.json"
        save_report(reports, path)
        entry = json.loads(path.read_text())[0]
        assert set(entry) == {"comparison_id", "contexts", "alpha_local",
                              "aggregate", "p_threshold", "llr_threshold",
                              "detected", "warnings", "circuits"}
        assert set(entry["aggregate"]) == {"llr", "k", "p", "n_sigma",
                                           "n_sigma_threshold", "triggered"}
        assert set(entry["circuits"][0]) == {"id", "llr", "p", "jsd",
                                             "jsd_threshold", "tvd", "sstvd",
                                             "sstvd_per_gate", "rejected",
                                             "small_sample"}

    def test_load_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ValueError, match="array"):
            load_report(bad)
        missing = tmp_path / "missing.json"
        missing.write_text('[{"comparison_id": "x"}]')
        with pytest.raises(ValueError, match="missing field"):
            load_report(missing)


# Floats the writers must spell exactly as json and format(.10g) do: both
# zeros, NaN, both infinities, subnormals, plus anything else.
SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 0.1, 1e16]
report_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
# The decision's inputs have a domain of their own: p-values in [0, 1], both
# zeros included, and a budget in (0, 1).
report_p = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1, 1.0]), st.floats(0.0, 1.0))
report_alpha = st.one_of(st.sampled_from([1e-300, 0.05, 0.5]),
                         st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
# Statistics: at most six rows of them sum to a finite number >= 0.
report_llr = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1, 1e16, 1e300]),
                       st.floats(0.0, 1e300))
# Ids with characters json or csv must escape or quote.
report_text = st.text(st.one_of(st.sampled_from('"\\,\n\r\t\x00\x1f\x7f é\u2028😀'),
                                st.characters(exclude_categories=("Cs",))),
                      max_size=6)


@st.composite
def comparison_reports(draw):
    n = draw(st.integers(1, 6))

    def floats(values=report_floats):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float)

    def flags():
        kind = draw(st.sampled_from(["none", "all", "mixed"]))
        if kind == "mixed":
            return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        return np.full(n, kind == "all")

    # The header follows from the rows' llr and dof, and the decision and
    # the rejected rows from the p-values and the budget, whose smallest
    # step-up threshold alpha_local / 2 / n must not underflow; a per-gate
    # SSTVD is drawn for any row, and shown only where the row has an SSTVD.
    # The rows' ids are distinct, the llr sum to a finite number >= 0, the
    # dof is a multiple of contexts - 1 (the aggregate's within the
    # chi-squared functions' range), and the contexts are distinct.
    contexts = tuple(draw(st.lists(report_text, min_size=2, max_size=3, unique=True)))
    return ComparisonReport.from_columns(
        comparison_id=draw(report_text),
        contexts=contexts,
        alpha_local=draw(report_alpha.filter(lambda alpha: alpha / 2 / n > 0.0)),
        dof=(len(contexts) - 1) * draw(st.integers(1, 10**5)),
        circuit_ids=tuple(draw(st.lists(report_text, min_size=n, max_size=n, unique=True))),
        llr=floats(report_llr), p_value=floats(report_p), jsd=floats(), jsd_threshold=floats(),
        small_sample=flags(), tvd=floats(), sstvd_per_gate=floats(),
        sstvd_per_gate_null=flags(), warnings=tuple(draw(st.lists(report_text, max_size=2))),
    )


def _signed_zero_report():
    """Columns holding both zeros: a memo keyed by value merges them.
    Every row is rejected, so the sstvd column holds them too."""
    n = 3
    zeros = np.array([0.0, -0.0, 0.0])
    flags = np.zeros(n, dtype=bool)
    return ComparisonReport.from_columns(
        comparison_id="z", contexts=("a", "b"), alpha_local=0.05, dof=1,
        circuit_ids=("x", "y", "z"),
        llr=zeros, p_value=zeros, jsd=-zeros, jsd_threshold=zeros,
        small_sample=flags, tvd=zeros,
        sstvd_per_gate=zeros, sstvd_per_gate_null=flags,
    )


def _report_with_rows(n):
    """A report of n rows with varied values, ids that need escaping and
    quoting among them, some null per-gate SSTVDs, and every third row
    rejected: its p is far below, and every other p far above, any
    step-up threshold at alpha_local 0.05."""
    values = np.arange(n) / 7.0
    flags = np.arange(n) % 3 == 0
    odd = np.arange(n) % 2 == 1
    return ComparisonReport.from_columns(
        comparison_id=f"rows_{n}", contexts=("a", "b"), alpha_local=0.05, dof=1,
        circuit_ids=tuple(f'c{i}' if i % 5 else f'c"{i},\u00e9' for i in range(n)),
        llr=values, p_value=np.where(flags, 1e-9, 0.5 + 0.5 / (1.0 + values)), jsd=values / 3,
        jsd_threshold=values % 1.0, small_sample=~flags, tvd=values / 11,
        sstvd_per_gate=-values, sstvd_per_gate_null=~flags | odd | (values > 9),
    )


# What a report file holds: at least one comparison, each with its own id.
report_lists = st.lists(comparison_reports(), min_size=1, max_size=3,
                        unique_by=lambda report: report.comparison_id)


class TestReportBytes:
    """The columnar writers against the per-row writers, byte for byte."""

    @settings(max_examples=80, deadline=None)
    @given(report_lists)
    @example([_signed_zero_report()])
    # Row counts on both sides of the writers' 512-text write batches.
    @example([_report_with_rows(511)])
    @example([_report_with_rows(512)])
    @example([_report_with_rows(513)])
    @example([_report_with_rows(1024)])
    @example([_report_with_rows(1025)])
    @example([_report_with_rows(513), _report_with_rows(1)])
    def test_save_report_matches_per_row_json(self, tmp_path_factory, reports):
        tmp = tmp_path_factory.mktemp("report")
        save_report(reports, tmp / "columnar.json")
        save_report_reference(reports, tmp / "rows.json")
        assert (tmp / "columnar.json").read_bytes() == (tmp / "rows.json").read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(comparison_reports())
    @example(_signed_zero_report())
    # Row counts on both sides of the writers' 512-text write batches.
    @example(_report_with_rows(511))
    @example(_report_with_rows(512))
    @example(_report_with_rows(513))
    @example(_report_with_rows(1024))
    @example(_report_with_rows(1025))
    def test_jsd_profile_matches_per_row_csv(self, tmp_path_factory, report):
        tmp = tmp_path_factory.mktemp("profile")
        rows = JsdProfile(report, [7] * len(report.rows), ["7"] * len(report.rows))
        write_jsd_profile_csv(rows, tmp / "columnar.csv")
        write_jsd_profile_csv_reference(rows, tmp / "rows.csv")
        assert (tmp / "columnar.csv").read_bytes() == (tmp / "rows.csv").read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(report_lists)
    def test_load_save_round_trip(self, tmp_path_factory, reports):
        tmp = tmp_path_factory.mktemp("round")
        save_report(reports, tmp / "a.json")
        loaded = load_report(tmp / "a.json")
        save_report(loaded, tmp / "b.json")
        assert (tmp / "a.json").read_bytes() == (tmp / "b.json").read_bytes()
        for old, new in zip(reports, loaded, strict=True):
            assert new.circuit_ids == old.circuit_ids
            assert new.tables.tolist() == list(range(len(old.rows)))
            for name in ("sstvd_null", "rejected", "small_sample"):
                assert np.array_equal(getattr(new, name), getattr(old, name))
            # A per-gate SSTVD is saved only where the SSTVD is.
            assert np.array_equal(new.sstvd_per_gate_null,
                                  old.sstvd_per_gate_null | old.sstvd_null)

    def test_drift_report_matches_per_row_json(self, tmp_path):
        reports = run_analysis(drifting_dataset(), alpha=0.05)
        save_report(reports, tmp_path / "columnar.json")
        save_report_reference(reports, tmp_path / "rows.json")
        assert (tmp_path / "columnar.json").read_bytes() == (tmp_path / "rows.json").read_bytes()
        assert load_report(tmp_path / "columnar.json") == reports


class TestPairwiseMatrices:
    def test_matrix_layout(self, tmp_path):
        dataset = drifting_dataset()
        reports = run_analysis(dataset, alpha=0.05)
        matrices = pairwise_matrices(reports, dataset.contexts)
        assert matrices.contexts == ("t1", "t2", "t3")
        by_id = {r.comparison_id: r for r in reports}
        assert matrices.n_sigma[0][2] == by_id["t1_vs_t3"].aggregate.n_sigma
        assert matrices.n_sigma[2][0] is None
        assert matrices.rejected_counts[2][0] == len(by_id["t1_vs_t3"].rejected_ids)
        assert matrices.rejected_counts[0][2] is None
        assert matrices.n_sigma[1][1] is None

    def test_missing_pair_is_an_error(self):
        dataset = drifting_dataset()
        reports = run_analysis(dataset, alpha=0.05)
        only_some = [r for r in reports if r.comparison_id != "t1_vs_t3"]
        with pytest.raises(ValueError, match="t1.*t3"):
            pairwise_matrices(only_some, dataset.contexts)

    @pytest.mark.parametrize("swapped", [False, True])
    def test_pair_compared_twice_is_an_error(self, swapped):
        # The matrix once showed whichever of the two the plan listed last.
        dataset = drifting_dataset(contexts=("t1", "t5"))
        comparisons = [Comparison("t1_vs_t5", ("t1", "t5"), 0.02),
                       Comparison("t5_vs_t1", ("t5", "t1"), 0.98)]
        if swapped:
            comparisons.reverse()
        reports = run_analysis(dataset, ComparisonPlan(tuple(comparisons)), alpha=0.05)
        first, second = (r.comparison_id for r in reports)
        first_contexts = reports[0].contexts
        message = (f"comparisons {first!r} and {second!r} both compare contexts "
                   f"{first_contexts[0]!r}, {first_contexts[1]!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pairwise_matrices(reports, dataset.contexts)

    def test_csv_shape(self, tmp_path):
        dataset = drifting_dataset()
        reports = run_analysis(dataset, alpha=0.05)
        path = tmp_path / "matrix.csv"
        write_pairwise_csv(pairwise_matrices(reports, dataset.contexts), path)
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["context", "t1", "t2", "t3"]
        assert len(rows) == 4
        assert rows[1][1] == ""  # diagonal
        assert float(rows[1][3]) == pytest.approx(
            {r.comparison_id: r for r in reports}["t1_vs_t3"].aggregate.n_sigma,
            rel=1e-9)
        # lower triangle holds integer rejection counts
        assert rows[3][1] == str(len(
            {r.comparison_id: r for r in reports}["t1_vs_t3"].rejected_ids))

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        # Labels that csv.writer quotes, doubles a quote in, or leaves alone.
        contexts = ("a,b", 'q"x', "", "line\nbreak", " sp")
        size = len(contexts)
        matrices = PairwiseMatrices(
            contexts=contexts,
            n_sigma=tuple(tuple(1.0 / 3 * (i - j) - 0.5 if j > i else None
                                for j in range(size)) for i in range(size)),
            rejected_counts=tuple(tuple(2 ** 70 * i + j if j < i else None
                                        for j in range(size)) for i in range(size)))
        write_pairwise_csv(matrices, tmp_path / "fast.csv")
        write_pairwise_csv_reference(matrices, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestJsdProfile:
    def test_profile_rows_and_csv(self, tmp_path):
        dataset = drifting_dataset()
        reports = {r.comparison_id: r for r in run_analysis(dataset, alpha=0.05)}
        report = reports["t1_vs_t3"]
        rows = jsd_profile(report, dataset)
        assert len(rows) == len(report.circuits)
        by_id = {line.circuit_id: line for line in report.circuits}
        for circuit_id, core, jsd, threshold in rows:
            assert dataset.circuit(circuit_id).core_length == core
            assert by_id[circuit_id].jsd == jsd
            assert by_id[circuit_id].jsd_threshold == threshold
        path = tmp_path / "profile.csv"
        write_jsd_profile_csv(rows, path)
        with path.open(newline="") as handle:
            parsed = list(csv.reader(handle))
        assert parsed[0] == ["circuit_id", "core_length", "jsd", "jsd_threshold"]
        assert len(parsed) == len(rows) + 1

    def test_profile_requires_core_lengths(self):
        dataset = two_context_example()
        assert dataset.core_lengths == (None,)
        report = run_analysis(dataset, alpha=0.05)[0]
        with pytest.raises(ValueError, match="circuit 'Gx' has no core_length"):
            jsd_profile(report, dataset)

    def test_profile_names_a_report_id_the_dataset_lacks(self):
        dataset = drifting_dataset()
        report = run_analysis(dataset, alpha=0.05)[0]
        others = dataclasses.replace(dataset, circuit_ids=tuple(
            "other" if cid == report.circuit_ids[2] else cid for cid in dataset.circuit_ids))
        message = f"circuit {report.circuit_ids[2]!r} has no core_length; profile needs one"
        # The report's store keeps the core lengths it read from the first
        # dataset; the second is read afresh.
        assert len(jsd_profile(report, dataset)) == len(report.rows)
        with pytest.raises(ValueError, match=re.escape(message)):
            jsd_profile(report, others)

    def test_profile_rows_are_plain_values(self):
        dataset = drifting_dataset()
        report = run_analysis(dataset, alpha=0.05)[0]
        rows = jsd_profile(report, dataset)
        # A row is read from the profile's columns as plain Python values.
        line = report.circuits[1]
        core = dataset.circuit(line.circuit_id).core_length
        assert rows[1] == (line.circuit_id, core, line.jsd, line.jsd_threshold)
        assert type(rows[1][1]) is int and type(rows[1][2]) is float
        assert rows[:2] == (rows[0], rows[1]) and rows[:] == tuple(rows)
