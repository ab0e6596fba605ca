"""Command-line interface: outputs, formats, and the exit-code contract."""

import copy
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from contextdep.chi2 import chi2_isf, chi2_sf
from contextdep.cli import main
from contextdep.counts import load_dataset
from contextdep.datasets import data_path
from contextdep.pipeline import jsd_profile, load_report, run_analysis, save_report
from contextdep.qsim import MAX_SHOTS

from _references import report_derived_values, write_jsd_profile_csv_reference


DRIFT_DESIGN = str(data_path("design_drift.json"))
NEIGHBOR_DESIGN = str(data_path("design_neighbor.json"))
DRIFT_ERROR = str(data_path("error_model_drift.json"))
TWO_CONTEXT = str(data_path("dataset_two_context.json"))
NEIGHBOR_DATA = str(data_path("dataset_neighbor.json"))


class TestGenCircuits:
    def test_lgst_prints_count(self, tmp_path, capsys):
        out = tmp_path / "circuits.json"
        code = main(["gen-circuits", "--design", NEIGHBOR_DESIGN,
                     "--mode", "lgst", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "40"
        assert len(json.loads(out.read_text())) == 40

    def test_lsgst_prints_count(self, tmp_path, capsys):
        out = tmp_path / "circuits.json"
        code = main(["gen-circuits", "--design", DRIFT_DESIGN,
                     "--mode", "lsgst", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1405"

    def test_missing_design_file(self, tmp_path, capsys):
        code = main(["gen-circuits", "--design", str(tmp_path / "nope.json"),
                     "--mode", "lgst", "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [
        {"gates": 5},
        {"gates": [["Gx"]]},
        {"prep_fiducials": 3},
        {"germs": [[1]]},
        {"germs": ["Gx"], "max_germ_power": "4"},
        # A power of two past MAX_GERM_POWER once went on to build the circuits.
        {"germs": ["Gx"], "max_germ_power": 2**40},
    ])
    def test_malformed_design_is_one_line_error(self, tmp_path, capsys, fields):
        design = {"gates": ["Gx"], "prep_fiducials": ["{}"], "meas_fiducials": ["{}"]}
        path = tmp_path / "design.json"
        path.write_text(json.dumps({**design, **fields}))
        code = main(["gen-circuits", "--design", str(path), "--mode", "lsgst",
                     "--out", str(tmp_path / "c.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "c.json").exists()

    def test_bad_mode_is_usage_error(self, tmp_path, capsys):
        code = main(["gen-circuits", "--design", DRIFT_DESIGN,
                     "--mode", "xyz", "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_writes_dataset_silently(self, tmp_path, capsys):
        out = tmp_path / "data.json"
        code = main(["simulate", "--design", NEIGHBOR_DESIGN,
                     "--error-model", DRIFT_ERROR,
                     "--shots", "32", "--seed", "7", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        dataset = load_dataset(out)
        assert dataset.contexts == ("t1", "t2", "t3", "t4", "t5")
        assert (dataset.counts.sum(axis=2) == 32).all() and dataset.present.all()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["simulate", "--design", NEIGHBOR_DESIGN,
                         "--error-model", DRIFT_ERROR,
                         "--shots", "16", "--seed", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_shots(self, tmp_path, capsys):
        code = main(["simulate", "--design", NEIGHBOR_DESIGN,
                     "--error-model", DRIFT_ERROR,
                     "--shots", "0", "--seed", "1",
                     "--out", str(tmp_path / "d.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_shots_past_int64_are_one_line_error(self, tmp_path, capsys):
        # 2**63 once exited 2 with a numeric failure.  A draw's cost grows
        # as sqrt(shots), so the config caps them: one past the cap is
        # refused too, before any cell is drawn.
        for shots in (MAX_SHOTS + 1, 2**63):
            code = main(["simulate", "--design", NEIGHBOR_DESIGN,
                         "--error-model", DRIFT_ERROR,
                         "--shots", str(shots), "--seed", "1",
                         "--out", str(tmp_path / "d.json")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert f"shots_per_context must be in [1, {MAX_SHOTS}], got {shots}" in err
            assert not (tmp_path / "d.json").exists()

    @pytest.mark.parametrize("fields", [
        {"t1": ["Gx"]},
        {"t1": 3},
        {"static_epsilon": [1]},
        # Strings and booleans are not angles, nor are integers past float range.
        {"t1": {"Gx": "0.001"}},
        {"t1": {"Gx": True}},
        {"static_epsilon": "0.5"},
        {"t1": {"Gx": 10**400}},
        {"static_epsilon": -10**400},
    ])
    def test_malformed_error_model_is_one_line_error(self, tmp_path, capsys, fields):
        model = tmp_path / "error.json"
        model.write_text(json.dumps({"t1": {"Gx": 0.0}, "t2": {"Gx": 0.01}, **fields}))
        code = main(["simulate", "--design", NEIGHBOR_DESIGN, "--error-model", str(model),
                     "--shots", "4", "--seed", "0", "--out", str(tmp_path / "d.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ") and err.count("\n") == 1
        assert not (tmp_path / "d.json").exists()


@pytest.fixture(scope="module")
def drift_seed_0(tmp_path_factory):
    """The bundled drift experiment as simulated with seed 0 and 100 shots."""
    path = tmp_path_factory.mktemp("drift") / "dataset.json"
    assert main(["simulate", "--design", DRIFT_DESIGN, "--error-model", DRIFT_ERROR,
                 "--shots", "100", "--seed", "0", "--out", str(path)]) == 0
    return path


class TestAnalyze:
    def test_two_context_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["analyze", "--data", TWO_CONTEXT, "--out", str(out)])
        assert code == 0
        reports = load_report(out)
        assert len(reports) == 1
        assert reports[0].detected

    def test_plan_variants(self, tmp_path):
        sim = tmp_path / "data.json"
        main(["simulate", "--design", NEIGHBOR_DESIGN, "--error-model",
              DRIFT_ERROR, "--shots", "16", "--seed", "2", "--out", str(sim)])
        auto = tmp_path / "auto.json"
        assert main(["analyze", "--data", str(sim), "--out", str(auto)]) == 0
        assert len(load_report(auto)) == 11
        pairs = tmp_path / "pairs.json"
        assert main(["analyze", "--data", str(sim), "--plan", "pairs",
                     "--out", str(pairs)]) == 0
        assert len(load_report(pairs)) == 10
        joint = tmp_path / "joint.json"
        assert main(["analyze", "--data", str(sim), "--plan", "joint",
                     "--out", str(joint)]) == 0
        assert len(load_report(joint)) == 1

    @pytest.mark.parametrize("weight", ["NaN", "Infinity", "-0.5", "1e400", "0", "-0.0"])
    def test_plan_weight_must_be_finite_share(self, tmp_path, capsys, weight):
        # A NaN or zero weight once passed the plan checks and failed later as alpha.
        plan = tmp_path / "plan.json"
        plan.write_text('{"comparisons": [{"id": "x", "contexts": ["c1", "c2"], '
                        f'"weight": {weight}}}]}}')
        code = main(["analyze", "--data", TWO_CONTEXT, "--plan", str(plan),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {plan}: comparison 'x': weight must be a number in (0, 1]")
        assert err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("plan", ["auto", "pairs"])
    def test_colliding_pair_ids_are_one_line_error(self, tmp_path, capsys, plan):
        contexts = ["a", "vs_b", "a_vs", "b"]
        data = tmp_path / "data.json"
        data.write_text(json.dumps({
            "format_version": "1.0", "outcomes": ["0", "1"], "contexts": contexts,
            "circuits": [{"id": "q", "counts": {c: [3, 4] for c in contexts}}]}))
        code = main(["analyze", "--data", str(data), "--plan", plan,
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: context pairs ('a', 'vs_b') and ('a_vs', 'b') both make the comparison "
            "id 'a_vs_vs_b'; name the comparisons in a --plan file\n")
        assert main(["analyze", "--data", str(data), "--plan", "joint",
                     "--out", str(tmp_path / "r.json")]) == 0

    def test_plan_file(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({ "comparisons": [
            {"id": "only", "contexts": ["c1", "c2"]},
        ]}))
        out = tmp_path / "report.json"
        code = main(["analyze", "--data", TWO_CONTEXT, "--plan", str(plan),
                     "--out", str(out)])
        assert code == 0
        assert load_report(out)[0].comparison_id == "only"

    def test_tables_written(self, tmp_path):
        out = tmp_path / "report.json"
        tables = tmp_path / "tables"
        code = main(["analyze", "--data", NEIGHBOR_DATA, "--out", str(out),
                     "--tables", str(tables)])
        assert code == 0
        assert (tables / "pairwise_matrix.csv").exists()
        assert (tables / "jsd_profile_idle_vs_driven.csv").exists()

    def test_tables_skip_note_without_pairs(self, tmp_path, capsys):
        sim = tmp_path / "data.json"
        main(["simulate", "--design", NEIGHBOR_DESIGN, "--error-model",
              DRIFT_ERROR, "--shots", "16", "--seed", "2", "--out", str(sim)])
        out = tmp_path / "report.json"
        tables = tmp_path / "tables"
        code = main(["analyze", "--data", str(sim), "--plan", "joint",
                     "--out", str(out), "--tables", str(tables)])
        assert code == 0
        assert "pairwise matrix skipped" in capsys.readouterr().err
        assert not (tables / "pairwise_matrix.csv").exists()
        assert (tables / "jsd_profile_joint.csv").exists()

    @pytest.mark.parametrize("order", [("t1", "t5"), ("t5", "t1")])
    def test_pair_compared_twice_skips_the_matrix(self, tmp_path, capsys, order):
        # Either plan order once gave a matrix, from the pair listed last.
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"t1": {"Gx": 0.0, "Gy": 0.0},
                                     "t5": {"Gx": 0.004, "Gy": 0.004},
                                     "static_epsilon": 0.001}))
        sim = tmp_path / "data.json"
        assert main(["simulate", "--design", DRIFT_DESIGN, "--error-model", str(model),
                     "--shots", "100", "--seed", "0", "--out", str(sim)]) == 0
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"comparisons": [
            {"contexts": list(order), "weight": 0.02},
            {"contexts": list(reversed(order)), "weight": 0.98}]}))
        tables = tmp_path / "tables"
        code = main(["analyze", "--data", str(sim), "--plan", str(plan),
                     "--out", str(tmp_path / "report.json"), "--tables", str(tables)])
        assert code == 0
        first, second = "_vs_".join(order), "_vs_".join(reversed(order))
        assert capsys.readouterr().err == (
            f"note: pairwise matrix skipped (comparisons {first!r} and {second!r} "
            f"both compare contexts {order[0]!r}, {order[1]!r})\n")
        assert sorted(p.name for p in tables.iterdir()) == [
            "jsd_profile_t1_vs_t5.csv", "jsd_profile_t5_vs_t1.csv"]

    def test_tables_without_core_lengths_skip_the_profile(self, tmp_path, capsys):
        data, out, tables = tmp_path / "data.json", tmp_path / "report.json", tmp_path / "tb"
        dataset = _small_dataset(["Gx", "Gy"])
        for entry in dataset["circuits"]:
            del entry["core_length"]
        data.write_text(json.dumps(dataset))
        assert main(["analyze", "--data", str(data), "--out", str(out),
                     "--tables", str(tables)]) == 0
        assert capsys.readouterr().err == (
            "note: JSD profile for 'a_vs_b' skipped (circuit 'Gx' has no core_length; "
            "profile needs one)\n")
        assert len(load_report(out)) == 1
        assert sorted(p.name for p in tables.iterdir()) == ["pairwise_matrix.csv"]

    @staticmethod
    def _check_jsd_profiles(tmp_path, ids, lacks_c=None):
        """analyze --tables on five circuits over contexts a, b, c, the circuit
        ``lacks_c`` without c; each profile must hold csv.writer's bytes."""
        data = tmp_path / "data.json"
        data.write_text(json.dumps({
            "format_version": "1.0", "outcomes": ["0", "1"], "contexts": ["a", "b", "c"],
            "circuits": [{"id": cid, "core_length": i, "counts": {
                "a": [10 + i, 20 - i], "b": [15, 15 + 3 * i],
                **({} if cid == lacks_c else {"c": [5 + 2 * i, 25]})}}
                for i, cid in enumerate(ids)]}))
        out, tables = tmp_path / "report.json", tmp_path / "tables"
        code = main(["analyze", "--data", str(data), "--plan", "auto", "--out", str(out),
                     "--tables", str(tables)])
        assert code == 0
        dataset, reports = load_dataset(data), load_report(out)
        assert len(reports) == 4
        for report in reports:
            reference = tmp_path / f"{report.comparison_id}.csv"
            write_jsd_profile_csv_reference(jsd_profile(report, dataset), reference)
            written = (tables / f"jsd_profile_{report.comparison_id}.csv").read_bytes()
            assert written == reference.read_bytes()
        return reports

    @pytest.mark.parametrize("ids", [
        ["a,b", 'say "hi"', "line\nbreak", "cr\rhere", "plain"],
        ["Gx", "GxGy", "GyGyGy", "q4", "q5"],  # no id needs quoting
    ])
    def test_jsd_profiles_quote_ids_as_csv_writer_does(self, tmp_path, ids):
        # Every table of the plan is scanned for ids to quote in one pass.
        self._check_jsd_profiles(tmp_path, ids)

    def test_jsd_profiles_of_comparisons_over_different_circuits(self, tmp_path):
        # One circuit lacks c: the comparisons with c cover four circuits,
        # a_vs_b all five, and the ids that need quoting differ.
        reports = self._check_jsd_profiles(
            tmp_path, ["a,b", 'say "hi"', "line\nbreak", "cr\rhere", "plain"], 'say "hi"')
        assert sorted(len(report.circuit_ids) for report in reports) == [4, 4, 4, 5]

    @pytest.mark.parametrize("alpha", ["1e-12", "1e-17", "1e-300"])
    def test_tiny_alpha_analyzes(self, tmp_path, drift_seed_0, alpha):
        # Local budgets below 1.1e-16, where 1 - p rounds to 1, once ended
        # the run with "probability must lie in [0, 1), got 1.0".
        out = tmp_path / "report.json"
        assert main(["analyze", "--data", str(drift_seed_0), "--alpha", alpha,
                     "--out", str(out)]) == 0
        for report in load_report(out):
            assert ((report.llr > report.llr_threshold) == report.rejected).all()

    def test_subnormal_alpha_names_the_budget(self, tmp_path, capsys, drift_seed_0):
        # alpha / 2 / Q once underflowed to 0 unchecked and ended the run
        # with "probability must lie in (0, 1], got 0.0".
        out = tmp_path / "report.json"
        code = main(["analyze", "--data", str(drift_seed_0), "--alpha", "1e-320",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert re.fullmatch(r"error: comparison '\w+': alpha \S+ is too small to split "
                            r"over 1405 tests: alpha / 2 / 1405 underflows to 0\n", err), err
        assert not out.exists()

    def test_p_value_below_every_double_detected(self, tmp_path, capsys):
        # Each p-value underflows to 0.0; a floor of 1e-300 once lay above
        # every threshold at this budget, so nothing was detected.
        data = tmp_path / "data.json"
        data.write_text(json.dumps({
            "format_version": "1.0", "outcomes": ["0", "1"], "contexts": ["a", "b"],
            "circuits": [{"id": f"q{i}", "counts": {"a": [10000, 0], "b": [0, 10000]}}
                         for i in range(3)]}))
        report = tmp_path / "report.json"
        assert main(["analyze", "--data", str(data), "--alpha", "1e-300",
                     "--out", str(report)]) == 0
        capsys.readouterr()
        assert main(["summarize", "--report", str(report)]) == 0
        text = capsys.readouterr().out
        assert "comparison a_vs_b (a, b): context dependence detected" in text
        assert "rejected circuits: 3 of 3" in text

    def test_invalid_alpha(self, tmp_path, capsys):
        code = main(["analyze", "--data", TWO_CONTEXT, "--alpha", "0",
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        5,
        {"id": "q0", "counts": {"c1": [True, False], "c2": [1, 1]}},
    ])
    def test_malformed_dataset_is_one_line_error(self, tmp_path, capsys, entry):
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"format_version": "1.0", "outcomes": ["0", "1"],
                                    "contexts": ["c1", "c2"], "circuits": [entry]}))
        code = main(["analyze", "--data", str(data), "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("fields, entry_fields, message", [
        ({"outcomes": "01"}, {}, "'outcomes' must be an array of strings"),
        ({"outcomes": ["0", 1]}, {}, "'outcomes' must be an array of strings"),
        ({"contexts": "ab"}, {}, "'contexts' must be an array of strings"),
        ({"contexts": {"c1": 1, "c2": 2}}, {}, "'contexts' must be an array of strings"),
        ({}, {"spec": 5}, "circuit 'q0': spec must be a string, got 5"),
        ({}, {"core_length": True}, "core_length must be a non-negative integer, got True"),
        ({}, {"core_length": "3"}, "core_length must be a non-negative integer, got '3'"),
        ({}, {"core_length": 2.5}, "core_length must be a non-negative integer, got 2.5"),
        ({}, {"core_length": -1}, "core_length must be a non-negative integer, got -1"),
        # JSON floats are not counts, even integral ones.
        ({}, {"counts": {"c1": [2.0, 3], "c2": [4, 1e2]}},
         "circuit 'q0', context 'c1': counts must be non-negative integers, got 2.0"),
        ({}, {"counts": {"c1": [2, 3], "c2": [4, 1e2]}},
         "circuit 'q0', context 'c2': counts must be non-negative integers, got 100.0"),
        ({}, {"counts": {"c1": [3, False], "c2": [5, 6]}},
         "circuit 'q0', context 'c1': counts must be non-negative integers, got False"),
        ({"description": 5}, {}, "description must be a string, got 5"),
    ])
    def test_mistyped_dataset_field_is_one_line_error(self, tmp_path, capsys, fields,
                                                      entry_fields, message):
        entry = {"id": "q0", "counts": {"c1": [3, 4], "c2": [5, 6]}, **entry_fields}
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"format_version": "1.0", "outcomes": ["0", "1"],
                                    "contexts": ["c1", "c2"], "circuits": [entry], **fields}))
        code = main(["analyze", "--data", str(data), "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("bad_id", ["x/../../escape", "../escape", "a\\b",
                                        "a\x00b", ".", ".."])
    def test_table_ids_that_are_paths_rejected(self, tmp_path, capsys, bad_id):
        tables = tmp_path / "T" / "sub"
        (tables / "jsd_profile_x").mkdir(parents=True)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"comparisons": [
            {"id": bad_id, "contexts": ["c1", "c2"]},
        ]}))
        before = sorted(tmp_path.rglob("*"))
        code = main(["analyze", "--data", TWO_CONTEXT, "--plan", str(plan),
                     "--out", str(tmp_path / "report.json"), "--tables", str(tables)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    def test_tables_path_that_is_a_file_fails_before_the_analysis(self, tmp_path, capsys,
                                                                  drift_seed_0):
        # The directory was once made after the analysis, which had already
        # written its report.
        tables = tmp_path / "tables"
        tables.write_text("")
        out = tmp_path / "report.json"
        code = main(["analyze", "--data", str(drift_seed_0), "--out", str(out),
                     "--tables", str(tables)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_corrupt_dataset(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        code = main(["analyze", "--data", str(bad),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err


    def test_count_far_below_its_share_analyzes(self, tmp_path, capsys):
        # For the 7 in context a, x N / (N_c x_m) < 2**-53: the rounded
        # log1p argument is -1.0, which once ended in "math domain error".
        data = tmp_path / "data.json"
        data.write_text(json.dumps({
            "format_version": "1.0", "outcomes": ["0", "1"], "contexts": ["a", "b", "c"],
            "circuits": [{"id": "Gx", "counts": {
                "a": [2**70, 7], "b": [5, 9], "c": [2**70 // 3, 2**70]}}]}))
        out = tmp_path / "report.json"
        code = main(["analyze", "--data", str(data), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert load_report(out)[0].circuits[0].llr > 1e21


# One file per JSON loader the command reads, each with a repeated key.
DUPLICATE_KEY_FILES = {
    "dataset": ('{"format_version": "1.0", "outcomes": ["0", "1"], "contexts": ["a", "b"], '
                '"circuits": [{"id": "Gx", "counts": '
                '{"a": [90, 10], "a": [10, 90], "b": [50, 50]}}]}'),
    "design": ('{"gates": ["Gx"], "prep_fiducials": ["{}"], "meas_fiducials": ["{}"], '
               '"gates": ["Gy"]}'),
    "error_model": '{"a": {"Gx": 0.0}, "b": {"Gx": 0.1}, "a": {"Gx": 0.2}}',
    "plan": '{"comparisons": [{"id": "x", "contexts": ["c1", "c2"], "id": "y"}]}',
    "report": '[{"comparison_id": "a", "comparison_id": "b"}]',
}


# Each command that reads a kind of file, "{file}" naming that file and
# "{tmp}" a directory for the outputs.  No command reads circuit lists.
FILE_COMMANDS = [
    ("dataset", ["analyze", "--data", "{file}", "--out", "{tmp}/r.json"]),
    ("design", ["gen-circuits", "--design", "{file}", "--mode", "lgst",
                "--out", "{tmp}/c.json"]),
    ("design", ["simulate", "--design", "{file}", "--error-model", DRIFT_ERROR,
                "--shots", "4", "--seed", "0", "--out", "{tmp}/d.json"]),
    ("error_model", ["simulate", "--design", NEIGHBOR_DESIGN, "--error-model", "{file}",
                     "--shots", "4", "--seed", "0", "--out", "{tmp}/d.json"]),
    ("plan", ["analyze", "--data", TWO_CONTEXT, "--plan", "{file}",
              "--out", "{tmp}/r.json"]),
    ("report", ["summarize", "--report", "{file}"]),
]


@pytest.mark.parametrize("kind, command", FILE_COMMANDS)
def test_duplicate_json_key_is_one_line_error(tmp_path, capsys, kind, command):
    bad = tmp_path / f"{kind}.json"
    bad.write_text(DUPLICATE_KEY_FILES[kind])
    argv = [arg.format(file=bad, tmp=tmp_path) for arg in command]
    code = main(argv)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "duplicate key" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == [bad.name]


# A file json cannot parse however deep the stack, and one in Latin-1.
UNREADABLE_FILES = {
    "nested": (b"[" * 100_000 + b"]" * 100_000, "not valid JSON (maximum recursion depth"),
    "latin-1": ('{"description": "\u00e9t\u00e9"}'.encode("latin-1"), "not UTF-8 text ("),
}


@pytest.mark.parametrize("unreadable", UNREADABLE_FILES)
@pytest.mark.parametrize("kind, command", FILE_COMMANDS)
def test_unreadable_file_is_one_line_error_naming_it(tmp_path, capsys, kind, command,
                                                     unreadable):
    # The nested file once exited 2, as a numeric failure.
    content, fault = UNREADABLE_FILES[unreadable]
    bad = tmp_path / f"{kind}.json"
    bad.write_bytes(content)
    code = main([arg.format(file=bad, tmp=tmp_path) for arg in command])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(f"error: {bad}: {fault}") and captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [bad.name]


# Each command with each input that --out must not name: (argv with
# "{file}" for that input and "{tmp}" for a scratch directory, the input's
# flag, the bundled file it starts as a copy of).
OWN_INPUTS = [
    (["gen-circuits", "--design", "{file}", "--mode", "lgst", "--out", "{file}"],
     "--design", DRIFT_DESIGN),
    (["simulate", "--design", "{file}", "--error-model", DRIFT_ERROR, "--shots", "4",
      "--seed", "0", "--out", "{file}"], "--design", NEIGHBOR_DESIGN),
    (["simulate", "--design", NEIGHBOR_DESIGN, "--error-model", "{file}", "--shots", "4",
      "--seed", "0", "--out", "{file}"], "--error-model", DRIFT_ERROR),
    (["analyze", "--data", "{file}", "--out", "{file}"], "--data", TWO_CONTEXT),
    (["analyze", "--data", TWO_CONTEXT, "--plan", "{file}", "--out", "{file}",
      "--tables", "{tmp}/tables"], "--plan", None),
]
PLAN = json.dumps({"comparisons": [{"id": "only", "contexts": ["c1", "c2"]}]})


def _own_input(tmp_path, source):
    own = tmp_path / "input.json"
    if source is None:
        own.write_text(PLAN)
    else:
        shutil.copyfile(source, own)
    return own


@pytest.mark.parametrize("command, flag, source", OWN_INPUTS,
                         ids=[f"{c[0]}{f}" for c, f, _ in OWN_INPUTS])
def test_out_naming_an_input_is_refused(tmp_path, capsys, command, flag, source):
    own = _own_input(tmp_path, source)
    before = own.read_bytes()
    assert main([arg.format(file=own, tmp=tmp_path) for arg in command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: --out and ")
    assert f"--out and {flag} name the same file" in captured.err
    assert own.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [own.name]


@pytest.mark.parametrize("spelling", ["link", "dotted"])
def test_out_naming_an_input_another_way_is_refused(tmp_path, capsys, spelling):
    data = _own_input(tmp_path, TWO_CONTEXT)
    before = data.read_bytes()
    if spelling == "link":
        out = tmp_path / "link.json"
        out.symlink_to(data)
    else:
        out = tmp_path / "." / ".." / tmp_path.name / data.name
    assert main(["analyze", "--data", str(data), "--out", str(out)]) == 1
    assert "--out and --data name the same file" in capsys.readouterr().err
    assert data.read_bytes() == before


@pytest.mark.parametrize("data_name, out_name, flags", [
    ("tb/pairwise_matrix.csv", "r.json", "--tables and --data"),
    ("tb/jsd_profile_c1_vs_c2.csv", "r.json", "--tables and --data"),
    ("d.json", "tb/pairwise_matrix.csv", "--tables and --out"),
])
def test_tables_naming_an_input_or_the_report_are_refused(tmp_path, capsys, data_name,
                                                          out_name, flags):
    # Each once exited 0, the table written over the dataset or the report.
    data = tmp_path / data_name
    data.parent.mkdir(exist_ok=True)
    shutil.copyfile(TWO_CONTEXT, data)
    before, contents = sorted(tmp_path.rglob("*")), data.read_bytes()
    assert main(["analyze", "--data", str(data), "--out", str(tmp_path / out_name),
                 "--tables", str(tmp_path / "tb")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {flags} name the same file")
    assert data.read_bytes() == contents
    assert sorted(tmp_path.rglob("*")) == before


# An ASCII locale with Python's UTF-8 mode off, where open() without an
# encoding reads and writes ASCII.
ASCII_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}


def _run_cli(args, stdout=subprocess.PIPE, **env):
    # The child imports contextdep from where this process did.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env}
    return subprocess.run([sys.executable, "-m", "contextdep.cli", *map(str, args)],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)


def _small_dataset(ids, **extra):
    return {"format_version": "1.0", **extra, "outcomes": ["0", "1"], "contexts": ["a", "b"],
            "circuits": [{"id": cid, "core_length": 1,
                          "counts": {"a": [60, 40], "b": [30 + n, 70 - n]}}
                         for n, cid in enumerate(ids)]}


def test_raw_utf8_dataset_analyzes_in_an_ascii_locale(tmp_path):
    data = tmp_path / "data.json"
    data.write_bytes(json.dumps(_small_dataset(["Gx", "Gy"], description="Zürich run"),
                                ensure_ascii=False).encode("utf-8"))
    assert "Zürich".encode("utf-8") in data.read_bytes()
    proc = _run_cli(["analyze", "--data", data, "--out", tmp_path / "r.json"], **ASCII_LOCALE)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_tables_of_non_ascii_ids_are_utf8_in_an_ascii_locale(tmp_path):
    data = tmp_path / "data.json"
    data.write_text(json.dumps(_small_dataset(["Gx\u00e9", "Gy"])))
    tables = {}
    for mode, env in (("ascii", ASCII_LOCALE), ("utf8", {"PYTHONUTF8": "1"})):
        proc = _run_cli(["analyze", "--data", data, "--out", tmp_path / f"{mode}.json",
                         "--tables", tmp_path / mode], **env)
        assert (proc.returncode, proc.stderr) == (0, "")
        tables[mode] = {path.name: path.read_bytes() for path in (tmp_path / mode).iterdir()}
        assert (tmp_path / f"{mode}.json").read_bytes().isascii()
    assert tables["ascii"] == tables["utf8"]
    assert "Gx\u00e9".encode("utf-8") in tables["ascii"]["jsd_profile_a_vs_b.csv"]


def test_summary_of_non_ascii_ids_is_whole_in_an_ascii_locale(tmp_path):
    # Once cut off after three lines by an 'ascii' codec error, exit 1.
    data, report = tmp_path / "data.json", tmp_path / "r.json"
    data.write_text(json.dumps(_small_dataset(["Gx\u00e9", "Gy"])))
    assert _run_cli(["analyze", "--data", data, "--out", report]).returncode == 0
    shown = {}
    for mode, env in (("ascii", ASCII_LOCALE), ("utf8", {"PYTHONUTF8": "1"})):
        proc = _run_cli(["summarize", "--report", report], **env)
        assert (proc.returncode, proc.stderr) == (0, "")
        shown[mode] = proc.stdout
    assert "    Gx\u00e9\n" in shown["utf8"]
    assert shown["ascii"] == shown["utf8"].replace("\u00e9", "\\xe9")


def test_non_utf8_file_is_one_line_error_naming_it(tmp_path):
    data = tmp_path / "latin1.json"
    text = json.dumps(_small_dataset(["Gx", "Gy"], description="Zurich \u00e9t\u00e9"),
                      ensure_ascii=False)
    data.write_bytes(text.encode("latin-1"))
    proc = _run_cli(["analyze", "--data", data, "--out", tmp_path / "r.json"], **ASCII_LOCALE)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"error: {data}: not UTF-8 text")
    assert not (tmp_path / "r.json").exists()


# sha256 of every file of the bundled drift session, and of its summary.
DRIFT_SESSION_DIGESTS = {
    "dataset.json": "e66821501c53b4b205e47313b3f0edd77b4a51684689f49653713e514f6e71aa",
    "report.json": "5a81416142fa2215a1ba979e882aba77cba82375c1443eec477e97ee0ba538bd",
    "jsd_profile_joint.csv": "c0149626e5c00029b64617b0f917371d4d2f7f201365f11ebeabd64fb4772e53",
    "jsd_profile_t1_vs_t2.csv": "08e8b570aa60a931efe6877be512e90063c317e6a1f13652887e368e9d8a2747",
    "jsd_profile_t1_vs_t3.csv": "973acf6abf8acf4265b69a64a86f1172763f52ee3675175b2a3d4cc0ea3e6fa5",
    "jsd_profile_t1_vs_t4.csv": "e8f38c47568849a473a53dfe03b12b4be77a6cd2a9e09b5248f89e92fcfddaef",
    "jsd_profile_t1_vs_t5.csv": "f50d0d4c9efaf39da59c4d4c3894788cb1bbf25463e39aa68d3e5342fa9bb74a",
    "jsd_profile_t2_vs_t3.csv": "3e2e61f2a3d027b4684b7d09917f3478eee4b43321f114917e8cbe76817af4a6",
    "jsd_profile_t2_vs_t4.csv": "5b2523d00f87152dc1db9fff406e0c6866d71188da643bc8548fdd2137f69b64",
    "jsd_profile_t2_vs_t5.csv": "9256b1f747ae8748a99d60cb17d84eda7db68ccdb7faaab570ad2ec3eeac5684",
    "jsd_profile_t3_vs_t4.csv": "0b2a28d4c1f10998f51f250cf5855ceae6323253fcc368d6e0eb539c48d961e5",
    "jsd_profile_t3_vs_t5.csv": "2f513c884f4cfb2064053a4e9446f298e391630dab944e1b406ea760cc21a4b6",
    "jsd_profile_t4_vs_t5.csv": "9105f457d97a9a1515dce14b38282103683730c8aeef83c032db2d7dccd5298f",
    "pairwise_matrix.csv": "e37b5783ebf0af66da7fa935ab6f0603e4acc1152465fdd2fb98808858b0cfd3",
    "summarize": "b4f4d594c28f2d094503157c567b0c6641d6eb11c1acd046e34f684eb2e1fbf6",
}


def test_drift_session_bytes_are_unchanged(tmp_path, capsys, drift_seed_0):
    """simulate (seed 0, 100 shots), analyze --plan auto --tables, summarize:
    every output's bytes, pinned since the sampler became the package's
    own inverse-CDF draw; any change to a writer or a draw shows here."""
    out, tables = tmp_path / "report.json", tmp_path / "tables"
    assert main(["analyze", "--data", str(drift_seed_0), "--plan", "auto",
                 "--out", str(out), "--tables", str(tables)]) == 0
    capsys.readouterr()
    assert main(["summarize", "--report", str(out)]) == 0
    texts = {"dataset.json": drift_seed_0.read_bytes(), "report.json": out.read_bytes(),
             "summarize": capsys.readouterr().out.encode()}
    texts.update((path.name, path.read_bytes()) for path in tables.iterdir())
    assert {name: hashlib.sha256(text).hexdigest()
            for name, text in texts.items()} == DRIFT_SESSION_DIGESTS


def test_drift_reports_index_one_store_of_distinct_tables(tmp_path, drift_seed_0):
    """The auto plan's 11 comparisons hold 15,455 rows and index one store:
    1,405 ids, 1,073 five-context tables and 1,475 pair tables.  Its saved
    and loaded analysis equals it, each loaded row its own table."""
    reports = run_analysis(load_dataset(drift_seed_0))
    store = reports[0].store
    assert all(report.store is store for report in reports)
    assert sum(len(report.rows) for report in reports) == 15455
    assert len(store.circuit_ids) == 1405
    assert {width: {name: len(values) for name, values in columns.items()}
            for width, columns in store.columns.items()} == {
        width: dict.fromkeys(("llr", "p_value", "jsd", "small_sample", "tvd"), n)
        for width, n in ((5, 1073), (2, 1475))}
    save_report(reports, tmp_path / "report.json")
    loaded = load_report(tmp_path / "report.json")
    assert loaded == reports
    for report in loaded:
        rows = list(range(len(report.rows)))
        assert report.rows.tolist() == report.tables.tolist() == rows
        assert report.store.circuit_ids.tolist() == list(report.circuit_ids)
        assert {len(values) for values in report.store.columns[len(report.contexts)].values()} \
            == {len(rows)}


def _periods(n, top):
    """n contexts t1..tn whose Gx/Gy over-rotation rises linearly from 0 to top."""
    return {f"t{i + 1}": {"Gx": top * i / (n - 1), "Gy": top * i / (n - 1)} for i in range(n)}


# The benchmark's scaled sessions: the drift design with germ powers to
# max_germ_power, under an error model written out here.  "tables" is the
# sha256 of the lines "<name> <sha256>\n" of every --tables file, by name.
SCALED_SESSIONS = {
    "deep_germs": (2048, {"c1": {"Gx": 0.0, "Gy": 0.0}, "c2": {"Gx": 1e-4, "Gy": 1e-4},
                          "static_epsilon": 1e-3}, {
        "dataset.json": "e36a7004776ef613e0e0f85f3340130c73d117d5a31729c68dcaf99dcb54294c",
        "report.json": "bc174c7c9019693e39a7a629ea188632b9a99b74f04de44fff27c3783f703186",
        "summarize": "5f04cd1d0349675a7fec4ada5f4b0bde3f8f87ddfdf5d2ed3f81d17d15b0c755",
        "tables": "10d476bae0e420d7afcd6c45b864d9960d278ee48e6f25fc04776bc577d945f9",
    }),
    "many_periods": (16, {**_periods(12, 4e-3), "static_epsilon": 1e-3}, {
        "dataset.json": "4816a2f34d34520f36403983398d16180038775b87a5ff6f905ee807fc9c78ea",
        "report.json": "99efa84bbafb252ff4be7a2058cccfbae56bf2b2afe3abda3e779cf62fb4ddd2",
        "summarize": "46fbf55bbc2402a41c914d10c5c8044f903b9bca847b8f0364b2466b1ffff0b8",
        "tables": "03032dcd2ff2046b4069bb6d3addc37661a2bb9991845058b0d17e22cb46ee31",
    }),
}


@pytest.mark.parametrize("name", sorted(SCALED_SESSIONS))
def test_scaled_session_bytes_are_unchanged(tmp_path, capsys, name):
    """simulate (seed 0, 100 shots), analyze --plan auto --tables, summarize
    on a scaled session: every output's bytes, pinned as the drift session's
    are (deep_germs: 1 comparison and 2 tables; many_periods: 12
    contexts, 67 comparisons and 68 tables)."""
    power, model, digests = SCALED_SESSIONS[name]
    design = json.loads(Path(DRIFT_DESIGN).read_text(encoding="utf-8"))
    (tmp_path / "design.json").write_text(json.dumps({**design, "max_germ_power": power}))
    (tmp_path / "model.json").write_text(json.dumps(model))
    data, out, tables = tmp_path / "dataset.json", tmp_path / "report.json", tmp_path / "tables"
    assert main(["simulate", "--design", str(tmp_path / "design.json"), "--error-model",
                 str(tmp_path / "model.json"), "--shots", "100", "--seed", "0",
                 "--out", str(data)]) == 0
    assert main(["analyze", "--data", str(data), "--plan", "auto", "--out", str(out),
                 "--tables", str(tables)]) == 0
    capsys.readouterr()
    assert main(["summarize", "--report", str(out)]) == 0
    sha = lambda text: hashlib.sha256(text).hexdigest()  # noqa: E731
    lines = "".join(f"{path.name} {sha(path.read_bytes())}\n"
                    for path in sorted(tables.iterdir()))
    assert {"dataset.json": sha(data.read_bytes()), "report.json": sha(out.read_bytes()),
            "summarize": sha(capsys.readouterr().out.encode()),
            "tables": sha(lines.encode())} == digests


class TestSummarize:
    def test_detection_summary(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        main(["analyze", "--data", NEIGHBOR_DATA, "--out", str(report)])
        capsys.readouterr()
        assert main(["summarize", "--report", str(report)]) == 0
        text = capsys.readouterr().out
        assert "comparison idle_vs_driven (idle, driven): context dependence detected" in text
        assert "aggregate: N_sigma =" in text
        assert "rejected circuits: 1 of 40" in text
        assert "GhGsGsGsGsGh" in text
        assert "max SSTVD: 0.277344 (27.73%)" in text

    def test_no_detection_wording(self, tmp_path, capsys):
        sim = tmp_path / "data.json"
        # Null model: every context identical, so nothing should trigger.
        null_error = tmp_path / "null_error.json"
        null_error.write_text(json.dumps({
            "a": {"Gx": 0.0, "Gy": 0.0},
            "b": {"Gx": 0.0, "Gy": 0.0},
            "static_epsilon": 0.001,
        }))
        main(["simulate", "--design", DRIFT_DESIGN, "--error-model",
              str(null_error), "--shots", "16", "--seed", "11",
              "--out", str(sim)])
        report = tmp_path / "report.json"
        main(["analyze", "--data", str(sim), "--out", str(report)])
        capsys.readouterr()
        assert main(["summarize", "--report", str(report)]) == 0
        text = capsys.readouterr().out
        assert "no context dependence detected" in text
        assert "max SSTVD: n/a" in text

    def test_warnings_and_small_samples_shown(self, tmp_path, capsys):
        partial = [{"id": f"Gy{'Gx' * i}", "counts": {"a": [50, 50]}} for i in range(7)]
        data = tmp_path / "data.json"
        data.write_text(json.dumps({
            "format_version": "1.0", "outcomes": ["0", "1"], "contexts": ["a", "b"],
            "circuits": [{"id": "Gx", "counts": {"a": [60, 40], "b": [40, 60]}},
                         {"id": "GxGx", "counts": {"a": [5, 3], "b": [4, 4]}},
                         *partial],
        }))
        report = tmp_path / "report.json"
        assert main(["analyze", "--data", str(data), "--out", str(report)]) == 0
        capsys.readouterr()
        assert main(["summarize", "--report", str(report)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("comparison a_vs_b (a, b): ")
        start = lines.index("  warnings: 7")
        assert lines[start + 1:start + 8] == [
            "    circuit 'Gy': missing context(s) 'b'; skipped",
            "    circuit 'GyGx': missing context(s) 'b'; skipped",
            "    circuit 'GyGxGx': missing context(s) 'b'; skipped",
            "    circuit 'GyGxGxGx': missing context(s) 'b'; skipped",
            "    circuit 'GyGxGxGxGx': missing context(s) 'b'; skipped",
            "    ... and 2 more",
            "  small-sample circuits: 1 of 2",
        ]

    def test_missing_report(self, tmp_path, capsys):
        code = main(["summarize", "--report", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error_is_one_not_two(self, capsys):
        assert main(["gen-circuits"]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["no-such-command"]) == 1

    def test_numeric_failure_is_two(self, tmp_path, capsys, monkeypatch):
        # Force a numeric failure deep in the analysis path.
        import contextdep.cli as cli

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic numeric failure")

        monkeypatch.setattr(cli, "run_analysis", boom)
        code = main(["analyze", "--data", TWO_CONTEXT,
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_console_script_entry_point(self):
        import os
        import subprocess
        import sys
        # The child imports contextdep from where this process did, also
        # when only pytest's pythonpath setting put src/ on the path.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-m", "contextdep.cli", "--help"],
                              capture_output=True, text=True, env=env)
        # argparse --help exits 0 and prints the subcommands
        assert proc.returncode == 0
        for name in ("gen-circuits", "simulate", "analyze", "summarize"):
            assert name in proc.stdout


def _mutated_report(change):
    # The header is the row's: llr 4 on k = 1 has p 0.0455, not below
    # alpha_local / 2, so p_threshold is alpha_local / 2; n_sigma is
    # (llr - k) / sqrt(2 k), and both thresholds are chi-squared quantiles.
    entry = {
        "comparison_id": "a_vs_b", "contexts": ["a", "b"], "alpha_local": 0.05,
        "aggregate": {"llr": 4.0, "k": 1, "p": chi2_sf(4.0, 1), "n_sigma": 2.1213203435596424,
                      "n_sigma_threshold": (chi2_isf(0.025, 1) - 1) / math.sqrt(2.0),
                      "triggered": False},
        "p_threshold": 0.025, "llr_threshold": chi2_isf(0.025, 1), "detected": False,
        "warnings": [],
        "circuits": [{"id": "Gx", "llr": 4.0, "p": 0.05, "jsd": 0.01, "jsd_threshold": 0.0125,
                      "tvd": 0.1, "sstvd": None, "sstvd_per_gate": None,
                      "rejected": False, "small_sample": False}],
    }
    return change(entry)


def _set(path, value):
    def change(entry):
        *parents, last = path
        target = entry
        for key in parents:
            target = target[key]
        target[last] = value
        return [entry]
    return change


@pytest.mark.parametrize("change", [
    lambda entry: [5],
    lambda entry: [entry, "x"],
    _set(("circuits",), 5),
    _set(("circuits",), {"id": "Gx"}),
    _set(("circuits", 0), 5),
    _set(("circuits", 0), ["Gx"]),
    _set(("circuits", 0, "id"), 5),
    _set(("circuits", 0, "llr"), "4.0"),
    _set(("circuits", 0, "llr"), True),
    _set(("circuits", 0, "llr"), 10**400),
    _set(("circuits", 0, "tvd"), "0.1"),
    _set(("circuits", 0, "rejected"), 0),
    _set(("circuits", 0, "small_sample"), None),
    _set(("aggregate",), [4.0]),
    _set(("aggregate", "k"), 1.0),
    _set(("aggregate", "n_sigma"), "2.1"),
    _set(("aggregate", "triggered"), None),
    _set(("contexts",), [1, 2]),
    _set(("warnings",), "none"),
    _set(("comparison_id",), 7),
    _set(("llr_threshold",), "5"),
    _set(("p_threshold",), 10**400),
    _set(("detected",), "no"),
])
def test_malformed_report_is_one_line_error(tmp_path, capsys, change):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(_mutated_report(change)))
    assert main(["summarize", "--report", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["summarize", "gen-circuits"])
def test_reader_gone_from_stdout_is_quiet_success(tmp_path, command):
    # A pipe whose read end is closed before the child starts: its first
    # write to stdout fails, with no race against a reader such as `head`.
    report = tmp_path / "report.json"
    report.write_text(json.dumps(_mutated_report(lambda entry: [entry])))
    args = (["summarize", "--report", report] if command == "summarize" else
            ["gen-circuits", "--design", NEIGHBOR_DESIGN, "--mode", "lgst",
             "--out", tmp_path / "circuits.json"])
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_cli(args, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_well_formed_report_summarizes(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(_mutated_report(lambda entry: [entry])))
    assert main(["summarize", "--report", str(path)]) == 0
    assert "rejected circuits: 0 of 1" in capsys.readouterr().out


@pytest.fixture(scope="module")
def drift_report(tmp_path_factory, drift_seed_0):
    """The drift seed-0 report of analyze --plan auto, parsed; it summarizes."""
    path = tmp_path_factory.mktemp("report") / "report.json"
    assert main(["analyze", "--data", str(drift_seed_0), "--plan", "auto",
                 "--out", str(path)]) == 0
    assert main(["summarize", "--report", str(path)]) == 0
    return json.loads(path.read_text())


def _summarize_parsed(report, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    capsys.readouterr()
    code = main(["summarize", "--report", str(path)])
    return code, capsys.readouterr()


def _first_row(rejected):
    return lambda entry: next(row for row in entry["circuits"] if row["rejected"] is rejected)


def _restate(entry):
    """Set every value an entry derives from its rows, alpha_local and k
    (report_derived_values), as analyze writes it, with a per-gate SSTVD
    null where the SSTVD is."""
    aggregate, header = report_derived_values(entry)
    entry["aggregate"].update(aggregate)
    entry.update(header)
    for row in entry["circuits"]:
        row["rejected"] = row["p"] < header["p_threshold"]
        row["sstvd"] = row["tvd"] if row["rejected"] else None
        if row["sstvd"] is None:
            row["sstvd_per_gate"] = None


def _agg(entry):
    return entry["aggregate"]


def _row0_agg(entry):
    """The aggregate of the first row alone, on that row's k, with every
    derived value restated for it."""
    entry["aggregate"]["k"] //= len(entry["circuits"])
    del entry["circuits"][1:]
    _restate(entry)
    return entry["aggregate"]


# t1_vs_t2 rejects nothing; its first row is {}, at p = 1.  t1_vs_t3 rejects 3 rows.
# The header's llr, p, n_sigma_threshold and llr_threshold are derived too:
# t1_vs_t2's rows sum to 1,185.44 on k = 1,405, at p 0.999994.  Each file
# but the p of 1.5 was once summarized, the forged llr as N_sigma 18,838.06;
# a k of 2**40 has no chi-squared quantile at alpha_local / 2, and one of
# 2**1023 was once refused as only "math domain error".
@pytest.mark.parametrize("comparison_id, pick, key, value", [
    ("t1_vs_t2", lambda entry: entry["circuits"][0], "sstvd", 0.99),
    ("t1_vs_t2", lambda entry: entry["circuits"][0], "rejected", True),
    ("t1_vs_t2", None, "detected", True),
    ("t1_vs_t3", _first_row(True), "sstvd", 0.5),
    ("t1_vs_t3", _first_row(True), "rejected", False),
    ("t1_vs_t3", _first_row(False), "sstvd_per_gate", 0.01),
    ("t1_vs_t2", _agg, "llr", 1e6),
    ("t1_vs_t2", _agg, "p", 0.5),
    ("t1_vs_t2", _agg, "p", 1.5),
    ("t1_vs_t2", _agg, "n_sigma_threshold", -123),
    ("t1_vs_t2", None, "llr_threshold", None),
    ("t1_vs_t2", _row0_agg, "k", 2**40),
    ("t1_vs_t2", _row0_agg, "k", 2**1023),
])
def test_report_contradicting_its_derived_values_is_one_line_error(
        tmp_path, capsys, drift_report, comparison_id, pick, key, value):
    """rejected is p < p_threshold, SSTVD the tvd of a rejected row,
    detected the aggregate or any rejection, and the aggregate and both
    thresholds follow from the rows: a file stating otherwise is refused,
    not summarized."""
    report = copy.deepcopy(drift_report)
    entry = next(entry for entry in report if entry["comparison_id"] == comparison_id)
    target = entry if pick is None else pick(entry)
    assert target[key] != value
    target[key] = value
    code, captured = _summarize_parsed(report, tmp_path, capsys)
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"{comparison_id!r}" in captured.err and f"{key!r}" in captured.err


def _p_threshold_half(entry):
    """p_threshold 0.5, with the rows' rejected and sstvd, and detected, as
    that threshold makes them."""
    entry["p_threshold"] = 0.5
    rows = entry["circuits"]
    for row in rows:
        row["rejected"] = row["p"] < entry["p_threshold"]
        row["sstvd"] = row["tvd"] if row["rejected"] else None
    entry["detected"] = entry["aggregate"]["triggered"] or any(row["rejected"] for row in rows)


def _header_edit(**values):
    """Set top-level keys of an entry, or, as aggregate_<key>, its aggregate's."""
    def change(entry):
        for key, value in values.items():
            target = entry["aggregate"] if key.startswith("aggregate_") else entry
            target[key.removeprefix("aggregate_")] = value
    return change


# The joint comparison triggers (N_sigma 14.82); t1_vs_t2 does not (-5.01).
@pytest.mark.parametrize("comparison_id, change, key", [
    ("joint", _header_edit(aggregate_triggered=False), "triggered"),
    ("joint", _header_edit(aggregate_n_sigma=99), "n_sigma"),
    ("joint", _header_edit(aggregate_k=0), "k"),
    ("t1_vs_t2", _p_threshold_half, "p_threshold"),
    ("t1_vs_t2", _header_edit(aggregate_triggered=True, detected=True), "triggered"),
    ("joint", _header_edit(aggregate_k=10**400), "k"),
    ("joint", _header_edit(aggregate_llr=10**400), "llr"),
    ("joint", _header_edit(alpha_local=10**400), "alpha_local"),
    ("joint", _header_edit(circuits=[]), "circuits"),
])
def test_report_contradicting_its_derived_decision_is_one_line_error(
        tmp_path, capsys, drift_report, comparison_id, change, key):
    """triggered, p_threshold and n_sigma follow from the rows and the
    budget, and k, llr and alpha_local must allow them: a file stating
    otherwise is refused by the header's key, not summarized."""
    report = copy.deepcopy(drift_report)
    change(next(entry for entry in report if entry["comparison_id"] == comparison_id))
    code, captured = _summarize_parsed(report, tmp_path, capsys)
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"{comparison_id!r}" in captured.err and f"{key!r}" in captured.err
    assert ": circuit " not in captured.err


def _decision_input(key, value):
    """Set alpha_local, or the p of t1_vs_t2's first row: the decision's
    input rules refuse each value below before any stated derived value is
    checked.  The aggregate's p is derived: a stated one is checked as the
    others are."""
    def change(entry):
        target = entry if key == "alpha_local" else entry["circuits"][0]
        target["alpha_local" if key == "alpha_local" else "p"] = value
    return change


# t1_vs_t2 does not trigger and rejects nothing; its first row is {}, at p = 1.
@pytest.mark.parametrize("key, value, message", [
    ("alpha_local", float("nan"), "alpha must lie in (0, 1), got nan"),
    ("alpha_local", 0, "alpha must lie in (0, 1), got 0.0"),
    ("alpha_local", 5e-324, "alpha 5e-324 is too small to split over 1405 tests: "
                            "alpha / 2 / 1405 underflows to 0"),
    ("row p", 1.5, "p-value for '{}' outside [0, 1]: 1.5"),
    ("row p", float("nan"), "p-value for '{}' outside [0, 1]: nan"),
])
def test_report_outside_the_decisions_domain_is_one_line_error(
        tmp_path, capsys, drift_report, key, value, message):
    """A budget outside (0, 1), one too small to split over the rows, or a
    p outside [0, 1] has no decision; summarize once printed p_threshold
    nan or 0 for such files and exited 0."""
    report = copy.deepcopy(drift_report)
    _decision_input(key, value)(report[1])
    assert report[1]["comparison_id"] == "t1_vs_t2"
    code, captured = _summarize_parsed(report, tmp_path, capsys)
    assert (code, captured.out) == (1, "")
    assert captured.err == (f"error: {tmp_path / 'report.json'}: comparison 1 "
                            f"('t1_vs_t2'): {message}\n")


def _repeat_first_row(entry):
    """The first row twice, with k and every derived value restated for the rows."""
    rows = entry["circuits"]
    entry["aggregate"]["k"] += entry["aggregate"]["k"] // len(rows)
    rows.append(copy.deepcopy(rows[0]))
    _restate(entry)


def _aggregate_k_7(entry):
    """k of 7, not a multiple of the 1,405 rows; the k check comes before
    every derived value, so those stay as analyze wrote them."""
    entry["aggregate"]["k"] = 7


def _tvd_on_every_row(entry):
    for row in entry["circuits"]:
        row["tvd"] = 0.5
        if row["rejected"]:
            row["sstvd"] = 0.5


def _tvd_null_on_every_row(entry):
    """No TVD, and so no SSTVD, on any row: a pair without effect sizes."""
    for row in entry["circuits"]:
        row["tvd"] = row["sstvd"] = row["sstvd_per_gate"] = None


def _contexts(*contexts):
    def change(entry):
        entry["contexts"] = list(contexts)
    change.__name__ = f"_contexts{contexts}"
    return change


# Comparison 0 is joint, of five contexts, comparison 1 is t1_vs_t2 and
# comparison 2 is t1_vs_t3, which rejects 3 rows; the first row of each is {}.
@pytest.mark.parametrize("n, change, message", [
    (1, _repeat_first_row, "duplicate circuit id '{}'"),
    (1, _aggregate_k_7, "aggregate 'k' must be a positive multiple of rows x (contexts - 1) "
                        "= 1405 x 1, got 7"),
    (0, _tvd_on_every_row, "'tvd' of circuit 0 must be None, got 0.5"),
    (2, _tvd_null_on_every_row, "'tvd' of circuit 0 must be a number, got None"),
    (1, _contexts("t1", "t1"), "duplicate context 't1'"),
    (0, _contexts("t1", "t2", "t2", "t4", "t5"), "duplicate context 't2'"),
])
def test_report_rows_no_analysis_writes_are_one_line_error(tmp_path, capsys, drift_report, n,
                                                           change, message):
    """A comparison's rows are distinct circuits, each test has (contexts -
    1) (outcomes - 1) dof, a row has a TVD exactly when two contexts are
    compared, and the contexts are distinct; summarize once printed
    "rejected circuits: 0 of 1406", N_sigma 314.95, a max SSTVD of 50%, a
    max SSTVD of n/a for t1_vs_t3, and "comparison t1_vs_t2 (t1, t1)" for
    these files and exited 0."""
    report = copy.deepcopy(drift_report)
    change(report[n])
    code, captured = _summarize_parsed(report, tmp_path, capsys)
    assert (code, captured.out) == (1, "")
    assert captured.err == (f"error: {tmp_path / 'report.json'}: comparison {n} "
                            f"({report[n]['comparison_id']!r}): {message}\n")


# RFC 8259 has no NaN or infinity: json reads the token NaN as one, and 1e400
# as an infinity.  summarize once exited 0 on both files.
@pytest.mark.parametrize("key, text, message", [
    ("jsd", "NaN", "'jsd' of circuit 0 must be a finite number, got nan"),
    ("jsd_threshold", "1e400", "'jsd_threshold' of circuit 0 must be a finite number, got inf"),
])
def test_report_with_a_non_finite_number_is_one_line_error(tmp_path, capsys, drift_report,
                                                           key, text, message):
    report = copy.deepcopy(drift_report)
    report[0]["circuits"][0][key] = "<number>"
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report).replace('"<number>"', text))
    capsys.readouterr()
    code, captured = main(["summarize", "--report", str(path)]), capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: {path}: comparison 0 ('joint'): {message}\n"


def test_report_without_comparisons_is_one_line_error(tmp_path, capsys):
    """No analysis writes a report without comparisons; summarize once
    printed nothing for one and exited 0."""
    code, captured = _summarize_parsed([], tmp_path, capsys)
    assert (code, captured.out) == (1, "")
    assert captured.err == (f"error: {tmp_path / 'report.json'}: no comparisons; "
                            "an analysis writes at least one\n")


def test_report_repeating_a_comparison_id_is_one_line_error(tmp_path, capsys, drift_report):
    """A plan's comparison ids are distinct; summarize once printed both
    copies of a repeated comparison."""
    entry = drift_report[1]
    code, captured = _summarize_parsed([drift_report[0], entry, entry], tmp_path, capsys)
    assert (code, captured.out) == (1, "")
    assert captured.err == (f"error: {tmp_path / 'report.json'}: comparison 2 "
                            f"({entry['comparison_id']!r}): comparison_id repeats comparison 1\n")


def test_report_restated_from_its_rows_is_unchanged(drift_report):
    """_restate, which the forged files above use, derives every value as
    analyze wrote it, bit for bit."""
    report = copy.deepcopy(drift_report)
    for entry in report:
        _restate(entry)
    assert json.dumps(report) == json.dumps(drift_report)


# Once optional, with a default for an omitted one: an omitted small_sample
# read as false, a pair's tvd as null and warnings as none.
@pytest.mark.parametrize("key", ["warnings", "p_threshold", "detected", "aggregate n_sigma",
                                 "aggregate triggered", "row tvd", "row sstvd",
                                 "row sstvd_per_gate", "row small_sample"])
def test_report_without_a_field_is_one_line_error(tmp_path, capsys, drift_report, key):
    """Every field save_report writes is required: t1_vs_t2 without one
    of its header's or its first row's fields is refused."""
    report = copy.deepcopy(drift_report)
    where, _, name = key.rpartition(" ")
    entry = report[1]
    del {"": entry, "aggregate": entry["aggregate"], "row": entry["circuits"][0]}[where][name]
    code, captured = _summarize_parsed(report, tmp_path, capsys)
    assert (code, captured.out) == (1, "")
    row = "circuit 0: " if where == "row" else ""
    assert captured.err == (f"error: {tmp_path / 'report.json'}: comparison 1 ('t1_vs_t2'): "
                            f"{row}missing field {name!r}\n")
