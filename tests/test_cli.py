"""Command-line interface: outputs, formats, and the exit-code contract."""

import copy
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from contextdep.cli import main
from contextdep.counts import load_dataset
from contextdep.datasets import data_path
from contextdep.gstgen import load_circuits
from contextdep.pipeline import jsd_profile, load_report

from _references import write_jsd_profile_csv_reference


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
        assert len(load_circuits(out)) == 40

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
        # numpy's sampler takes at most 2**63 - 1 shots; one more once
        # exited 2 with a numeric failure.
        code = main(["simulate", "--design", NEIGHBOR_DESIGN,
                     "--error-model", DRIFT_ERROR,
                     "--shots", str(2**63), "--seed", "1",
                     "--out", str(tmp_path / "d.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "shots_per_context must be in [1, 9223372036854775807]" in err
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


def _run_cli(args, **env):
    # The child imports contextdep from where this process did.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env}
    return subprocess.run([sys.executable, "-m", "contextdep.cli", *map(str, args)],
                          capture_output=True, text=True, env=env)


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
    "dataset.json": "5cc5cef28a9fd5a1756fa70b024ab987153332f03dda1119719e87d073799245",
    "report.json": "314d8bbcea6159e01c5c70d1a3d80dbf3f1ff95d844d0176467938602ddec985",
    "jsd_profile_joint.csv": "818e6bb849d170c69d02f97d19ced8509607a693e23d3b6822cf5accf150fff6",
    "jsd_profile_t1_vs_t2.csv": "070b6f505f76961dbe521f9b1c5e2c248e6df82e01f7ae2d4a72af0a6c1ea57a",
    "jsd_profile_t1_vs_t3.csv": "a16665f7796eee199875cc212c968d89b93d65dee8bd8537de4d1545d9f539f1",
    "jsd_profile_t1_vs_t4.csv": "b75bb86eae34cec50610218144ad79adb5029979bb602874c097f73bf7fdaff4",
    "jsd_profile_t1_vs_t5.csv": "bbab14bd118788486a950d56653d5ffaa3401d69204cf97a9e67369b6c50febd",
    "jsd_profile_t2_vs_t3.csv": "a812858ff774a6f7379eaa8ed6945e95b27155d0d3c6d8348cfb8edfcffc9348",
    "jsd_profile_t2_vs_t4.csv": "a012d890abab15f42a304db2af041ba986f8a93559bfd6f9524688c87f9e1210",
    "jsd_profile_t2_vs_t5.csv": "adc085961d4836dac41fa847c0b66f3038b052e97ec39da6379b5ecf0ef20ad3",
    "jsd_profile_t3_vs_t4.csv": "8e5309c9217a2cccaee93f632f082ccd9ecfe3f33e39e51f093f8131c329cb18",
    "jsd_profile_t3_vs_t5.csv": "39bb81c401a258c77430f717e07124d1e61f9f37602797c6fd739ee3c465e73d",
    "jsd_profile_t4_vs_t5.csv": "af4d73fb6d6ec3ff707398876572ecbfb191b813e973b629892ef8cfb87887d4",
    "pairwise_matrix.csv": "5a84c9678fb9347ae782de1555e5b46c93af6a0ec2f80d092f2670cb44cdd9a1",
    "summarize": "74ac07baeae66c70cfcf04d1bace2492bb257830d4129cce3602417131fa5900",
}


def test_drift_session_bytes_are_unchanged(tmp_path, capsys, drift_seed_0):
    """simulate (seed 0, 100 shots), analyze --plan auto --tables, summarize:
    every output's bytes as the writers have always produced them."""
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
    # The header agrees with the row: n_sigma is (llr - k) / sqrt(2 k), p is
    # not below alpha_local / 2, and so p_threshold is alpha_local / 2.
    entry = {
        "comparison_id": "a_vs_b", "contexts": ["a", "b"], "alpha_local": 0.05,
        "aggregate": {"llr": 4.0, "k": 1, "p": 0.05, "n_sigma": 2.1213203435596424,
                      "n_sigma_threshold": 1.9, "triggered": False},
        "p_threshold": 0.025, "llr_threshold": 5.0, "detected": False, "warnings": [],
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
    return lambda rows: next(row for row in rows if row["rejected"] is rejected)


# t1_vs_t2 rejects nothing; its first row is {}, at p = 1.  t1_vs_t3 rejects 3 rows.
@pytest.mark.parametrize("comparison_id, pick, key, value", [
    ("t1_vs_t2", lambda rows: rows[0], "sstvd", 0.99),
    ("t1_vs_t2", lambda rows: rows[0], "rejected", True),
    ("t1_vs_t2", None, "detected", True),
    ("t1_vs_t3", _first_row(True), "sstvd", 0.5),
    ("t1_vs_t3", _first_row(True), "rejected", False),
    ("t1_vs_t3", _first_row(False), "sstvd_per_gate", 0.01),
])
def test_report_contradicting_its_derived_values_is_one_line_error(
        tmp_path, capsys, drift_report, comparison_id, pick, key, value):
    """rejected is p < p_threshold, SSTVD the tvd of a rejected row, and
    detected the aggregate or any rejection: a file stating otherwise is
    refused, not summarized."""
    report = copy.deepcopy(drift_report)
    entry = next(entry for entry in report if entry["comparison_id"] == comparison_id)
    target = entry if pick is None else pick(entry["circuits"])
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


# The joint comparison triggers (N_sigma 15.98); t1_vs_t2 does not (-4.14).
@pytest.mark.parametrize("comparison_id, change, key", [
    ("joint", _header_edit(aggregate_triggered=False), "triggered"),
    ("joint", _header_edit(aggregate_n_sigma=99), "n_sigma"),
    ("joint", _header_edit(aggregate_k=0), "k"),
    ("joint", _header_edit(aggregate_llr=1.0), "n_sigma"),
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


def test_report_without_sstvd_or_detected_summarizes_alike(tmp_path, capsys, drift_report):
    code, captured = _summarize_parsed(drift_report, tmp_path, capsys)
    assert code == 0
    report = copy.deepcopy(drift_report)
    for entry in report:
        del entry["detected"]
        for row in entry["circuits"]:
            del row["sstvd"]
    assert _summarize_parsed(report, tmp_path, capsys) == (code, captured)
    # Nor do the header's derived values change the summary.
    for entry in report:
        del entry["p_threshold"], entry["aggregate"]["n_sigma"], entry["aggregate"]["triggered"]
    assert _summarize_parsed(report, tmp_path, capsys) == (code, captured)
