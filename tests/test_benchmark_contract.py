"""The benchmark's traced run of the command line, at its tiny size.

perfbench/run.py drives simulate, analyze --plan auto --tables and
summarize in process, with its tracer wrapped around the names the
command calls, and checks every output independently (perfbench/verify.py).
This test uses run.py as it is, so a change that makes the benchmark's
traced run fail, or its checks refuse an output, fails here first.
"""

import importlib
import os
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tiny_traced_run_passes_the_benchmark_checks(tmp_path):
    saved_path, saved_environ = list(sys.path), dict(os.environ)
    saved_modules = set(sys.modules)
    tracer = None
    try:
        sys.path.insert(0, str(PERFBENCH))
        # Importing run.py sets the BLAS thread variables; the finally restores them.
        run = importlib.import_module("run")
        spans = importlib.import_module("spans")
        spec = run.WORKLOADS["tiny"]
        design, model = run.prepare_inputs("tiny", tmp_path / "inputs")
        contexts = [k for k in spec["model"] if k != "static_epsilon"]
        paths = {"dataset": tmp_path / "dataset.json", "report": tmp_path / "report.json",
                 "tables": tmp_path / "tables"}
        argvs = {
            "simulate": ["simulate", "--design", str(design), "--error-model", str(model),
                         "--shots", str(run.SHOTS), "--seed", "0",
                         "--out", str(paths["dataset"])],
            "analyze": ["analyze", "--data", str(paths["dataset"]), "--plan", "auto",
                        "--tables", str(paths["tables"]), "--out", str(paths["report"])],
            "summarize": ["summarize", "--report", str(paths["report"])],
        }
        cli = run.import_cli()
        tracer = spans.Tracer()
        run.install_tracer(tracer)
        codes, _, texts = run.run_commands(cli, argvs, tracer, run.hostspeed.Reference())
        assert codes == {name: 0 for name in run.COMMANDS}, texts
        problems = run.check_outputs(paths, texts["summarize"], spec, contexts)
        assert problems == {name: [] for name in run.COMMANDS}
        assert tracer.counts["pipeline.rows"] == spec["circuits"] * spec["comparisons"] == 96 * 4
        # The spans wrap the names analyze calls; a refactor that stops
        # calling one leaves its span at 0.  Tables: the pairwise matrix
        # and its writer once, then a profile and its writer per comparison.
        assert tracer.calls["counts.load"] == 1
        # One sampling call that counts every cell: a sampler refactor that
        # strands run.py's cell-counting hook reads 0 here.
        assert tracer.calls["qsim.sampling"] == 1
        assert tracer.counts["qsim.cells"] == spec["circuits"] * len(contexts) == 96 * 3
        assert tracer.calls["pipeline.tables"] == 2 + 2 * spec["comparisons"] == 10
        live = ("gstgen.lsgst", "qsim.probabilities", "qsim.sampling", "counts.save",
                "counts.load", "pipeline.run_analysis", "pipeline.save_report",
                "pipeline.load_report", "chi2.sf")
        assert [name for name in live if tracer.calls[name] == 0] == []
        # One combined procedure per comparison: a changed signature that
        # strands the wrapped name would read fewer.
        assert tracer.calls["multitest.combined"] == spec["comparisons"] == 4
    finally:
        if tracer is not None:
            tracer.restore()
        sys.path[:] = saved_path
        os.environ.clear()
        os.environ.update(saved_environ)
        for name in {"run", "spans", "verify", "hostspeed"} - saved_modules:
            sys.modules.pop(name, None)
