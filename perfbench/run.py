#!/usr/bin/env python3
"""Benchmark of the ``contextdep`` command-line pipeline.

Each iteration drives the real command in-process through
``contextdep.cli.main``: ``simulate``, then ``analyze --plan auto --tables``,
then ``summarize``, on the inputs of one workload.  Every output is checked
independently (see ``verify.py``).  With ``--trace 0`` the end-to-end
metrics are printed; with ``--trace 1`` traced and untraced iterations
alternate and the per-layer metrics are printed (see ``spans.py``).

End-to-end times are corrected for the host's current speed: a fixed
reference kernel runs before and after every command, and each command's
wall time is scaled to a host of fixed speed (see ``hostspeed.py``).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload drift --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the environment and the sha256 digests of every output; the same
record, with the per-iteration values, is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One process, no helper threads: keep numpy's BLAS pool and the package's
# optional comparison thread pool at one worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CONTEXTDEP_THREADS", None)

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import verify  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "contextdep" / "data"
WORK = ROOT / ".perfbench"

SHOTS = 100
SETUP_REPS = 15
MIN_ITERATIONS = 4
# Stop starting iterations well before the 180 s a run may take.
HARD_STOP_S = 140.0


def _periods(n: int, top: float) -> dict:
    """n contexts t1..tn whose Gx/Gy over-rotation rises linearly 0 -> top."""
    return {f"t{i + 1}": {"Gx": top * i / (n - 1), "Gy": top * i / (n - 1)}
            for i in range(n)}


# Why each workload exists is documented in perfbench/README.md.
WORKLOADS = {
    "drift": {
        "max_germ_power": None,  # the bundled design and error model as shipped
        "model": None,
        "circuits": 1405, "comparisons": 11, "must_detect": ("joint",),
    },
    "deep_germs": {
        "max_germ_power": 2048,
        "model": {"c1": {"Gx": 0.0, "Gy": 0.0}, "c2": {"Gx": 1e-4, "Gy": 1e-4},
                  "static_epsilon": 1e-3},
        "circuits": 2017, "comparisons": 1, "must_detect": (),
    },
    "many_periods": {
        "max_germ_power": 16,
        "model": {**_periods(12, 4e-3), "static_epsilon": 1e-3},
        "circuits": 589, "comparisons": 67, "must_detect": (),
    },
    # Tiny size for perfbench/selftest.py; not a benchmark workload.
    "tiny": {
        "max_germ_power": 2,
        "model": {**_periods(3, 4e-3), "static_epsilon": 1e-3},
        "circuits": 96, "comparisons": 4, "must_detect": (),
    },
}
# The workloads of BENCHMARK.json.  many_periods is not among them: on a
# shared machine its figures spread beyond the bound (see README.md), so it
# runs only on request and in --workload all.
BENCH_WORKLOADS = ("drift", "deep_germs")
ALL_WORKLOADS = ("drift", "deep_germs", "many_periods")

END_TO_END_UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "analyze_s": "s",
    "pipeline_s": "s",
    "sim_cells_per_s": "cells/s",
    "analyze_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
    "success_rate": "ratio",
}

PER_LAYER_UNITS = {
    "gstgen.lsgst_s": "s",
    "gstgen.circuits": "count",
    "qsim.probabilities_s": "s",
    "qsim.circuit_probabilities_calls": "count",
    "qsim.sampling_s": "s",
    "qsim.cells": "count",
    "counts.save_s": "s",
    "counts.load_s": "s",
    "counts.dataset_bytes": "bytes",
    "llr.single_s": "s",
    "llr.single_calls": "count",
    "llr.aggregate_s": "s",
    "chi2.inv_cdf_s": "s",
    "chi2.inv_cdf_calls": "count",
    "chi2.inv_cdf_distinct": "count",
    "chi2.inv_cdf_useful_ratio": "ratio",
    "chi2.sf_s": "s",
    "chi2.sf_calls": "count",
    "multitest.combined_s": "s",
    "divergence.tvd_s": "s",
    "divergence.tvd_calls": "count",
    "pipeline.run_analysis_self_s": "s",
    "pipeline.save_report_s": "s",
    "pipeline.report_bytes": "bytes",
    "pipeline.tables_s": "s",
    "pipeline.load_report_s": "s",
    "pipeline.comparisons": "count",
    "pipeline.rows": "count",
    "cli.simulate_self_s": "s",
    "cli.analyze_self_s": "s",
    "cli.summarize_self_s": "s",
    "trace.overhead_s": "s",
}

COMMANDS = ("simulate", "analyze", "summarize")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or data)."""


# --- inputs -----------------------------------------------------------------

def prepare_inputs(name: str, work: Path) -> tuple[Path, Path]:
    """Write the workload's design and error-model files; return their paths."""
    spec = WORKLOADS[name]
    bundled_design = DATA / "design_drift.json"
    bundled_model = DATA / "error_model_drift.json"
    if not (SRC / "contextdep" / "cli.py").is_file() or not bundled_design.is_file():
        raise BenchError(f"no contextdep sources under {SRC}; run from a checkout root")
    if spec["max_germ_power"] is None:
        return bundled_design, bundled_model
    work.mkdir(parents=True, exist_ok=True)
    design = json.loads(bundled_design.read_text())
    design["max_germ_power"] = spec["max_germ_power"]
    design_path = work / "design.json"
    design_path.write_text(json.dumps(design, indent=2) + "\n")
    model_path = work / "error_model.json"
    model_path.write_text(json.dumps(spec["model"], indent=2) + "\n")
    return design_path, model_path


def import_cli():
    """Import contextdep.cli from this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("contextdep.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "contextdep").resolve():
        raise BenchError(f"imported contextdep from {cli.__file__}, not from {SRC}")
    return cli


# Runs in a fresh interpreter, so the import includes numpy's, as a user's does.
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
from contextdep.cli import main
from contextdep.gstgen import load_design
from contextdep.qsim import load_error_model
load_design(sys.argv[1])
load_error_model(sys.argv[2])
print(time.perf_counter() - start)
"""


def measure_setup(design: Path, model: Path,
                  reference: hostspeed.Reference) -> tuple[float, list[float]]:
    """Median corrected time, over fresh interpreters, to import the CLI and load the inputs.

    Import time differs from one interpreter to the next (hash seed, address
    layout), so one in-process measurement is not representative.  Each
    probe is bracketed by the reference kernel (see ``hostspeed.py``).
    Returns the median and the raw probe times.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    raw, times = [], []
    after = reference.seconds()
    for _ in range(SETUP_REPS):
        before = after
        probe = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(design), str(model)],
                               env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        after = reference.seconds()
        if probe.returncode != 0:
            raise BenchError(f"setup probe failed:\n{probe.stderr}")
        raw.append(float(probe.stdout))
        times.append(hostspeed.corrected(raw[-1], before, after))
    return statistics.median(times), raw


# --- tracing ----------------------------------------------------------------

def install_tracer(tracer: Tracer) -> None:
    """Wrap each layer's public functions under the names their callers use."""
    cli = sys.modules["contextdep.cli"]
    qsim = sys.modules["contextdep.qsim"]
    pipeline = sys.modules["contextdep.pipeline"]
    llr = sys.modules["contextdep.llr"]

    def count_circuits(t, args, kwargs, result):
        t.counts["gstgen.circuits"] += len(result)

    def count_cells(t, args, kwargs, result):
        t.counts["qsim.cells"] += sum(len(record.counts) for record in result.circuits)

    def count_reports(t, args, kwargs, result):
        t.counts["pipeline.comparisons"] += len(result)
        t.counts["pipeline.rows"] += sum(len(report.circuits) for report in result)

    def distinct_quantiles(t, args, kwargs, result):
        t.distinct["chi2.inv_cdf"].add(args + tuple(sorted(kwargs.items())))

    tracer.wrap(qsim, "lsgst_circuits", "gstgen.lsgst", after=count_circuits)
    tracer.wrap(qsim, "experiment_probabilities", "qsim.probabilities")
    tracer.wrap(qsim, "circuit_probabilities", "qsim.circuit_probabilities", timed=False)
    tracer.wrap(qsim, "sample_experiment", "qsim.sampling", after=count_cells)
    tracer.wrap(cli, "save_dataset", "counts.save")
    tracer.wrap(cli, "load_dataset", "counts.load")
    tracer.wrap(cli, "run_analysis", "pipeline.run_analysis", after=count_reports)
    tracer.wrap(cli, "save_report", "pipeline.save_report")
    tracer.wrap(cli, "load_report", "pipeline.load_report")
    for table_fn in ("pairwise_matrices", "write_pairwise_csv",
                     "jsd_profile", "write_jsd_profile_csv"):
        tracer.wrap(cli, table_fn, "pipeline.tables")
    tracer.wrap(pipeline, "llr_single", "llr.single")
    tracer.wrap(pipeline, "llr_aggregate", "llr.aggregate")
    tracer.wrap(pipeline, "combined_procedure", "multitest.combined")
    tracer.wrap(pipeline, "observed_tvd", "divergence.tvd")
    tracer.wrap(llr, "chi2_inv_cdf", "chi2.inv_cdf", after=distinct_quantiles)
    tracer.wrap(llr, "chi2_sf", "chi2.sf")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced iteration (zero for spans never seen)."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    inv_calls = calls["chi2.inv_cdf"]
    inv_distinct = len(tracer.distinct["chi2.inv_cdf"])
    return {
        "gstgen.lsgst_s": s["gstgen.lsgst"],
        "gstgen.circuits": counts["gstgen.circuits"],
        "qsim.probabilities_s": s["qsim.probabilities"],
        "qsim.circuit_probabilities_calls": calls["qsim.circuit_probabilities"],
        "qsim.sampling_s": s["qsim.sampling"],
        "qsim.cells": counts["qsim.cells"],
        "counts.save_s": s["counts.save"],
        "counts.load_s": s["counts.load"],
        "llr.single_s": s["llr.single"],
        "llr.single_calls": calls["llr.single"],
        "llr.aggregate_s": s["llr.aggregate"],
        "chi2.inv_cdf_s": s["chi2.inv_cdf"],
        "chi2.inv_cdf_calls": inv_calls,
        "chi2.inv_cdf_distinct": inv_distinct,
        "chi2.inv_cdf_useful_ratio": inv_distinct / inv_calls if inv_calls else 0.0,
        "chi2.sf_s": s["chi2.sf"],
        "chi2.sf_calls": calls["chi2.sf"],
        "multitest.combined_s": s["multitest.combined"],
        "divergence.tvd_s": s["divergence.tvd"],
        "divergence.tvd_calls": calls["divergence.tvd"],
        "pipeline.run_analysis_self_s": s["pipeline.run_analysis"],
        "pipeline.save_report_s": s["pipeline.save_report"],
        "pipeline.tables_s": s["pipeline.tables"],
        "pipeline.load_report_s": s["pipeline.load_report"],
        "pipeline.comparisons": counts["pipeline.comparisons"],
        "pipeline.rows": counts["pipeline.rows"],
        "cli.simulate_self_s": s["cli.simulate"],
        "cli.analyze_self_s": s["cli.analyze"],
        "cli.summarize_self_s": s["cli.summarize"],
    }


# --- one iteration ----------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(paths: dict) -> dict:
    digests = {"dataset": _sha256(paths["dataset"]), "report": _sha256(paths["report"])}
    for table in sorted(paths["tables"].iterdir()):
        digests[f"tables/{table.name}"] = _sha256(table)
    return digests


def output_bytes(paths: dict) -> int:
    return (paths["dataset"].stat().st_size + paths["report"].stat().st_size
            + sum(p.stat().st_size for p in paths["tables"].iterdir()))


def run_commands(cli, argvs: dict, tracer: Tracer | None,
                 reference: hostspeed.Reference) -> tuple[dict, dict, dict]:
    """Run simulate, analyze, summarize.

    Returns exit codes, timings and stdout.  The timings hold each
    command's wall time, that time corrected for the host's speed, and the
    reference kernel times that bracket the commands (see ``hostspeed.py``).
    """
    codes, walls, fixed, texts = {}, {}, {}, {}
    kernels = [reference.seconds()]
    for name in COMMANDS:
        buffer = io.StringIO()
        before = tracer.total_self_s() if tracer else 0.0
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main(argvs[name])
                else:
                    code, _ = tracer.run(f"cli.{name}", cli.main, argvs[name])
            except Exception:  # a crash is a failed command, not a failed benchmark
                code = None
                buffer.write(traceback.format_exc())
            walls[name] = time.perf_counter() - start
        kernels.append(reference.seconds())
        fixed[name] = hostspeed.corrected(walls[name], kernels[-2], kernels[-1])
        codes[name], texts[name] = code, buffer.getvalue()
        if tracer is not None:
            spans_sum = tracer.total_self_s() - before
            if abs(spans_sum - walls[name]) > 1e-3 * walls[name] + 1e-4:
                raise RuntimeError(f"{name}: span self times sum to {spans_sum!r}, "
                                   f"but the command took {walls[name]!r}")
        if code != 0:
            print(f"{name} failed with exit code {code}:\n{texts[name]}", file=sys.stderr)
            break
    return codes, {"wall_s": walls, "corrected_s": fixed, "kernel_s": kernels}, texts


def check_outputs(paths: dict, summary: str, spec: dict, contexts: list[str]) -> dict:
    """Full independent check; returns {command: [problems]}."""
    problems = {name: [] for name in COMMANDS}
    try:
        dataset = verify.load_json(paths["dataset"])
        problems["simulate"] = verify.check_dataset(dataset, spec["circuits"], contexts, SHOTS)
        if problems["simulate"]:
            return problems
        report = verify.load_json(paths["report"])
        problems["analyze"] = verify.check_report(report, dataset, spec["must_detect"])
        problems["analyze"] += verify.check_tables(paths["tables"], report, dataset)
        if len(report) != spec["comparisons"]:
            problems["analyze"].append(f"{len(report)} comparisons, expected {spec['comparisons']}")
        problems["summarize"] = verify.check_summary(summary, report)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        for name in COMMANDS:
            if not problems[name]:
                problems[name] = [f"output unreadable: {exc!r}"]
                break
    return problems


# --- one workload -----------------------------------------------------------

def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "load_1min_start": os.getloadavg()[0],
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    work = WORK / name
    design, model = prepare_inputs(name, work / "inputs")
    contexts = [k for k in (spec["model"] or json.loads(model.read_text()))
                if k != "static_epsilon"]
    out = work / f"seed{seed}"
    paths = {"dataset": out / "dataset.json", "report": out / "report.json",
             "tables": out / "tables"}
    argvs = {
        "simulate": ["simulate", "--design", str(design), "--error-model", str(model),
                     "--shots", str(SHOTS), "--seed", str(seed), "--out", str(paths["dataset"])],
        "analyze": ["analyze", "--data", str(paths["dataset"]), "--plan", "auto",
                    "--tables", str(paths["tables"]), "--out", str(paths["report"])],
        "summarize": ["summarize", "--report", str(paths["report"])],
    }
    env = environment(seed)
    reference = hostspeed.Reference()
    setup_s, setup_all = measure_setup(design, model, reference)
    cli = import_cli()

    tracer = Tracer() if trace else None
    if tracer is not None:
        install_tracer(tracer)
    attempted = failed = 0
    first = None  # (digests, summary, problems) of the first complete iteration
    samples = {"untraced": [], "traced": []}
    start = time.perf_counter()
    iteration = 0
    try:
        while True:
            elapsed = time.perf_counter() - start
            if iteration >= MIN_ITERATIONS and (elapsed >= seconds or elapsed >= HARD_STOP_S):
                break
            traced = tracer is not None and iteration % 2 == 1
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            gc.collect()
            if traced:
                tracer.reset()
            codes, timing, texts = run_commands(cli, argvs, tracer if traced else None,
                                                reference)
            fixed = timing["corrected_s"]
            iteration += 1
            attempted += len(COMMANDS)
            ran = [c for c in COMMANDS if codes.get(c) == 0]
            if len(ran) < len(COMMANDS):
                failed += len(COMMANDS) - len(ran)
                continue
            digests = output_digests(paths)
            if first is None:
                problems = check_outputs(paths, texts["summarize"], spec, contexts)
                first = (digests, texts["summarize"], problems)
            else:
                same = digests == first[0] and texts["summarize"] == first[1]
                problems = first[2] if same else {
                    c: ["outputs differ from the first iteration"] for c in COMMANDS}
            bad = [c for c in COMMANDS if problems[c]]
            for command in bad:
                print(f"{command} output check failed: {problems[command][:5]}", file=sys.stderr)
            failed += len(bad)
            if bad:
                continue
            n_cells = spec["circuits"] * len(contexts)
            n_rows = spec["circuits"] * spec["comparisons"]
            sample = {
                "simulate_s": fixed["simulate"],
                "analyze_s": fixed["analyze"],
                "summarize_s": fixed["summarize"],
                "pipeline_s": sum(fixed.values()),
                "sim_cells_per_s": n_cells / fixed["simulate"],
                "analyze_rows_per_s": n_rows / fixed["analyze"],
                **timing,
                "output_mb": output_bytes(paths) / 1e6,
                "dataset_bytes": paths["dataset"].stat().st_size,
                "report_bytes": paths["report"].stat().st_size,
            }
            if traced:
                sample.update(layer_metrics(tracer))
            samples["traced" if traced else "untraced"].append(sample)
    finally:
        if tracer is not None:
            tracer.restore()

    env["load_1min_end"] = os.getloadavg()[0]
    env["iterations"] = iteration
    if not samples["untraced"] or (trace and not samples["traced"]):
        raise BenchError(f"{name}: no iteration completed without a failure")

    def values(kind: str, key: str) -> list[float]:
        return [sample[key] for sample in samples[kind]]

    if trace:
        metrics = {key: statistics.median(values("traced", key))
                   for key in PER_LAYER_UNITS if key in samples["traced"][0]}
        metrics["counts.dataset_bytes"] = statistics.median(values("traced", "dataset_bytes"))
        metrics["pipeline.report_bytes"] = statistics.median(values("traced", "report_bytes"))
        metrics["trace.overhead_s"] = (statistics.median(values("traced", "pipeline_s"))
                                       - statistics.median(values("untraced", "pipeline_s")))
        units = PER_LAYER_UNITS
    else:
        metrics = {key: statistics.median(values("untraced", key))
                   for key in ("simulate_s", "analyze_s", "pipeline_s", "sim_cells_per_s",
                               "analyze_rows_per_s", "output_mb")}
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics["success_rate"] = 1.0 - failed / attempted
        units = END_TO_END_UNITS
    return {
        "workload": name,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
        "environment": env,
        "digests": first[0] if first else {},
        "setup_samples_s": setup_all,
        "samples": samples,
    }


# --- command line -----------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # The vCPUs of a shared host run at different speeds that change over
    # time; on one CPU the reference kernel and the commands it brackets
    # see the same speed.  Fresh interpreters of the set-up probe inherit it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = ALL_WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for result in results:
        for key, metric in result["metrics"].items():
            print(f"{result['workload']:<13} {key:<34} {metric['value']:>14.6g} {metric['unit']}")
        if not args.trace:
            rate = result["failed"] / result["attempted"]
            print(f"{result['workload']:<13} {'error_rate':<34} {rate:>14.6g} ratio")
        record = {k: result[k] for k in ("workload", "environment", "digests")}
        print(json.dumps(record, sort_keys=True))
        sidecar = WORK / result["workload"] / f"result-seed{args.seed}-trace{args.trace}.json"
        sidecar.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{key}": metric
                   for r in results for key, metric in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
