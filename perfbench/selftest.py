#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (a few seconds).

Runs ``run.py`` on the ``tiny`` workload (max germ power 2, three periods)
with tracing off and on, and checks that:

  * every metric of BENCHMARK.json is printed by name with its unit, both
    in the readable lines and in the final JSON line;
  * the output check rejects a report with one flipped ``rejected`` flag;
  * the tracer tolerates wrapped names that are missing or never called,
    and its self times add up to the enclosing span;
  * the benchmark fails, without printing a result, in a directory that
    holds no ``src/``.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import verify  # noqa: E402
from spans import Tracer  # noqa: E402

SCRATCH = run.WORK / "selftest"


def require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_printed(trace: int, expected: dict) -> dict:
    proc = bench("--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace))
    require(proc.returncode == 0, f"trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            f"final line has keys {sorted(result)}")
    require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
            f"trace {trace}: tiny run not correct: {lines[-1]}")
    require(set(result["metrics"]) == set(expected),
            f"trace {trace}: metrics {sorted(result['metrics'])} != {sorted(expected)}")
    for name, unit in expected.items():
        metric = result["metrics"][name]
        require(metric["unit"] == unit, f"{name}: unit {metric['unit']!r} != {unit!r}")
        require(isinstance(metric["value"], (int, float)), f"{name}: value not a number")
        require(any(line.split()[1:2] == [name] and line.split()[-1] == unit for line in lines),
                f"{name} is not printed with its unit {unit!r}")
    record = json.loads(lines[-2])
    require({"nproc", "python", "numpy", "cpu", "load_1min_start", "load_1min_end",
             "seed"} <= set(record["environment"]), "environment block incomplete")
    require({"dataset", "report", "tables/pairwise_matrix.csv"} <= set(record["digests"]),
            "digests missing")
    return result["metrics"]


def test_metrics_printed() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    require(end_to_end == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end != run.py")
    require(per_layer == run.PER_LAYER_UNITS, "BENCHMARK.json per_layer != run.py")
    require([w["name"] for w in spec["workloads"]] == list(run.BENCH_WORKLOADS),
            "BENCHMARK.json workloads != run.py")
    check_printed(0, end_to_end)
    layers = check_printed(1, per_layer)
    require(layers["llr.single_calls"]["value"] == layers["pipeline.rows"]["value"],
            "llr.single_calls != pipeline.rows")


def test_flipped_flag_fails_check() -> None:
    out = run.WORK / "tiny" / "seed3"
    dataset = verify.load_json(out / "dataset.json")
    report = verify.load_json(out / "report.json")
    require(verify.check_report(report, dataset) == [], "unmodified report fails the check")
    line = report[1]["circuits"][0]
    line["rejected"] = not line["rejected"]
    problems = verify.check_report(report, dataset)
    require(any("rejected set" in p for p in problems),
            f"flipped rejected flag not caught: {problems}")


def test_tracer_tolerates_missing_names() -> None:
    module = types.SimpleNamespace(present=lambda x: x + 1, unused=lambda: None)
    tracer = Tracer()
    require(not tracer.wrap(module, "deleted_by_refactor", "gone"), "missing name wrapped")
    require(tracer.wrap(module, "present", "layer"), "present name not wrapped")
    require(tracer.wrap(module, "unused", "idle"), "unused name not wrapped")
    metrics = run.layer_metrics(tracer)
    require(all(v == 0 for v in metrics.values()), "metrics of an idle tracer are not zero")

    def outer():
        time.sleep(0.01)
        return module.present(1) + module.present(2)

    result, wall = tracer.run("cli.outer", outer)
    require(result == 5, "wrapped function changed its result")
    require(tracer.calls["layer"] == 2 and "gone" not in tracer.calls
            and tracer.calls["idle"] == 0, f"unexpected call counts {dict(tracer.calls)}")
    require(abs(tracer.total_self_s() - wall) < 1e-9, "self times do not add up to the span")
    tracer.restore()
    require(not hasattr(module.present, "__wrapped__"), "restore left a wrapper behind")


def test_fails_without_sources() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "drift", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    require(proc.returncode != 0, "benchmark succeeded without sources")
    require('"correct"' not in proc.stdout, "benchmark printed a result without sources")


def main() -> int:
    tests = [test_metrics_printed, test_flipped_flag_fails_check,
             test_tracer_tolerates_missing_names, test_fails_without_sources]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
