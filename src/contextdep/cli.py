"""Command-line driver: generate circuits, simulate, analyze, summarize.

Exit codes are uniform across subcommands: 0 means the command ran (a
detection verdict lives in the report, never in the exit code), 1 means
invalid input (bad files, bad flag values), 2 means an internal numeric
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .counts import load_dataset, save_dataset
from .gstgen import lgst_circuits, load_design, lsgst_circuits, save_circuits
from .pipeline import (ComparisonPlan, jsd_profile, load_plan, load_report,
                       pairwise_matrices, run_analysis, save_report,
                       write_jsd_profile_csv, write_pairwise_csv)
from .qsim import SimConfig, load_error_model, run_drift_experiment

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse's default usage failure exits with status 2, which this tool
    # reserves for numeric failures; route it to the invalid-input path.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="contextdep",
                     description="Detect and quantify context-dependent errors in "
                                 "quantum-circuit count data.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-circuits", help="generate a circuit list from a design file")
    gen.add_argument("--design", required=True, help="design JSON file")
    gen.add_argument("--mode", required=True, choices=("lgst", "lsgst"),
                     help="circuit family to generate")
    gen.add_argument("--out", required=True, help="output circuit-list JSON file")

    sim = sub.add_parser("simulate", help="simulate a multi-context experiment")
    sim.add_argument("--design", required=True, help="design JSON file")
    sim.add_argument("--error-model", required=True, help="error-model JSON file")
    sim.add_argument("--shots", required=True, type=int, help="repetitions per circuit per context")
    sim.add_argument("--seed", required=True, type=int, help="experiment seed")
    sim.add_argument("--out", required=True, help="output dataset JSON file")

    ana = sub.add_parser("analyze", help="run the detection analysis on a dataset")
    ana.add_argument("--data", required=True, help="dataset JSON file")
    ana.add_argument("--alpha", type=float, default=0.05, help="global significance (default 0.05)")
    ana.add_argument("--plan", default="auto",
                     help="'auto' (joint + all pairs), 'pairs', 'joint', or a plan JSON file")
    ana.add_argument("--out", required=True, help="output report JSON file")
    ana.add_argument("--tables", default=None,
                     help="directory for CSV data layers (pairwise matrix, JSD profiles)")

    summ = sub.add_parser("summarize", help="print a human-readable report summary")
    summ.add_argument("--report", required=True, help="report JSON file")

    return parser


def _file_key(path):
    # The (device, inode) pair os.path.samefile compares, or, for a file
    # not made yet, the path with every symlink resolved.
    try:
        stat = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return stat.st_dev, stat.st_ino


def _refuse_overwrite(outputs: list, inputs: dict) -> None:
    """Refuse an output that is one of the command's inputs or another output.

    ``outputs`` holds (flag, path) pairs; ``inputs`` maps flags to paths or
    None.  Compared as files before any is written, so a symlink, a hard
    link or another spelling of the same path is caught too.
    """
    owners = {_file_key(path): flag for flag, path in inputs.items() if path is not None}
    for flag, path in outputs:
        key = _file_key(path)
        if key in owners:
            raise ValueError(f"{flag} and {owners[key]} name the same file ({path}); "
                             "a command writes each file once, never over its input")
        owners[key] = flag


def _cmd_gen_circuits(args) -> int:
    _refuse_overwrite([("--out", args.out)], {"--design": args.design})
    design = load_design(args.design)
    if args.mode == "lgst":
        circuits = lgst_circuits(design)
    else:
        circuits = lsgst_circuits(design)
    save_circuits(circuits, args.out)
    print(len(circuits))
    return 0


def _cmd_simulate(args) -> int:
    _refuse_overwrite([("--out", args.out)],
                      {"--design": args.design, "--error-model": args.error_model})
    design = load_design(args.design)
    error = load_error_model(args.error_model)
    config = SimConfig(shots_per_context=args.shots, seed=args.seed,
                       contexts=error.contexts)
    dataset = run_drift_experiment(design, error, config)
    save_dataset(dataset, args.out)
    return 0


_NAMED_PLANS = {
    "auto": ComparisonPlan.default,
    "pairs": ComparisonPlan.all_pairs,
    "joint": ComparisonPlan.joint,
}


def _make_plan(spec: str, contexts) -> ComparisonPlan:
    if spec in _NAMED_PLANS:
        return _NAMED_PLANS[spec](contexts)
    return load_plan(spec)


def _check_table_names(plan: ComparisonPlan) -> None:
    # Comparison ids become file names under --tables; an id that is a
    # path would write outside that directory.
    for comparison in plan:
        cid = comparison.comparison_id
        if cid in (".", "..") or any(ch in cid for ch in "/\\\0"):
            raise ValueError(f"comparison id {cid!r} cannot name a file under --tables")


def _cmd_analyze(args) -> int:
    dataset = load_dataset(args.data)
    plan = _make_plan(args.plan, dataset.contexts)
    outputs = [("--out", args.out)]
    if args.tables is not None:
        _check_table_names(plan)
        tables = Path(args.tables)
        names = ["pairwise_matrix.csv", *(f"jsd_profile_{c.comparison_id}.csv" for c in plan)]
        outputs += [("--tables", tables / name) for name in names]
    plan_file = None if args.plan in _NAMED_PLANS else args.plan
    _refuse_overwrite(outputs, {"--data": args.data, "--plan": plan_file})
    if args.tables is not None:
        # Before the analysis: a path that cannot be a directory fails at once.
        tables.mkdir(parents=True, exist_ok=True)
    reports = run_analysis(dataset, plan, alpha=args.alpha)
    save_report(reports, args.out)

    if args.tables is not None:
        try:
            matrices = pairwise_matrices(reports, dataset.contexts)
            write_pairwise_csv(matrices, tables / "pairwise_matrix.csv")
        except ValueError as exc:
            print(f"note: pairwise matrix skipped ({exc})", file=sys.stderr)
        for report in reports:
            try:
                rows = jsd_profile(report, dataset)
            except ValueError as exc:
                print(f"note: JSD profile for {report.comparison_id!r} skipped ({exc})",
                      file=sys.stderr)
                continue
            write_jsd_profile_csv(rows, tables / f"jsd_profile_{report.comparison_id}.csv")
    return 0


_SHOWN_WARNINGS = 5


def _cmd_summarize(args) -> int:
    reports = load_report(args.report)
    for report in reports:
        verdict = ("context dependence detected" if report.detected
                   else "no context dependence detected")
        contexts = ", ".join(report.contexts)
        print(f"comparison {report.comparison_id} ({contexts}): {verdict}")
        agg = report.aggregate
        state = "triggered" if report.aggregate_triggered else "not triggered"
        print(f"  aggregate: N_sigma = {agg.n_sigma:.2f} "
              f"(threshold {report.n_sigma_threshold:.2f}), {state}")
        rejected = report.rejected_ids
        n_rows = len(report.circuit_ids)
        print(f"  rejected circuits: {len(rejected)} of {n_rows} "
              f"(p_threshold {report.p_threshold:.3g})")
        if 0 < len(rejected) <= 10:
            for circuit_id in rejected:
                print(f"    {circuit_id}")
        peak = report.max_sstvd
        if peak is None:
            print("  max SSTVD: n/a")
        else:
            print(f"  max SSTVD: {peak:.6g} ({100.0 * peak:.2f}%)")
        print(f"  warnings: {len(report.warnings)}")
        for warning in report.warnings[:_SHOWN_WARNINGS]:
            print(f"    {warning}")
        if len(report.warnings) > _SHOWN_WARNINGS:
            print(f"    ... and {len(report.warnings) - _SHOWN_WARNINGS} more")
        print(f"  small-sample circuits: {int(report.small_sample.sum())} of {n_rows}")
    return 0


_COMMANDS = {
    "gen-circuits": _cmd_gen_circuits,
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "summarize": _cmd_summarize,
}


def main(argv=None) -> int:
    # Text the terminal cannot encode (a non-ASCII id under an ASCII locale)
    # is printed escaped, not an error halfway through the output.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
