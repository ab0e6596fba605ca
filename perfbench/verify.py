"""Independent checks of the files one benchmark iteration writes.

Nothing here imports ``contextdep``: the dataset and report are read as
plain JSON and the per-circuit statistic is recomputed in vectorised numpy
(the ``xlogx`` form of ``demos/null_calibration.py``), so a defect in the
package cannot hide in the check.  Each function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
from itertools import combinations
from pathlib import Path

import numpy as np

# The report stores the statistic as a Python float; the recomputation sums
# the same terms in another order.  Terms are at most ~N log N ~ 1e3 for
# 100-shot pools, so round-off stays near 1e-12 absolute.
STAT_RTOL = 1e-9
STAT_ATOL = 1e-9
TABLE_RTOL = 1e-9  # CSV cells are written with 10 significant digits


def xlogx(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v, dtype=float)
    mask = v > 0
    out[mask] = v[mask] * np.log(v[mask])
    return out


def count_array(dataset: dict) -> np.ndarray:
    """(circuits x contexts x outcomes) counts from a dataset JSON object."""
    contexts = dataset["contexts"]
    return np.array([[entry["counts"][c] for c in contexts]
                     for entry in dataset["circuits"]], dtype=float)


def expected_plan(contexts: list[str]) -> list[tuple[str, tuple[str, ...]]]:
    """The comparisons ``--plan auto`` must produce for these contexts."""
    if len(contexts) == 2:
        return [(f"{contexts[0]}_vs_{contexts[1]}", tuple(contexts))]
    plan = [("joint", tuple(contexts))]
    plan.extend((f"{a}_vs_{b}", (a, b)) for a, b in combinations(contexts, 2))
    return plan


def check_dataset(dataset: dict, n_circuits: int, contexts: list[str],
                  shots: int) -> list[str]:
    problems = []
    if dataset.get("contexts") != contexts:
        problems.append(f"dataset contexts {dataset.get('contexts')!r} != {contexts!r}")
        return problems
    if len(dataset["circuits"]) != n_circuits:
        problems.append(f"dataset has {len(dataset['circuits'])} circuits, expected {n_circuits}")
    ids = [entry["id"] for entry in dataset["circuits"]]
    if len(set(ids)) != len(ids):
        problems.append("dataset repeats a circuit id")
    counts = count_array(dataset)
    if counts.ndim != 3 or counts.shape[2] != len(dataset["outcomes"]):
        problems.append(f"count array has shape {counts.shape}")
    elif np.any(counts < 0) or np.any(counts.sum(axis=2) != shots):
        problems.append(f"some pool is negative or does not sum to {shots} shots")
    return problems


def llr_statistics(counts: np.ndarray) -> np.ndarray:
    """Per-circuit statistic for a (circuits x contexts x outcomes) slice."""
    per_context = xlogx(counts).sum(axis=(1, 2)) - xlogx(counts.sum(axis=2)).sum(axis=1)
    pooled = xlogx(counts.sum(axis=1)).sum(axis=1) - xlogx(counts.sum(axis=(1, 2)))
    return np.maximum(2.0 * (per_context - pooled), 0.0)


def _close(a, b, rtol: float, atol: float = 0.0) -> bool:
    return bool(np.allclose(np.asarray(a, float), np.asarray(b, float), rtol=rtol, atol=atol))


def check_comparison(entry: dict, counts: np.ndarray, ids: list[str],
                     contexts: list[str]) -> list[str]:
    cid = entry["comparison_id"]
    lines = entry["circuits"]
    if [line["id"] for line in lines] != ids:
        return [f"{cid}: circuit list differs from the dataset"]
    index = [contexts.index(c) for c in entry["contexts"]]
    sub = counts[:, index, :]
    problems = []

    ours = llr_statistics(sub)
    llr = np.array([line["llr"] for line in lines])
    if not _close(llr, ours, STAT_RTOL, STAT_ATOL):
        worst = int(np.argmax(np.abs(llr - ours)))
        problems.append(f"{cid}: statistic of {ids[worst]!r} is {llr[worst]!r}, "
                        f"recomputed {ours[worst]!r}")
    n_total = sub.sum(axis=(1, 2))
    jsd = np.array([line["jsd"] for line in lines])
    if not _close(jsd, ours / (2.0 * n_total), STAT_RTOL, STAT_ATOL):
        problems.append(f"{cid}: jsd is not llr / (2 N)")

    agg = entry["aggregate"]
    if not _close(agg["llr"], ours.sum(), STAT_RTOL, STAT_ATOL * len(ids)):
        problems.append(f"{cid}: aggregate statistic {agg['llr']!r} != sum {ours.sum()!r}")
    dof = (len(index) - 1) * (sub.shape[2] - 1)
    if agg["k"] != dof * len(ids):
        problems.append(f"{cid}: aggregate k {agg['k']} != {dof * len(ids)}")

    p = np.array([line["p"] for line in lines])
    rejected = np.array([line["rejected"] for line in lines], dtype=bool)
    if not np.array_equal(rejected, p < entry["p_threshold"]):
        problems.append(f"{cid}: rejected set is not {{p < p_threshold}}")

    is_pair = len(index) == 2
    has_sstvd = np.array([line["sstvd"] is not None for line in lines])
    if not np.array_equal(has_sstvd, rejected & is_pair):
        problems.append(f"{cid}: sstvd is non-null outside the rejected circuits of a pair")
    if is_pair:
        freq = sub / sub.sum(axis=2, keepdims=True)
        tvd = 0.5 * np.abs(freq[:, 0, :] - freq[:, 1, :]).sum(axis=1)
        reported = np.array([line["tvd"] for line in lines], dtype=float)
        if not _close(reported, tvd, 1e-12, 1e-15):
            problems.append(f"{cid}: tvd differs from the recomputed value")
        elif any(line["sstvd"] != line["tvd"] for line, r in zip(lines, rejected) if r):
            problems.append(f"{cid}: sstvd of a rejected circuit is not its tvd")
    elif any(line["tvd"] is not None for line in lines):
        problems.append(f"{cid}: tvd reported for a comparison of more than two contexts")

    if entry["detected"] != (bool(agg["triggered"]) or bool(rejected.any())):
        problems.append(f"{cid}: detected flag disagrees with aggregate and rejections")
    return problems


def check_report(report: list, dataset: dict,
                 must_detect: tuple[str, ...] = ()) -> list[str]:
    contexts = dataset["contexts"]
    plan = expected_plan(contexts)
    got = [(entry["comparison_id"], tuple(entry["contexts"])) for entry in report]
    if got != plan:
        return [f"report comparisons {[g[0] for g in got]} != auto plan {[p[0] for p in plan]}"]
    counts = count_array(dataset)
    ids = [entry["id"] for entry in dataset["circuits"]]
    problems = []
    for entry in report:
        problems.extend(check_comparison(entry, counts, ids, contexts))
        if entry["comparison_id"] in must_detect and not entry["detected"]:
            problems.append(f"{entry['comparison_id']}: expected a detection")
    return problems


def check_tables(tables: Path, report: list, dataset: dict) -> list[str]:
    contexts = dataset["contexts"]
    problems = []
    with open(tables / "pairwise_matrix.csv", newline="") as handle:
        matrix = list(csv.reader(handle))
    if matrix[0] != ["context", *contexts] or len(matrix) != len(contexts) + 1:
        problems.append("pairwise_matrix.csv does not span the dataset contexts")
    core = [entry.get("core_length") for entry in dataset["circuits"]]
    for entry in report:
        path = tables / f"jsd_profile_{entry['comparison_id']}.csv"
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        body = rows[1:]
        if rows[0] != ["circuit_id", "core_length", "jsd", "jsd_threshold"]:
            problems.append(f"{path.name}: unexpected header")
            continue
        lines = entry["circuits"]
        if ([r[0] for r in body] != [line["id"] for line in lines]
                or [int(r[1]) for r in body] != core):
            problems.append(f"{path.name}: rows differ from the report")
            continue
        if not _close([float(r[2]) for r in body], [line["jsd"] for line in lines],
                      TABLE_RTOL, 1e-300):
            problems.append(f"{path.name}: jsd column differs from the report")
    expected = {"pairwise_matrix.csv"}
    expected.update(f"jsd_profile_{entry['comparison_id']}.csv" for entry in report)
    extra = {p.name for p in tables.iterdir()} - expected
    if extra:
        problems.append(f"unexpected table files {sorted(extra)}")
    return problems


def check_summary(text: str, report: list) -> list[str]:
    heads = [line for line in text.splitlines() if line.startswith("comparison ")]
    if len(heads) != len(report):
        return [f"summary has {len(heads)} comparisons, report has {len(report)}"]
    problems = []
    for head, entry in zip(heads, report):
        verdict = head.endswith(": context dependence detected")
        if not head.startswith(f"comparison {entry['comparison_id']} ") or verdict != entry["detected"]:
            problems.append(f"summary line {head!r} disagrees with the report")
    return problems


def load_json(path: Path):
    return json.loads(Path(path).read_text())
