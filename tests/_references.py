"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the defining formulas with
different algorithms than the library (entropy sums instead of the LLR
identity, counting instead of sorting, arbitrary precision instead of
series/continued fractions), so agreement is meaningful evidence.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import mpmath as mp
import numpy as np

from contextdep.chi2 import chi2_isf, chi2_sf
from contextdep.counts import (FORMAT_VERSION, STRINGS, ContextDataset, DatasetError,
                               _count_table, column, field, read_json)
from contextdep.qsim import _RUN, _Numbering, _sampling_distributions

# The gate labels circuit text may use, written out here rather than read
# from gstgen, so the file rules below stay an independent check.
GATE_LABELS = frozenset({"Gi", "Gx", "Gy", "Gh", "Gs"})


def chi2_sf_reference(x: float, k: int, dps: int = 60):
    """High-precision chi-squared survival function via mpmath's incomplete gamma."""
    with mp.workdps(dps):
        a = mp.mpf(k) / 2
        half_x = mp.mpf(x) / 2
        if half_x >= a:
            return mp.gammainc(a, half_x, mp.inf, regularized=True)
        return 1 - mp.gammainc(a, 0, half_x, regularized=True)


def log10_tail_magnitude(x: float, k: int) -> float:
    """Rough log10 size of the smaller chi-squared tail at x.

    Used to recognize points where the true value underflows IEEE doubles,
    so relative-error comparison is meaningless there.
    """
    a, hx = k / 2.0, x / 2.0
    if hx <= 0.0:
        return -math.inf
    return (a * math.log(hx) - hx - math.lgamma(a) - math.log(a)) / math.log(10.0)


def shannon_entropy(probs: Sequence[float]) -> float:
    """H(P) = -sum p log p, natural log, 0 log 0 = 0."""
    return -sum(p * math.log(p) for p in probs if p > 0.0)


def weighted_jsd_reference(pools: Sequence[Sequence[int]]) -> float:
    """Jensen-Shannon divergence of empirical distributions from counts.

    Context weights are shot-count fractions pi_c = N_c / N; the value is
    H(sum_c pi_c P_c) - sum_c pi_c H(P_c).
    """
    totals = [sum(row) for row in pools]
    grand = sum(totals)
    dists = [[x / n for x in row] for row, n in zip(pools, totals)]
    weights = [n / grand for n in totals]
    mixture = [
        sum(w * dist[m] for w, dist in zip(weights, dists))
        for m in range(len(pools[0]))
    ]
    return shannon_entropy(mixture) - sum(
        w * shannon_entropy(dist) for w, dist in zip(weights, dists)
    )


def hochberg_reference(pairs: Sequence[tuple[str, float]], alpha: float):
    """Step-up correction computed by counting rather than sorting.

    For each l, p_(l) <= alpha/(Q-l+1) holds iff at least l of the
    p-values are <= that cutoff; the largest such l fixes the threshold,
    and rejection is strict comparison against it.  Returns
    (rejected_ids, p_threshold).
    """
    q = len(pairs)
    l_max = 0
    for l in range(1, q + 1):
        cutoff = alpha / (q - l + 1)
        if sum(1 for _, p in pairs if p <= cutoff) >= l:
            l_max = l
    threshold = alpha / (q - l_max + 1) if l_max else alpha / q
    rejected = frozenset(cid for cid, p in pairs if p < threshold)
    return rejected, threshold


def combined_procedure_reference(pairs: Sequence[tuple[str, float]], alpha: float,
                                 aggregate_p: float):
    """The combined procedure's decision from its inputs, rule by rule.

    The aggregate triggers exactly when its p is strictly below alpha / 2;
    the step-up (hochberg_reference) then runs at alpha if it triggered
    and at alpha / 2 otherwise; detection is a trigger or any rejection.
    Returns (triggered, rejected_ids, p_threshold, detected).
    """
    triggered = aggregate_p < alpha / 2
    rejected, threshold = hochberg_reference(pairs, alpha if triggered else alpha / 2)
    return triggered, rejected, threshold, triggered or bool(rejected)


def hochberg_subsets_reference(pairs: Sequence[tuple[str, float]], alpha: float):
    """Step-up correction by brute force over every subset of hypotheses.

    A subset S is admissible when every member satisfies
    p <= alpha / (Q - |S| + 1); the size of the largest admissible subset
    plays the role of l_max, because the |S| smallest p-values then also
    form an admissible subset of the same size.  The threshold follows
    from that size and rejection is strict comparison against it.
    Exponential in Q, so only usable for short lists.  Returns
    (rejected_ids, p_threshold).
    """
    q = len(pairs)
    if q > 16:
        raise ValueError("exhaustive reference is exponential; keep Q small")
    best = 0
    for mask in range(1, 1 << q):
        size = mask.bit_count()
        cutoff = alpha / (q - size + 1)
        if all(pairs[i][1] <= cutoff for i in range(q) if mask >> i & 1):
            best = max(best, size)
    threshold = alpha / (q - best + 1) if best else alpha / q
    rejected = frozenset(cid for cid, p in pairs if p < threshold)
    return rejected, threshold


def llr_reference(pools: Sequence[Sequence[int]]) -> float:
    """LLR statistic via the JSD identity: lambda = 2 N JSD_weighted."""
    grand = sum(sum(row) for row in pools)
    return 2.0 * grand * weighted_jsd_reference(pools)


def llr_loop_reference(pools: Sequence[Sequence[int]]) -> float:
    """The statistic by the plain per-table loop, one term at a time.

    lambda = 2 sum_{c,m} x log1p((x N - N_c x_m) / (N_c x_m)), summed
    context by context and outcome by outcome, with the ratio's terms as
    exact Python-int products.  Where the rounded ratio is -1.0 (a count
    below 2**-53 of its expected share), the term is x (log(x N) -
    log(N_c x_m)) instead.  The array core must reproduce this bit for bit.
    """
    totals = [sum(row) for row in pools]
    n = sum(totals)
    pooled = [sum(row[m] for row in pools) for m in range(len(pools[0]))]
    half = 0.0
    for row, n_c in zip(pools, totals):
        for x, x_m in zip(row, pooled):
            if x > 0:
                den = n_c * x_m
                ratio = (x * n - den) / den
                if ratio == -1.0:
                    half += x * (math.log(x * n) - math.log(den))
                else:
                    half += x * math.log1p(ratio)
    return max(0.0, 2.0 * half)


def tvd_loop_reference(first: Sequence[int], second: Sequence[int]) -> float:
    n1, n2 = sum(first), sum(second)
    return 0.5 * sum(abs(a / n1 - b / n2) for a, b in zip(first, second))


def one_table(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """One C-by-M table of counts, a row per context, as the (1, C, M)
    object stack of Python ints that llr_statistics, llr_tests and
    tvd_rows take."""
    return np.array([[tuple(row) for row in rows]], dtype=object)


def comparison_rows_reference(dataset, contexts: Sequence[str]):
    """One comparison's per-circuit quantities, record by record.

    Circuits lacking a context are skipped with a warning.  Returns (rows,
    warnings); each row is a dict with circuit_id, llr, dof, n_total, jsd,
    tvd (pairs only, else None) and small_sample (a pool below 10 shots
    per outcome).
    """
    rows, warnings = [], []
    for record in dataset.circuits:
        missing = [c for c in contexts if c not in record.counts]
        if missing:
            warnings.append(
                f"circuit {record.circuit_id!r}: missing context(s) "
                f"{', '.join(repr(m) for m in missing)}; skipped"
            )
            continue
        pools = [record.counts[c] for c in contexts]
        n_outcomes = len(pools[0])
        statistic = llr_loop_reference(pools)
        n_total = sum(sum(pool) for pool in pools)
        rows.append({
            "circuit_id": record.circuit_id,
            "llr": statistic,
            "dof": (len(contexts) - 1) * (n_outcomes - 1),
            "n_total": n_total,
            "jsd": statistic / (2.0 * n_total),
            "tvd": tvd_loop_reference(*pools) if len(contexts) == 2 else None,
            "small_sample": any(sum(pool) < 10 * n_outcomes for pool in pools),
        })
    return rows, warnings


def bonferroni(p_values: Sequence[tuple[str, float]], alpha: float):
    """Plain equal-split Bonferroni correction: reject p < alpha / Q.

    Hochberg's step-up must reject at least these.  Returns
    (rejected_ids, p_threshold).
    """
    p_threshold = alpha / len(p_values)
    return frozenset(cid for cid, p in p_values if p < p_threshold), p_threshold


def circuit_probabilities_reference(gates: Sequence[str], gate_model) -> np.ndarray:
    """Outcome probabilities of one circuit by the plain per-circuit product.

    The total unitary starts from the identity and takes each maximal run
    of equal gates in operation order, left-multiplied as one block; a run
    of r > 1 gates is np.linalg.matrix_power(U, r).  The shared-prefix walk
    in qsim must reproduce this bit for bit.
    """
    total = np.eye(2, dtype=complex)
    i = 0
    while i < len(gates):
        j = i
        while j < len(gates) and gates[j] == gates[i]:
            j += 1
        block = gate_model[gates[i]]
        if j - i > 1:
            block = np.linalg.matrix_power(block, j - i)
        total = block @ total
        i = j
    return np.abs(total[:, 0]) ** 2


def _common_prefix(a: str, b: str) -> int:
    """Length of the longest common prefix of two strings, by bisection."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if b.startswith(a[lo:mid], lo):
            lo = mid
        else:
            hi = mid - 1
    return lo


def run_trie_reference(words: Sequence[str]) -> tuple[list[int], list[int], list[int], list[int], dict]:
    """The runs of every word as a trie, built without arithmetic.

    qsim._run_trie as it was while the previous word's path was held as
    two lists with one entry per node (path and ends), and the node lists
    grew by list extends; the library must return the same nodes.

    In sorted order, a word shares the runs of its common prefix with the
    previous word, cut back to whole labels (GxGy and GxGyy share only Gx)
    and whole runs (GxGx then Gy does not start the run Gx^3).  Each
    further run is a node.  The unshared suffix starts on a run boundary
    and _RUN looks at nothing before it, so its runs depend on its text
    alone: the regular expression reads each distinct suffix once per
    call, and a repeat extends the lists from the stored run numbers and
    run ends relative to its start, in C-level extends.  About 84% of the
    nodes are such repeats: 4,932 of 5,836 (146 distinct suffixes, 1,405
    words) on the bundled drift design, 32,307 of 38,650 (209, 2,017) with
    its germ powers to 2048.  Returns each node's parent, run number and
    depth (node 0 is the root, the identity), each word's last node, and
    the run numbering, keyed by (run text, label).
    """
    run_ids = _Numbering()
    parents, runs, depths = [0], [0], [0]
    leaves = [0] * len(words)
    # The previous word's trie path: node ids, and the word position at
    # which each node's run ends.
    path, ends = [0], [0]
    # Each unshared suffix's run numbers and run-end offsets from its start.
    tokens: dict[str, tuple[list[int], list[int]]] = {}
    previous = ""
    for index in sorted(range(len(words)), key=words.__getitem__):
        word = words[index]
        shared = _common_prefix(previous, word)
        if ((shared < len(word) and word[shared] != "G")
                or (shared < len(previous) and previous[shared] != "G")):
            shared = word.rfind("G", 0, shared)
        # Keep the runs that end within the shared prefix; the run ending
        # at its end only if that run does not go on in this word.
        label = word[word.rfind("G", 0, shared):shared] if shared > 0 else ""
        after = shared + len(label)
        goes_on = bool(label) and word.startswith(label, shared) and (
            after == len(word) or word[after] == "G")
        keep = (bisect_left if goes_on else bisect_right)(ends, shared)
        start = ends[keep - 1]
        suffix = word[start:]
        cached = tokens.get(suffix)
        if cached is None:
            found = _RUN.findall(suffix)
            cached = tokens[suffix] = (list(map(run_ids.__getitem__, found)),
                                       list(accumulate(map(len, map(itemgetter(0), found)))))
        numbers, offsets = cached
        first = len(parents)
        if numbers:
            parents.append(path[keep - 1])
            parents.extend(range(first, first + len(numbers) - 1))
            runs.extend(numbers)
            depths.extend(range(keep, keep + len(numbers)))
        path[keep:] = range(first, first + len(numbers))
        ends[keep:] = map(start.__add__, offsets)
        leaves[index] = path[-1]
        previous = word
    return parents, runs, depths, leaves, run_ids


def lsgst_circuits_reference(design) -> list[tuple[str, int]]:
    """The long-sequence list as (text, core_length), built on label tuples.

    The generator as it was before circuits were held as text: every
    circuit is a tuple of gate labels, deduplicated by tuple equality, in
    the order LGST forms (fiducials, F_p F_m, F_p G F_m) then germ powers
    (ascending L, germs, preps, meas); a circuit first reached by a germ
    block keeps that L.
    """
    preps, meas = design.prep_fiducials, design.meas_fiducials
    circuits: list[tuple[str, ...]] = []
    cores: dict[tuple[str, ...], int] = {}

    def add(gates, core):
        if gates not in cores:
            circuits.append(gates)
            cores[gates] = core
        elif cores[gates] == 0:
            cores[gates] = core

    for fiducial in preps + meas:
        add(fiducial, 0)
    for prep in preps:
        for m in meas:
            add(prep + m, 0)
    for prep in preps:
        for gate in design.gates:
            for m in meas:
                add(prep + (gate,) + m, 0)
    for target in design.germ_powers:
        for germ in design.germs:
            reps = target // len(germ)
            if reps < 1:
                continue
            for prep in preps:
                for m in meas:
                    add(prep + germ * reps + m, target)
    return [("".join(gates) or "{}", cores[gates]) for gates in circuits]


def dataset_to_json(dataset) -> dict:
    """Plain-dict form of a dataset, key order fixed for stable files.

    json.dumps(dataset_to_json(ds), indent=2) + "\n" is the byte oracle of
    counts.save_dataset.
    """
    obj: dict = {"format_version": "1.0"}
    if dataset.description is not None:
        obj["description"] = dataset.description
    obj["outcomes"] = list(dataset.outcomes)
    obj["contexts"] = list(dataset.contexts)
    circuits = []
    for record in dataset.circuits:
        entry: dict = {"id": record.circuit_id}
        if record.spec is not None:
            entry["spec"] = record.spec
        if record.core_length is not None:
            entry["core_length"] = record.core_length
        entry["counts"] = {c: list(record.counts[c]) for c in record.contexts}
        circuits.append(entry)
    obj["circuits"] = circuits
    return obj


def dataset_from_records(outcomes, contexts, records, **header) -> ContextDataset:
    """A dataset whose rows are the given CircuitRecords, pools placed by label.

    The columns are filled record by record; the dataset's own check then
    runs, so a record's pool must name a dataset context and have one
    entry per outcome.
    """
    counts = np.full((len(records), len(contexts), len(outcomes)), 0, dtype=object)
    present = np.zeros(counts.shape[:2], dtype=bool)
    for i, record in enumerate(records):
        for context, pool in record.counts.items():
            k = list(contexts).index(context)
            counts[i, k], present[i, k] = pool, True
    return ContextDataset(outcomes=tuple(outcomes), contexts=tuple(contexts),
                          circuit_ids=tuple(r.circuit_id for r in records), counts=counts,
                          present=present, specs=tuple(r.spec for r in records),
                          core_lengths=tuple(r.core_length for r in records), **header)


def load_dataset_reference(path) -> ContextDataset:
    """counts.load_dataset as one loop over the circuit entries.

    Each entry's counts field and each of its pools is checked where it is
    read, with a location string built per circuit, and each pool is put in
    its context's slot as it is checked.  The oracle of the column-pass
    loader: the same dataset from a valid file, the same DatasetError from
    a faulty one, its message the file's path and then the fault.
    """
    path = Path(path)
    try:
        return _dataset_from_entries(read_json(path, (dict,)))
    except ValueError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _dataset_from_entries(raw: dict) -> ContextDataset:
    version = field(raw, "format_version", (str,))
    if version != FORMAT_VERSION:
        raise DatasetError(f"unsupported format_version {version!r}")
    outcomes = tuple(field(raw, "outcomes", STRINGS))
    contexts = tuple(field(raw, "contexts", STRINGS))
    entries = field(raw, "circuits", ((list, (dict,)),))
    ids = column(entries, "id", (str,), "circuit entry")

    column_of = {context: k for k, context in enumerate(contexts)}
    zero = [0] * len(outcomes)
    pools, present = [], []
    for circuit_id, entry in zip(ids, entries):
        where = f"circuit {circuit_id!r}"
        counts = field(entry, "counts", (dict,), where)
        row = [zero] * len(contexts)
        for context in counts:
            values = field(counts, context, (list,), where + " counts")
            if context not in column_of:
                raise DatasetError(f"{where}: unknown context {context!r}")
            if len(values) != len(outcomes):
                raise DatasetError(f"{where}: pools have {len(values)} entries "
                                   f"but the dataset declares {len(outcomes)} outcomes")
            row[column_of[context]] = values
        pools += row
        present.append([context in counts for context in contexts])

    shape = (len(ids), len(contexts), len(outcomes))
    return ContextDataset(outcomes, contexts, tuple(ids), _count_table(pools, shape),
                          np.array(present, dtype=bool).reshape(shape[:2]),
                          tuple(entry.get("spec") for entry in entries),
                          tuple(entry.get("core_length") for entry in entries),
                          raw.get("description"))


def sample_counts(probs: Sequence[float], n_shots: int, rng: np.random.Generator):
    """One multinomial draw of n_shots from an outcome distribution."""
    if n_shots < 1:
        raise ValueError("n_shots must be at least 1")
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise ValueError("need a 1-d probability vector with at least two outcomes")
    return tuple(rng.multinomial(n_shots, _sampling_distributions(probs)).tolist())


def save_report_reference(reports, path) -> None:
    """A report file as json.dumps(indent=2) of one dict per circuit row."""
    payload = [
        {
            "comparison_id": report.comparison_id,
            "contexts": list(report.contexts),
            "alpha_local": report.alpha_local,
            "aggregate": {
                "llr": report.aggregate.llr,
                "k": report.aggregate.dof,
                "p": report.aggregate.p_value,
                "n_sigma": report.aggregate.n_sigma,
                "n_sigma_threshold": report.n_sigma_threshold,
                "triggered": report.aggregate_triggered,
            },
            "p_threshold": report.p_threshold,
            "llr_threshold": report.llr_threshold,
            "detected": report.detected,
            "warnings": list(report.warnings),
            "circuits": [
                {
                    "id": line.circuit_id,
                    "llr": line.llr,
                    "p": line.p_value,
                    "jsd": line.jsd,
                    "jsd_threshold": line.jsd_threshold,
                    "tvd": line.tvd,
                    "sstvd": line.sstvd,
                    "sstvd_per_gate": line.sstvd_per_gate,
                    "rejected": line.rejected,
                    "small_sample": line.small_sample,
                }
                for line in report.circuits
            ],
        }
        for report in reports
    ]
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def write_jsd_profile_csv_reference(rows, path) -> None:
    """A JSD profile table written row by row through csv.writer."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["circuit_id", "core_length", "jsd", "jsd_threshold"])
        for circuit_id, core, jsd, threshold in rows:
            writer.writerow([circuit_id, core, format(jsd, ".10g"), format(threshold, ".10g")])


def dataset_file_is_valid(obj) -> bool:
    """Whether parsed JSON obeys the dataset file rules, written from the README.

    The loader must accept exactly these files.  A null spec, core_length
    or description counts as absent.
    """
    def labels(value):
        return (isinstance(value, list) and all(isinstance(label, str) for label in value)
                and len(value) >= 2 and len(set(value)) == len(value))

    def count(value):
        return type(value) is int and value >= 0

    if not isinstance(obj, dict) or obj.get("format_version") != "1.0":
        return False
    if not (labels(obj.get("outcomes")) and labels(obj.get("contexts"))):
        return False
    if not isinstance(obj.get("description", ""), (str, type(None))):
        return False
    entries = obj.get("circuits")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        return False
    ids = [entry.get("id") for entry in entries]
    if not all(isinstance(i, str) and i for i in ids) or len(set(ids)) != len(ids):
        return False
    for entry in entries:
        pools = entry.get("counts")
        if not isinstance(pools, dict) or not pools:
            return False
        for context, pool in pools.items():
            if (context not in obj["contexts"] or not isinstance(pool, list)
                    or len(pool) != len(obj["outcomes"]) or not all(map(count, pool))
                    or sum(pool) == 0):
                return False
        if not isinstance(entry.get("spec", ""), (str, type(None))):
            return False
        if entry.get("core_length") is not None and not count(entry["core_length"]):
            return False
    return True


def _number(value) -> bool:
    # A JSON number, not a boolean, that a float holds: NaN fails both bounds.
    return type(value) in (int, float) and -sys.float_info.max <= value <= sys.float_info.max


def error_model_file_is_valid(obj) -> bool:
    """Whether parsed JSON obeys the error-model file rules, written from the README.

    The loader must accept exactly these files.
    """
    if not isinstance(obj, dict) or not _number(obj.get("static_epsilon", 0.0)):
        return False
    models = [value for key, value in obj.items() if key != "static_epsilon"]
    return bool(models) and all(
        isinstance(model, dict) and all(gate in ("Gx", "Gy") and _number(angle)
                                        for gate, angle in model.items())
        for model in models)


def plan_file_is_valid(obj) -> bool:
    """Whether parsed JSON obeys the plan file rules, written from the README.

    The loader must accept exactly these files.  A null id or weight
    counts as absent.
    """
    entries = obj.get("comparisons") if isinstance(obj, dict) else None
    if not isinstance(entries, list) or not entries:
        return False
    if not all(isinstance(entry, dict) for entry in entries):
        return False
    ids, weights = [], []
    for entry in entries:
        contexts = entry.get("contexts")
        if (not isinstance(contexts, list) or len(contexts) < 2
                or not all(isinstance(c, str) for c in contexts)
                or len(set(contexts)) != len(contexts)):
            return False
        name = entry.get("id")
        if name is None:
            name = "_vs_".join(contexts)
        weight = entry.get("weight")
        if not isinstance(name, str) or not (weight is None or _number(weight)
                                             and 0 < weight <= 1):
            return False
        ids.append(name)
        weights.append(weight)
    if len(set(ids)) != len(ids):
        return False
    if all(w is None for w in weights):
        return True
    return None not in weights and abs(math.fsum(weights) - 1.0) <= 1e-12


def _circuit_text(text) -> bool:
    # "{}", or known gate labels written one after another, each 'G' plus a
    # G-free suffix.
    labels = re.findall("G[^G]*", text) if isinstance(text, str) else []
    return text == "{}" or (bool(labels) and "".join(labels) == text
                            and set(labels) <= GATE_LABELS)


def design_file_is_valid(obj) -> bool:
    """Whether parsed JSON obeys the design file rules, written from the README.

    The loader must accept exactly these files.  The gate set is a
    non-empty array of distinct known labels.  Fiducial lists are
    non-empty; a fiducial or germ is circuit text or an array of
    known labels, and a germ has at least one gate.  max_germ_power,
    absent or null for none, is a power of two no larger than 2**16.
    """
    def circuit(value):
        if isinstance(value, list):
            return all(isinstance(label, str) and label in GATE_LABELS
                       for label in value)
        return _circuit_text(value)

    def circuits(value, empty_ok):
        return isinstance(value, list) and (empty_ok or bool(value)) and all(map(circuit, value))

    if not isinstance(obj, dict):
        return False
    gates = obj.get("gates")
    if not (isinstance(gates, list) and gates and circuit(gates)
            and len(set(gates)) == len(gates)):
        return False
    germs = obj.get("germs", [])
    if not (circuits(obj.get("prep_fiducials"), False)
            and circuits(obj.get("meas_fiducials"), False)
            and circuits(germs, True) and "{}" not in germs and [] not in germs):
        return False
    power = obj.get("max_germ_power")
    return power is None or (type(power) is int and 1 <= power <= 2 ** 16
                             and power & (power - 1) == 0)


def report_derived_values(entry):
    """What a report entry derives from its rows, alpha_local and k, by
    the README's rules, as two dicts: the aggregate's llr (the rows' llr
    added in order from 0.0), p, n_sigma, n_sigma_threshold and triggered,
    and the entry's p_threshold, llr_threshold and detected.  A row is
    rejected exactly when its p is below p_threshold.  Where
    contextdep.chi2 has no value (a k too large for it), its error
    propagates.
    """
    aggregate, alpha, rows = entry["aggregate"], float(entry["alpha_local"]), entry["circuits"]
    k = aggregate["k"]
    llr = 0.0
    for row in rows:
        llr += float(row["llr"])
    p = chi2_sf(llr, k)
    triggered, _, threshold, detected = combined_procedure_reference(
        [(row["id"], float(row["p"])) for row in rows], alpha, p)
    return ({"llr": llr, "p": p, "n_sigma": (llr - k) / math.sqrt(2.0 * k),
             "n_sigma_threshold": (chi2_isf(alpha / 2, k) - k) / math.sqrt(2.0 * k),
             "triggered": triggered},
            {"p_threshold": threshold, "llr_threshold": chi2_isf(threshold, k // len(rows)),
             "detected": detected})


def report_file_is_valid(obj) -> bool:
    """Whether parsed JSON obeys the report file rules, written from the README.

    The loader must accept exactly these files: a non-empty list of
    comparisons with distinct `comparison_id`s, each with every field.  A
    comparison has at least one row, its contexts and its rows' ids are
    distinct, and `k` is a positive multiple of rows x (contexts - 1), so
    it has two or more contexts; a row's `tvd` is a number exactly when the
    comparison has two contexts, and null otherwise.
    A per-circuit number, `alpha_local` and the aggregate's `llr` and `k`
    are held as floats, so an integer there must lie within float range, and
    a float must be finite: RFC 8259 has no NaN or infinity.  The
    decision's inputs have a domain: `alpha_local` lies in (0, 1),
    alpha_local / 2 / rows does not underflow to 0, and every row's p lies
    in [0, 1] (NaN does not).  The header follows from the rows
    (report_derived_values), and the rows' llr sum to a finite number >= 0.
    Where contextdep.chi2 has no value for the header (a k too large for
    it), the file is invalid.
    The stated llr, p, n_sigma, n_sigma_threshold, triggered, p_threshold
    and llr_threshold are those values (the same float; a null
    llr_threshold is not).  A row is rejected exactly when its p is below
    p_threshold; its sstvd is the row's tvd (the same float) where the row
    is rejected and has one, and null elsewhere; sstvd_per_gate is null
    where that sstvd is; detected is whether the aggregate triggered or
    some row is rejected.
    """
    def number(value):
        return type(value) in (int, float)

    def column_number(value):
        # A finite float: json reads the token NaN as a NaN, and 1e400 as an infinity.
        return (type(value) is float and math.isfinite(value)
                or type(value) is int and abs(value) <= sys.float_info.max)

    def strings(value):
        return isinstance(value, list) and all(isinstance(item, str) for item in value)

    def row_is_valid(row):
        return (isinstance(row, dict) and isinstance(row.get("id"), str)
                and all(key in row and column_number(row[key])
                        for key in ("llr", "p", "jsd", "jsd_threshold"))
                and all(key in row and (row[key] is None or column_number(row[key]))
                        for key in ("tvd", "sstvd", "sstvd_per_gate"))
                and type(row.get("rejected")) is bool
                and type(row.get("small_sample")) is bool)

    def same_float(a, b):
        # repr tells -0.0 from 0.0 and writes every NaN alike.
        return None is a is b or None not in (a, b) and repr(float(a)) == repr(float(b))

    def stated(obj, key, value):
        return key in obj and column_number(obj[key]) and same_float(obj[key], value)

    def derived_values_hold(entry):
        alpha, rows = float(entry["alpha_local"]), entry["circuits"]
        try:
            aggregate, header = report_derived_values(entry)
        # chi2 has no value for a k this large (it fails to converge, divides
        # by zero, or finds no bracket), nor for some inputs the domain
        # check below refuses.
        except (RuntimeError, ArithmeticError, ValueError):
            return False
        if not (0.0 < alpha < 1.0 and alpha / 2 / len(rows) > 0.0
                and 0.0 <= aggregate["llr"] < math.inf
                and all(0.0 <= float(row["p"]) <= 1.0 for row in rows)):
            return False
        triggered, threshold = aggregate.pop("triggered"), header["p_threshold"]
        if not (all(stated(entry["aggregate"], key, value) for key, value in aggregate.items())
                and entry["aggregate"]["triggered"] is triggered
                and entry["llr_threshold"] is not None
                and stated(entry, "p_threshold", threshold)
                and stated(entry, "llr_threshold", header["llr_threshold"])):
            return False
        for row in rows:
            rejected = float(row["p"]) < threshold
            sstvd = row["tvd"] if rejected else None
            if (row["rejected"] is not rejected or not same_float(row["sstvd"], sstvd)
                    or sstvd is None and row["sstvd_per_gate"] is not None):
                return False
        return entry["detected"] is header["detected"]

    def shape_holds(n_rows, contexts, k, tvds):
        unit = n_rows * (len(contexts) - 1)
        return (unit >= 1 and k >= 1 and k % unit == 0 and len(set(contexts)) == len(contexts)
                and tvds.count(None) == (0 if len(contexts) == 2 else n_rows))

    def entry_is_valid(entry):
        if not isinstance(entry, dict):
            return False
        aggregate, rows = entry.get("aggregate"), entry.get("circuits")
        return (isinstance(aggregate, dict) and isinstance(rows, list) and len(rows) > 0
                and all(map(row_is_valid, rows))
                and isinstance(entry.get("comparison_id"), str)
                and strings(entry.get("contexts")) and strings(entry.get("warnings"))
                and column_number(entry.get("alpha_local"))
                and number(entry.get("p_threshold"))
                and "llr_threshold" in entry
                and (entry["llr_threshold"] is None or number(entry["llr_threshold"]))
                and column_number(aggregate.get("llr"))
                and all(number(aggregate.get(key)) for key in ("p", "n_sigma", "n_sigma_threshold"))
                and type(aggregate.get("k")) is int and column_number(aggregate["k"])
                and len({row["id"] for row in rows}) == len(rows)
                and shape_holds(len(rows), entry["contexts"], aggregate["k"],
                                [row["tvd"] for row in rows])
                and type(aggregate.get("triggered")) is bool
                and type(entry.get("detected")) is bool
                and derived_values_hold(entry))

    return (isinstance(obj, list) and len(obj) > 0 and all(map(entry_is_valid, obj))
            and len({entry["comparison_id"] for entry in obj}) == len(obj))


def write_pairwise_csv_reference(matrices, path) -> None:
    """A pairwise matrix table written row by row through csv.writer."""
    def cell(value):
        if value is None:
            return ""
        return str(value) if isinstance(value, int) else format(value, ".10g")

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["context", *matrices.contexts])
        for i, context in enumerate(matrices.contexts):
            writer.writerow([context, *(
                cell(matrices.n_sigma[i][j]) if j > i else
                cell(matrices.rejected_counts[i][j]) if j < i else ""
                for j in range(len(matrices.contexts)))])
