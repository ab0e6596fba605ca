"""End-to-end acceptance checks, one test (one pass/fail line) per criterion.

These pin the package's headline behaviors: the worked single-circuit
examples, circuit-list sizes, the drift-experiment reproduction, error-rate
control, calibration, oracle equivalences, and byte-level determinism.
"""

import functools
import math
from itertools import combinations_with_replacement

import mpmath as mp
import numpy as np
import pytest

from contextdep.chi2 import chi2_isf, chi2_sf
from contextdep.cli import main
from contextdep.datasets import (data_path, drift_design, drift_error_model,
                                 neighbor_design, neighbor_example,
                                 two_context_example)
from contextdep.divergence import jsd_from_llr, tvd_rows
from contextdep.gstgen import lgst_circuits, lsgst_circuits
from contextdep.llr import TableTests, llr_statistics, llr_tests
from contextdep.multitest import combined_procedure, hochberg
from contextdep.pipeline import run_analysis
from contextdep.qsim import (ErrorModel, SimConfig, experiment_probabilities,
                             sample_experiment)

from _references import (chi2_sf_reference,
                         hochberg_subsets_reference, log10_tail_magnitude, one_table,
                         weighted_jsd_reference)


def test_criterion_1_single_circuit_detection_example():
    """Counts (99,101) vs (131,69): statistic 10.52 +/- 0.01, p near 0.1%."""
    report = run_analysis(two_context_example())[0]
    assert abs(report.llr[0] - 10.52) <= 0.01
    assert 1.0e-3 <= report.p_value[0] <= 1.3e-3


def test_criterion_2_single_circuit_null_example():
    """Counts (108,92) vs (107,93): p near 92%, clearly not a detection."""
    tests = llr_tests(one_table([(108, 92), (107, 93)]))
    assert 0.90 <= tests.p_value[0] <= 0.94


def test_criterion_3_circuit_generation_counts():
    """Bundled designs: 40 unique short circuits; 1405 unique long ones."""
    short = lgst_circuits(neighbor_design())
    assert len(short) == 40
    assert len({c.gates for c in short}) == 40
    assert max(c.length for c in short) <= 7

    long_list = lsgst_circuits(drift_design())
    assert len(long_list) == 1405
    assert len({c.gates for c in long_list}) == 1405


def test_criterion_4_tvd_and_max_sstvd():
    """Pools (1022,2) vs (738,286) out of 1024: TVD exactly 284/1024."""
    record = neighbor_example().circuit("GhGsGsGsGsGh")
    tvd = tvd_rows(one_table([record.pool("idle"), record.pool("driven")]))[0]
    assert tvd == 0.27734375

    report = run_analysis(neighbor_example(), alpha=0.05)[0]
    assert report.detected
    assert report.max_sstvd == 0.27734375
    assert abs(report.max_sstvd - 0.277) <= 0.005


@functools.lru_cache(maxsize=1)
def _drift_runs():
    """Ten seeded drift experiments, analyzed with the default plan.

    1405 circuits, 5 drifting contexts, 100 shots per circuit per context,
    over-rotation growing by 1e-3 rad per period, alpha = 0.05 split over
    the joint comparison plus all 10 pairs.  The outcome-probability table
    is shared across seeds; only the sampling differs.
    """
    design = drift_design()
    error = drift_error_model()
    contexts = error.contexts
    circuits = lsgst_circuits(design)
    table = experiment_probabilities(circuits, error, contexts)
    runs = []
    for seed in range(10):
        config = SimConfig(shots_per_context=100, seed=seed, contexts=contexts)
        dataset = sample_experiment(circuits, table, config)
        reports = {r.comparison_id: r for r in run_analysis(dataset, alpha=0.05)}
        runs.append(reports)
    return runs


def test_criterion_5_drift_experiment_reproduction():
    """Slow coherent drift is detected with the documented strength pattern.

    (i) the joint N_sigma threshold is 2.9 +/- 0.1; (ii) the joint
    comparison reads N_sigma >= 10; (iii) the widest separation reads
    N_sigma >= 20; (iv) non-adjacent periods are detected and mean N_sigma
    grows with period separation; (v) adjacent periods are rarely
    detected.
    """
    runs = _drift_runs()

    threshold = runs[0]["joint"].n_sigma_threshold
    assert abs(threshold - 2.9) <= 0.1
    assert runs[0]["joint"].aggregate.dof == 5620

    joint_sigmas = [r["joint"].aggregate.n_sigma for r in runs]
    assert min(joint_sigmas) >= 10.0

    widest = [r["t1_vs_t5"].aggregate.n_sigma for r in runs]
    assert min(widest) >= 20.0

    separation = lambda ids: abs(int(ids[1][1]) - int(ids[0][1]))
    by_separation = {1: [], 2: [], 3: [], 4: []}
    nonadjacent_detections = 0
    adjacent_detection_seeds = 0
    for reports in runs:
        seed_has_adjacent = False
        seed_has_nonadjacent = False
        for comparison_id, report in reports.items():
            if comparison_id == "joint":
                continue
            gap = separation(report.contexts)
            by_separation[gap].append(report.aggregate.n_sigma)
            if report.detected:
                if gap == 1:
                    seed_has_adjacent = True
                else:
                    seed_has_nonadjacent = True
        adjacent_detection_seeds += seed_has_adjacent
        nonadjacent_detections += seed_has_nonadjacent

    assert nonadjacent_detections >= 1
    means = [float(np.mean(by_separation[gap])) for gap in (1, 2, 3, 4)]
    assert all(a <= b for a, b in zip(means, means[1:])), means
    assert adjacent_detection_seeds < 5


def test_criterion_6_family_wise_error_control():
    """2000 null experiments on 100 circuits: detection rate <= 0.065.

    Both contexts share the same static miscalibration, so any detection
    is false; the combined procedure at alpha = 0.05 must keep the
    family-wise rate within 1.5 points of alpha.
    """
    circuits = lsgst_circuits(drift_design())[:100]
    error = ErrorModel(context_overrotations={"a": {}, "b": {}},
                       static_epsilon=1e-3)
    table = experiment_probabilities(circuits, error, ("a", "b"))
    probs = np.array([row[0] for row in table])

    def xlogx(v):
        out = np.zeros_like(v, dtype=float)
        mask = v > 0
        out[mask] = v[mask] * np.log(v[mask])
        return out

    rng = np.random.default_rng(314159)
    n_shots, trials = 100, 2000
    log_n = math.log(n_shots)
    log_2n = math.log(2 * n_shots)
    false_hits = 0
    for _ in range(trials):
        a = rng.multinomial(n_shots, probs)
        b = rng.multinomial(n_shots, probs)
        pooled = a + b
        lam = 2.0 * (xlogx(a).sum(1) + xlogx(b).sum(1) - 2 * n_shots * log_n
                     - xlogx(pooled).sum(1) + 2 * n_shots * log_2n)
        lam = np.maximum(lam, 0.0)
        results = TableTests(llr=lam, dof=1,
                             p_value=np.array([chi2_sf(float(l), 1) for l in lam]),
                             n_total=np.full(len(lam), 2 * n_shots),
                             small_sample=np.zeros(len(lam), dtype=bool))
        ids = [f"q{i}" for i in range(len(lam))]
        outcome = combined_procedure(results, ids, alpha=0.05)
        false_hits += outcome.detected
    rate = false_hits / trials
    assert rate <= 0.065, f"false-detection rate {rate:.4f}"


def test_criterion_7_wilks_calibration_two_outcomes():
    """The chi-squared (k=1) p-value gives level-alpha tests of size ~alpha.

    Two contexts, two outcomes, N_c = 500 shots each, outcome probability
    1/2.  The null size P(p-value <= alpha) is computed exactly, by summing
    the Binomial(500, 1/2) weights of every table (a, b) of first-outcome
    counts, so the check has no random draws.

    Calibration is judged by test size rather than by a KS distance over
    the whole CDF because the statistic lives on a lattice: it is close to
    a function of |a - b|, whose standard deviation is only
    sigma_d = sqrt(2 N_c p (1 - p)) ~ 15.8.  Its null law is a staircase
    with an atom of sum_k b(k)^2 ~ 0.025 at zero (the two pools agree), so
    its exact KS distance from the continuous chi-squared law is 0.025
    however well the tail is calibrated.  The rejection region can likewise
    only grow by whole lattice steps of |a - b|, so the size may miss alpha
    by up to one step's probability, 2 phi(z_alpha) / sigma_d, with z_alpha
    the two-sided normal quantile.
    """
    n_shots, p = 500, 0.5
    weights = [math.comb(n_shots, k) * p**k * (1 - p) ** (n_shots - k)
               for k in range(n_shots + 1)]
    tables, neglected = [], []
    for a, w_a in enumerate(weights):
        for b, w_b in enumerate(weights):
            w = w_a * w_b
            (tables if w > 1e-20 else neglected).append((a, b, w))
    assert math.fsum(w for _, _, w in neglected) < 1e-12

    lam = llr_statistics(np.array([[(a, n_shots - a), (b, n_shots - b)]
                                   for a, b, _ in tables], dtype=object)).tolist()
    p_values = [chi2_sf(x, 1) for x in lam]

    # The statistic vanishes exactly on the agreeing tables a == b, and
    # only there.
    zero_mass = math.fsum(w for (_, _, w), x in zip(tables, lam) if x == 0.0)
    assert zero_mass == pytest.approx(math.fsum(w * w for w in weights), abs=1e-12)

    sigma_d = math.sqrt(2 * n_shots * p * (1 - p))
    for alpha in (0.1, 0.05, 0.01, 0.001):
        size = math.fsum(w for (_, _, w), pv in zip(tables, p_values) if pv <= alpha)
        z_alpha = mp.sqrt(2) * mp.erfinv(1 - alpha)
        step = 2 * float(mp.npdf(z_alpha)) / sigma_d
        assert abs(size / alpha - 1) <= step / alpha, (
            f"alpha={alpha}: exact size {size:.5g} is {size / alpha:.3f} alpha, "
            f"beyond one lattice step ({step / alpha:.3f} alpha)")


def _check_jsd_oracle():
    rng = np.random.default_rng(271828)
    worst = 0.0
    for _ in range(1000):
        n_contexts = int(rng.integers(2, 5))
        n_outcomes = int(rng.integers(2, 5))
        rows = []
        for _ in range(n_contexts):
            row = rng.integers(0, 401, size=n_outcomes)
            while row.sum() == 0:
                row = rng.integers(0, 401, size=n_outcomes)
            rows.append(tuple(int(v) for v in row))
        tests = llr_tests(one_table(rows))
        jsd = jsd_from_llr(tests.llr, tests.n_total)[0]
        worst = max(worst, abs(jsd - weighted_jsd_reference(rows)))
    assert worst <= 1e-10, f"worst JSD disagreement {worst}"


def _check_hochberg_oracle():
    """Exhaustive agreement with the all-subsets reference at alpha 0.05.

    Lengths 1-3 are checked over every multiset from the full 0.01 grid
    (the procedure is order-independent, so multisets cover all lists).
    For lengths 4 and 5 every grid value above alpha is interchangeable:
    it can never satisfy a step-up condition (all cutoffs are <= alpha)
    and can never be rejected (the threshold is <= alpha), so checking
    every multiset over {0.00, ..., 0.05} plus one representative above
    alpha covers every length-4/5 grid list as well.  Random full-grid
    lists are thrown in on top.
    """
    alpha = 0.05
    grid = [n / 100 for n in range(101)]

    def agree(p_values):
        pairs = [(f"q{i}", p) for i, p in enumerate(p_values)]
        outcome = hochberg(pairs, alpha)
        ref_rejected, ref_threshold = hochberg_subsets_reference(pairs, alpha)
        assert outcome.rejected_ids == ref_rejected, p_values
        assert abs(outcome.p_threshold - ref_threshold) <= 1e-15, p_values

    for length in (1, 2, 3):
        for combo in combinations_with_replacement(grid, length):
            agree(combo)

    alphabet = [0.00, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06]
    for length in (4, 5):
        for combo in combinations_with_replacement(alphabet, length):
            agree(combo)

    rng = np.random.default_rng(6174)
    for length in (4, 5):
        for _ in range(2000):
            agree([int(v) / 100 for v in rng.integers(0, 101, size=length)])


def _check_chi2_oracle():
    worst = 0.0
    for k in (1, 2, 3, 4, 5, 7, 10, 50, 100, 1000, 10000):
        for fraction in (1e-8, 1e-4, 0.01, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0, 10.0):
            x = k * fraction
            if log10_tail_magnitude(x, k) < -330.0:
                # the smaller tail underflows doubles entirely; require the
                # saturated outputs instead of a meaningless relative error
                assert chi2_sf(x, k) == (1.0 if x < k else 0.0)
                continue
            ours, ref = chi2_sf(x, k), chi2_sf_reference(x, k)
            if ref > 1e-290:
                worst = max(worst, abs(ours - ref) / float(ref))
            else:
                assert abs(ours - float(ref)) <= 1e-295, (k, x)
    assert worst <= 1e-9, f"worst chi-squared relative error {worst}"
    # The quantile, through the same oracle, across every tail probability
    # a multiple-testing budget can reach.
    for k in (1, 2, 3, 4, 5, 10, 16, 100, 1000, 5620, 10000):
        for p in (0.999, 0.5, 0.05, 1e-3, 1e-6, 1e-12, 1e-17, 1e-50, 1e-100, 1e-200, 1e-300):
            ratio = chi2_sf_reference(chi2_isf(p, k), k) / p
            assert abs(float(ratio) - 1.0) <= 1e-11, (k, p)


def test_criterion_8_oracle_equivalences():
    """Three dual-route checks: JSD, step-up correction, chi-squared tail."""
    _check_jsd_oracle()
    _check_hochberg_oracle()
    _check_chi2_oracle()


def test_criterion_9_simulation_and_analysis_determinism(tmp_path):
    """Identical seeds and flags give byte-identical dataset and report files."""
    paths = {}
    for tag in ("first", "second"):
        base = tmp_path / tag
        base.mkdir()
        dataset = base / "dataset.json"
        report = base / "report.json"
        tables = base / "tables"
        assert main(["simulate",
                     "--design", str(data_path("design_neighbor.json")),
                     "--error-model", str(data_path("error_model_drift.json")),
                     "--shots", "40", "--seed", "17",
                     "--out", str(dataset)]) == 0
        assert main(["analyze", "--data", str(dataset), "--alpha", "0.05",
                     "--plan", "auto", "--out", str(report),
                     "--tables", str(tables)]) == 0
        paths[tag] = (dataset, report, tables)

    first_data, first_report, first_tables = paths["first"]
    second_data, second_report, second_tables = paths["second"]
    assert first_data.read_bytes() == second_data.read_bytes()
    assert first_report.read_bytes() == second_report.read_bytes()
    first_csvs = sorted(p.name for p in first_tables.iterdir())
    assert first_csvs == sorted(p.name for p in second_tables.iterdir())
    for name in first_csvs:
        assert (first_tables / name).read_bytes() == (second_tables / name).read_bytes()
