"""Check that the detector's false-alarm rate matches its advertised alpha.

Two contexts share exactly the same (statically miscalibrated) gates, so
every detection is false.  Repeating the full combined procedure on many
simulated null experiments should trip at most about alpha = 5% of the
time; the step-up correction is what keeps 100 simultaneous per-circuit
tests from blowing that budget.
"""

import math
import sys

import numpy as np

from contextdep import lsgst_circuits
from contextdep.datasets import drift_design
from contextdep.llr import llr_tests
from contextdep.multitest import combined_procedure
from contextdep.qsim import ErrorModel, experiment_probabilities

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 500
n_shots, alpha = 100, 0.05

circuits = lsgst_circuits(drift_design())[:100]
error = ErrorModel(context_overrotations={"a": {}, "b": {}}, static_epsilon=1e-3)
probs = experiment_probabilities(circuits, error, ("a", "b"))[:, 0]
print(f"{len(circuits)} circuits, {n_shots} shots per context, "
      f"{trials} null experiments at alpha = {alpha}")


ids = [f"q{i}" for i in range(len(circuits))]
rng = np.random.default_rng(20)
false_hits, via_aggregate, via_circuits = 0, 0, 0
for _ in range(trials):
    a = rng.multinomial(n_shots, probs)
    b = rng.multinomial(n_shots, probs)
    # One (circuits, contexts, outcomes) table of Python ints, as a dataset
    # holds its counts, tested by the package's statistic.
    tables = np.stack([a, b], axis=1).astype(object)
    outcome = combined_procedure(llr_tests(tables), ids, alpha=alpha)
    false_hits += outcome.detected
    via_aggregate += outcome.aggregate_triggered
    via_circuits += bool(outcome.rejected_ids)

rate = false_hits / trials
sigma = math.sqrt(alpha * (1 - alpha) / trials)
print()
print(f"false detections: {false_hits} / {trials} = {rate:.3f} "
      f"(binomial noise ~{sigma:.3f})")
print(f"  via the aggregate test: {via_aggregate}")
print(f"  via per-circuit rejections: {via_circuits}")
print(f"target: at most about {alpha}; discreteness of counts makes the "
      "procedure conservative, so rates below alpha are expected.")
