"""Detection and quantification of context-dependent errors in count data.

Quantum processors are usually characterized as if each circuit's outcome
distribution were fixed, but real devices drift over time and react to
what neighboring qubits are doing.  This package tests whether pools of
repeated circuit counts collected in different contexts (time periods,
neighbor settings) share one distribution, corrects for testing many
circuits at once, quantifies any detected dependence in divergence units,
and generates the gate-set-tomography circuit lists and simulated
experiments used to exercise all of it.
"""

from .chi2 import chi2_isf, chi2_sf
from .counts import (CircuitRecord, ContextDataset, DatasetError, load_dataset,
                     marginalize, save_dataset)
from .gstgen import (CircuitSpec, GstDesign, circuit_to_text, lgst_circuits, load_design,
                     lsgst_circuits, parse_circuit_text, save_circuits)
from .llr import AggregateTestResult, llr_aggregate, n_sigma_threshold
from .multitest import MultiTestOutcome, combined_procedure
from .pipeline import (CircuitAnalysis, Comparison, ComparisonPlan,
                       ComparisonReport, jsd_profile, load_plan, load_report,
                       pairwise_matrices, run_analysis, save_report,
                       write_jsd_profile_csv, write_pairwise_csv)
from .qsim import (ErrorModel, SimConfig, counts_stream, load_error_model,
                   run_drift_experiment)

__version__ = "1.0.0"
