"""Does a neighboring qubit's activity change this qubit's outcomes?

Forty short characterization circuits were each run 1024 times with the
neighbor idle and 1024 times with the neighbor driven.  One circuit in
the bundled dataset carries a large measured discrepancy; the rest are
synthetic null data.  The analysis must find that one circuit, quantify
the shift, and stay quiet about everything else.
"""

from contextdep import parse_circuit_text, run_analysis
from contextdep.datasets import neighbor_example

dataset = neighbor_example()
print(f"{len(dataset.circuits)} circuits, contexts {dataset.contexts}, "
      f"{sum(dataset.circuits[0].pool('idle'))} shots per context")

report = run_analysis(dataset, alpha=0.05)[0]

print()
print(f"aggregate: N_sigma = {report.aggregate.n_sigma:.1f} "
      f"(threshold {report.n_sigma_threshold:.2f}) -> "
      f"{'DETECTED' if report.detected else 'not detected'}")
print(f"per-circuit p-value threshold after step-up correction: "
      f"{report.p_threshold:.3g}")

print()
print("rejected circuits:")
for line in report.circuits:
    if not line.rejected:
        continue
    n_gates = len(parse_circuit_text(line.circuit_id))
    print(f"  {line.circuit_id}: p = {line.p_value:.3g}, "
          f"TVD = {line.tvd:.5f}, SSTVD = {line.sstvd:.5f} "
          f"({100 * line.sstvd:.1f}% shift over {n_gates} gates)")

quiet = [line for line in report.circuits if not line.rejected]
loudest_quiet = min(quiet, key=lambda line: line.p_value)
print()
print(f"everything else stayed null; closest call was "
      f"{loudest_quiet.circuit_id!r} at p = {loudest_quiet.p_value:.3g}, "
      f"still {loudest_quiet.p_value / report.p_threshold:.0f}x above the threshold")
print("SSTVD is reported only where the test rejected, so quiet circuits "
      "contribute no effect size at all (null, not zero).")
