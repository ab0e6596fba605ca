"""Walk through the context-dependence test for a single circuit.

One circuit was run 200 times in each of two contexts.  The question is
whether both pools of counts look like draws from one distribution; the
answer comes as a log-likelihood-ratio statistic, a p-value, and effect
sizes in divergence units.  A one-circuit dataset is analyzed as any
other: its report has one row.
"""

from contextdep import run_analysis
from contextdep.datasets import neighbor_example, two_context_example

dataset = two_context_example()
record = dataset.circuits[0]

print(f"circuit: {record.circuit_id}")
for context in record.contexts:
    pool = record.pool(context)
    print(f"  {context}: counts {pool} of {sum(pool)} shots")

alpha = 0.05
report = run_analysis(dataset, alpha=alpha)[0]
line = report.circuits[0]
dof = (len(report.contexts) - 1) * (len(dataset.outcomes) - 1)
print()
print(f"statistic lambda = {line.llr:.4f} with k = {dof} degree(s) of freedom")
print(f"p-value = {line.p_value:.3%}")

verdict = "rejected" if line.rejected else "not rejected"
print(f"at alpha = {alpha} the null (same distribution) is {verdict} "
      f"(threshold lambda = {report.llr_threshold:.3f})")

print()
print(f"observed JSD = {line.jsd:.5f} nats "
      f"(statistic / (2 x total shots))")
print(f"observed TVD = {line.tvd:.4f}")
if line.sstvd is None:
    print("SSTVD: not resolved (test did not reject)")
else:
    print(f"SSTVD = {line.sstvd:.4f} -> outcome probabilities shifted by "
          f"about {100 * line.sstvd:.0f}%")

print()
print("same machinery on a quiet circuit, the least quiet one the neighbor")
print("experiment does not reject:")
neighbor = neighbor_example()
others = run_analysis(neighbor, alpha=alpha)[0]
quiet = max((row for row in others.circuits if not row.rejected), key=lambda row: row.llr)
pools = " vs ".join(str(neighbor.circuit(quiet.circuit_id).pool(c)) for c in others.contexts)
print(f"  {quiet.circuit_id}: counts {pools}, lambda = {quiet.llr:.4f}, "
      f"p = {quiet.p_value:.0%} -> nothing to report")
