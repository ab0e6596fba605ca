"""Walk through the context-dependence test for a single circuit.

One circuit was run 200 times in each of two contexts.  The question is
whether both pools of counts look like draws from one distribution; the
answer comes as a log-likelihood-ratio statistic, a p-value, and effect
sizes in divergence units.
"""

from contextdep import llr_single, llr_threshold, observed_jsd, observed_tvd, sstvd
from contextdep.datasets import two_context_example

dataset = two_context_example()
record = dataset.circuits[0]

print(f"circuit: {record.circuit_id}")
for context in record.contexts:
    pool = record.pool(context)
    print(f"  {context}: counts {pool} of {sum(pool)} shots")

result = llr_single(record)
print()
print(f"statistic lambda = {result.llr:.4f} with k = {result.dof} degree(s) of freedom")
print(f"p-value = {result.p_value:.3%}")

alpha = 0.05
cut = llr_threshold(alpha, result.dof)
verdict = "rejected" if result.llr > cut else "not rejected"
print(f"at alpha = {alpha} the null (same distribution) is {verdict} "
      f"(threshold lambda = {cut:.3f})")

print()
print(f"observed JSD = {observed_jsd(record):.5f} nats "
      f"(statistic / (2 x total shots))")
tvd = observed_tvd(record, record.contexts)
print(f"observed TVD = {tvd:.4f}")
significant = sstvd(record, record.contexts, cut)
if significant is None:
    print("SSTVD: not resolved (test did not reject)")
else:
    print(f"SSTVD = {significant:.4f} -> outcome probabilities shifted by "
          f"about {100 * significant:.0f}%")

print()
print("same machinery on a quiet circuit:")
from contextdep import CircuitRecord

quiet = CircuitRecord(circuit_id="quiet", counts={"c1": (108, 92), "c2": (107, 93)})
quiet_result = llr_single(quiet)
print(f"  counts (108,92) vs (107,93): lambda = {quiet_result.llr:.4f}, "
      f"p = {quiet_result.p_value:.0%} -> nothing to report")
