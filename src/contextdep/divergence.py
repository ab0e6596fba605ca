"""How big is a detected context dependence, in operational units.

The test statistic lambda doubles as an effect-size estimate: lambda/(2N)
estimates the Jensen-Shannon divergence (in nats) between the contexts'
outcome distributions, weighted by the fraction of shots each context
contributed.  For two contexts the total variation distance is easier to
interpret still: it bounds how much any outcome probability shifted.

TVD of raw counts never vanishes, though, so quoting it for every circuit
would overstate what was demonstrated.  The statistically significant TVD
(SSTVD) is therefore TVD gated on the circuit's own test rejecting, and
null otherwise; null is deliberately not collapsed to 0, which would read
as "no change" rather than "not resolved".  The gate lives in
pipeline.ComparisonReport, whose null masks say where a row's SSTVD is null:
every row the comparison does not reject, and every row outside a pair.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "jsd_from_llr",
    "tvd_rows",
]


def jsd_from_llr(llr, n_total) -> np.ndarray:
    """lambda / (2N) elementwise, for statistics and N as scalars or arrays.

    For an observed statistic this is the weighted JSD of the empirical
    outcome distributions, with context weights N_c / N, in nats; for a
    statistic threshold it is the smallest JSD resolvable at N shots.
    """
    return np.asarray(llr, dtype=float) / (2.0 * np.asarray(n_total).astype(float))


def tvd_rows(counts: np.ndarray) -> np.ndarray:
    """TVD between the two context rows of each table of an (R, 2, M) stack.

    Counts are Python ints in an object array, so each frequency is one
    correctly rounded integer division.  The stack must obey the dataset
    rules, as a slice of a ContextDataset does; it is not checked here.
    """
    freqs = counts / counts.sum(axis=2)[:, :, None]
    gaps = np.abs(freqs[:, 0] - freqs[:, 1]).astype(float)
    # Summed outcome by outcome, as the plain loop over outcomes would.
    total = np.zeros(len(counts))
    for column in gaps.T:
        total += column
    return 0.5 * total
