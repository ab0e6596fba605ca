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
as "no change" rather than "not resolved".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .counts import CircuitRecord, DatasetError
from .llr import _record_table, llr_statistics

__all__ = [
    "jsd_from_llr",
    "observed_jsd",
    "jsd_threshold",
    "tvd_rows",
    "observed_tvd",
    "sstvd",
]


def jsd_from_llr(llr, n_total) -> np.ndarray:
    """lambda / (2N) elementwise, for statistics and N as scalars or arrays.

    For an observed statistic this is the weighted JSD of the empirical
    outcome distributions, with context weights N_c / N, in nats; for a
    statistic threshold it is the smallest JSD resolvable at N shots.
    """
    return np.asarray(llr, dtype=float) / (2.0 * np.asarray(n_total).astype(float))


def observed_jsd(record: CircuitRecord, contexts: Sequence[str] | None = None) -> float:
    """Estimated Jensen-Shannon divergence lambda/(2N) across contexts."""
    table = _record_table(record, contexts)
    return float(jsd_from_llr(llr_statistics(table)[0], table.sum()))


def jsd_threshold(llr_threshold: float, n_total: int) -> float:
    """Smallest JSD resolvable at the comparison's statistic threshold."""
    if n_total < 1:
        raise ValueError(f"total shot count must be at least 1, got {n_total!r}")
    if llr_threshold < 0.0:
        raise ValueError(f"llr_threshold must be non-negative, got {llr_threshold!r}")
    return float(jsd_from_llr(llr_threshold, n_total))


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


def _pair_table(record: CircuitRecord, context_pair: Sequence[str]) -> np.ndarray:
    pair = tuple(context_pair)
    if len(pair) != 2:
        raise DatasetError(
            f"circuit {record.circuit_id!r}: TVD needs exactly two contexts, got {pair!r}"
        )
    return _record_table(record, pair)


def observed_tvd(record: CircuitRecord, context_pair: Sequence[str]) -> float:
    """Total variation distance between two contexts' empirical distributions."""
    return float(tvd_rows(_pair_table(record, context_pair))[0])


def sstvd(record: CircuitRecord, context_pair: Sequence[str],
          llr_threshold: float) -> float | None:
    """TVD if this circuit's statistic clears the threshold, else None.

    The gate is strict: a statistic exactly at the threshold reports None.
    """
    table = _pair_table(record, context_pair)
    if llr_statistics(table)[0] > llr_threshold:
        return float(tvd_rows(table)[0])
    return None
