"""A fixed reference kernel that measures how fast the host runs right now.

On a virtual machine that shares its host with other tenants, the same work
takes 30-60% longer in some phases than in others, and a phase can last from
seconds to many minutes.  It slows the process itself, not its scheduling: CPU
time tracks wall time.  A median over the iterations of one run cannot remove
a slow phase that covers the whole run, so runs of the same code at different
times disagree by more than any useful bound.

The benchmark therefore times this kernel, which never changes, just before
and just after each command, and reports the command's time scaled to a host
of fixed speed:

    corrected_s = wall_s * REFERENCE_S / mean(kernel_s before, kernel_s after)

that is, the time the command would have taken on a host that runs the kernel
in ``REFERENCE_S`` seconds.  The kernel mixes the three kinds of work the
program does: small complex matrix products in a Python loop (the
simulator), scalar ``math`` in pure Python (the chi-squared functions), and
JSON encoding and decoding (datasets and reports).  The raw wall times are
kept next to the corrected ones in the per-run record under ``.perfbench/``.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

# A round figure within the range of kernel times (0.045-0.09 s) seen on the
# 2-vCPU Intel Xeon virtual machine the benchmark was tuned on.  It only fixes
# the scale, so that corrected times read close to wall seconds there.
# Changing it rescales every corrected time.
REFERENCE_S = 0.06


class Reference:
    """The reference kernel with its fixed inputs."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20181012)
        angles = rng.uniform(0.0, 2.0 * math.pi, size=32)
        self._unitaries = [np.array([[math.cos(a), -1j * math.sin(a)],
                                     [-1j * math.sin(a), math.cos(a)]]) for a in angles]
        self._scalars = [float(x) for x in rng.uniform(0.5, 50.0, size=2000)]
        self._document = {f"circuit{i:04d}": {"t1": [int(n) for n in rng.integers(0, 100, 2)],
                                              "p": float(rng.random())}
                          for i in range(3000)}

    def _work(self) -> float:
        total = np.eye(2, dtype=complex)
        for i in range(12000):
            total = self._unitaries[i & 31] @ total
        acc = 0.0
        for _ in range(12):
            for a in self._scalars:
                acc += math.lgamma(a) - (a - 0.5) * math.log(a) + a
        text = json.dumps(self._document)
        decoded = json.loads(text)
        return abs(total[0, 0]) + acc + len(decoded)

    def seconds(self) -> float:
        """Wall time of one pass of the kernel."""
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start


def corrected(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` scaled to a host that runs the kernel in ``REFERENCE_S``."""
    return wall_s * REFERENCE_S / (0.5 * (before_s + after_s))
