"""A fixed reference loop that tracks how fast the machine runs right now.

The benchmark's host is shared: its speed drifts by up to a quarter within
seconds, and every wall time drifts with it.  So each timing is taken
together with a timing of this loop and rescaled to the speed at which the
loop takes ``NOMINAL_S``.  The loop has gaussbench's two kinds of work in
about equal time: interpreter work around small numpy calls (the matrix
path) and a large vectorized draw (finite-shot sampling).

    normalized = wall * NOMINAL_S / reference_wall

A change to gaussbench moves ``wall`` and not ``reference_wall``, so it
shows in full.  The loop uses no gaussbench code.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

#: The unit of normalized time: about the loop's median wall time on the
#: machine the benchmark was defined on, so that normalized times read
#: close to wall times there.
NOMINAL_S = 2.0e-3

_MATRIX = np.arange(16.0).reshape(4, 4) / 16.0 + np.eye(4)


def _loop() -> float:
    total = 0.0
    m = _MATRIX
    for i in range(60):
        sq = m @ m.T
        total += float(np.linalg.det(sq[:2, :2]))
        total += math.sqrt(abs(float(sq[0, 1]))) + sum(float(x) for x in sq[1])
        json.dumps({"i": i, "total": total})
    return total + float(np.random.default_rng(12345).standard_normal(40_000).var(ddof=1))


def reference_seconds(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` runs of the loop."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)
