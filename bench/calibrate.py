"""A fixed reference computation that gauges the host's current speed.

The benchmark shares a few cores of a host with other work, and the
host's speed drifts by tens of percent over tens of seconds: a pass of
the same code takes 1.9 s in one minute and 3.3 s in the next. The
worker runs this calibration before the first pass and after every
step, and ``run_bench.py`` rescales each step's time by ``REFERENCE_S``
over the mean of the calibrations near it, so that the end-to-end times
read as seconds on the host at the speed it has when ``run`` takes
``REFERENCE_S``.

The calibration calls numpy and scipy only, never the package under
test, so a change to the program moves the rescaled times and leaves the
calibration alone. Its three parts follow the three kinds of work the
workloads do: interpreted Python (the per-call overhead that dominates
cli-default), a sparse LU solve of the size of the fine-sweep Newton
systems, and a dense weighted product like the coercivity mode matrix
of acceptance-gate. Each part takes some tens of milliseconds, longer
than a scheduler period. The inputs and the LU factors add about 4 MB
to the peak resident memory of every workload (fine-sweep: 101 to
105 MB), the same on every commit.
"""

import time

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import spsolve

# what ``Calibration.run`` takes on the reference host (2 vCPUs of an
# Intel Xeon, one BLAS thread) while it is quiet
REFERENCE_S = 0.08

_INTERP_ITERS = 110_000
_SPARSE_NODES = 16384
_SPARSE_SOLVES = 3
_DENSE_SHAPE = (64, 4096)
_DENSE_PRODUCTS = 16


class Calibration:
    """The calibration's inputs, built once; ``run`` times one round."""

    def __init__(self):
        n = _SPARSE_NODES
        self._matrix = diags(
            [np.full(n - 2, -0.5), np.full(n - 1, -1.0), np.full(n, 4.0),
             np.full(n - 1, -1.0), np.full(n - 2, -0.5)],
            [-2, -1, 0, 1, 2], format="csc")
        self._rhs = np.linspace(1.0, 2.0, n)
        self._modes = np.sin(np.outer(np.arange(1, _DENSE_SHAPE[0] + 1),
                                      np.linspace(0.0, 3.0, _DENSE_SHAPE[1])))
        self._weights = np.linspace(0.5, 1.5, _DENSE_SHAPE[1])

    def run(self):
        """Wall time of one round of the three parts, in seconds."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(_INTERP_ITERS):
            acc += i * i % 7
        for _ in range(_SPARSE_SOLVES):
            spsolve(self._matrix, self._rhs)
        for _ in range(_DENSE_PRODUCTS):
            (self._modes * self._weights) @ self._modes.T
        return time.perf_counter() - t0
