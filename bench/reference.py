"""The reference computation the benchmark times beside every operation.

The host this benchmark runs on is shared, and its speed drifts by tens of
percent over minutes. An operation's wall time divided by the time of a fixed
computation run just before and just after it does not drift with it.

The kernel is the package's own hot spot on fixed inputs that nothing in
kerrcubic builds: dense complex Hermitian `eigh` at N=448 and N=256, through
the `numpy.linalg.eigh` bound when this module is imported. It runs in the
benchmark's process, which keeps the BLAS threads warm for both.
"""

from __future__ import annotations

import time

import numpy as np

SIZES = (448, 256, 256)
SEED = 20191224
EIGH = np.linalg.eigh


def hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


class Reference:
    """`time()` runs the kernel once and returns its wall time in seconds."""

    def __init__(self):
        rng = np.random.default_rng(SEED)
        self.mats = [hermitian(rng, n) for n in SIZES]
        self.samples: list[float] = []
        self._kernel()  # warm-up: first-call set-up of the LAPACK workspace

    def _kernel(self):
        for m in self.mats:
            EIGH(m)

    def time(self) -> float:
        t = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t)
        return self.samples[-1]
