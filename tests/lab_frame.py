"""Lab-frame operators that only the tests form as matrices.

The package applies S(z) to vectors (`fock.squeeze_vector`). Criterion 2's
lab-frame reference and the conjugation oracles sandwich a native
Hamiltonian between dense S(z) matrices, built here by the package's own
rotated real-spectrum formula.
"""

import math
import warnings

import numpy as np

from kerrcubic import fock as fk


def squeeze(z: float, n: int) -> np.ndarray:
    """Unitary S(z) = exp(z*(a^dag^2 - a^2)/2); x-variance of S(z)|0> is e^{2z}/2."""
    if n < 2:
        raise fk.InvalidDimensionError(f"Fock dimension must be >= 2, got {n}")
    if math.exp(2.0 * abs(z)) > n / 4.0:
        warnings.warn(
            f"squeeze gain e^(2|z|) = {math.exp(2*abs(z)):.3g} strains Fock cutoff N = {n}",
            fk.TruncationWarning,
            stacklevel=2,
        )
    return fk._rotated_unitary(fk.squeeze_spectrum(n), fk._SQUEEZE_ANGLE, z)
