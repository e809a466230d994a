"""Lab-frame operators and frame maps that only the tests form.

The package applies S(z) to vectors (`fock.squeeze_vector`). Criterion 2's
lab-frame reference and the conjugation oracles sandwich a native
Hamiltonian between dense S(z) matrices, built here by the package's own
rotated real-spectrum formula. The Hermitian conjugate of a polynomial and
the frame substitution with a further displacement are the oracles of the
algebra's laws and of the Trotter segments.
"""

import math
import warnings
from fractions import Fraction

import numpy as np

from kerrcubic import algebra as alg
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


def dagger(p: alg.BosonPolynomial) -> alg.BosonPolynomial:
    """Hermitian conjugate; the symbol alpha is real, so each coefficient is conjugated."""
    return alg.BosonPolynomial({(n, m): poly.conjugate() for (m, n), poly in p.terms.items()})


def shifted_frame(p: alg.BosonPolynomial, lam: float, offset) -> alg.BosonPolynomial:
    """a -> cosh(ln lam) a + sinh(ln lam) a^dag + alpha + offset, a^dag to its adjoint.

    `offset` is a number or an `AlphaPoly`; exact in the coefficients.
    """
    lam = Fraction(float(lam))
    c = alg.ExactComplex((lam + 1 / lam) / 2, Fraction(0))
    s = alg.ExactComplex((lam - 1 / lam) / 2, Fraction(0))
    shift = alg.AlphaPoly.SYMBOL + offset
    image_a = alg.BosonPolynomial({(0, 1): c, (1, 0): s, (0, 0): shift})
    image_adag = alg.BosonPolynomial({(1, 0): c, (0, 1): s, (0, 0): shift.conjugate()})
    return p.substitute(image_adag, image_a)
