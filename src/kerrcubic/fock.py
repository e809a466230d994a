"""Dense linear algebra on a truncated Fock space.

Conventions used throughout the package (hbar = 1):

    x = (a + a^dag)/sqrt(2),    p = (a - a^dag)/(i*sqrt(2)),    [x, p] = i
    D(s) = exp(s*a^dag - conj(s)*a)        (displacement)
    S(z) = exp(z*(a^dag^2 - a^2)/2)        (squeeze; S^dag a S = cosh(z) a + sinh(z) a^dag)

Squeezing magnitudes are quoted in dB of in-phase quadrature power gain,
lambda_dB = 10*log10(lambda^2); internal computations use the field gain
lambda = e^z.

Every matrix exponential in the package goes through one path, `Spectrum`:
it checks once that the generator H is Hermitian (to HERMITICITY_RTOL relative
to its largest entry), diagonalizes it once with `numpy.linalg.eigh`, and
returns exp(-i H t) or exp(-i H t)|psi> for any t from that decomposition.
Every generator in scope is (anti-)Hermitian, so this is unconditionally
stable and unitary up to eigensolver tolerance. A generator whose imaginary
part is exactly zero (the frame Hamiltonian H(alpha), n_eff, x^3) is
diagonalized as a real symmetric matrix, which costs about a third of the
complex Hermitian solve.

Displacement and squeezing are phase rotations of real generators. With
R(theta) = diag(e^{i k theta}) = exp(i theta a^dag a), R a R^dag = e^{-i theta} a
holds entry by entry in the truncated space (a only links |k> to |k-1>, so
each entry picks up e^{i(k-1) theta} e^{-i k theta}), and R exp(G) R^dag =
exp(R G R^dag) for the unitary R; hence, exactly,

    D(s) = R(arg s + pi/2) exp(-i |s| (a + a^dag)) R(arg s + pi/2)^dag
    S(z) = R(pi/4) exp(-i z (a^2 + a^dag^2)/2) R(pi/4)^dag

and both generators take the real symmetric solve. `displacement_spectrum`
and `squeeze_spectrum` return those two spectra; `displace_vector` and
`squeeze_vector` apply D(s) and S(z) to a vector from them in O(N^2), so one
spectrum serves any number of amplitudes. `displacement_spectrum` is cached
per N (the last four, read-only), so grid inputs, the Trotter kick and
`displacement` share one; `squeeze_spectrum` is built per call. Best of three on a 2-core host
(numpy 2.4.6), against one complex eigh per Gaussian factor:

    N                        128              256             448
    gkp:z+:0.5 input     37 -> 6.2 ms    211 -> 25 ms    680 -> 85 ms
    gkp:x+:0.5 input     73 -> 7.0 ms    364 -> 28 ms   1295 -> 95 ms
    displacement(s, N)  6.4 -> 3.3 ms     23 -> 15 ms     87 -> 52 ms
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class TruncationWarning(UserWarning):
    """A requested operation strains the Fock cutoff."""


class InvalidDimensionError(ValueError):
    """Fock dimension too small for the requested construction."""


class DimensionMismatchError(ValueError):
    """Operands live in different truncated spaces."""


class ContractViolationError(ArithmeticError):
    """A numerical invariant fails (norm, trace, hermiticity or gate-error range)."""


HERMITICITY_RTOL = 1e-12


def interior_dim(n: int) -> int:
    """Size of the cutoff-insulated block: N - ceil(4*sqrt(N))."""
    return max(1, n - math.ceil(4.0 * math.sqrt(n)))


def lambda_from_db(db: float) -> float:
    """Field gain from dB of quadrature power gain (15 dB -> 10**0.75)."""
    return 10.0 ** (db / 20.0)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Operator:
    """D(s) from `displacement`, boxed because the benchmark workloads read `.matrix`."""

    matrix: np.ndarray


class Spectrum:
    """Eigendecomposition H = v diag(w) v^dag of a Hermitian generator.

    The one spectral-exponential path: the generator is checked to be
    Hermitian to HERMITICITY_RTOL (relative to its largest entry), else
    ContractViolationError; then `numpy.linalg.eigh` runs once, and every
    exp(-i H t) is formed from (w, v). A generator with an exactly zero
    imaginary part is taken as its real part, so the check is a symmetry
    check, the real symmetric solver runs and v is float64.
    """

    def __init__(self, h: np.ndarray):
        if np.iscomplexobj(h) and not h.imag.any():
            h = h.real
        scale = np.abs(h).max()
        if scale > 0 and np.abs(h - h.conj().T).max() > HERMITICITY_RTOL * scale:
            raise ContractViolationError(
                f"generator is not hermitian to {HERMITICITY_RTOL:.0e} relative"
            )
        self.w, self.v = np.linalg.eigh(h)

    def unitary(self, t: float) -> np.ndarray:
        """exp(-i H t) as a dense matrix."""
        return (self.v * np.exp(-1j * t * self.w)) @ self.v.conj().T

    def advance(self, psi: np.ndarray, t: float) -> np.ndarray:
        """exp(-i H t)|psi> without forming the matrix; O(N^2) per call."""
        return self.v @ (np.exp(-1j * t * self.w) * (self.v.conj().T @ psi))


@dataclass(frozen=True)
class PureState:
    """Complex amplitude vector in the Fock basis, unit norm."""

    vector: np.ndarray
    normalize: bool = True

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).ravel()
        if not np.isfinite(v).all():
            raise ContractViolationError("state amplitudes are not finite")
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise ValueError("cannot construct a state from the zero vector")
        if self.normalize:
            v = v / nrm
        elif abs(nrm - 1.0) > 1e-10:
            raise ContractViolationError(f"state norm {nrm} deviates from 1 beyond 1e-10")
        object.__setattr__(self, "vector", v)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    def overlap(self, other: "PureState") -> complex:
        _check_dims(self.dim, other.dim)
        return complex(np.vdot(self.vector, other.vector))

    def density_matrix(self) -> "MixedState":
        return MixedState(np.outer(self.vector, self.vector.conj()))


@dataclass(frozen=True)
class MixedState:
    """Dense density matrix: unit trace, Hermitian."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidDimensionError(f"density matrix must be square, got {m.shape}")
        if not np.isfinite(m).all():
            raise ContractViolationError("density matrix entries are not finite")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-8:
            raise ContractViolationError(f"trace {tr} deviates from 1 beyond 1e-8")
        scale = max(np.abs(m).max(), 1e-300)
        if np.abs(m - m.conj().T).max() > 1e-10 * max(1.0, scale):
            raise ContractViolationError("density matrix is not hermitian to 1e-10")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


def _check_dims(d1: int, d2: int):
    if d1 != d2:
        raise DimensionMismatchError(f"dimension mismatch: {d1} vs {d2}")


def _annihilation_matrix(n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[np.arange(n - 1), np.arange(1, n)] = np.sqrt(np.arange(1.0, n))
    return m


# ---------------------------------------------------------------------------
# operator constructors
# ---------------------------------------------------------------------------


def annihilation(n: int) -> np.ndarray:
    """Mode annihilation operator a with a[k-1, k] = sqrt(k)."""
    if n < 2:
        raise InvalidDimensionError(f"Fock dimension must be >= 2, got {n}")
    return _annihilation_matrix(n)


def position(n: int) -> np.ndarray:
    a = annihilation(n)
    return (a + a.conj().T) / math.sqrt(2.0)


def momentum(n: int) -> np.ndarray:
    a = annihilation(n)
    return (a - a.conj().T) / (1j * math.sqrt(2.0))


def number(n: int) -> np.ndarray:
    if n < 2:
        raise InvalidDimensionError(f"Fock dimension must be >= 2, got {n}")
    return np.diag(np.arange(n, dtype=float)).astype(complex)


def vacuum(n: int) -> PureState:
    v = np.zeros(n, dtype=complex)
    v[0] = 1.0
    return PureState(v)


def fock_state(n: int, k: int) -> PureState:
    if not 0 <= k < n:
        raise InvalidDimensionError(f"Fock index {k} outside [0, {n})")
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return PureState(v)


def _rotation(theta: float, n: int) -> np.ndarray:
    """Diagonal of the phase rotation R(theta) = exp(i*theta*a^dag*a)."""
    return np.exp(1j * theta * np.arange(n))


def _rotated(spectrum: Spectrum, theta: float, t: float, psi: np.ndarray) -> np.ndarray:
    """R(theta) exp(-i H t) R(theta)^dag |psi> from the spectrum of H; O(N^2)."""
    r = _rotation(theta, psi.shape[0])
    return r * spectrum.advance(r.conj() * psi, t)


@lru_cache(maxsize=4)
def displacement_spectrum(n: int) -> Spectrum:
    """Spectrum of a + a^dag: D(s) = R(arg s + pi/2) exp(-i|s|(a + a^dag)) R^dag.

    Cached per N and shared by every caller, so its `w` and `v` are read-only.
    """
    a = _annihilation_matrix(n).real
    s = Spectrum(a + a.T)
    s.w.setflags(write=False)
    s.v.setflags(write=False)
    return s


def squeeze_spectrum(n: int) -> Spectrum:
    """Spectrum of (a^2 + a^dag^2)/2: S(z) = R(pi/4) exp(-iz(a^2 + a^dag^2)/2) R^dag."""
    a = _annihilation_matrix(n).real
    a2 = a @ a
    return Spectrum(0.5 * (a2 + a2.T))


def _displacement_angle(s: complex) -> float:
    return cmath.phase(s) + 0.5 * math.pi


_SQUEEZE_ANGLE = 0.25 * math.pi


def displace_vector(spectrum: Spectrum, s: complex, psi: np.ndarray) -> np.ndarray:
    """D(s)|psi> from `displacement_spectrum(N)`, without forming D(s); no cutoff warning."""
    return _rotated(spectrum, _displacement_angle(s), abs(s), psi)


def squeeze_vector(spectrum: Spectrum, z: float, psi: np.ndarray) -> np.ndarray:
    """S(z)|psi> from `squeeze_spectrum(N)`, without forming S(z); no cutoff warning."""
    return _rotated(spectrum, _SQUEEZE_ANGLE, z, psi)


def _rotated_unitary(spectrum: Spectrum, theta: float, t: float) -> np.ndarray:
    r = _rotation(theta, spectrum.w.shape[0])
    return r[:, None] * spectrum.unitary(t) * r.conj()


def displacement(s: complex, n: int) -> Operator:
    """Unitary D(s) = exp(s*a^dag - conj(s)*a), as the `matrix` of an `Operator`."""
    if n < 2:
        raise InvalidDimensionError(f"Fock dimension must be >= 2, got {n}")
    if abs(s) ** 2 > n / 4.0:
        warnings.warn(
            f"displacement |s|^2 = {abs(s)**2:.3g} strains Fock cutoff N = {n}",
            TruncationWarning,
            stacklevel=2,
        )
    return Operator(_rotated_unitary(displacement_spectrum(n), _displacement_angle(s), abs(s)))


def squeeze(z: float, n: int) -> np.ndarray:
    """Unitary S(z) = exp(z*(a^dag^2 - a^2)/2); x-variance of S(z)|0> is e^{2z}/2."""
    if n < 2:
        raise InvalidDimensionError(f"Fock dimension must be >= 2, got {n}")
    if math.exp(2.0 * abs(z)) > n / 4.0:
        warnings.warn(
            f"squeeze gain e^(2|z|) = {math.exp(2*abs(z)):.3g} strains Fock cutoff N = {n}",
            TruncationWarning,
            stacklevel=2,
        )
    return _rotated_unitary(squeeze_spectrum(n), _SQUEEZE_ANGLE, z)


# ---------------------------------------------------------------------------
# measurement-like functionals
# ---------------------------------------------------------------------------


def expectation(op: np.ndarray, state: PureState | MixedState) -> complex:
    _check_dims(op.shape[0], state.dim)
    if isinstance(state, PureState):
        return complex(np.vdot(state.vector, op @ state.vector))
    return complex(np.trace(op @ state.matrix))


def variance(op: np.ndarray, state: PureState | MixedState) -> float:
    """<A^2> - <A>^2 for a Hermitian observable A."""
    mean = np.real(expectation(op, state))
    second = np.real(expectation(op @ op, state))
    return float(second - mean * mean)


def fidelity(target: PureState, out: PureState | MixedState) -> float:
    """|<t|psi>|^2 for pure outputs, <t|rho|t> for mixed ones."""
    if isinstance(out, PureState):
        _check_dims(target.dim, out.dim)
        f = abs(np.vdot(target.vector, out.vector)) ** 2
    else:
        _check_dims(target.dim, out.dim)
        f = np.real(np.vdot(target.vector, out.matrix @ target.vector))
    return float(min(max(f, 0.0), 1.0))


def check_truncation_convergence(build_scalar, n: int, tol: float = 1e-6) -> float:
    """Evaluate a scalar at cutoff n and 2n; warn when doubling moves it beyond tol.

    `build_scalar` maps a Fock dimension to a real/complex number. Returns the
    value at n.
    """
    v1 = build_scalar(n)
    v2 = build_scalar(2 * n)
    if abs(v1 - v2) > tol:
        warnings.warn(
            f"cutoff doubling moved result by {abs(v1 - v2):.3g} (> {tol:.3g}) at N = {n}",
            TruncationWarning,
            stacklevel=2,
        )
    return v1


# ---------------------------------------------------------------------------
# Wigner function
# ---------------------------------------------------------------------------


def wigner(state: PureState | MixedState, xs, ps) -> np.ndarray:
    """Wigner function W(x, p) on the grid xs x ps, normalized to integral 1.

    Returns W with W[i, j] = W(xs[i], ps[j]). Uses the Fock-basis Laguerre
    ladder, run once per distinct radius x^2 + p^2 of the grid; cost
    O(radii * N^2 + len(grid) * N).
    """
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ps))):
        raise ValueError("Wigner grid must be finite")
    if isinstance(state, PureState):
        rho = np.outer(state.vector, state.vector.conj())
    else:
        rho = state.matrix
    m = rho.shape[0]

    x = xs[:, None]
    p = ps[None, :]
    b = 2.0 * (x * x + p * p)  # 4|alpha|^2 with alpha = (x + i p)/sqrt(2)
    two_alpha_conj = math.sqrt(2.0) * (x - 1j * p)
    # the Laguerre ladder depends on the radius only: run it once per distinct b
    radii, where = np.unique(b, return_inverse=True)
    where = where.reshape(b.shape)

    w = np.zeros((xs.size, ps.size), dtype=float)
    # scaled diagonal-offset factor g_d = (2 alpha^*)^d / sqrt(d!)
    g = np.ones_like(two_alpha_conj)
    for d in range(m):
        coeffs = np.diagonal(rho, offset=-d)  # rho[k+d, k]
        if np.any(coeffs != 0):
            # s = sum_k rho[k+d,k] (-1)^k sqrt(k!/(k+d)!) L_k^d(b) * (2 alpha^*)^d
            #   = g_d * sum_k rho[k+d,k] (-1)^k / sqrt(binom(k+d,k)) L_k^d(b)
            lag_prev = np.zeros_like(radii)
            lag = np.ones_like(radii)  # L_0^d
            r = 1.0  # 1/sqrt(binom(k+d, k))
            sgn = 1.0
            acc = np.zeros(radii.shape, dtype=complex)
            for k in range(coeffs.size):
                if k > 0:
                    lag, lag_prev = (
                        ((2 * k - 1 + d - radii) * lag - (k - 1 + d) * lag_prev) / k,
                        lag,
                    )
                    r *= math.sqrt(k / (k + d))
                    sgn = -sgn
                c = coeffs[k]
                if c != 0:
                    acc = acc + (sgn * r * c) * lag
            contrib = acc[where] * g
            if d == 0:
                w += np.real(contrib)
            else:
                w += 2.0 * np.real(contrib)
        g = g * two_alpha_conj / math.sqrt(d + 1.0)
    return w * np.exp(-0.5 * b) / math.pi
