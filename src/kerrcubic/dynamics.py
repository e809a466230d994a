"""Gate dynamics in the squeezed-displaced frame.

Everything evolves in the effective frame, where the mode operator appears as
a_eff = cosh(ln lam) a + sinh(ln lam) a^dag + alpha; the native frame at
alpha ~ 1e4 is numerically unreachable, and the two frames are exactly
equivalent (validated by the explicit-conjugation oracle in the test suite).
Rates are in units of the Kerr rate chi = 1, times in units of 1/chi.

Loss enters through the Lindblad operator sqrt(kappa) a_eff. The integrator
uses its alpha-free Bogoliubov part L = sqrt(kappa)(cosh a + sinh a^dag), the
fluctuation-frame operator; the constant sqrt(kappa)*alpha is a deterministic
mean-field drift that is compensated, so no alpha^2-scale matrix entry is ever
formed.

The master-equation integrator is a deterministic Strang splitting: the
Hamiltonian half-step is exact (one `fock.Spectrum`, reused for every step),
the dissipator substep is a Heun stage. Adjacent half-steps are merged into
one full step U(dt) = U(dt/2)^2, so a step costs one dense N^3 sandwich;
the half-step is applied alone only at the start and the end.
The dissipator is evaluated from L and M = L^dag L held as bands: the
diagonal offsets at one spacing and an (N, k) coefficient array (`_band`,
`_gram_band`; the Bogoliubov L has offsets -1 and +1, M offsets -2, 0, +2).
For Hermitian rho, L rho L^dag = L (L rho)^dag and rho M = (M rho)^dag, so an
evaluation is three band products, O(N^2): L rho, M rho and L (L rho)^dag.
rho, the Heun stage and (L rho)^dag sit in the middle rows of zero-padded
buffers, and each product is one `np.einsum` over a read-only strided window
of such a buffer (`_band_kernel`). Each row sums the same products in the
same order as a CSR product, so for a real L a step is bit-identical to one
with scipy.sparse products. The Bogoliubov L is real, so its bands act on
the float64 view of rho, an (N, 2N) array of interleaved real and imaginary
parts; a complex L, which `evolve_lindblad` also accepts, acts on the
complex arrays. Conjugate transposes, the sandwich and the Heun stage write
into preallocated buffers, and the stage arithmetic runs in place. Because
the dissipator annihilates traces, any Runge-Kutta polynomial in it
preserves the trace to roundoff; hermiticity is restored by symmetrization
each step. The step count is chosen by comparing rungs of n and 2n steps:
the first pair starts at the stability floor max(8, ceil(tau * m_edge)),
with m_edge the largest row sum of |M|, and after a failing pair the
second-order error model of Strang splitting (the rung delta falls 4x per
doubling) picks the pair predicted to pass. The choice is deterministic,
so reruns are bit-identical.

The module needs numpy alone: no gate, lossy or lossless, loads scipy.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import algebra
from .algebra import AlphaPoly, BosonPolynomial, cubic_parameters, substitute_gaussian_frame
from .fock import (
    ContractViolationError,
    MixedState,
    PureState,
    Spectrum,
    TruncationWarning,
    annihilation,
    displace_vector,
    fidelity,
    lambda_from_db,
)
from .states import ideal_cubic_target


class UnsupportedConfigurationError(ValueError):
    """A configuration combination outside the implemented scope."""


class IntegrationError(RuntimeError):
    """The master-equation step control failed to converge."""


# the step ladder of `evolve_lindblad`, read at call time: the rung-pair
# tolerance (max-entry norm) and the doublings above max(128, floor)
LINDBLAD_TOL = 1e-7
MAX_STEP_DOUBLINGS = 6

_CHI = 1.0  # the Kerr rate: tau is in units of 1/chi, kappa in units of chi
# (delta_c, beta_c): the counter-terms, and the units of the relative noise offsets
_COUNTERTERMS = algebra.cubic_counterterms(_CHI)


@dataclass(frozen=True)
class NoiseParams:
    """Static parameter offsets: the phase dtheta, and the detuning and drive offsets
    eps relative to their counter-terms 3 chi alpha^2 - chi and -2 chi alpha^3, which
    enter the exact substitution as (1 + eps) times the counter-term (`_frame_hamiltonian`)."""

    dtheta: float = 0.0
    ddelta_rel: float = 0.0
    dbeta_x_rel: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.dtheta, self.ddelta_rel, self.dbeta_x_rel))):
            raise ValueError(f"noise offsets must be finite, got {self}")

    @property
    def any(self) -> bool:
        return any((self.dtheta, self.ddelta_rel, self.dbeta_x_rel))


def kappa_from_ratio(chi_over_kappa: float) -> float:
    """Decay rate 1 / (chi/kappa) in units of chi; the ratio must be finite and positive."""
    if not (math.isfinite(chi_over_kappa) and chi_over_kappa > 0):
        raise ValueError(f"chi_over_kappa must be finite and > 0, got {chi_over_kappa}")
    return 1.0 / chi_over_kappa


@dataclass(frozen=True)
class GateConfig:
    """One operating point of the gate (chi = 1 sets the unit of time and of kappa)."""

    lam: float
    alpha: float
    gamma: float
    kappa: float = 0.0
    noise: NoiseParams = NoiseParams()
    n_fock: int = 128
    trotter_steps: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lam, self.alpha, self.kappa))):
            raise ValueError(
                f"lam, alpha and kappa must be finite, got lam={self.lam}, "
                f"alpha={self.alpha}, kappa={self.kappa}"
            )
        if min(self.lam, self.alpha) <= 0:
            raise ValueError("lam and alpha must be positive")
        if self.gamma < 0 or not math.isfinite(self.gamma):
            raise ValueError(f"gate angle must be finite and >= 0, got {self.gamma}")
        if self.kappa < 0:
            raise ValueError(f"decay rate must be >= 0, got {self.kappa}")
        for name in ("n_fock", "trotter_steps"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(
                    f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.n_fock < 8:
            raise ValueError(f"n_fock too small: {self.n_fock}")
        if self.trotter_steps < 0:
            raise ValueError("trotter_steps must be >= 0")
        if self.trotter_steps > 0 and self.kappa != 0.0:
            raise UnsupportedConfigurationError(
                "the discrete-drive scheme is implemented for the lossless case only")
        if self.trotter_steps > 0 and (self.noise.ddelta_rel or self.noise.dbeta_x_rel):
            raise UnsupportedConfigurationError(
                "the discrete-drive scheme takes the phase offset dtheta only, not detuning "
                "or drive offsets")

    @staticmethod
    def make(lam_db: float, alpha: float, gamma: float,
             chi_over_kappa: float | None = None, **kw) -> "GateConfig":
        """Construct from dB squeezing and the chi/kappa ratio (None: lossless)."""
        kappa = 0.0 if chi_over_kappa is None else kappa_from_ratio(chi_over_kappa)
        return GateConfig(lam=lambda_from_db(lam_db), alpha=alpha, gamma=gamma, kappa=kappa, **kw)

    @property
    def lam_db(self) -> float:
        return 20.0 * math.log10(self.lam)

    @property
    def tau(self) -> float:
        if self.gamma == 0.0:
            return 0.0
        return cubic_parameters(_CHI, self.lam, self.alpha, self.gamma).tau


@dataclass
class EvolutionResult:
    """Output state, gate error against the ideal target, and diagnostics."""

    state: PureState | MixedState
    error: float
    target: PureState
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not -1e-9 <= self.error <= 1.0 + 1e-9:
            raise ContractViolationError(f"gate error {self.error} outside [0, 1]")
        self.error = float(min(max(self.error, 0.0), 1.0))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _cosh_sinh(lam: float) -> tuple[float, float]:
    return 0.5 * (lam + 1.0 / lam), 0.5 * (lam - 1.0 / lam)


@lru_cache(maxsize=64)
def _frame_hamiltonian(lam: float, ddelta_rel: float, dbeta_x_rel: float) -> BosonPolynomial:
    """The frame Hamiltonian with detuning (1 + eps) delta_c and drive (1 + eps) beta_c.

    Each float eps is an exact rational, so an offset is exactly eps times its
    counter-term polynomial and the ideal part still cancels exactly. Independent
    of alpha, so an alpha optimization shares one entry; H(alpha) is real.
    """
    delta_c, beta_c = _COUNTERTERMS
    return algebra.frame_hamiltonian(_CHI, lam, delta_c + delta_c * ddelta_rel,
                                     beta_c + beta_c * dbeta_x_rel)


@lru_cache(maxsize=16)
def _frame_number_operator(lam: float) -> BosonPolynomial:
    """n_eff = a_eff^dag a_eff in the frame, constant sinh^2 + alpha^2 included."""
    return substitute_gaussian_frame(BosonPolynomial({(1, 1): 1}), lam)


def _frame_matrix(cfg: GateConfig) -> np.ndarray:
    """The effective Hamiltonian H(alpha) of `cfg` on its Fock space: the cached
    polynomial of its squeezing and relative offsets, evaluated at its alpha."""
    h_poly = _frame_hamiltonian(float(cfg.lam), cfg.noise.ddelta_rel, cfg.noise.dbeta_x_rel)
    return algebra.to_matrix(h_poly, cfg.alpha, cfg.n_fock)


def effective_generators(cfg: GateConfig) -> tuple[np.ndarray, np.ndarray]:
    """Effective Hamiltonian and the real fluctuation-frame Lindblad operator."""
    c, s = _cosh_sinh(cfg.lam)
    a = annihilation(cfg.n_fock).real
    return _frame_matrix(cfg), math.sqrt(cfg.kappa) * (c * a + s * a.T)


def effective_number_operator(cfg: GateConfig) -> tuple[np.ndarray, float]:
    """(n_eff with its constant dropped, the dropped constant sinh^2 + alpha^2)."""
    n_eff = _frame_number_operator(float(cfg.lam))
    const = n_eff.coefficient(0, 0)(cfg.alpha).real
    return algebra.to_matrix(n_eff.drop_constant(), cfg.alpha, cfg.n_fock), const


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------


def _band(l_op: np.ndarray) -> tuple[range, np.ndarray]:
    """L as its band: the diagonal offsets, ascending at one spacing, and the
    (N, k) coefficients whose column j holds L[i, i + offsets[j]].

    The spacing is the gcd of the gaps between L's nonzero diagonals, so the
    Bogoliubov L (offsets -1 and +1) keeps two columns; zeros fill the gaps
    and the entries past the matrix edge. An all-zero L is the zero diagonal.
    """
    rows, cols = np.nonzero(l_op)
    diags = np.unique(cols - rows)
    step = int(np.gcd.reduce(np.diff(diags))) or 1
    offsets = range(int(diags[0]), int(diags[-1]) + 1, step) if diags.size else range(1)
    coef = np.zeros((l_op.shape[0], len(offsets)), dtype=np.result_type(l_op, np.float64))
    coef[rows, (cols - rows - offsets.start) // step] = l_op[rows, cols]
    return offsets, coef


def _gram_band(band: tuple[range, np.ndarray]) -> tuple[range, np.ndarray]:
    """M = L^dag L as a band, from the band of L by elementwise products.

    Row k of L's column a (offset o_a) meets row k of every column b in the
    entry M[k + o_a, k + o_b]. Taking a downwards adds each entry's terms in
    ascending k, the order of the CSR product L^dag @ L; a real L's M is that
    product's, bit for bit (a dense BLAS product is not: FMA moves last bits).
    """
    offsets, coef = band
    n, k = coef.shape
    m_coef = np.zeros((n, 2 * k - 1), dtype=coef.dtype)
    for a in reversed(range(k)):
        o = offsets[a]
        lo, hi = max(0, -o), min(n, n - o)  # the rows of column a inside the matrix
        m_coef[lo + o:hi + o, k - 1 - a:2 * k - 1 - a] += coef[lo:hi, a, None].conj() * coef[lo:hi]
    return range(-(k - 1) * offsets.step, k * offsets.step, offsets.step), m_coef


def _row_sum_max(coef: np.ndarray) -> float:
    """max_i sum_j |coef[i, j]|, each row summed over its nonzeros by
    `np.add.reduceat`, as scipy sums a CSR row: the CSR form's value bit for bit."""
    mags = np.abs(coef)
    counts = np.count_nonzero(mags, axis=1)
    starts = (np.cumsum(counts) - counts)[counts > 0]
    return float(np.add.reduceat(mags[mags != 0], starts).max(initial=0.0))


def _band_kernel(band: tuple[range, np.ndarray], buf: np.ndarray, pad: int):
    """The product B x for the x in the middle rows of the zero-padded buffer
    `buf`, as a function that writes it into its argument and returns it.

    The product is one `np.einsum` over a read-only strided window of `buf`:
    row i sums coef[i, j] times row i + offsets[j] of x in ascending j, the
    order of the CSR product B @ x, and reads zeros past the matrix edge. A
    real band acts on the float64 views, interleaved real and imaginary parts,
    a complex one on the complex arrays: the same sums either way.
    """
    offsets, coef = band
    real = not np.iscomplexobj(coef)
    n, first = buf.shape[0] - 2 * pad, pad + offsets[0]
    rows = sliding_window_view(buf.view(np.float64) if real else buf,
                               offsets[-1] - offsets[0] + 1, axis=0)
    window = rows[first:first + n, :, ::offsets.step].swapaxes(1, 2)

    def apply(out):
        np.einsum("ij,ijk->ik", coef, window, out=out.view(np.float64) if real else out)
        return out

    return apply


def _lindblad_fixed(spectrum, bands, tau, rho0, n_steps):
    """Strang splitting with exact Hamiltonian steps; returns (rho, trace_drift).

    Adjacent Hamiltonian half-steps are merged: the loop carries the mid-step
    state U(dt/2) rho U(dt/2)^dag, applies the Heun dissipator stage, then the
    full step U(dt) = U(dt/2)^2. The closing half-step is applied at the end
    only. `bands` holds the bands of L and M = L^dag L. rho, the Heun stage
    and (L r)^dag sit in the middle rows of zero-padded (N + 2 pad) x N
    buffers, and each band product with them is a `_band_kernel`. Conjugate
    transposes, the sandwich and the Heun stage write into preallocated
    buffers, and U^dag is formed once per call. For a real L the result is
    bit-identical to the plain complex expressions with CSR products.
    """
    l_band, m_band = bands
    n = rho0.shape[0]
    pad = max(-l_band[0][0], l_band[0][-1], m_band[0][-1])
    dt = tau / n_steps
    u_half = spectrum.unitary(0.5 * dt)
    u_step = u_half @ u_half
    # (U, U^dag) once per rung; U^dag is a transposed view BLAS reads as is
    half, step = (u_half, u_half.conj().T), (u_step, u_step.conj().T)
    padded = [np.zeros((n + 2 * pad, n), dtype=np.complex128) for _ in range(3)]
    rho, stage, dag = (p[pad:pad + n] for p in padded)
    ur, m_buf, k1, k2 = (np.empty(rho0.shape, dtype=np.complex128) for _ in range(4))
    l_rho, m_rho, l_stage, m_stage, l_dag = (
        _band_kernel(band, p, pad) for band, p in (
            (l_band, padded[0]), (m_band, padded[0]), (l_band, padded[1]),
            (m_band, padded[1]), (l_band, padded[2])))

    def dagger(x):  # x^dag into the one scratch buffer, the one that l_dag reads
        return np.conjugate(x.T, out=dag)

    def sandwich(u, u_dag, r, out):  # (U r U^dag + its dagger)/2 into out; r may be out
        np.matmul(u, r, out=ur)
        np.matmul(ur, u_dag, out=out)
        out += dagger(out)
        out *= 0.5

    # d(r) = L r L^dag - (M r + r M)/2 with M = L^dag L, for Hermitian r, as
    # L (L r)^dag - (M r + (M r)^dag)/2: three band products
    def d(l_r, m_r, out):
        dagger(l_r(out))
        l_dag(out)
        mr = m_r(m_buf)
        mr += dagger(mr)
        mr *= 0.5
        out -= mr

    sandwich(*half, rho0, rho)
    drift = 0.0
    for k in range(1, n_steps + 1):
        d(l_rho, m_rho, k1)
        np.multiply(dt, k1, out=stage)
        stage += rho
        d(l_stage, m_stage, k2)
        k1 += k2
        k1 *= 0.5 * dt
        rho += k1
        sandwich(*(half if k == n_steps else step), rho, rho)
        drift = max(drift, abs(np.trace(rho).real - 1.0))
    return rho, drift


def evolve_lindblad(
    h: np.ndarray,
    l_op: np.ndarray,
    tau: float,
    rho0: MixedState,
    n_steps: int | None = None,
) -> tuple[MixedState, dict]:
    """Master-equation evolution d(rho)/dt = -i[H,rho] + L rho L^dag - {L^dag L, rho}/2.

    h and l_op must be square, finite and of rho0's dimension; otherwise a
    ValueError names the argument before any work starts. With n_steps given
    the step count is fixed. Otherwise rungs of n and 2n steps are compared
    until the 2n-step state moves by less than tol = `LINDBLAD_TOL`
    (max-entry norm), and that state is returned. The first pair starts at
    the stability floor max(8, ceil(tau * m_edge)), with m_edge the largest
    row sum of |M| (M = L^dag L). After a failing pair with delta d, the
    second-order error model (d falls 4x per doubling) picks the next pair:
    j = max(1, ceil(log4(d / tol))) doublings on. No rung exceeds
    max(128, ceil(tau * m_edge)) * 2**MAX_STEP_DOUBLINGS; the last pair tried
    is the one that ends there, and IntegrationError follows if it fails.
    Trace is preserved to roundoff by construction; positivity is
    eigen-spot-checked at the end. Diagnostics: kept `steps`,
    `integrated_steps` summed over every rung, `rungs` as (steps, delta) per
    integrated rung in order (delta None where no pair was compared),
    `step_delta` of the accepted rung, `trace_drift`, `min_eigenvalue`.
    """
    if n_steps is not None and n_steps < 1:
        raise ValueError(f"n_steps must be None or >= 1, got {n_steps}")
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    # the band windows of `_lindblad_fixed` assume these shapes
    for name, op in (("h", h), ("l_op", l_op)):
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError(f"{name} must be a square matrix, got shape {op.shape}")
        if op.shape[0] != rho0.dim:
            raise ValueError(f"{name} is {op.shape[0]}x{op.shape[0]}, "
                             f"but rho0 has dimension {rho0.dim}")
        if not np.isfinite(op).all():
            raise ValueError(f"{name} has non-finite entries")
    if tau == 0.0:
        return rho0, {"trace_drift": 0.0, "steps": 0, "integrated_steps": 0}

    spectrum = Spectrum(h)
    l_band = _band(l_op)
    m_band = _gram_band(l_band)
    bands = (l_band, m_band)
    diagnostics: dict = {}
    if n_steps is not None:
        rho, drift = _lindblad_fixed(spectrum, bands, tau, rho0.matrix, n_steps)
        diagnostics.update(steps=n_steps, integrated_steps=n_steps, trace_drift=drift)
    else:
        tol = LINDBLAD_TOL
        # explicit dissipator stages are stable for kappa_edge * dt <~ 2, so
        # every rung keeps dt * m_edge <= 1
        floor = int(math.ceil(tau * _row_sum_max(m_band[1])))
        n_top = max(128, floor) << MAX_STEP_DOUBLINGS
        p = max(8, floor)
        rungs: list = []
        states: dict = {}  # steps -> state of the rung, None if not finite
        delta = math.inf
        # p <= n_top // 2 holds throughout, so every pair fits under the top rung
        while True:
            for n in (p, 2 * p):
                if n not in states:
                    rho, drift = _lindblad_fixed(spectrum, bands, tau, rho0.matrix, n)
                    states[n] = rho if np.all(np.isfinite(rho)) else None
                    rungs.append((n, None))
            lower, upper = states[p], states[2 * p]
            states = {2 * p: upper}
            jump = 1  # a non-finite rung means plain doubling
            if lower is not None and upper is not None:
                delta = float(np.abs(upper - lower).max())
                rungs[-1] = (2 * p, delta)
                if delta < tol:
                    diagnostics.update(steps=2 * p, integrated_steps=sum(n for n, _ in rungs),
                                       trace_drift=drift, step_delta=delta, rungs=rungs)
                    break
                if math.isfinite(delta):
                    # the delta of Strang splitting falls 4x per doubling
                    jump = max(1, math.ceil(math.log(delta / tol, 4)))
            # the last pair tried is the one that ends at the largest rung
            nxt = min(p << jump, n_top // 2)
            if nxt == p:
                break
            p = nxt
        if "steps" not in diagnostics:
            raise IntegrationError(
                f"no step convergence up to {n_top} steps from the floor {floor} "
                f"(last delta {delta:.3e}, tol {tol:.1e})"
            )

    if diagnostics["trace_drift"] > 1e-8:
        raise IntegrationError(
            f"trace drifted by {diagnostics['trace_drift']:.3e} (> 1e-8)"
        )
    out = MixedState(rho)
    min_eig = out.min_eigenvalue()
    diagnostics["min_eigenvalue"] = min_eig
    if min_eig < -1e-7:
        warnings.warn(
            f"density matrix developed negativity {min_eig:.3e}", TruncationWarning,
            stacklevel=2,
        )
    return out, diagnostics


# ---------------------------------------------------------------------------
# the gate pipeline
# ---------------------------------------------------------------------------


def cubic_gate(cfg: GateConfig, psi_in: PureState) -> EvolutionResult:
    """Run the full gate in the effective frame and score it against the target.

    One pipeline for the three media. The continuous gate propagates with the
    lossless frame spectrum (kappa = 0) or `evolve_lindblad` (kappa > 0); the
    drive-free variant (trotter_steps >= 1, lossless only) with
    `_trotter_propagate`. Every output then takes the closing phase rotation
    exp(-i dtheta n_eff). Returns the output state (pure for kappa = 0, mixed
    otherwise), the gate error 1 - F(U_ideal psi_in, out), and diagnostics.
    """
    if psi_in.dim != cfg.n_fock:
        raise ValueError(f"input state dim {psi_in.dim} != n_fock {cfg.n_fock}")
    if cfg.gamma == 0.0 and not cfg.noise.any:
        # tau = 0: the medium is never entered
        return EvolutionResult(psi_in, 0.0, psi_in, {"tau": 0.0})

    target = ideal_cubic_target(cfg.gamma, psi_in)
    tau = cfg.tau
    diagnostics: dict = {"tau": tau}
    if cfg.trotter_steps > 0:
        out, prop_diag = _trotter_propagate(cfg, psi_in, tau)
    elif cfg.kappa == 0.0:
        out = PureState(Spectrum(_frame_matrix(cfg)).advance(psi_in.vector, tau),
                        normalize=False)
        prop_diag = {}
    else:
        h, l_op = effective_generators(cfg)
        if not np.isfinite(h).all():
            # an alpha whose H(alpha) overflows is a numerical failure, not an
            # invalid argument of the integrator
            raise ContractViolationError(f"frame Hamiltonian is not finite at alpha={cfg.alpha}")
        out, prop_diag = evolve_lindblad(h, l_op, tau, psi_in.density_matrix())
    diagnostics.update(prop_diag)

    if cfg.noise.dtheta != 0.0:
        # exp(-i dtheta n_eff); the dropped constant of n_eff is a global phase
        r = Spectrum(effective_number_operator(cfg)[0]).unitary(cfg.noise.dtheta)
        out = out.transformed(r)

    err = 1.0 - fidelity(target, out)
    return EvolutionResult(out, err, target, diagnostics)


def trotterized_gate(cfg: GateConfig, psi_in: PureState) -> EvolutionResult:
    """Drive-free variant: discrete displacements around undriven Kerr segments."""
    if cfg.trotter_steps < 1:
        raise UnsupportedConfigurationError("trotterized_gate requires trotter_steps >= 1")
    return cubic_gate(cfg, psi_in)


def photon_number_trace(cfg: GateConfig, psi_in: PureState, samples: int) -> dict:
    """Series of <n_eff> (total and fluctuation parts) and Var(n_eff) over [0, cfg.tau].

    Lossless continuous gate only: the state at each time is the input
    advanced by one spectrum of the frame Hamiltonian. The total restores the
    dropped constant sinh^2 + alpha^2 of n_eff; the fluctuation part also
    removes the coherent alpha^2. The closing phase rotation commutes with
    n_eff, so the series does not depend on it.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if cfg.kappa != 0.0 or cfg.trotter_steps > 0:
        raise UnsupportedConfigurationError(
            "photon-number series are recorded for the lossless continuous gate only"
        )
    n_mat, const = effective_number_operator(cfg)
    n2 = n_mat @ n_mat
    t = np.linspace(0.0, cfg.tau, samples)
    spectrum = Spectrum(_frame_matrix(cfg))
    states = [spectrum.advance(psi_in.vector, t_k) for t_k in t]
    mean = np.array([np.vdot(psi, n_mat @ psi).real for psi in states])
    second = np.array([np.vdot(psi, n2 @ psi).real for psi in states])
    return {"t": t, "total": mean + const, "fluctuation": mean + const - cfg.alpha**2,
            "variance": second - mean * mean}


# ---------------------------------------------------------------------------
# discrete-drive (Trotterized) propagator
# ---------------------------------------------------------------------------


def _taylor_shift(p: BosonPolynomial, u, v) -> dict[int, BosonPolynomial]:
    """p(a^dag + u, a + v) for scalars u, v, grouped by the order i + j of u^i v^j.

    A scalar commutes with a and a^dag, so each normal-ordered monomial
    expands binomially: (a^dag + u)^m (a + v)^n = sum over i, j of
    C(m,i) C(n,j) u^i v^j (a^dag)^(m-i) a^(n-j). The groups sum to
    p(a^dag + u, a + v) exactly.
    """
    groups: dict[int, dict] = {}
    for (m, n), coeff in p.terms.items():
        for i in range(m + 1):
            for j in range(n + 1):
                term = coeff * (math.comb(m, i) * math.comb(n, j))
                for _ in range(i):
                    term = term * u
                for _ in range(j):
                    term = term * v
                group = groups.setdefault(i + j, {})
                key = (m - i, n - j)
                group[key] = group[key] + term if key in group else term
    return {order: BosonPolynomial(group) for order, group in groups.items()}


def _segment_expansion(lam: float, beta: AlphaPoly) -> tuple[BosonPolynomial, ...]:
    """(Q_0, ..., Q_4) with Kerr(F + s beta) = sum_m s^m Q_m for imaginary s.

    Kerr is the undriven Kerr with the counter-term detuning, F the frame
    substitution, and constants are dropped. For imaginary s, conj(s beta)^i
    (s beta)^j = s^(i+j) (-conj(beta))^i beta^j, so the Taylor shift of Kerr
    by (-conj(beta), beta), grouped by order m, carries all of the dependence
    on s in the power s^m. Independent of alpha, tau and the step count.
    """
    kerr = algebra.driven_kerr(_CHI, _COUNTERTERMS[0], 0)
    groups = _taylor_shift(kerr, -beta.conjugate(), beta)
    return tuple(substitute_gaussian_frame(groups[m], lam).drop_constant()
                 for m in sorted(groups))


@lru_cache(maxsize=16)
def _segment_numerators(lam: float, beta: AlphaPoly):
    """`_segment_expansion` as integers: (D, M, slots) for sum_m (i sigma)^m Q_m.

    D is the common denominator of every coefficient of Q_0..Q_M (Q_M the
    last nonempty one). `slots` pairs each monomial (m, n) with one (re, im)
    pair per alpha power: re[j] and im[j] are the integer real and imaginary
    parts of D i^j times that slot of Q_j, so the i^j quarter turn is folded
    in and the slot of the segment sum at real sigma is
    sum_j (re[j] + i im[j]) sigma^j / D.
    """
    q = _segment_expansion(lam, beta)
    q = q[:max(m for m, q_m in enumerate(q) if q_m.terms) + 1]
    den = math.lcm(*(part.denominator for q_m in q for poly in q_m.terms.values()
                     for c in poly.coeffs for part in (c.re, c.im)))
    slots = []
    for key in set().union(*(q_m.terms for q_m in q)):
        polys = [q_m.coefficient(*key) for q_m in q]
        column = []
        for p in range(max(len(poly.coeffs) for poly in polys)):
            re, im = [], []
            for j, poly in enumerate(polys):
                c = poly.coefficient(p)
                a, b = int(c.re * den), int(c.im * den)
                a, b = ((a, b), (-b, a), (-a, -b), (b, -a))[j % 4]  # i^j (a + ib)
                re.append(a)
                im.append(b)
            column.append((tuple(re), tuple(im)))
        slots.append((key, tuple(column)))
    return den, len(q) - 1, tuple(slots)


def _discrete_sequence(cfg: GateConfig, beta_poly: AlphaPoly, tau: float):
    """Displacement amplitude and per-step Hamiltonians of the drive-free scheme.

    The 2N interleaved kick displacements commute past the Kerr factors at the
    price of shifting each factor's frame; the product becomes one leftover
    displacement D(xi), xi = -i tau lam beta(alpha), times N Kerr factors whose
    substitution offset is w_k = s_k beta, s_k = i sigma_k, sigma_k =
    -(2k-1) tau / (2N). Segment k is sum_m s_k^m Q_m from
    `_segment_expansion`, summed on integers: the float sigma_k is exactly
    S/T, so each slot (monomial, alpha power) is
    sum_m (re_m + i im_m) S^m T^(M-m) / (D T^M) with the cached numerators of
    `_segment_numerators`, two integer sums and one true division per part.
    Python rounds an integer division correctly, as `float(Fraction)` does,
    so every float equals the one of the exact scalar products and of
    substituting each offset on its own. Constants picked up along the way
    are global phase and are dropped.
    """
    n_t = cfg.trotter_steps
    den, order, slots = _segment_numerators(float(cfg.lam), beta_poly)
    h_steps = []
    for k in range(1, n_t + 1):
        s, t = (-(2 * k - 1) * tau / (2.0 * n_t)).as_integer_ratio()
        powers = [s**m * t ** (order - m) for m in range(order + 1)]
        d = den * t**order
        values = {
            key: [complex(sum(map(operator.mul, re, powers)) / d,
                          sum(map(operator.mul, im, powers)) / d) for re, im in column]
            for key, column in slots
        }
        h_steps.append(algebra.band_matrix(values, cfg.alpha, cfg.n_fock))
    xi = -1j * tau * cfg.lam * beta_poly(cfg.alpha)
    return xi, h_steps


def _trotter_propagate(cfg: GateConfig, psi_in: PureState, tau: float):
    """The drive-free scheme: N undriven Kerr segments, then the leftover D(xi).

    Returns the output state and the `kick` diagnostic sqrt(2)|xi|.
    """
    xi, h_steps = _discrete_sequence(cfg, _COUNTERTERMS[1], tau)
    kick = math.sqrt(2.0) * abs(xi)
    if kick > math.sqrt(2.0 * cfg.n_fock) - 4.0:
        warnings.warn(
            f"intermediate displaced excursion {kick:.1f} strains Fock cutoff "
            f"N = {cfg.n_fock}",
            TruncationWarning,
            stacklevel=3,
        )

    psi = psi_in.vector
    dt = tau / cfg.trotter_steps
    for h_k in h_steps:
        psi = Spectrum(h_k).advance(psi, dt)
    psi = displace_vector(xi, psi)
    return PureState(psi, normalize=False), {"kick": kick}
