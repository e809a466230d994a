"""Gate dynamics in the squeezed-displaced frame.

Everything evolves in the effective frame, where the mode operator appears as
a_eff = cosh(ln lam) a + sinh(ln lam) a^dag + alpha; the native frame at
alpha ~ 1e4 is numerically unreachable, and the two frames are exactly
equivalent (validated by the explicit-conjugation oracle in the test suite).

Loss enters through the Lindblad operator sqrt(kappa) a_eff. Its alpha-free
Bogoliubov part L = sqrt(kappa)(cosh a + sinh a^dag) is what the integrator
uses; the constant sqrt(kappa)*alpha is either treated as a compensated
deterministic drift (loss_frame="fluctuation", the default) or kept as the
exact gauge Hamiltonian (i/2)(c* L - c L^dag) it generates
(loss_frame="displaced"). Neither option ever forms alpha^2-scale matrix
entries.

The master-equation integrator is a deterministic Strang splitting: the
Hamiltonian half-step is exact (one `fock.Spectrum`, reused for every step),
the dissipator substep is a Heun stage. Adjacent half-steps are merged into
one full step U(dt) = U(dt/2)^2, so a step costs one dense N^3 sandwich;
the half-step is applied alone only at the start and the end.
The dissipator is evaluated from CSR forms of L and M = L^dag L (L is
tridiagonal, M pentadiagonal). For Hermitian rho, L rho L^dag = L (L rho)^dag
and rho M = (M rho)^dag, so an evaluation is three sparse-times-dense products,
O(N^2), and no dense-times-sparse product. The Bogoliubov L is real in both
loss frames (the gauge term goes into H), so L and M stay real CSR and act on
the float64 view of rho, an (N, 2N) array of interleaved real and imaginary
parts: the same products summed in the same row order as a complex product, at
about half its cost; a complex L keeps the complex product. Conjugate
transposes are written into one C-contiguous scratch buffer, and the stage
arithmetic runs in place. Because the dissipator annihilates traces, any
Runge-Kutta polynomial in it preserves the trace to roundoff; hermiticity is
restored by symmetrization each step. The
step count is chosen by comparing rungs of n and 2n steps: the first pair
starts at the stability floor max(8, ceil(tau * m_edge)), and after a failing
pair the second-order error model of Strang splitting (the rung delta falls 4x
per doubling) picks the pair predicted to pass. The choice is deterministic,
so reruns are bit-identical.

scipy.sparse is imported inside `evolve_lindblad`, its only user: lossless
gates, Trotterized gates and noise sweeps never load it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import algebra
from .algebra import AlphaPoly, BosonPolynomial, cubic_parameters, substitute_gaussian_frame
from .fock import (
    ContractViolationError,
    MixedState,
    PureState,
    Spectrum,
    TruncationWarning,
    _annihilation_matrix,
    displace_vector,
    displacement_spectrum,
    fidelity,
    lambda_from_db,
)
from .states import ideal_cubic_target


class UnsupportedConfigurationError(ValueError):
    """A configuration combination outside the implemented scope."""


class IntegrationError(RuntimeError):
    """The master-equation step control failed to converge."""


LOSS_FRAMES = ("fluctuation", "displaced")

# the step ladder of `evolve_lindblad`, read at call time: the rung-pair
# tolerance (max-entry norm) and the doublings above max(128, floor)
LINDBLAD_TOL = 1e-7
MAX_STEP_DOUBLINGS = 6


@dataclass(frozen=True)
class NoiseParams:
    """Static parameter offsets: phase, detuning, and drive quadratures."""

    dtheta: float = 0.0
    ddelta: float = 0.0
    dbeta_x: float = 0.0
    dbeta_p: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.dtheta, self.ddelta, self.dbeta_x, self.dbeta_p))):
            raise ValueError(f"noise offsets must be finite, got {self}")

    @property
    def any(self) -> bool:
        return any((self.dtheta, self.ddelta, self.dbeta_x, self.dbeta_p))


def kappa_from_ratio(chi: float, chi_over_kappa: float) -> float:
    """Decay rate chi / (chi/kappa); the ratio must be finite and positive."""
    if not (math.isfinite(chi_over_kappa) and chi_over_kappa > 0):
        raise ValueError(f"chi_over_kappa must be finite and > 0, got {chi_over_kappa}")
    return chi / chi_over_kappa


@dataclass(frozen=True)
class GateConfig:
    """One operating point of the gate (chi = 1 sets the time unit)."""

    lam: float
    alpha: float
    gamma: float
    chi: float = 1.0
    kappa: float = 0.0
    noise: NoiseParams = NoiseParams()
    n_fock: int = 128
    loss_frame: str = "fluctuation"
    trotter_steps: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.chi, self.lam, self.alpha, self.kappa))):
            raise ValueError(
                f"chi, lam, alpha and kappa must be finite, got chi={self.chi}, "
                f"lam={self.lam}, alpha={self.alpha}, kappa={self.kappa}"
            )
        if min(self.chi, self.lam, self.alpha) <= 0:
            raise ValueError("chi, lam and alpha must be positive")
        if self.gamma < 0 or not math.isfinite(self.gamma):
            raise ValueError(f"gate angle must be finite and >= 0, got {self.gamma}")
        if self.kappa < 0:
            raise ValueError(f"decay rate must be >= 0, got {self.kappa}")
        if self.n_fock < 8:
            raise ValueError(f"n_fock too small: {self.n_fock}")
        if self.loss_frame not in LOSS_FRAMES:
            raise ValueError(f"loss_frame must be one of {LOSS_FRAMES}")
        if self.trotter_steps < 0:
            raise ValueError("trotter_steps must be >= 0")

    @staticmethod
    def make(lam_db: float, alpha: float, gamma: float, chi: float = 1.0,
             chi_over_kappa: float | None = None, **kw) -> "GateConfig":
        """Construct from dB squeezing and the chi/kappa ratio (None: lossless)."""
        kappa = 0.0 if chi_over_kappa is None else kappa_from_ratio(chi, chi_over_kappa)
        return GateConfig(lam=lambda_from_db(lam_db), alpha=alpha, gamma=gamma,
                          chi=chi, kappa=kappa, **kw)

    @property
    def lam_db(self) -> float:
        return 20.0 * math.log10(self.lam)

    @property
    def tau(self) -> float:
        if self.gamma == 0.0:
            return 0.0
        return cubic_parameters(self.chi, self.lam, self.alpha, self.gamma).tau


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
def _frame_hamiltonian(chi: float, lam: float, ddelta: float, dbeta: complex) -> BosonPolynomial:
    """Substituted driven Kerr with counter-terms and noise, constant dropped.

    Independent of alpha, so the gates of an alpha optimization share it.
    Noise offsets are folded into the detuning and drive before the frame
    substitution, so the counter-term cancellation stays exact for the ideal
    part and the noise appears as the residual terms it physically is.
    """
    delta_c, beta_c = algebra.cubic_counterterms(chi)
    delta = delta_c + AlphaPoly(ddelta)
    beta = beta_c + AlphaPoly(dbeta)
    return substitute_gaussian_frame(algebra.driven_kerr(chi, delta, beta), lam).drop_constant()


@lru_cache(maxsize=16)
def _frame_number_operator(lam: float) -> BosonPolynomial:
    """n_eff = a_eff^dag a_eff in the frame, constant sinh^2 + alpha^2 included."""
    return substitute_gaussian_frame(BosonPolynomial({(1, 1): 1}), lam)


def _frame_matrix(cfg: GateConfig) -> np.ndarray:
    """The effective Hamiltonian H(alpha) of `cfg` on its Fock space."""
    h_poly = _frame_hamiltonian(
        float(cfg.chi), float(cfg.lam), float(cfg.noise.ddelta),
        complex(cfg.noise.dbeta_x, cfg.noise.dbeta_p),
    )
    return algebra.to_matrix(h_poly, cfg.alpha, cfg.n_fock)


def effective_generators(cfg: GateConfig) -> tuple[np.ndarray, np.ndarray, complex]:
    """Effective Hamiltonian, fluctuation Lindblad operator, and drift rate."""
    h = _frame_matrix(cfg)
    c, s = _cosh_sinh(cfg.lam)
    a = _annihilation_matrix(cfg.n_fock)
    root_kappa = math.sqrt(cfg.kappa)
    l_fluct = root_kappa * (c * a + s * a.conj().T)
    drift = complex(root_kappa * cfg.alpha)
    return h, l_fluct, drift


def _gauge_hamiltonian(l_fluct: np.ndarray, drift: complex) -> np.ndarray:
    """Hamiltonian equivalent of the constant part of the Lindblad operator."""
    return (0.5j) * (np.conj(drift) * l_fluct - drift * l_fluct.conj().T)


def effective_number_operator(cfg: GateConfig) -> tuple[np.ndarray, float]:
    """(n_eff with its constant dropped, the dropped constant sinh^2 + alpha^2)."""
    n_eff = _frame_number_operator(float(cfg.lam))
    const = n_eff.coefficient(0, 0)(cfg.alpha).real
    return algebra.to_matrix(n_eff.drop_constant(), cfg.alpha, cfg.n_fock), const


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------


def _lindblad_fixed(spectrum, lindblad, tau, rho0, n_steps):
    """Strang splitting with exact Hamiltonian steps; returns (rho, trace_drift).

    Adjacent Hamiltonian half-steps are merged: the loop carries the mid-step
    state U(dt/2) rho U(dt/2)^dag, applies the Heun dissipator stage, then the
    full step U(dt) = U(dt/2)^2. The closing half-step is applied at the end
    only. A real CSR `lindblad` pair acts on the float64 view of rho, a
    complex one as a complex product; every conjugate transpose goes into one
    preallocated scratch buffer, and U^dag is formed once per call. The
    result is bit-identical to the plain complex expressions.
    """
    l_op, m_op = lindblad
    dt = tau / n_steps
    u_half = spectrum.unitary(0.5 * dt)
    u_step = u_half @ u_half
    # (U, U^dag) once per rung; U^dag is a transposed view BLAS reads as is
    half, step = (u_half, u_half.conj().T), (u_step, u_step.conj().T)
    buf = np.empty(rho0.shape, dtype=np.complex128)

    def dagger(x):  # x^dag into the one C-contiguous scratch buffer
        return np.conjugate(x.T, out=buf)

    if np.iscomplexobj(l_op):
        def apply(op, r):
            return op @ r
    else:
        def apply(op, r):
            # a real CSR on the float64 view of r sums the same products in
            # the same row order as the complex product, without the upcast
            return (op @ r.view(np.float64)).view(np.complex128)

    def sandwich(u, u_dag, r):
        r = u @ r @ u_dag
        r += dagger(r)
        r *= 0.5
        return r

    # d(r) = L r L^dag - (M r + r M)/2 with M = L^dag L, for Hermitian r, as
    # L (L r)^dag - (M r + (M r)^dag)/2: three CSR-times-dense products
    def d(r):
        lr = apply(l_op, r)
        mr = apply(m_op, r)
        out = apply(l_op, dagger(lr))
        mr += dagger(mr)
        mr *= 0.5
        out -= mr
        return out

    rho = sandwich(*half, rho0)
    drift = 0.0
    for k in range(1, n_steps + 1):
        k1 = d(rho)
        k2 = dt * k1
        k2 += rho
        k2 = d(k2)
        k1 += k2
        k1 *= 0.5 * dt
        rho += k1
        rho = sandwich(*(half if k == n_steps else step), rho)
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

    With n_steps given the step count is fixed. Otherwise rungs of n and 2n
    steps are compared until the 2n-step state moves by less than tol =
    `LINDBLAD_TOL` (max-entry norm), and that state is returned. The first
    pair starts at the stability floor max(8, ceil(tau * m_edge)). After a
    failing pair with delta d, the second-order error model (d falls 4x per
    doubling) picks the next pair: j = max(1, ceil(log4(d / tol))) doublings
    on. No rung exceeds max(128, ceil(tau * m_edge)) * 2**MAX_STEP_DOUBLINGS;
    the last pair tried is the one that ends there, and IntegrationError
    follows if it fails. Trace is preserved to roundoff by construction;
    positivity is eigen-spot-checked at the end. Diagnostics: kept `steps`,
    `integrated_steps` summed over every rung, `rungs` as (steps, delta) per
    integrated rung in order (delta None where no pair was compared),
    `step_delta` of the accepted rung, `trace_drift`, `min_eigenvalue`.
    """
    if n_steps is not None and n_steps < 1:
        raise ValueError(f"n_steps must be None or >= 1, got {n_steps}")
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if tau == 0.0:
        return rho0, {"trace_drift": 0.0, "steps": 0, "integrated_steps": 0}

    from scipy import sparse

    spectrum = Spectrum(h)
    if np.iscomplexobj(l_op) and not l_op.imag.any():
        l_op = l_op.real  # L and M stay real CSR and act on float64 views
    l_sp = sparse.csr_matrix(l_op)
    m_op = sparse.csr_matrix(l_op.conj().T) @ l_sp
    # scipy sorts the indices in place on first use (abs() below); sort them
    # now, so that a rung's state does not depend on the branch integrating it
    m_op.sort_indices()
    lindblad = (l_sp, m_op)
    diagnostics: dict = {}
    if n_steps is not None:
        rho, drift = _lindblad_fixed(spectrum, lindblad, tau, rho0.matrix, n_steps)
        diagnostics.update(steps=n_steps, integrated_steps=n_steps, trace_drift=drift)
    else:
        tol = LINDBLAD_TOL
        # explicit dissipator stages are stable for kappa_edge * dt <~ 2, so
        # every rung keeps dt * m_edge <= 1
        floor = int(math.ceil(tau * float(abs(m_op).sum(axis=1).max())))
        n_top = max(128, floor) << MAX_STEP_DOUBLINGS
        p = max(8, floor)
        rungs: list = []
        states: dict = {}  # steps -> state of the rung, None if not finite
        delta = math.inf
        while 2 * p <= n_top:
            for n in (p, 2 * p):
                if n not in states:
                    rho, drift = _lindblad_fixed(spectrum, lindblad, tau, rho0.matrix, n)
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
    if cfg.trotter_steps > 0 and cfg.kappa != 0.0:
        raise UnsupportedConfigurationError(
            "the discrete-drive scheme is implemented for the lossless case only")
    if cfg.trotter_steps > 0 and (cfg.noise.ddelta or cfg.noise.dbeta_x or cfg.noise.dbeta_p):
        raise UnsupportedConfigurationError(
            "the discrete-drive scheme takes the phase offset dtheta only, not detuning "
            "or drive offsets")
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
        h, l_fluct, drift = effective_generators(cfg)
        if cfg.loss_frame == "displaced":
            h = h + _gauge_hamiltonian(l_fluct, drift)
        out, prop_diag = evolve_lindblad(h, l_fluct, tau, psi_in.density_matrix())
    diagnostics.update(prop_diag)

    if cfg.noise.dtheta != 0.0:
        # exp(-i dtheta n_eff); the dropped constant of n_eff is a global phase
        r = Spectrum(effective_number_operator(cfg)[0]).unitary(cfg.noise.dtheta)
        if isinstance(out, PureState):
            out = PureState(r @ out.vector, normalize=False)
        else:
            out = MixedState(r @ out.matrix @ r.conj().T)

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


@lru_cache(maxsize=16)
def _segment_expansion(chi: float, lam: float, beta: AlphaPoly) -> tuple[BosonPolynomial, ...]:
    """(Q_0, ..., Q_4) with Kerr(F + s beta) = sum_m s^m Q_m for imaginary s.

    Kerr is the undriven Kerr with the counter-term detuning, F the frame
    substitution, and constants are dropped. For imaginary s, conj(s beta)^i
    (s beta)^j = s^(i+j) (-conj(beta))^i beta^j, so the Taylor shift of Kerr
    by (-conj(beta), beta), grouped by order m, carries all of the dependence
    on s in the power s^m. Independent of alpha, tau and the step count.
    """
    kerr = algebra.driven_kerr(chi, algebra.cubic_counterterms(chi)[0], 0)
    groups = _taylor_shift(kerr, -beta.conjugate(), beta)
    return tuple(substitute_gaussian_frame(groups[m], lam).drop_constant()
                 for m in sorted(groups))


def _discrete_sequence(cfg: GateConfig, beta_poly: AlphaPoly, tau: float):
    """Displacement amplitude and per-step Hamiltonians of the drive-free scheme.

    The 2N interleaved kick displacements commute past the Kerr factors at the
    price of shifting each factor's frame; the product becomes one leftover
    displacement D(xi), xi = -i tau lam beta(alpha), times N Kerr factors whose
    substitution offset is w_k = s_k beta, s_k = -i (2k-1) tau / (2N). Segment
    k is sum_m s_k^m Q_m from the cached `_segment_expansion`: exact scalar
    products, equal to substituting each offset on its own. Constants picked
    up along the way are global phase and are dropped.
    """
    n_t = cfg.trotter_steps
    q = _segment_expansion(float(cfg.chi), float(cfg.lam), beta_poly)
    h_steps = []
    for k in range(1, n_t + 1):
        s_k = algebra.ExactComplex.of(complex(0.0, -(2 * k - 1) * tau / (2.0 * n_t)))
        h_k, power = q[0], s_k
        for q_m in q[1:]:
            h_k = h_k + q_m * power
            power = power * s_k
        h_steps.append(algebra.to_matrix(h_k, cfg.alpha, cfg.n_fock))
    xi = -1j * tau * cfg.lam * beta_poly(cfg.alpha)
    return xi, h_steps


def _trotter_propagate(cfg: GateConfig, psi_in: PureState, tau: float):
    """The drive-free scheme: N undriven Kerr segments, then the leftover D(xi).

    Returns the output state and the `kick` diagnostic sqrt(2)|xi|.
    """
    xi, h_steps = _discrete_sequence(cfg, algebra.cubic_counterterms(cfg.chi)[1], tau)
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
    psi = displace_vector(displacement_spectrum(cfg.n_fock), xi, psi)
    return PureState(psi, normalize=False), {"kick": kick}
