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
Hamiltonian half-step is exact (one spectral decomposition, reused for every
step), the dissipator substep is a Heun stage. Because the dissipator
annihilates traces, any Runge-Kutta polynomial in it preserves the trace to
roundoff; hermiticity is restored by symmetrization each step. The step count
doubles deterministically until the result stops moving, so reruns are
bit-identical.
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
    MixedState,
    Operator,
    PureState,
    TruncationWarning,
    _annihilation_matrix,
    ContractViolationError,
    fidelity,
    lambda_from_db,
)
from .states import ideal_cubic_target


class UnsupportedConfigurationError(ValueError):
    """A configuration combination outside the implemented scope."""


class IntegrationError(RuntimeError):
    """The master-equation step control failed to converge."""


LOSS_FRAMES = ("fluctuation", "displaced")


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
    lindblad_steps: int | None = None
    lindblad_tol: float = 1e-7
    max_step_doublings: int = 6

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
        """Construct from dB squeezing and the chi/kappa ratio."""
        kappa = 0.0 if chi_over_kappa is None else chi / chi_over_kappa
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


def effective_generators(cfg: GateConfig) -> tuple[Operator, Operator, complex]:
    """Effective Hamiltonian, fluctuation Lindblad operator, and drift rate."""
    h_poly = _frame_hamiltonian(
        float(cfg.chi), float(cfg.lam), float(cfg.noise.ddelta),
        complex(cfg.noise.dbeta_x, cfg.noise.dbeta_p),
    )
    h = algebra.to_matrix(h_poly, cfg.alpha, cfg.n_fock)

    c, s = _cosh_sinh(cfg.lam)
    a = _annihilation_matrix(cfg.n_fock)
    root_kappa = math.sqrt(cfg.kappa)
    l_fluct = Operator(root_kappa * (c * a + s * a.conj().T))
    drift = complex(root_kappa * cfg.alpha)
    return h, l_fluct, drift


def _gauge_hamiltonian(l_fluct: Operator, drift: complex) -> np.ndarray:
    """Hamiltonian equivalent of the constant part of the Lindblad operator."""
    lm = l_fluct.matrix
    return (0.5j) * (np.conj(drift) * lm - drift * lm.conj().T)


def _phase_noise_unitary(cfg: GateConfig) -> np.ndarray:
    """exp(-i dtheta n_eff) with the alpha^2 constant dropped (global phase)."""
    n_eff = _frame_number_operator(float(cfg.lam)).drop_constant()
    m = algebra.to_matrix(n_eff, cfg.alpha, cfg.n_fock)
    w, v = np.linalg.eigh(m.matrix)
    return (v * np.exp(-1j * cfg.noise.dtheta * w)) @ v.conj().T


def effective_number_operator(cfg: GateConfig) -> tuple[Operator, float]:
    """(n_eff with its constant dropped, the dropped constant sinh^2 + alpha^2)."""
    n_eff = _frame_number_operator(float(cfg.lam))
    const = n_eff.coefficient(0, 0)(cfg.alpha).real
    return algebra.to_matrix(n_eff.drop_constant(), cfg.alpha, cfg.n_fock), const


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------


class _SpectralPropagator:
    """Reusable exp(-i H t) from one Hermitian eigendecomposition."""

    def __init__(self, h: np.ndarray):
        scale = np.abs(h).max()
        if scale > 0 and np.abs(h - h.conj().T).max() > 1e-10 * scale:
            raise ContractViolationError("propagator requires a hermitian generator")
        self.w, self.v = np.linalg.eigh(h)

    def unitary(self, t: float) -> np.ndarray:
        return (self.v * np.exp(-1j * self.w * t)) @ self.v.conj().T

    def advance(self, psi: np.ndarray, t: float) -> np.ndarray:
        return self.v @ (np.exp(-1j * self.w * t) * (self.v.conj().T @ psi))


def evolve_unitary(h: Operator, tau: float, psi: PureState) -> PureState:
    """exp(-i H tau)|psi>; norm preserved to eigensolver tolerance."""
    prop = _SpectralPropagator(h.matrix if isinstance(h, Operator) else h)
    out = prop.advance(psi.vector, tau)
    nrm = np.linalg.norm(out)
    if abs(nrm - 1.0) > 1e-10:
        raise ContractViolationError(f"unitary evolution drifted norm to {nrm}")
    return PureState(out, normalize=False)


def _dissipator_step(rho, dt, lm, lm_dag, m_op):
    # Heun stage for d(rho) = L rho L^dag - (M rho + rho M)/2,  M = L^dag L.
    def d(r):
        lr = lm @ r
        return lr @ lm_dag - 0.5 * (m_op @ r + r @ m_op)

    k1 = d(rho)
    k2 = d(rho + dt * k1)
    return rho + (0.5 * dt) * (k1 + k2)


def _lindblad_fixed(h, lm, tau, rho0, n_steps, samples=0):
    """Strang splitting with exact Hamiltonian steps; returns (rho, trace_drift, snaps)."""
    prop = _SpectralPropagator(h)
    dt = tau / n_steps
    u_half = prop.unitary(0.5 * dt)
    u_half_dag = u_half.conj().T
    lm_dag = lm.conj().T
    m_op = lm_dag @ lm
    snap_every = max(1, n_steps // samples) if samples else 0

    rho = rho0.copy()
    drift = 0.0
    snaps = []
    if samples:
        snaps.append((0.0, rho.copy()))
    for k in range(n_steps):
        rho = u_half @ rho @ u_half_dag
        rho = _dissipator_step(rho, dt, lm, lm_dag, m_op)
        rho = u_half @ rho @ u_half_dag
        rho = 0.5 * (rho + rho.conj().T)
        drift = max(drift, abs(np.trace(rho).real - 1.0))
        if samples and ((k + 1) % snap_every == 0 or k == n_steps - 1):
            snaps.append(((k + 1) * dt, rho.copy()))
    return rho, drift, snaps


def evolve_lindblad(
    h: Operator,
    l_op: Operator,
    tau: float,
    rho0: MixedState,
    n_steps: int | None = None,
    tol: float = 1e-7,
    max_doublings: int = 6,
    samples: int = 0,
) -> tuple[MixedState, dict]:
    """Master-equation evolution d(rho)/dt = -i[H,rho] + L rho L^dag - {L^dag L, rho}/2.

    With n_steps given the step count is fixed; otherwise it doubles from 128
    until the final state stops moving by more than `tol` (max-entry norm),
    raising IntegrationError past `max_doublings`. Trace is preserved to
    roundoff by construction; positivity is eigen-spot-checked at the end.
    """
    hm = h.matrix if isinstance(h, Operator) else h
    lm = l_op.matrix if isinstance(l_op, Operator) else l_op
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tau == 0.0:
        return rho0, {"trace_drift": 0.0, "steps": 0, "snapshots": []}

    diagnostics: dict = {}
    if n_steps is not None:
        rho, drift, snaps = _lindblad_fixed(hm, lm, tau, rho0.matrix, n_steps, samples)
        diagnostics.update(steps=n_steps, trace_drift=drift, snapshots=snaps)
    else:
        # explicit dissipator stages are stable for kappa_edge * dt <~ 2;
        # start from the stability floor, then double until the state stops
        # moving
        m_edge = float(np.abs(lm.conj().T @ lm).sum(axis=1).max())
        n = max(128, int(math.ceil(tau * m_edge)))
        rho_prev = None
        delta = math.inf
        for _ in range(max_doublings + 1):
            rho, drift, snaps = _lindblad_fixed(hm, lm, tau, rho0.matrix, n, samples)
            if np.all(np.isfinite(rho)):
                if rho_prev is not None:
                    delta = float(np.abs(rho - rho_prev).max())
                    if delta < tol:
                        diagnostics.update(steps=n, trace_drift=drift,
                                           step_delta=delta, snapshots=snaps)
                        break
                rho_prev = rho
            n *= 2
        else:
            raise IntegrationError(
                f"no step convergence after {n // 2} steps "
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
# the gate pipelines
# ---------------------------------------------------------------------------


def cubic_gate(cfg: GateConfig, psi_in: PureState, samples: int = 0) -> EvolutionResult:
    """Run the full gate in the effective frame and score it against the target.

    Returns the output state (pure for kappa = 0, mixed otherwise), the gate
    error 1 - F(U_ideal psi_in, out), and diagnostics. `samples > 0` records a
    photon-number time series (total and fluctuation-frame means, variance).
    """
    if cfg.trotter_steps > 0:
        return trotterized_gate(cfg, psi_in)
    if psi_in.dim != cfg.n_fock:
        raise ValueError(f"input state dim {psi_in.dim} != n_fock {cfg.n_fock}")

    if cfg.gamma == 0.0 and not cfg.noise.any:
        # tau = 0: the medium is never entered
        return EvolutionResult(psi_in, 0.0, psi_in, {"tau": 0.0})

    target = ideal_cubic_target(cfg.gamma, psi_in)
    tau = cfg.tau
    h, l_fluct, drift = effective_generators(cfg)
    diagnostics: dict = {"tau": tau}

    n_obs = const = None
    if samples:
        n_obs, const = effective_number_operator(cfg)

    if cfg.kappa == 0.0:
        prop = _SpectralPropagator(h.matrix)
        if samples:
            _record_pure_series(prop, psi_in.vector, tau, samples, n_obs.matrix,
                                const, cfg.alpha, diagnostics)
        out: PureState | MixedState = PureState(
            prop.advance(psi_in.vector, tau), normalize=False
        )
    else:
        hm = h.matrix
        if cfg.loss_frame == "displaced":
            hm = hm + _gauge_hamiltonian(l_fluct, drift)
        rho, lb_diag = evolve_lindblad(
            Operator(hm), l_fluct, tau, psi_in.density_matrix(),
            n_steps=cfg.lindblad_steps, tol=cfg.lindblad_tol,
            max_doublings=cfg.max_step_doublings, samples=samples,
        )
        if samples:
            _series_from_snapshots(lb_diag.pop("snapshots"), n_obs.matrix, const,
                                   cfg.alpha, diagnostics)
        else:
            lb_diag.pop("snapshots", None)
        diagnostics.update(lb_diag)
        out = rho

    if cfg.noise.dtheta != 0.0:
        r = _phase_noise_unitary(cfg)
        if isinstance(out, PureState):
            out = PureState(r @ out.vector, normalize=False)
        else:
            out = MixedState(r @ out.matrix @ r.conj().T)

    err = 1.0 - fidelity(target, out)
    return EvolutionResult(out, err, target, diagnostics)


def _record_pure_series(prop, psi0, tau, samples, n_mat, const, alpha, diagnostics):
    times = np.linspace(0.0, tau, max(2, samples))
    tot, fluct, var = [], [], []
    n2 = n_mat @ n_mat
    for t in times:
        psi = prop.advance(psi0, t)
        mean = float(np.real(np.vdot(psi, n_mat @ psi)))
        second = float(np.real(np.vdot(psi, n2 @ psi)))
        tot.append(mean + const)
        fluct.append(mean + const - alpha**2)
        var.append(second - mean * mean)
    diagnostics["photon_series"] = {
        "t": times, "total": np.array(tot), "fluctuation": np.array(fluct),
        "variance": np.array(var),
    }


def _series_from_snapshots(snaps, n_mat, const, alpha, diagnostics):
    n2 = n_mat @ n_mat
    times, tot, fluct, var = [], [], [], []
    for t, rho in snaps:
        mean = float(np.real(np.trace(n_mat @ rho)))
        second = float(np.real(np.trace(n2 @ rho)))
        times.append(t)
        tot.append(mean + const)
        fluct.append(mean + const - alpha**2)
        var.append(second - mean * mean)
    diagnostics["photon_series"] = {
        "t": np.array(times), "total": np.array(tot),
        "fluctuation": np.array(fluct), "variance": np.array(var),
    }


def photon_number_trace(cfg: GateConfig, psi_in: PureState, samples: int):
    """Time series of <n_eff> (total and fluctuation parts) and Var(n_eff)."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    res = cubic_gate(cfg, psi_in, samples=samples)
    return res.diagnostics["photon_series"], res


# ---------------------------------------------------------------------------
# discrete-drive (Trotterized) variant
# ---------------------------------------------------------------------------


def _discrete_sequence(cfg: GateConfig, beta_poly: AlphaPoly, tau: float):
    """Displacement amplitude and per-step Hamiltonians of the drive-free scheme.

    The 2N interleaved kick displacements commute past the Kerr factors at the
    price of shifting each factor's frame; the product becomes one leftover
    displacement D(xi), xi = -i tau lam beta(alpha), times N Kerr factors whose
    substitution offset is w_k = -i (2k-1) tau beta / (2N) (alpha-symbolic).
    Constants picked up along the way are global phase and are dropped.
    """
    n_t = cfg.trotter_steps
    kerr = algebra.driven_kerr(cfg.chi, algebra.cubic_counterterms(cfg.chi)[0], 0)
    h_steps = []
    for k in range(1, n_t + 1):
        w_k = beta_poly * complex(0.0, -(2 * k - 1) * tau / (2.0 * n_t))
        h_k = substitute_gaussian_frame(kerr, cfg.lam, offset=w_k).drop_constant()
        h_steps.append(algebra.to_matrix(h_k, cfg.alpha, cfg.n_fock))
    xi = -1j * tau * cfg.lam * beta_poly(cfg.alpha)
    return xi, h_steps


def trotterized_gate(cfg: GateConfig, psi_in: PureState) -> EvolutionResult:
    """Drive-free variant: discrete displacements around undriven Kerr segments."""
    if cfg.trotter_steps < 1:
        raise UnsupportedConfigurationError("trotterized_gate requires trotter_steps >= 1")
    if cfg.kappa != 0.0:
        raise UnsupportedConfigurationError(
            "the discrete-drive scheme is implemented for the lossless case only"
        )
    if psi_in.dim != cfg.n_fock:
        raise ValueError(f"input state dim {psi_in.dim} != n_fock {cfg.n_fock}")

    target = ideal_cubic_target(cfg.gamma, psi_in)
    tau = cfg.tau
    params = cubic_parameters(cfg.chi, cfg.lam, cfg.alpha, cfg.gamma)
    xi, h_steps = _discrete_sequence(cfg, params.beta_cubic, tau)

    kick = math.sqrt(2.0) * abs(xi)
    if kick > math.sqrt(2.0 * cfg.n_fock) - 4.0:
        warnings.warn(
            f"intermediate displaced excursion {kick:.1f} strains Fock cutoff "
            f"N = {cfg.n_fock}",
            TruncationWarning,
            stacklevel=2,
        )

    psi = psi_in.vector
    dt = tau / cfg.trotter_steps
    for h_k in h_steps:
        psi = _SpectralPropagator(h_k.matrix).advance(psi, dt)
    from .fock import displacement  # local import avoids cycle at module load

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        d = displacement(xi, cfg.n_fock)
    psi = d.matrix @ psi
    out = PureState(psi, normalize=False)
    err = 1.0 - fidelity(target, out)
    return EvolutionResult(out, err, target, {"tau": tau, "kick": kick})
