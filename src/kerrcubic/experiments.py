"""Reproduction harness: sweeps, displacement optimization, and fits.

Sweeps are referentially transparent: no randomness anywhere, fixed
orderings, deterministic integrators, so rerunning a spec gives bit-identical
tables, serial or parallel.

The displacement optimum alpha* comes from a 7-point coarse scan that
classifies the bracket (unimodal, minimum at an edge, several minima) and
Brent's method on log(alpha) in the cell of the coarse minimum, in every
class: 13-17 gates when unimodal, up to 24 when the minimum is a bracket end.

Noise sweeps score each point three ways (noiseless, +offset, -offset). The
symmetrized excess (E+ + E-)/2 - E_int isolates the quadratic noise response
from the linear interference with the intrinsic error vector, which otherwise
contaminates the scaling fits near the crossover.
"""

from __future__ import annotations

import math
import multiprocessing
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from . import algebra
from .dynamics import EvolutionResult, GateConfig, cubic_gate, kappa_from_ratio
from .fock import (
    MixedState,
    PureState,
    Spectrum,
    lambda_from_db,
    momentum,
    position,
    wigner,
)
from .states import nlq_variance, parse_state, squeezed_vacuum

_SWEEP_PARAMS = (
    "lam_db", "alpha", "dtheta", "ddelta_rel", "dbeta_x_rel",
    "chi_over_kappa", "trotter_steps",
)
_ALPHA_MODES = ("fixed", "cube", "optimize")


@dataclass(frozen=True)
class FitResult:
    exponent: float
    prefactor: float
    r_squared: float


def fit_power_law(points) -> FitResult:
    """Least-squares exponent of y = C x^e on log-log data."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError(f"power-law fit needs >= 3 points, got {len(pts)}")
    if not all(0 < x < math.inf and 0 < y < math.inf for x, y in pts):
        raise ValueError("power-law fit requires positive, finite data")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    sstot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if sstot == 0 else 1.0 - float(np.sum(resid**2)) / sstot
    return FitResult(float(slope), float(math.exp(intercept)), min(max(r2, 0.0), 1.0))


# ---------------------------------------------------------------------------
# displacement optimization
# ---------------------------------------------------------------------------


ALPHA_COEFF = 1.85                 # C in the reference scaling alpha = C * lam^3
ALPHA_BRACKET_SCALE = (0.45, 3.5)  # default optimize bracket, in units of C * lam^3
_COARSE_POINTS = 7    # geometric scan that classifies the bracket
_ALPHA_XATOL = 2.5e-4  # Brent stop: absolute tolerance in log(alpha)


@dataclass(frozen=True)
class AlphaOptimum:
    alpha: float
    error: float
    evaluations: int
    kind: str  # "unimodal", "edge" or "multimodal": the class of the coarse scan

    @property
    def unimodal(self) -> bool:
        return self.kind == "unimodal"


def optimize_alpha(
    cfg: GateConfig,
    bracket: tuple[float, float],
    input_state: PureState,
) -> AlphaOptimum:
    """Minimize the gate error over the displacement by Brent's method on log(alpha).

    A 7-point geometric scan classifies the bracket by its argmin k: "edge" when
    k is a bracket end, "unimodal" when the scan has exactly one interior
    minimum, "multimodal" otherwise (non-unimodal classes warn). Brent's
    parabolic-plus-golden minimizer (scipy's bounded `minimize_scalar`) then
    refines on the coarse cell around k, [grid[k-1], grid[k+1]] clipped to the
    bracket, to `_ALPHA_XATOL` in log(alpha). The better of Brent's point and
    grid[k] is returned, so the error never exceeds the coarse minimum and a
    minimum at a bracket end returns that end exactly. Gates are memoized;
    `evaluations` counts the distinct ones.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(hi) and 0 < lo <= hi):
        raise ValueError(f"bracket must be finite with 0 < lo <= hi, got {bracket}")
    cache: dict[float, float] = {}

    def err(alpha: float) -> float:
        if alpha not in cache:
            cache[alpha] = cubic_gate(replace(cfg, alpha=alpha), input_state).error
        return cache[alpha]

    if lo == hi:
        return AlphaOptimum(lo, err(lo), 1, "unimodal")

    grid = np.geomspace(lo, hi, _COARSE_POINTS)
    vals = [err(a) for a in grid]
    k = int(np.argmin(vals))
    interior_minima = sum(vals[i] < min(vals[i - 1], vals[i + 1])
                          for i in range(1, _COARSE_POINTS - 1))
    kind = ("edge" if k in (0, _COARSE_POINTS - 1)
            else "unimodal" if interior_minima == 1 else "multimodal")
    if kind != "unimodal":
        warnings.warn(f"gate error not unimodal over the bracket ({kind}); "
                      "refining the cell of the coarse minimum", stacklevel=2)
    cell = (math.log(grid[max(k - 1, 0)]), math.log(grid[min(k + 1, _COARSE_POINTS - 1)]))
    best = minimize_scalar(lambda u: err(math.exp(u)), bounds=cell, method="bounded",
                           options={"xatol": _ALPHA_XATOL})
    alpha = math.exp(best.x) if best.fun < vals[k] else float(grid[k])
    return AlphaOptimum(alpha, err(alpha), len(cache), kind)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep description."""

    base: GateConfig
    param: str
    values: tuple
    input_state: str = "gkp:z+:0.5"
    alpha_mode: str = "fixed"
    alpha_coeff: float = ALPHA_COEFF  # C in alpha = C * lam^3 for mode "cube"
    bracket_scale: tuple[float, float] = ALPHA_BRACKET_SCALE  # optimize bracket around C*lam^3
    workers: int = 1

    def __post_init__(self):
        if self.param not in _SWEEP_PARAMS:
            raise ValueError(f"unknown sweep parameter {self.param!r}")
        if not self.values:
            raise ValueError("sweep needs a non-empty value list")
        if self.alpha_mode not in _ALPHA_MODES:
            raise ValueError(f"unknown alpha mode {self.alpha_mode!r}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.param == "trotter_steps" and not all(v.is_integer() for v in self.values):
            raise ValueError(f"trotter step counts must be whole numbers, got {self.values}")


def _configure_point(spec: SweepSpec, value: float) -> GateConfig:
    cfg = spec.base
    if spec.param == "lam_db":
        cfg = replace(cfg, lam=lambda_from_db(value))
    elif spec.param == "alpha":
        cfg = replace(cfg, alpha=value)
    elif spec.param == "chi_over_kappa":
        cfg = replace(cfg, kappa=kappa_from_ratio(cfg.chi, value))
    elif spec.param == "trotter_steps":
        cfg = replace(cfg, trotter_steps=int(value))
    elif spec.param == "dtheta":
        cfg = replace(cfg, noise=replace(cfg.noise, dtheta=value))
    # relative detuning/drive offsets are resolved after alpha is known
    if spec.alpha_mode == "cube":
        cfg = replace(cfg, alpha=spec.alpha_coeff * cfg.lam**3)
    return cfg


def _resolve_relative_noise(param: str, cfg: GateConfig, value: float) -> GateConfig:
    """Set a detuning or drive offset of `value` times its counter-term at cfg.alpha."""
    if param == "ddelta_rel":
        dc = algebra.cubic_counterterms(cfg.chi)[0](cfg.alpha).real
        return replace(cfg, noise=replace(cfg.noise, ddelta=value * dc))
    if param == "dbeta_x_rel":
        bc = algebra.cubic_counterterms(cfg.chi)[1](cfg.alpha).real
        return replace(cfg, noise=replace(cfg.noise, dbeta_x=value * bc))
    return cfg


def _sweep_point(spec: SweepSpec, value: float) -> dict:
    row = {"value": value, "param": spec.param, "ok": True, "message": ""}
    try:
        cfg = _configure_point(spec, value)
        psi = parse_state(spec.input_state, cfg.n_fock)
        if spec.alpha_mode == "optimize":
            center = spec.alpha_coeff * cfg.lam**3
            opt = optimize_alpha(
                cfg, (center * spec.bracket_scale[0], center * spec.bracket_scale[1]), psi
            )
            cfg = replace(cfg, alpha=opt.alpha)
        cfg = _resolve_relative_noise(spec.param, cfg, value)
        res = cubic_gate(cfg, psi)
        row.update(
            lam=cfg.lam, lam_db=cfg.lam_db, alpha=cfg.alpha, error=res.error,
            tau=res.diagnostics.get("tau", 0.0),
        )
    except Exception as exc:  # per-row failure: record and continue
        row.update(ok=False, message=f"{type(exc).__name__}: {exc}",
                   lam=np.nan, lam_db=np.nan, alpha=np.nan, error=np.nan, tau=np.nan)
    return row


def _map_points(fn, jobs: list[tuple], workers: int) -> list:
    """[fn(*job) for job in jobs] in order, over a process pool when workers > 1.

    Warnings are ignored; the pool's workers are started after the filter is
    set, so they ignore them too and both modes write the same stderr.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if workers < 2 or len(jobs) < 2:
            return [fn(*job) for job in jobs]
        with multiprocessing.Pool(min(workers, len(jobs))) as pool:
            return pool.starmap(fn, jobs)


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate every sweep point; per-point failures are recorded, not raised."""
    return _map_points(_sweep_point, [(spec, v) for v in spec.values], spec.workers)


def _noise_point(spec: SweepSpec, lam_db: float, value: float) -> dict:
    base = _configure_point(replace(spec, param="lam_db"), lam_db)
    psi = parse_state(spec.input_state, base.n_fock)
    row = {"param": spec.param, "lam_db": lam_db, "lam": base.lam,
           "alpha": base.alpha, "value": value, "ok": True, "message": ""}
    try:
        noise_spec = replace(spec, base=base, alpha_mode="fixed")

        def noisy_error(v: float) -> float:
            cfg = _resolve_relative_noise(spec.param, _configure_point(noise_spec, v), v)
            return cubic_gate(cfg, psi).error

        e_int = cubic_gate(base, psi).error
        e_plus, e_minus = noisy_error(value), noisy_error(-value)
        row.update(error_int=e_int, error_plus=e_plus, error_minus=e_minus,
                   excess=0.5 * (e_plus + e_minus) - e_int)
        if max(e_plus, e_minus) > 0.5:
            row["message"] = "error exceeds 0.5; outside the small-noise regime"
    except Exception as exc:
        row.update(ok=False, message=f"{type(exc).__name__}: {exc}", error_int=np.nan,
                   error_plus=np.nan, error_minus=np.nan, excess=np.nan)
    return row


def noise_sweep(spec: SweepSpec, lam_db_values) -> list[dict]:
    """Noise response over (noise value x squeezing); spec.param picks the channel.

    Each row carries E_int, E(+v), E(-v) and the symmetrized excess.
    """
    if spec.param not in ("dtheta", "ddelta_rel", "dbeta_x_rel"):
        raise ValueError(f"noise_sweep cannot sweep {spec.param!r}")
    jobs = [(spec, db, v) for db in lam_db_values for v in spec.values]
    return _map_points(_noise_point, jobs, spec.workers)


# ---------------------------------------------------------------------------
# cubic-phase-state generation
# ---------------------------------------------------------------------------


@dataclass
class CubicStateResult:
    fidelity: float
    raw_fidelity: float
    nlq_variance: float
    xs: np.ndarray
    ps: np.ndarray
    wigner: np.ndarray
    correction: np.ndarray
    evolution: EvolutionResult


@lru_cache(maxsize=8)
def _correction_basis(n: int) -> np.ndarray:
    """Read-only stack of the generators x^2, p^2, {x,p}/2, x, p of the correction."""
    x, p = position(n), momentum(n)
    basis = np.array([x @ x, p @ p, 0.5 * (x @ p + p @ x), x, p])
    basis.setflags(write=False)
    return basis


def _correction_objective(params: np.ndarray, target: PureState, out) -> tuple[float, np.ndarray]:
    """(-F, -grad F) of the corrected fidelity F(params) = <phi|rho|phi>.

    With G = sum_k params_k G_k = V diag(w) V^dag and c = V^dag|target>, the
    trial state is phi = exp(-iG)|target> = V (e^{-iw} c). One eigendecomposition
    also gives the exact gradient by the Daleckii-Krein formula:
    dF/dparams_k = 2 Re sum(G_k * Z), Z = conj(V) (Gamma * conj(y) c^T) V^T with
    y = V^dag rho phi and the divided differences of e^{-iw},
    Gamma_jl = -i e^{-i(w_j + w_l)/2} sinc((w_j - w_l)/2pi). That form has no
    0/0 and is exact on the diagonal, so the degenerate spectrum of
    params = 0 needs no special case. A pure output is applied as
    |out><out|phi>, so no N x N product is formed besides the two in Z.
    """
    basis = _correction_basis(target.dim)
    s = Spectrum(sum(c * b for c, b in zip(params, basis)))
    c = s.v.conj().T @ target.vector
    phi = s.v @ (np.exp(-1j * s.w) * c)
    if isinstance(out, MixedState):
        rho_phi = out.matrix @ phi
    else:
        rho_phi = out.vector * np.vdot(out.vector, phi)
    y = s.v.conj().T @ rho_phi
    half = np.exp(-0.5j * s.w)
    sinc = np.sinc(np.subtract.outer(s.w, s.w) / (2.0 * np.pi))
    z = s.v.conj() @ (-1j * sinc * np.outer(half * y.conj(), half * c)) @ s.v.T
    grad = 2.0 * np.real(np.tensordot(basis, z, axes=2))
    return -float(np.real(np.vdot(phi, rho_phi))), -grad


def optimize_gaussian_correction(target: PureState, out) -> tuple[float, np.ndarray]:
    """Maximize fidelity over a single-mode Gaussian unitary applied to the output.

    The correction group is exp(i(u x^2 + v p^2 + w {x,p}/2 + dx x + dp p));
    state preparation allows this freedom because the input is fixed, unlike a
    gate acting on unknown states. Each trial g = exp(iG) is scored as
    <phi|rho|phi> with phi = g^dag|target>. `_correction_objective` returns
    that fidelity and its exact gradient from one eigendecomposition, and BFGS
    at its default tolerances climbs from params = 0; at the fig4 point
    (N = 128) it converges in about 16 evaluations.
    """
    best = minimize(_correction_objective, np.zeros(5), args=(target, out),
                    jac=True, method="BFGS")
    return -float(best.fun), best.x


def generate_cubic_state(
    cfg: GateConfig,
    delta: float = 0.5,
    grid: tuple | None = None,
    gaussian_correction: bool = True,
) -> CubicStateResult:
    """Drive the gate on a squeezed vacuum and score the cubic-phase state.

    Returns the state fidelity against U_ideal |delta>, the Wigner function of
    the (corrected) output on the grid, and the nonlinear-quadrature variance.
    """
    psi = squeezed_vacuum(delta, cfg.n_fock)
    res = cubic_gate(cfg, psi)
    raw_f = 1.0 - res.error
    out = res.state
    params = np.zeros(5)
    if gaussian_correction:
        f, params = optimize_gaussian_correction(res.target, out)
        gen = sum(c * b for c, b in zip(params, _correction_basis(cfg.n_fock)))
        g = Spectrum(gen).unitary(-1.0)
        if isinstance(out, MixedState):
            out = MixedState(g @ out.matrix @ g.conj().T)
        else:
            out = PureState(g @ out.vector, normalize=False)
    else:
        f = raw_f
    if grid is None:
        xs = np.linspace(-6.0, 6.0, 121)
        ps = np.linspace(-6.0, 6.0, 121)
    else:
        xs, ps = np.asarray(grid[0], float), np.asarray(grid[1], float)
    w_grid = wigner(out, xs, ps)
    nlq = nlq_variance(out, cfg.gamma)
    return CubicStateResult(f, raw_f, nlq, xs, ps, w_grid, params, res)
