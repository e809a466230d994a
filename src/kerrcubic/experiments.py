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
contaminates the scaling fits near the crossover. Each squeezing runs the
noiseless gate once. A phase offset is a rotation of that gate's output, so
one spectrum of n_eff gives E+, E- and the excess in closed form, with no
difference of O(1) errors; a detuning or drive offset changes the
Hamiltonian and runs two noisy gates per value.

scipy.optimize is imported inside `optimize_alpha` and
`optimize_gaussian_correction`, its only users, so sweeps at fixed or cube
alpha and noise sweeps never load it; a forked sweep worker loads it on its
first optimization.
"""

from __future__ import annotations

import math
import multiprocessing
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import algebra
from .dynamics import (
    EvolutionResult,
    GateConfig,
    cubic_gate,
    effective_number_operator,
)
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

_RUN_PARAMS = ("lam_db", "alpha")                          # what run_sweep sweeps
_NOISE_PARAMS = ("dtheta", "ddelta_rel", "dbeta_x_rel")    # what noise_sweep sweeps
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
    from scipy.optimize import minimize_scalar

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
        if self.param not in _RUN_PARAMS + _NOISE_PARAMS:
            raise ValueError(f"unknown sweep parameter {self.param!r}")
        if not self.values:
            raise ValueError("sweep needs a non-empty value list")
        if self.alpha_mode not in _ALPHA_MODES:
            raise ValueError(f"unknown alpha mode {self.alpha_mode!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not (math.isfinite(self.alpha_coeff) and self.alpha_coeff > 0):
            raise ValueError(f"alpha_coeff must be finite and > 0, got {self.alpha_coeff}")
        lo, hi = self.bracket_scale
        if not (math.isfinite(hi) and 0 < lo <= hi):
            raise ValueError(f"bracket_scale must be finite with 0 < lo <= hi, "
                             f"got {self.bracket_scale}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


def _configure_point(spec: SweepSpec, param: str, value: float) -> GateConfig:
    """spec.base with `param` ("lam_db" or "alpha") at `value`; cube-law alpha in mode "cube"."""
    cfg = spec.base
    if param == "lam_db":
        cfg = replace(cfg, lam=lambda_from_db(value))
    else:
        cfg = replace(cfg, alpha=value)
    if spec.alpha_mode == "cube":
        cfg = replace(cfg, alpha=spec.alpha_coeff * cfg.lam**3)
    return cfg


def _resolve_relative_noise(param: str, cfg: GateConfig, value: float) -> GateConfig:
    """Set the detuning ("ddelta_rel") or drive ("dbeta_x_rel") offset to
    `value` times its counter-term at cfg.alpha."""
    delta_c, beta_c = algebra.cubic_counterterms(cfg.chi)
    if param == "ddelta_rel":
        return replace(cfg, noise=replace(cfg.noise, ddelta=value * delta_c(cfg.alpha).real))
    return replace(cfg, noise=replace(cfg.noise, dbeta_x=value * beta_c(cfg.alpha).real))


def _sweep_point(spec: SweepSpec, psi, value: float) -> dict:
    row = {"value": value, "param": spec.param, "ok": True, "message": ""}
    try:
        cfg = _configure_point(spec, spec.param, value)
        if isinstance(psi, Exception):
            raise psi
        if spec.alpha_mode == "optimize":
            center = spec.alpha_coeff * cfg.lam**3
            opt = optimize_alpha(
                cfg, (center * spec.bracket_scale[0], center * spec.bracket_scale[1]), psi
            )
            cfg = replace(cfg, alpha=opt.alpha)
        res = cubic_gate(cfg, psi)
        row.update(
            lam=cfg.lam, lam_db=cfg.lam_db, alpha=cfg.alpha, error=res.error,
            tau=res.diagnostics.get("tau", 0.0),
        )
    except Exception as exc:  # per-row failure: record and continue
        _failed(row, exc, ("lam", "lam_db", "alpha", "error", "tau"))
    return row


def _failed(row: dict, exc: Exception, cells) -> dict:
    """Mark `row` failed by `exc`, its numeric `cells` NaN."""
    row.update(ok=False, message=f"{type(exc).__name__}: {exc}", **dict.fromkeys(cells, np.nan))
    return row


def _map_points(fn, spec: SweepSpec, points) -> list:
    """[fn(spec, psi, p) for p in points] in order, over a process pool when spec.workers > 1.

    The input psi is parsed once per sweep, keeping only the grid peaks a
    gate at the base gamma can represent; if parsing fails, psi is the
    exception, which each point raises where it needs the state. Warnings are
    ignored from the parse on; the pool's workers are started after the filter
    is set, so they ignore them too and both modes write the same stderr.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            psi = parse_state(spec.input_state, spec.base.n_fock, spec.base.gamma)
        except Exception as exc:
            psi = exc
        jobs = [(spec, psi, p) for p in points]
        if spec.workers < 2 or len(jobs) < 2:
            return [fn(*job) for job in jobs]
        with multiprocessing.Pool(min(spec.workers, len(jobs))) as pool:
            return pool.starmap(fn, jobs)


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate every sweep point; per-point failures are recorded, not raised.

    spec.param is "lam_db" or "alpha"; noise offsets are swept by `noise_sweep`.
    """
    if spec.param not in _RUN_PARAMS:
        raise ValueError(f"run_sweep cannot sweep {spec.param!r}; choose from {_RUN_PARAMS}")
    return _map_points(_sweep_point, spec, spec.values)


def _phase_noise_score(base: GateConfig, psi: PureState):
    """v -> (E_int, E(+v), E(-v), excess) of the dtheta channel, without cancellation.

    The offset is the closing rotation exp(-i v n_eff) of the gate (constant
    dropped), so one noiseless gate (output rho, target t) and one spectrum
    n_eff = V diag(w) V^dag give every value. With y = V^dag t,
    P = V^dag rho V and d(v) = expm1(i v w) y, the fidelity moves by
    F(v) - F(0) = 2 Re<d|P|y> + <d|P|d>; for a pure output that is
    2 Re(conj(A_0) delta) + |delta|^2 with delta = sum_j c_j expm1(-i v w_j),
    c_j = conj(y_j) (V^dag psi_out)_j, A_0 = sum_j c_j. The excess takes
    d(+v) + d(-v) = -4 sin^2(v w / 2) y, so no term is a difference of O(1)
    numbers. E_int is the error at the base offset: the gate's own error when
    that offset is 0.
    """
    gate = cubic_gate(replace(base, noise=replace(base.noise, dtheta=0.0)), psi)
    s = Spectrum(effective_number_operator(base)[0])
    vh = s.v.conj().T
    y = vh @ gate.target.vector
    if isinstance(gate.state, MixedState):
        p = vh @ gate.state.matrix @ s.v
    else:
        out = vh @ gate.state.vector
        p = np.outer(out, out.conj())

    def form(a, b) -> float:  # Re <a|P|b>
        return float(np.vdot(a, p @ b).real)

    def d(v: float) -> np.ndarray:
        return np.expm1(1j * v * s.w) * y

    def moved(dv: np.ndarray) -> float:  # F(v) - F(0)
        return 2.0 * form(dv, y) + form(dv, dv)

    base_move = moved(d(base.noise.dtheta))

    def score(v: float):
        plus, minus = d(v), d(-v)
        both = -4.0 * np.sin(0.5 * v * s.w) ** 2 * y
        excess = base_move - form(both, y) - 0.5 * (form(plus, plus) + form(minus, minus))
        return (gate.error - base_move, gate.error - moved(plus), gate.error - moved(minus),
                excess)

    return score


def _offset_score(spec: SweepSpec, base: GateConfig, psi: PureState):
    """v -> (E_int, E(+v), E(-v), excess) of a detuning or drive offset: two gates per v."""
    e_int = cubic_gate(base, psi).error

    def noisy_error(v: float) -> float:
        return cubic_gate(_resolve_relative_noise(spec.param, base, v), psi).error

    def score(v: float):
        e_plus, e_minus = noisy_error(v), noisy_error(-v)
        return e_int, e_plus, e_minus, 0.5 * (e_plus + e_minus) - e_int

    return score


_NOISE_CELLS = ("error_int", "error_plus", "error_minus", "excess")


def _noise_rows(spec: SweepSpec, psi, lam_db: float) -> list[dict]:
    """The rows of every noise value at one squeezing, from one E_int."""
    base = _configure_point(spec, "lam_db", lam_db)
    if isinstance(psi, Exception):
        raise psi
    rows = [{"param": spec.param, "lam_db": lam_db, "lam": base.lam, "alpha": base.alpha,
             "value": v, "ok": True, "message": ""} for v in spec.values]
    try:
        score = (_phase_noise_score(base, psi) if spec.param == "dtheta"
                 else _offset_score(spec, base, psi))
    except Exception as exc:
        return [_failed(row, exc, _NOISE_CELLS) for row in rows]
    for row in rows:
        try:
            row.update(zip(_NOISE_CELLS, score(row["value"])))
        except Exception as exc:
            _failed(row, exc, _NOISE_CELLS)
            continue
        if max(row["error_plus"], row["error_minus"]) > 0.5:
            row["message"] = "error exceeds 0.5; outside the small-noise regime"
    return rows


def noise_sweep(spec: SweepSpec, lam_db_values) -> list[dict]:
    """Noise response over (noise value x squeezing); spec.param picks the channel.

    Each row carries E_int, E(+v), E(-v) and the symmetrized excess
    (E(+v) + E(-v))/2 - E_int. The input is parsed once, and each squeezing is
    one job that computes E_int once for all of its values. A dtheta row costs
    no gate of its own: one noiseless gate and one n_eff spectrum per
    squeezing give every value in closed form (`_phase_noise_score`). A
    detuning or drive row runs its two noisy gates.
    """
    if spec.param not in _NOISE_PARAMS:
        raise ValueError(f"noise_sweep cannot sweep {spec.param!r}; choose from {_NOISE_PARAMS}")
    if spec.alpha_mode == "optimize":
        raise ValueError("noise_sweep takes alpha_mode 'fixed' or 'cube', not 'optimize'")
    lam_db_values = tuple(lam_db_values)
    if not lam_db_values:
        raise ValueError("noise sweep needs a non-empty squeezing list")
    return [row for rows in _map_points(_noise_rows, spec, lam_db_values) for row in rows]


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
    from scipy.optimize import minimize

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
