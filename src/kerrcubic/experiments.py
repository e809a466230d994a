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

Both optimizers are the package's own: the alpha search runs a port of
scipy's bounded Brent minimizer (`_bounded_brent`), and the Gaussian
correction of a generated state runs a BFGS loop (`_bfgs`). No command
imports scipy's optimizers, so a lossless sweep or state generation loads no
scipy module at all.
"""

from __future__ import annotations

import math
import multiprocessing
import warnings
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .dynamics import (
    EvolutionResult,
    GateConfig,
    NoiseParams,
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

_RUN_PARAMS = ("lam_db", "alpha")                            # what run_sweep sweeps
_NOISE_PARAMS = tuple(f.name for f in fields(NoiseParams))  # what noise_sweep sweeps
_ALPHA_MODES = ("fixed", "cube", "optimize")


@dataclass(frozen=True)
class FitResult:
    exponent: float


def fit_power_law(points) -> FitResult:
    """Least-squares exponent of y = C x^e on log-log data."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError(f"power-law fit needs >= 3 points, got {len(pts)}")
    if not all(0 < x < math.inf and 0 < y < math.inf for x, y in pts):
        raise ValueError("power-law fit requires positive, finite data")
    slope, _ = np.polyfit(np.log([x for x, _ in pts]), np.log([y for _, y in pts]), 1)
    return FitResult(float(slope))


# ---------------------------------------------------------------------------
# displacement optimization
# ---------------------------------------------------------------------------


ALPHA_COEFF = 1.85                 # C in the reference scaling alpha = C * lam^3
ALPHA_BRACKET_SCALE = (0.45, 3.5)  # default optimize bracket, in units of C * lam^3
_COARSE_POINTS = 7    # geometric scan that classifies the bracket
_ALPHA_XATOL = 2.5e-4  # Brent stop: absolute tolerance in log(alpha)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))  # golden-section fraction of a Brent step
_SQRT_EPS = math.sqrt(2.2e-16)          # Brent's relative tolerance in x
_BRENT_MAXFUN = 500


def alpha_bracket(lam: float, coeff=ALPHA_COEFF, scale=ALPHA_BRACKET_SCALE) -> tuple[float, float]:
    """The optimize bracket scale * C lam^3 around the reference alpha = C lam^3."""
    center = coeff * lam**3
    return center * scale[0], center * scale[1]


def _signed(step: float, r: float) -> float:
    """step with the sign of r, + for r = 0 or -0: scipy's np.sign(r) + (r == 0)."""
    return step if r >= 0 else -step


def _bounded_brent(f, a: float, b: float, xatol: float) -> tuple[float, float]:
    """(x, f(x)) at the minimum of f over [a, b] by Brent's bounded method.

    A line-for-line port of scipy 1.17.1's bounded scalar minimizer (method
    "bounded"; Brent 1973, fmin). The first point is the golden section of
    [a, b]. Each step is the parabola through the three best points when it
    lands inside the bracket and moves less than half the step before last,
    else a golden section of the larger part. No step is shorter than
    tol1 = sqrt(2.2e-16)|x| + xatol/3, and the search stops when the bracket
    around x is within 2 tol1 of it, or after 500 calls. The arithmetic is
    scipy's, so the calls, their order and the result are scipy's bit for bit.
    f must return finite floats.
    """
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = f(xf)
    ffulc = fnfc = fx
    num = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # parabola through (xf, fx), (nfc, fnfc), (fulc, ffulc)
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:  # too near a bound: step tol1 to xm
                    rat = _signed(tol1, xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + _signed(max(abs(rat), tol1), rat)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAXFUN:
            break
    return xf, fx


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
    parabolic-plus-golden minimizer (`_bounded_brent`) then refines on the
    coarse cell around k, [grid[k-1], grid[k+1]] clipped to the bracket, to
    `_ALPHA_XATOL` in log(alpha). The better of Brent's point and
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
    u, fu = _bounded_brent(lambda u: err(math.exp(u)), *cell, _ALPHA_XATOL)
    alpha = math.exp(u) if fu < vals[k] else float(grid[k])
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
        if self.param == "alpha" and self.alpha_mode != "fixed":
            raise ValueError(f"an alpha sweep takes alpha_mode 'fixed': mode "
                             f"{self.alpha_mode!r} would overwrite the swept values")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not (math.isfinite(self.alpha_coeff) and self.alpha_coeff > 0):
            raise ValueError(f"alpha_coeff must be finite and > 0, got {self.alpha_coeff}")
        lo, hi = self.bracket_scale
        if not (math.isfinite(hi) and 0 < lo <= hi):
            raise ValueError(f"bracket_scale must be finite with 0 < lo <= hi, "
                             f"got {self.bracket_scale}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _refuse_squeezings(self, self.values if self.param == "lam_db" else ())


def _refuse_squeezings(spec: SweepSpec, lam_db_values) -> None:
    """Build each squeezing's gate and its time, so a bad entry is refused before any gate runs."""
    for v in lam_db_values:
        try:
            _configure_point(spec, "lam_db", v).tau
        except (ArithmeticError, ValueError) as exc:
            raise ValueError(f"lam_db entry {v} gives no valid gate: {exc}") from None


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


def _sweep_point(spec: SweepSpec, psi, value: float) -> dict:
    row = {"value": value, "param": spec.param, "ok": True, "message": ""}
    try:
        cfg = _configure_point(spec, spec.param, value)
        if spec.alpha_mode == "optimize":
            bracket = alpha_bracket(cfg.lam, spec.alpha_coeff, spec.bracket_scale)
            opt = optimize_alpha(cfg, bracket, psi)
            cfg, error = replace(cfg, alpha=opt.alpha), opt.error  # the optimum's gate ran
        else:
            error = cubic_gate(cfg, psi).error
        row.update(lam=cfg.lam, lam_db=cfg.lam_db, alpha=cfg.alpha, error=error, tau=cfg.tau)
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
    gate at the base gamma can represent; a parse error is raised before any
    point runs. Warnings are ignored from the parse on; the pool's workers are
    started after the filter is set, so they ignore them too and both modes
    write the same stderr.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        psi = parse_state(spec.input_state, spec.base.n_fock, spec.base.gamma)
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
    numbers. E_int is that gate's own error.
    """
    gate = cubic_gate(base, psi)
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

    def score(v: float):
        plus, minus = d(v), d(-v)
        both = -4.0 * np.sin(0.5 * v * s.w) ** 2 * y
        # led by 0.0, so v = 0 gives an excess of 0, not -0
        excess = 0.0 - form(both, y) - 0.5 * (form(plus, plus) + form(minus, minus))
        return gate.error, gate.error - moved(plus), gate.error - moved(minus), excess

    return score


def _offset_score(param: str, base: GateConfig, psi: PureState):
    """v -> (E_int, E(+v), E(-v), excess) of the detuning or drive offset `param`
    (a NoiseParams field): two gates per v."""
    e_int = cubic_gate(base, psi).error

    def noisy_error(v: float) -> float:
        return cubic_gate(replace(base, noise=replace(base.noise, **{param: v})), psi).error

    def score(v: float):
        e_plus, e_minus = noisy_error(v), noisy_error(-v)
        return e_int, e_plus, e_minus, 0.5 * (e_plus + e_minus) - e_int

    return score


_NOISE_CELLS = ("error_int", "error_plus", "error_minus", "excess")


def _noise_rows(spec: SweepSpec, psi, lam_db: float) -> list[dict]:
    """The rows of every noise value at one squeezing, from one E_int."""
    base = _configure_point(spec, "lam_db", lam_db)
    rows = [{"param": spec.param, "lam_db": lam_db, "lam": base.lam, "alpha": base.alpha,
             "value": v, "ok": True, "message": ""} for v in spec.values]
    try:
        score = (_phase_noise_score(base, psi) if spec.param == "dtheta"
                 else _offset_score(spec.param, base, psi))
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
    (E(+v) + E(-v))/2 - E_int. The rows set the swept channel to +-v, so its
    base offset must be 0; offsets on the other channels stay in every gate.
    The input is parsed once, and each squeezing is one job that computes
    E_int once for all of its values. A dtheta row costs no gate of its own:
    one noiseless gate and one n_eff spectrum per squeezing give every value
    in closed form (`_phase_noise_score`). A detuning or drive row runs its
    two noisy gates.
    """
    if spec.param not in _NOISE_PARAMS:
        raise ValueError(f"noise_sweep cannot sweep {spec.param!r}; choose from {_NOISE_PARAMS}")
    if spec.alpha_mode == "optimize":
        raise ValueError("noise_sweep takes alpha_mode 'fixed' or 'cube', not 'optimize'")
    if getattr(spec.base.noise, spec.param) != 0:
        raise ValueError(f"noise_sweep sets {spec.param} to +-value; its base offset must "
                         f"be 0, got {getattr(spec.base.noise, spec.param)}")
    # every +-v configuration is built here, so an unsupported one is refused before any gate
    for v in (*spec.values, *(-v for v in spec.values)):
        replace(spec.base, noise=replace(spec.base.noise, **{spec.param: v}))
    lam_db_values = tuple(lam_db_values)
    if not lam_db_values:
        raise ValueError("noise sweep needs a non-empty squeezing list")
    _refuse_squeezings(spec, lam_db_values)
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


_BFGS_GTOL = 1e-5     # BFGS stop: max |gradient| entry
_ARMIJO_C1 = 1e-4     # sufficient-decrease constant of the line search
_MAX_BACKTRACKS = 30  # trials per line search; each shortens the step at least 2x


def _cubic_backtrack(a: float, f0: float, d0: float, fa: float, da: float) -> float:
    """The next, shorter trial step after a rejected step a.

    The minimizer of the cubic through (0, f0) and (a, fa) with slopes d0 and
    da (Nocedal & Wright, eq. 3.59), kept within [0.1a, 0.5a]; 0.5a when the
    cubic has no minimizer.
    """
    d1 = d0 + da - 3.0 * (fa - f0) / a
    disc = d1 * d1 - d0 * da
    if not disc >= 0.0:  # no real minimizer, or a non-finite value
        return 0.5 * a
    d2 = math.sqrt(disc)
    t = a - a * (da + d2 - d1) / (da - d0 + 2.0 * d2)
    return min(max(t, 0.1 * a), 0.5 * a) if math.isfinite(t) else 0.5 * a


def _bfgs(fun, x0: np.ndarray) -> tuple[np.ndarray, float]:
    """(x, f(x)) at a local minimum of f by BFGS; fun(x) returns (f, grad f).

    Nocedal & Wright, Alg. 6.1: the inverse-Hessian estimate H starts at the
    identity, each step tries x - H g at length 1 and backtracks by cubic
    interpolation (`_cubic_backtrack`) until the sufficient-decrease condition
    f(x + a p) - f(x) <= c1 a g.p holds, and H takes the BFGS update whenever
    the step has positive curvature y.s. It stops, as scipy's BFGS does, once
    max |g| <= 1e-5 or after 200 iterations per parameter. When a line
    search finds no decrease in `_MAX_BACKTRACKS` trials, or the iterations
    run out, it returns its last point, which has the lowest f so far, and
    warns with the gradient norm there.
    """
    x = np.asarray(x0, dtype=float)
    f, g = fun(x)
    h = np.eye(x.size)
    for _ in range(200 * x.size):
        if np.abs(g).max() <= _BFGS_GTOL:
            return x, f
        p = -h @ g
        d0 = float(g @ p)
        a = 1.0
        for _ in range(_MAX_BACKTRACKS):
            fa, ga = fun(x + a * p)
            if fa - f <= _ARMIJO_C1 * a * d0:  # a step that rounds away fails it
                break
            a = _cubic_backtrack(a, f, d0, fa, float(ga @ p))
        else:
            break
        s, y = a * p, ga - g
        x, f, g = x + s, fa, ga
        ys = float(y @ s)
        if ys > 0.0:
            r = np.eye(x.size) - np.outer(s, y) / ys
            h = r @ h @ r.T + np.outer(s, s) / ys
    warnings.warn(f"BFGS stopped at max|grad| = {np.abs(g).max():.3g}, above "
                  f"{_BFGS_GTOL:g}: no decrease found, or out of iterations", stacklevel=2)
    return x, f


def optimize_gaussian_correction(target: PureState, out) -> tuple[float, np.ndarray]:
    """Maximize fidelity over a single-mode Gaussian unitary applied to the output.

    The correction group is exp(i(u x^2 + v p^2 + w {x,p}/2 + dx x + dp p));
    state preparation allows this freedom because the input is fixed, unlike a
    gate acting on unknown states. Each trial g = exp(iG) is scored as
    <phi|rho|phi> with phi = g^dag|target>. `_correction_objective` returns
    that fidelity and its exact gradient from one eigendecomposition, and the
    package's BFGS loop (`_bfgs`) climbs from params = 0; at the fig4 point
    (N = 128) it converges in 17 evaluations.
    """
    params, f = _bfgs(lambda theta: _correction_objective(theta, target, out), np.zeros(5))
    return -float(f), params


def generate_cubic_state(
    cfg: GateConfig,
    delta: float = 0.5,
    grid: tuple | None = None,
) -> CubicStateResult:
    """Drive the gate on a squeezed vacuum and score the cubic-phase state.

    Returns the state fidelity against U_ideal |delta> after the optimal
    Gaussian correction, the uncorrected fidelity, the Wigner function of the
    corrected output on the grid, and its nonlinear-quadrature variance.
    """
    psi = squeezed_vacuum(delta, cfg.n_fock)
    res = cubic_gate(cfg, psi)
    f, params = optimize_gaussian_correction(res.target, res.state)
    gen = sum(c * b for c, b in zip(params, _correction_basis(cfg.n_fock)))
    out = res.state.transformed(Spectrum(gen).unitary(-1.0))
    axis = np.linspace(-6.0, 6.0, 121)
    xs, ps = (axis, axis) if grid is None else (np.asarray(ax, float) for ax in grid)
    w_grid = wigner(out, xs, ps)
    nlq = nlq_variance(out, cfg.gamma)
    return CubicStateResult(f, 1.0 - res.error, nlq, xs, ps, w_grid, params, res)
