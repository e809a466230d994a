"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 3, 4, 5 and 11
check the tables that `kerrcubic reproduce fig2`, `fig3b` and `fig7b` write;
each recipe runs once per test run through `cli.dispatch`. The suite takes
about 40 s on two cores; the fig2 and fig3b recipes dominate.
"""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from kerrcubic import algebra as alg
from kerrcubic import cli
from kerrcubic import dynamics as dyn
from kerrcubic import experiments as ex
from kerrcubic import fock as fk
from kerrcubic import soliton as so
from kerrcubic import states as st
from kerrcubic.algebra import AlphaPoly, ExactComplex, QuadraturePolynomial
from kerrcubic.dynamics import GateConfig
from lab_frame import squeeze

warnings.simplefilter("ignore")

GAMMA = 0.1
ALPHA_COEFF = 1.85  # alpha = C lam^3 reference scaling


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def fit_window(pairs, emax=(0.03, 0.1, 0.15), min_points=3):
    """Power-law fit on the asymptotic window (smallest-error points first)."""
    if isinstance(emax, float):
        emax = (emax,)
    for cut in emax:
        pts = [(x, y) for x, y in pairs if y < cut]
        if len(pts) >= min_points:
            return ex.fit_power_law(pts), len(pts)
    pts = sorted(pairs)[-min_points:]
    return ex.fit_power_law(pts), len(pts)


@pytest.fixture(scope="module")
def reproduce(tmp_path_factory):
    """recipe -> the rows of the CSV `kerrcubic reproduce <recipe>` writes, as dicts.

    Each recipe runs once per test run; numeric cells are floats. A table
    with an `ok` column must have every point succeed: a failed point reads
    NaN and would otherwise drop out of the fits without a trace.
    """
    tables = {}

    def table(recipe):
        if recipe not in tables:
            out = tmp_path_factory.mktemp(recipe)
            assert cli.dispatch(["reproduce", recipe, "--out", str(out)]) == 0
            header, rows = cli.read_csv(out / f"{recipe}.csv")
            rows = [{h: _cell(c) for h, c in zip(header, row)} for row in rows]
            failed = [r for r in rows if r.get("ok", "true") != "true"]
            assert not failed, f"reproduce {recipe}: failed points {failed}"
            tables[recipe] = rows
        return tables[recipe]

    return table


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


# ---------------------------------------------------------------------------


def reference_expansion(chi, lam, delta, beta):
    """Hand-coded frame-substituted driven Kerr in X = sqrt2 x, P = sqrt2 p."""
    lam_f = Fraction(float(lam))
    lam2 = lam_f**2
    chi_f = Fraction(float(chi))

    def x():
        return QuadraturePolynomial({(1, 0): 1})

    def p():
        return QuadraturePolynomial({(0, 1): 1})

    def ec(fr):
        return ExactComplex(fr, Fraction(0))

    delta = delta if isinstance(delta, AlphaPoly) else AlphaPoly(delta)
    beta = beta if isinstance(beta, AlphaPoly) else AlphaPoly(beta)
    asym = AlphaPoly.SYMBOL
    alpha2 = asym * asym
    out = (
        x() * x() * x() * x() * AlphaPoly(ec(lam2**2 * chi_f / -32))
        + p() * x() * x() * p() * AlphaPoly(ec(chi_f / -32))
        + x() * p() * p() * x() * AlphaPoly(ec(chi_f / -32))
        + p() * p() * p() * p() * AlphaPoly(ec(chi_f / (-32 * lam2**2)))
        + x() * x() * x() * (asym * AlphaPoly(ec(-chi_f * lam_f**3 / 4)))
        + p() * x() * p() * (asym * AlphaPoly(ec(-chi_f / (4 * lam_f))))
        + x() * x() * ((AlphaPoly(ec(-3 * chi_f)) * alpha2 + AlphaPoly(ec(chi_f)) + delta)
                       * AlphaPoly(ec(lam2 / 4)))
        + p() * p() * ((AlphaPoly(ec(-chi_f)) * alpha2 + AlphaPoly(ec(chi_f)) + delta)
                       * AlphaPoly(ec(1 / (4 * lam2))))
        + x() * ((AlphaPoly(ec(-chi_f)) * alpha2 * asym + AlphaPoly(ec(chi_f)) * asym
                  + delta * asym + beta) * AlphaPoly(ec(lam_f)))
    )
    terms = dict(out.terms)
    terms.pop((0, 0), None)
    return QuadraturePolynomial(terms)


def test_criterion_01_symbolic_expansion():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(5):
        chi = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(1.1, 6.0))
        alpha = float(rng.uniform(0.5, 2.0e4))
        delta = float(rng.uniform(-5.0, 5.0))
        beta = float(rng.uniform(-5.0, 5.0))
        engine = alg.to_quadrature_form(
            alg.substitute_gaussian_frame(alg.driven_kerr(chi, delta, beta), lam)
        )
        engine = QuadraturePolynomial(
            {k: v for k, v in engine.terms.items() if k != (0, 0)}
        )
        ref = reference_expansion(chi, lam, delta, beta)
        if engine != ref:  # exact symbolic equality over the rationals
            report(1, "symbolic expansion", False, "coefficient mismatch")
        for key in set(engine.terms) | set(ref.terms):
            a = engine.coefficient(*key)(alpha)
            b = ref.coefficient(*key)(alpha)
            scale = max(abs(a), abs(b), 1e-300)
            worst = max(worst, abs(a - b) / scale)
    elapsed = time.perf_counter() - t0
    report(1, "symbolic expansion", worst < 1e-14 and elapsed < 10.0,
           f"5 random tuples exact; worst evaluated reldiff {worst:.1e}; {elapsed:.2f}s")


def test_criterion_02_frame_equivalence():
    t0 = time.perf_counter()
    lam, alpha, gamma, n = 2.0, 3.0, 0.2, 120
    psi = fk.vacuum(n)
    res = dyn.cubic_gate(GateConfig(lam=lam, alpha=alpha, gamma=gamma, n_fock=n), psi)
    params = alg.cubic_parameters(1.0, lam, alpha, gamma)
    delta, beta = alg.cubic_counterterms(1.0)
    a = fk.annihilation(n)
    ad = a.conj().T
    h_native = (-0.5 * (ad @ ad @ a @ a)
                + delta(alpha).real * (ad @ a)
                + beta(alpha).real * (a + ad))
    s = squeeze(math.log(lam), n)
    d = fk.displacement(alpha, n).matrix
    u_oracle = s.conj().T @ d.conj().T @ fk.Spectrum(h_native).unitary(params.tau) @ d @ s
    f = fk.fidelity(fk.PureState(u_oracle @ psi.vector), res.state)
    report(2, "frame equivalence", f > 1 - 1e-6,
           f"1-F = {1-f:.2e} (need < 1e-6); {time.perf_counter()-t0:.1f}s")


def _by(rows, key):
    """Rows grouped by the value of `key`, in first-appearance order."""
    groups = {}
    for row in rows:
        groups.setdefault(row[key], []).append(row)
    return groups


def test_criterion_03_intrinsic_error_scaling(reproduce):
    t0 = time.perf_counter()
    details = []
    ok = True
    for state, rows in _by(reproduce("fig2"), "state").items():
        fit, npts = fit_window([(r["lam"], r["error"]) for r in rows])
        details.append(f"{state.removeprefix('gkp:').replace(':', '/')}: "
                       f"{fit.exponent:+.2f}({npts}p)")
        ok = ok and abs(fit.exponent + 4.0) <= 0.3
    report(3, "intrinsic error ~ lam^-4", ok,
           "; ".join(details) + f"; {time.perf_counter()-t0:.0f}s")


def test_criterion_04_optimal_displacement_scaling(reproduce):
    t0 = time.perf_counter()
    rows = _by(reproduce("fig2"), "state")["gkp:z+:0.5"]
    # fit alpha* over the same asymptotic window used for the error fit: the
    # optimum is only clean where a single error mechanism dominates
    window = [(r["lam"], r["alpha"]) for r in rows if r["error"] < 0.1]
    if len(window) < 3:
        window = [(r["lam"], r["alpha"]) for r in rows]
    fit = ex.fit_power_law(window)
    ok_exponent = abs(fit.exponent - 3.0) <= 0.3

    # alpha*(kappa) at fixed lambda = 17.5 dB, shared with the criterion-5 grid
    alphas = {r["chi_over_kappa"]: r["alpha"] for r in reproduce("fig3b")
              if r["lam_db"] == 17.5}
    seq = [alphas[c] for c in (1e-3, 1e-4, 1e-5)]  # increasing loss
    ok_mono = seq[0] < seq[1] < seq[2]
    report(4, "alpha* ~ lam^3 and grows with loss", ok_exponent and ok_mono,
           f"exponent {fit.exponent:+.2f} (need 3±0.3); alpha*(17.5dB) "
           f"{seq[0]:.0f} < {seq[1]:.0f} < {seq[2]:.0f}: {ok_mono}; "
           f"{time.perf_counter()-t0:.0f}s")


def test_criterion_05_lossy_error_scaling(reproduce):
    t0 = time.perf_counter()
    details = []
    ok = True
    for cok, rws in _by(reproduce("fig3b"), "chi_over_kappa").items():
        fit, npts = fit_window([(r["lam"], r["error"]) for r in rws])
        details.append(f"chi/kappa={cok:g}: {fit.exponent:+.2f}({npts}p)")
        ok = ok and abs(fit.exponent + 4.0) <= 0.4
    report(5, "lossy error ~ lam^-4", ok,
           "; ".join(details) + f"; {time.perf_counter()-t0:.0f}s")


def test_criterion_06_state_generation_fidelity():
    t0 = time.perf_counter()
    cfg = GateConfig.make(lam_db=15.0, alpha=1.4e4, gamma=GAMMA,
                          chi_over_kappa=1e-4, n_fock=128)
    res = ex.generate_cubic_state(cfg, delta=0.5)
    ok = abs(res.fidelity - 0.978) <= 0.005 and res.wigner.min() < 0
    report(6, "cubic state at 97.8%", ok,
           f"fidelity {res.fidelity:.4f} (need 0.978±0.005, fluctuation frame, "
           f"Gaussian state-prep correction), raw {res.raw_fidelity:.4f}, "
           f"Wigner min {res.wigner.min():.3f}; {time.perf_counter()-t0:.0f}s")


def _noise_rows(channel, values, lam_dbs, n_fock=128):
    base = GateConfig(lam=1.0, alpha=1.0, gamma=GAMMA, n_fock=n_fock)
    spec = ex.SweepSpec(base=base, param=channel, values=values,
                        input_state="gkp:z+:0.5", alpha_mode="cube",
                        alpha_coeff=ALPHA_COEFF)
    return ex.noise_sweep(spec, lam_dbs)


def test_criterion_07_phase_noise_scaling():
    t0 = time.perf_counter()
    rows = _noise_rows("dtheta", (5e-5,), (10.0, 12.5, 15.0, 17.5))
    fit_l, npts = fit_window([(r["lam"], r["excess"]) for r in rows], emax=(0.12,))
    ok_l = abs(fit_l.exponent - 8.0) <= 0.5

    rows_q = _noise_rows("dtheta", (2.5e-5, 5e-5, 1e-4), (12.5,))
    fit_q = ex.fit_power_law([(r["value"], r["excess"]) for r in rows_q])
    ok_q = abs(fit_q.exponent - 2.0) <= 0.1

    # p-displacement equivalence at 10 dB, dtheta = 1e-6
    n = 128
    lam = fk.lambda_from_db(10.0)
    alpha = ALPHA_COEFF * lam**3
    psi = st.parse_state("gkp:z+:0.5", n, GAMMA)
    out0 = dyn.cubic_gate(GateConfig(lam=lam, alpha=alpha, gamma=GAMMA, n_fock=n), psi).state
    noisy = dyn.cubic_gate(GateConfig(lam=lam, alpha=alpha, gamma=GAMMA, n_fock=n,
                                      noise=dyn.NoiseParams(dtheta=1e-6)), psi).state
    shift = -math.sqrt(2.0) * lam * alpha * 1e-6
    disp = fk.displacement(1j * shift / math.sqrt(2.0), n)
    f_eq = fk.fidelity(fk.PureState(disp.matrix @ out0.vector, normalize=False), noisy)
    ok_eq = f_eq > 1 - 1e-4
    report(7, "phase-noise scalings", ok_l and ok_q and ok_eq,
           f"lam-exponent {fit_l.exponent:+.2f}({npts}p, need 8±0.5); "
           f"dtheta-exponent {fit_q.exponent:+.2f} (need 2±0.1); "
           f"p-displacement equivalence 1-F = {1-f_eq:.1e}; {time.perf_counter()-t0:.0f}s")


def test_criterion_08_parameter_noise_scalings():
    t0 = time.perf_counter()
    details = []
    ok = True
    for channel, rel in (("ddelta_rel", 3e-6), ("dbeta_x_rel", 3e-6)):
        rows = _noise_rows(channel, (rel,), (10.0, 12.5, 15.0, 17.5))
        fit_l, npts = fit_window([(r["lam"], r["excess"]) for r in rows], emax=(0.12,))
        rows_q = _noise_rows(channel, (1e-6, 2e-6, 4e-6), (15.0,))
        fit_q = ex.fit_power_law([(r["value"], r["excess"]) for r in rows_q])
        details.append(f"{channel}: lam {fit_l.exponent:+.2f}({npts}p), "
                       f"quad {fit_q.exponent:+.2f}")
        ok = ok and abs(fit_l.exponent - 8.0) <= 0.5 and abs(fit_q.exponent - 2.0) <= 0.1
    report(8, "detuning/drive noise scalings", ok,
           "; ".join(details) + f"; {time.perf_counter()-t0:.0f}s")


def test_criterion_09_trotter_convergence():
    t0 = time.perf_counter()
    lam = fk.lambda_from_db(10.0)

    n_fock = 192
    psi = st.parse_state("gkp:z+:0.5", n_fock, GAMMA)
    e_cont = dyn.cubic_gate(GateConfig(lam=lam, alpha=12.0, gamma=GAMMA,
                                       n_fock=n_fock), psi).error
    diffs = []
    for n_t in (1, 2, 4, 8, 16):
        res = dyn.trotterized_gate(GateConfig(lam=lam, alpha=12.0, gamma=GAMMA,
                                              n_fock=n_fock, trotter_steps=n_t), psi)
        diffs.append((n_t, abs(res.error - e_cont)))
    fit = ex.fit_power_law(diffs)
    ok_fit = abs(fit.exponent + 2.0) <= 0.3

    # N=1 within 3x of the continuous scheme at matching alpha, on the
    # discrete scheme's good alpha range (enlarged cutoff for the kicks)
    n_big = 448
    psi_b = st.parse_state("gkp:z+:0.5", n_big, GAMMA)
    ratios = []
    for alpha in (16.0, 20.0, 25.0):
        ec = dyn.cubic_gate(GateConfig(lam=lam, alpha=alpha, gamma=GAMMA,
                                       n_fock=n_big), psi_b).error
        e1 = dyn.trotterized_gate(GateConfig(lam=lam, alpha=alpha, gamma=GAMMA,
                                             n_fock=n_big, trotter_steps=1), psi_b).error
        ratios.append(e1 / ec)
    ok_ratio = min(ratios) <= 3.0
    report(9, "discrete-drive convergence", ok_fit and ok_ratio,
           f"|E_N - E_cont| exponent {fit.exponent:+.2f} (need -2±0.3); "
           f"N=1/continuous ratios {['%.2f' % r for r in ratios]} (min <= 3); "
           f"{time.perf_counter()-t0:.0f}s")


def test_criterion_10_soliton_table():
    t0 = time.perf_counter()
    printed = {"silicon-on-insulator": 3.4e-6, "algaas-on-insulator": 2.2e-5,
               "si3n4": 5.1e-6}
    details = []
    ok = True
    for m in so.BUILTIN_MATERIALS:
        fom = so.figure_of_merit(m)
        want = printed[m.name]
        scale = 10.0 ** math.floor(math.log10(want))
        good = abs(fom - want) <= 0.1 * scale  # one unit in the 2nd sig. figure
        ok = ok and good
        details.append(f"{m.name}: {fom:.3g} vs {want:g}")
    report(10, "soliton figure-of-merit table", ok,
           "; ".join(details) + f"; {time.perf_counter()-t0:.2f}s")


def test_criterion_11_photon_number_stationarity(reproduce):
    t0 = time.perf_counter()
    bounds = {5.0: 0.016, 10.0: 0.0016, 15.0: 0.00016}  # frozen regression bounds
    traces = _by(reproduce("fig7b"), "lam_db")
    details = []
    ok = True
    for db, bound in bounds.items():
        tot = np.array([r["n_total"] for r in traces[db]])
        exc = float((tot.max() - tot.min()) / tot.mean())
        details.append(f"{db}dB: {exc:.2e} (<{bound:g})")
        ok = ok and exc < bound
    report(11, "photon-number stationarity", ok,
           "; ".join(details) + f"; {time.perf_counter()-t0:.0f}s")


def test_criterion_12_property_suites():
    t0 = time.perf_counter()
    checks = {}

    n = 96
    u = fk.displacement(1.0 + 0.5j, n).matrix @ squeeze(0.5, n)
    d = fk.interior_dim(n)
    checks["unitarity"] = np.abs((u.conj().T @ u - np.eye(n))[:d, :d]).max() < 1e-8

    cfgl = GateConfig(lam=2.0, alpha=3.0, gamma=GAMMA, n_fock=64, kappa=0.5)
    h, l_op = dyn.effective_generators(cfgl)
    rho, diag = dyn.evolve_lindblad(h, l_op, cfgl.tau * 10,
                                    fk.vacuum(64).density_matrix(), n_steps=128)
    checks["trace"] = diag["trace_drift"] < 1e-8
    checks["hermiticity"] = np.abs(rho.matrix - rho.matrix.conj().T).max() == 0.0

    psi = st.gkp_state(st.GkpParams("z+", 0.5), 192)
    checks["normalization"] = abs(np.linalg.norm(psi.vector) - 1.0) < 1e-10

    def scalar(nn):
        state = st.squeezed_vacuum(0.5, nn)
        return fk.variance(fk.momentum(nn), state)

    with warnings.catch_warnings():
        warnings.simplefilter("error", fk.TruncationWarning)
        fk.check_truncation_convergence(scalar, 96)
        checks["truncation-doubling"] = True

    base = GateConfig(lam=1.0, alpha=30.0, gamma=GAMMA, n_fock=64)
    spec = ex.SweepSpec(base=base, param="lam_db", values=(8.0, 10.0),
                        input_state="squeezed:0.5", alpha_mode="cube")
    checks["determinism"] = ex.run_sweep(spec) == ex.run_sweep(spec)

    nn = 256
    psi = st.squeezed_vacuum(0.5, nn)
    out = fk.PureState(st.ideal_cubic_gate(GAMMA, nn) @ psi.vector, normalize=False)
    checks["p_nlq"] = abs(st.nlq_variance(out, GAMMA) - 0.125) < 1e-4

    ok = all(checks.values())
    report(12, "property suites", ok,
           ", ".join(f"{k}:{'ok' if v else 'FAIL'}" for k, v in checks.items())
           + f"; {time.perf_counter()-t0:.0f}s")
