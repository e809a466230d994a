import math
import os
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from kerrcubic import dynamics as dyn
from kerrcubic import experiments as ex
from kerrcubic import fock as fk
from kerrcubic import states as st
from kerrcubic.dynamics import GateConfig


class TestFitPowerLaw:
    def test_exact_cubic(self):
        xs = np.linspace(1.0, 5.0, 7)
        fit = ex.fit_power_law(list(zip(xs, 7.0 * xs**3)))
        assert abs(fit.exponent - 3.0) < 1e-12
        assert abs(fit.prefactor - 7.0) < 1e-10
        assert fit.r_squared > 1 - 1e-12

    def test_perturbed_inverse_quartic(self):
        xs = np.linspace(1.0, 8.0, 10)
        wiggle = 1.0 + 0.01 * np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
        fit = ex.fit_power_law(list(zip(xs, xs**-4.0 * wiggle)))
        assert abs(fit.exponent + 4.0) < 0.05

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            ex.fit_power_law([(1.0, 1.0), (2.0, 16.0)])

    def test_nonpositive_data(self):
        with pytest.raises(ValueError):
            ex.fit_power_law([(1.0, 1.0), (2.0, -1.0), (3.0, 2.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_nonfinite_data(self, bad, axis):
        # a failed noise row carries excess = nan
        pts = [[1.0, 1.0], [2.0, 8.0], [3.0, 27.0]]
        pts[1][axis] = bad
        with pytest.raises(ValueError, match="finite"):
            ex.fit_power_law(pts)


class TestOptimizeAlpha:
    def setup_method(self):
        self.n = 128
        self.lam = fk.lambda_from_db(10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self.psi = st.gkp_state(st.GkpParams("z+", 0.5), self.n)
        self.cfg = GateConfig(lam=self.lam, alpha=10.0, gamma=0.1, n_fock=self.n)

    def test_degenerate_bracket(self):
        opt = ex.optimize_alpha(self.cfg, (40.0, 40.0), self.psi)
        assert opt.alpha == 40.0
        assert opt.evaluations == 1

    def test_finds_local_minimum(self):
        opt = ex.optimize_alpha(self.cfg, (20.0, 180.0), self.psi)
        assert 40.0 < opt.alpha < 90.0
        e_up = dyn.cubic_gate(
            GateConfig(lam=self.lam, alpha=opt.alpha * 1.05, gamma=0.1, n_fock=self.n),
            self.psi,
        ).error
        e_dn = dyn.cubic_gate(
            GateConfig(lam=self.lam, alpha=opt.alpha * 0.95, gamma=0.1, n_fock=self.n),
            self.psi,
        ).error
        assert e_up >= opt.error - 1e-9
        assert e_dn >= opt.error - 1e-9

    def test_non_unimodal_bracket_falls_back(self):
        # bracket entirely on the decreasing branch: coarse argmin sits on the
        # boundary, so the scan is classified `edge` and takes the classified
        # `edge`/`multimodal` refinement: Brent on the end cell, with a warning
        with pytest.warns(UserWarning, match="unimodal"):
            opt = ex.optimize_alpha(self.cfg, (18.0, 50.0), self.psi)
        assert not opt.unimodal
        assert 18.0 <= opt.alpha <= 50.0

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            ex.optimize_alpha(self.cfg, (-1.0, 5.0), self.psi)


def _fake_gate(monkeypatch, curve):
    """Replace the gate by an error curve in log(alpha); returns the list of gated alphas."""
    calls = []

    def gate(cfg, psi):
        calls.append(cfg.alpha)
        return SimpleNamespace(error=curve(math.log(cfg.alpha)))

    monkeypatch.setattr(ex, "cubic_gate", gate)
    return calls


# synthetic error curves in u = log(alpha) over the bracket (10, 1000)
_LO, _HI = 10.0, 1000.0
_U = np.log(np.geomspace(_LO, _HI, 7))  # the coarse grid; cells are _H wide in u
_H = _U[1] - _U[0]


def _double_well(u, a=_U[2] + 0.2, b=_U[4] - 0.1, s=0.3):
    # wells of depth 0.9 and 1 next to grid[2] and grid[4]; their tails overlap by ~1e-11
    return 1.0 - 0.9 * math.exp(-((u - a) / s) ** 2) - math.exp(-((u - b) / s) ** 2)


# name -> (class, curve, log of the minimum in the cell Brent searches)
_CURVES = {
    "single-well": ("unimodal", lambda u: math.cosh(u - math.log(60.0)) - 0.9,
                    math.log(60.0)),
    "at-edge": ("edge", lambda u: math.exp(u - _U[0]), _U[0]),
    "inside-edge-cell": ("edge", lambda u: math.cosh(u - _U[0] - 0.3 * _H) - 0.95,
                         _U[0] + 0.3 * _H),
    "double-well": ("multimodal", _double_well, _U[4] - 0.1),
}


class TestAlphaClassifier:
    """optimize_alpha on synthetic error curves; no Fock space."""

    CFG = GateConfig(lam=2.0, alpha=1.0, gamma=0.1, n_fock=16)

    @pytest.mark.parametrize("name", sorted(_CURVES))
    def test_class_and_convergence(self, monkeypatch, name):
        kind, curve, u_true = _CURVES[name]
        calls = _fake_gate(monkeypatch, curve)
        if kind == "unimodal":
            opt = ex.optimize_alpha(self.CFG, (_LO, _HI), None)
        else:
            with pytest.warns(UserWarning, match=f"unimodal.*{kind}"):
                opt = ex.optimize_alpha(self.CFG, (_LO, _HI), None)
        assert opt.kind == kind
        assert opt.unimodal == (kind == "unimodal")
        assert opt.evaluations == len(set(calls)) == len(calls)
        # Brent reaches a bracket end by golden steps only: 18 gates across a cell of 0.77
        assert opt.evaluations <= (25 if u_true == _U[0] else 16)
        assert opt.error == curve(math.log(opt.alpha))
        assert opt.error <= min(curve(u) for u in _U)
        assert abs(math.log(opt.alpha) - u_true) <= 5e-4
        if u_true == _U[0]:  # a minimum at the bracket end returns that end exactly
            assert opt.alpha == _LO

    @pytest.mark.parametrize("bracket", [(1.0, math.inf), (math.inf, math.inf),
                                         (math.nan, 5.0), (1.0, math.nan), (0.0, 5.0),
                                         (5.0, 1.0)], ids=str)
    def test_bad_bracket_rejected_before_any_gate(self, monkeypatch, bracket):
        calls = _fake_gate(monkeypatch, lambda u: u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy must not warn either
            with pytest.raises(ValueError, match="bracket"):
                ex.optimize_alpha(self.CFG, bracket, None)
        assert calls == []


class TestSweeps:
    def test_single_point_reduces_to_cubic_gate(self):
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1, n_fock=96)
        spec = ex.SweepSpec(base=base, param="lam_db", values=(10.0,),
                            input_state="squeezed:0.5", alpha_mode="fixed")
        rows = ex.run_sweep(spec)
        psi = st.squeezed_vacuum(0.5, 96)
        direct = dyn.cubic_gate(
            GateConfig(lam=fk.lambda_from_db(10.0), alpha=30.0, gamma=0.1, n_fock=96), psi
        )
        assert len(rows) == 1
        assert rows[0]["ok"]
        assert rows[0]["error"] == direct.error

    def test_row_failure_recorded_not_raised(self):
        # a cheap lossy row (kappa = 1, N = 32) next to a rejected non-finite squeezing
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1, n_fock=32, kappa=1.0)
        spec = ex.SweepSpec(base=base, param="lam_db", values=(6.0, math.inf),
                            input_state="squeezed:0.5")
        rows = ex.run_sweep(spec)
        assert rows[0]["ok"]
        assert not rows[1]["ok"]
        assert rows[1]["message"].startswith("ValueError: chi, lam, alpha and kappa must be")
        assert math.isnan(rows[1]["error"])

    def test_parallel_matches_serial(self):
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1, n_fock=64)
        kw = dict(base=base, param="lam_db", values=(8.0, 10.0, 12.0),
                  input_state="squeezed:0.5", alpha_mode="cube", alpha_coeff=1.85)
        serial = ex.run_sweep(ex.SweepSpec(workers=1, **kw))
        parallel = ex.run_sweep(ex.SweepSpec(workers=2, **kw))
        assert serial == parallel
        kw.update(base=replace(base, n_fock=48), param="dtheta", values=(1e-4, 3e-4))
        serial = ex.noise_sweep(ex.SweepSpec(workers=1, **kw), (8.0, 10.0))
        parallel = ex.noise_sweep(ex.SweepSpec(workers=2, **kw), (8.0, 10.0))
        assert len(serial) == 4 and all(r["ok"] for r in serial)
        assert serial == parallel

    def test_parallel_stderr_matches_serial(self, capfd, monkeypatch):
        # squeezed:0.3 strains N = 32, so each point raises a TruncationWarning.
        # pytest records warnings instead of printing them; print them to fd 2
        # as a plain run would, so a pool worker that does not ignore them shows.
        def show(message, category, filename, lineno, file=None, line=None):
            os.write(2, warnings.formatwarning(message, category, filename, lineno,
                                               line).encode())

        monkeypatch.setattr(warnings, "showwarning", show)
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1, n_fock=32)
        kw = dict(base=base, param="lam_db", values=(8.0, 15.0),
                  input_state="squeezed:0.3", alpha_mode="cube")
        capfd.readouterr()
        serial = ex.run_sweep(ex.SweepSpec(workers=1, **kw))
        serial_err = capfd.readouterr().err
        parallel = ex.run_sweep(ex.SweepSpec(workers=2, **kw))
        parallel_err = capfd.readouterr().err
        assert serial == parallel
        assert serial_err == parallel_err == ""

    def test_input_parsed_once_and_bad_selector_fails_each_row(self, monkeypatch):
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1, n_fock=32)
        spec = ex.SweepSpec(base=base, param="lam_db", values=(8.0, 10.0, 12.0),
                            input_state="squeezed:0.5", alpha_mode="cube")
        parsed = []
        parse = ex.parse_state
        monkeypatch.setattr(ex, "parse_state", lambda *a: parsed.append(a) or parse(*a))
        assert all(r["ok"] for r in ex.run_sweep(spec))
        assert parsed == [("squeezed:0.5", 32, 0.1)]
        rows = ex.run_sweep(replace(spec, input_state="gkp:q+:0.5"))
        assert [r["ok"] for r in rows] == [False] * 3
        assert all(r["message"].startswith("ValueError: bad state selector") for r in rows)
        with pytest.raises(ValueError, match="bad state selector"):
            ex.noise_sweep(replace(spec, param="dtheta", input_state="gkp:q+:0.5"), (8.0,))

    def test_rerun_is_identical(self):
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1, n_fock=64)
        spec = ex.SweepSpec(base=base, param="lam_db", values=(9.0, 11.0),
                            input_state="squeezed:0.5", alpha_mode="cube")
        assert ex.run_sweep(spec) == ex.run_sweep(spec)

    def test_spec_validation(self):
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1)
        with pytest.raises(ValueError):
            ex.SweepSpec(base=base, param="nonsense", values=(1.0,))
        with pytest.raises(ValueError):
            ex.SweepSpec(base=base, param="lam_db", values=())
        with pytest.raises(ValueError):
            ex.SweepSpec(base=base, param="lam_db", values=(1.0,), alpha_mode="x")
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                ex.SweepSpec(base=base, param="lam_db", values=(1.0,), workers=workers)

    @pytest.mark.parametrize("field, value", [
        ("alpha_coeff", -1.0), ("alpha_coeff", 0.0), ("alpha_coeff", math.nan),
        ("alpha_coeff", math.inf), ("bracket_scale", (3.0, 1.0)),
        ("bracket_scale", (math.nan, 1.0)), ("bracket_scale", (0.0, 1.0)),
        ("bracket_scale", (0.5, math.inf)),
    ])
    def test_bad_alpha_scaling_rejected(self, field, value):
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1)
        with pytest.raises(ValueError, match=field):
            ex.SweepSpec(base=base, param="lam_db", values=(1.0,), **{field: value})

    @pytest.mark.parametrize("param", ["dtheta", "ddelta_rel", "dbeta_x_rel"])
    def test_run_sweep_rejects_noise_param(self, param, monkeypatch):
        def forbidden(*args):
            raise AssertionError("input parsed")

        monkeypatch.setattr(ex, "parse_state", forbidden)
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1)
        with pytest.raises(ValueError, match="run_sweep cannot sweep"):
            ex.run_sweep(ex.SweepSpec(base=base, param=param, values=(1e-4,)))


def _three_gate_rows(spec, lam_dbs):
    """(E_int, E(+v), E(-v)) of each dtheta row from three whole gates."""
    psi = st.parse_state(spec.input_state, spec.base.n_fock, spec.base.gamma)
    out = []
    for db in lam_dbs:
        base = ex._configure_point(spec, "lam_db", db)
        for v in spec.values:
            out.append(tuple(
                dyn.cubic_gate(replace(base, noise=replace(base.noise, dtheta=x)), psi).error
                for x in (base.noise.dtheta, v, -v)))
    return out


def _dtheta_spec(**kw):
    base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1, n_fock=96)
    return ex.SweepSpec(base=replace(base, **kw), param="dtheta", values=(1e-4, 3e-4),
                        input_state="squeezed:0.5", alpha_mode="cube")


class TestNoiseSweep:
    def test_rows_and_symmetrized_excess(self):
        spec = _dtheta_spec()
        rows = ex.noise_sweep(spec, (10.0,))
        assert len(rows) == 2
        for r, (e_int, e_plus, e_minus) in zip(rows, _three_gate_rows(spec, (10.0,))):
            assert r["ok"]
            assert r["error_int"] == e_int
            assert abs(r["error_plus"] - e_plus) <= 1e-13
            assert abs(r["error_minus"] - e_minus) <= 1e-13
            assert r["excess"] > 0

    @pytest.mark.parametrize("kw", [
        dict(n_fock=32, kappa=0.05),  # mixed output
        dict(noise=dyn.NoiseParams(dtheta=2e-4, ddelta=1e-3)),  # offsets in the base
    ])
    def test_closed_form_matches_three_gates(self, kw):
        spec = _dtheta_spec(**kw)
        rows = ex.noise_sweep(spec, (8.0, 10.0))
        for r, (e_int, e_plus, e_minus) in zip(rows, _three_gate_rows(spec, (8.0, 10.0))):
            assert r["ok"]
            for got, want in ((r["error_int"], e_int), (r["error_plus"], e_plus),
                              (r["error_minus"], e_minus)):
                assert abs(got - want) <= 1e-13
            excess = 0.5 * (r["error_plus"] + r["error_minus"]) - r["error_int"]
            assert abs(r["excess"] - excess) <= 1e-13

    def test_excess_is_insensitive_to_gate_roundoff(self, monkeypatch):
        # a 1e-15 relative change of the gate output moves the excess by the same
        # relative order, not by the gain of a difference of O(1) errors
        spec = _dtheta_spec()
        (clean,) = ex.noise_sweep(replace(spec, values=(1e-5,)), (12.5,))
        gate = ex.cubic_gate
        kick = 1e-15 * np.random.default_rng(3).normal(size=96)

        def perturbed(cfg, psi):
            res = gate(cfg, psi)
            out = fk.PureState(res.state.vector * (1.0 + kick), normalize=False)
            return replace(res, state=out, error=1.0 - fk.fidelity(res.target, out))

        monkeypatch.setattr(ex, "cubic_gate", perturbed)
        (moved,) = ex.noise_sweep(replace(spec, values=(1e-5,)), (12.5,))
        assert moved["excess"] != clean["excess"]
        assert abs(moved["excess"] - clean["excess"]) < 1e-13 * clean["excess"]

    @pytest.mark.parametrize("channel, per_lambda", [("dtheta", 1), ("ddelta_rel", 1 + 2 * 2)])
    def test_gates_per_squeezing(self, monkeypatch, channel, per_lambda):
        gates = []
        gate = ex.cubic_gate
        monkeypatch.setattr(ex, "cubic_gate", lambda cfg, psi: gates.append(cfg) or gate(cfg, psi))
        spec = replace(_dtheta_spec(), param=channel, values=(1e-5, 3e-5))
        rows = ex.noise_sweep(spec, (8.0, 10.0))
        assert len(rows) == 4 and all(r["ok"] for r in rows)
        assert len(gates) == 2 * per_lambda

    @pytest.mark.parametrize("v", [0.05, 1e-3])
    def test_trotterized_phase_offset_is_the_closing_rotation(self, v):
        # the drive-free gate ends in the same exp(-i dtheta n_eff) as the
        # continuous one, so the closed form of the dtheta channel scores it
        base = GateConfig(lam=fk.lambda_from_db(5.0), alpha=5.0, gamma=0.1, n_fock=48,
                          trotter_steps=2)
        psi = st.squeezed_vacuum(0.5, base.n_fock)
        e_int, e_plus, e_minus, _ = ex._phase_noise_score(base, psi)(v)
        for dtheta, want in ((v, e_plus), (-v, e_minus)):
            got = ex.cubic_gate(replace(base, noise=dyn.NoiseParams(dtheta=dtheta)), psi)
            assert abs(got.error - want) <= 1e-14
            assert abs(got.error - e_int) > 1e-7

    def test_trotterized_offset_rows_fail(self):
        # a detuning offset on a drive-free base is refused, not scored as excess 0
        base = GateConfig(lam=1.0, alpha=5.0, gamma=0.1, n_fock=48, trotter_steps=2)
        spec = ex.SweepSpec(base=base, param="ddelta_rel", values=(1e-6,),
                            input_state="squeezed:0.5")
        (row,) = ex.noise_sweep(spec, (5.0,))
        assert not row["ok"] and math.isnan(row["excess"])
        assert row["message"].startswith("UnsupportedConfigurationError")
        assert "dtheta only" in row["message"]

    def test_rejects_optimized_alpha_before_parsing(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("input parsed")

        monkeypatch.setattr(ex, "parse_state", forbidden)
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1)
        spec = ex.SweepSpec(base=base, param="dtheta", values=(1e-4,), alpha_mode="optimize")
        with pytest.raises(ValueError, match="optimize"):
            ex.noise_sweep(spec, (10.0,))

    def test_rejects_non_noise_param(self):
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1)
        spec = ex.SweepSpec(base=base, param="lam_db", values=(10.0,))
        with pytest.raises(ValueError):
            ex.noise_sweep(spec, (10.0,))

    def test_rejects_empty_squeezing_list_before_parsing(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("input parsed")

        monkeypatch.setattr(ex, "parse_state", forbidden)
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1)
        spec = ex.SweepSpec(base=base, param="dtheta", values=(1e-4,))
        with pytest.raises(ValueError, match="non-empty squeezing list"):
            ex.noise_sweep(spec, ())

    def test_flags_large_error(self):
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1, n_fock=96)
        spec = ex.SweepSpec(base=base, param="dtheta", values=(0.3,),
                            input_state="squeezed:0.5", alpha_mode="cube")
        rows = ex.noise_sweep(spec, (12.5,))
        assert "0.5" in rows[0]["message"]


class TestGaussianCorrection:
    @pytest.mark.parametrize("mixed", [False, True])
    def test_objective_equals_corrected_state_fidelity(self, mixed, monkeypatch):
        # the optimum scored as <phi|rho|phi> equals the fidelity of g rho g^dag,
        # the objective's gradient is exact, and BFGS needs few evaluations
        n = 48
        target = st.ideal_cubic_target(0.1, st.squeezed_vacuum(0.5, n))
        out = st.squeezed_vacuum(0.6, n)
        if mixed:
            rho = 0.9 * out.density_matrix().matrix + 0.1 * fk.vacuum(n).density_matrix().matrix
            out = fk.MixedState(rho)
        rng = np.random.default_rng(11)
        for theta in (np.zeros(5), 0.1 * rng.normal(size=5)):  # degenerate, generic spectrum
            _, grad = ex._correction_objective(theta, target, out)
            h = 1e-6
            central = np.array([
                ex._correction_objective(theta + h * e, target, out)[0]
                - ex._correction_objective(theta - h * e, target, out)[0]
                for e in np.eye(5)
            ]) / (2 * h)
            assert np.abs(central - grad).max() <= 1e-6 * np.abs(grad).max()

        evaluations = []
        spectrum = ex.Spectrum
        monkeypatch.setattr(ex, "Spectrum", lambda h: evaluations.append(h) or spectrum(h))
        f, params = ex.optimize_gaussian_correction(target, out)
        monkeypatch.undo()
        assert len(evaluations) <= 50

        x, p = fk.position(n), fk.momentum(n)
        gen = sum(c * b for c, b in zip(params, (x @ x, p @ p, 0.5 * (x @ p + p @ x), x, p)))
        g = fk.Spectrum(gen).unitary(-1.0)
        if mixed:
            corrected = fk.MixedState(g @ out.matrix @ g.conj().T)
        else:
            corrected = fk.PureState(g @ out.vector, normalize=False)
        assert abs(f - fk.fidelity(target, corrected)) < 1e-12
        assert f > fk.fidelity(target, out)


class TestGenerateCubicState:
    def test_lossless_high_squeezing(self):
        cfg = GateConfig.make(lam_db=15.0, alpha=1.85 * (10**0.75) ** 3, gamma=0.1,
                              n_fock=128)
        res = ex.generate_cubic_state(cfg)
        assert res.fidelity > 0.999
        assert res.fidelity >= res.raw_fidelity - 1e-12
        assert res.wigner.min() < -1e-3  # non-classicality
        assert res.nlq_variance > 0

    def test_fig4_point_in_displaced_loss_frame(self):
        # the README's displaced-frame figure for the fig4 operating point
        cfg = GateConfig.make(lam_db=15.0, alpha=1.4e4, gamma=0.1, chi_over_kappa=1e-4,
                              n_fock=128, loss_frame="displaced")
        axis = np.linspace(-4.0, 4.0, 9)
        res = ex.generate_cubic_state(cfg, delta=0.5, grid=(axis, axis))
        assert abs(res.fidelity - 0.9798) <= 5e-4
        assert res.fidelity > res.raw_fidelity

    def test_correction_can_be_disabled(self):
        cfg = GateConfig.make(lam_db=10.0, alpha=60.0, gamma=0.1, n_fock=96)
        res = ex.generate_cubic_state(cfg, gaussian_correction=False)
        assert res.fidelity == res.raw_fidelity
        assert np.all(res.correction == 0.0)

    def test_fidelity_improves_toward_one_with_squeezing(self):
        fids = []
        for db in (7.5, 12.5):
            lam = fk.lambda_from_db(db)
            cfg = GateConfig(lam=lam, alpha=1.85 * lam**3, gamma=0.1, n_fock=128)
            fids.append(ex.generate_cubic_state(cfg).fidelity)
        assert fids[1] > fids[0]
