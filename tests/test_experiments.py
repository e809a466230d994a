import math
import os
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

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

    @pytest.mark.parametrize("channel", ["ddelta_rel", "dbeta_x_rel"])
    def test_relative_offset_search_substitutes_once(self, channel):
        # the frame Hamiltonian is cached by the relative offset, which is the
        # same at every alpha the search tries
        cfg = GateConfig.make(5.0, 10.0, 0.1, n_fock=48, noise=dyn.NoiseParams(**{channel: 1e-3}))
        dyn._frame_hamiltonian.cache_clear()
        opt = ex.optimize_alpha(cfg, (5.0, 35.0), st.squeezed_vacuum(0.5, cfg.n_fock))
        assert opt.evaluations > 1
        assert dyn._frame_hamiltonian.cache_info().misses == 1


def _brent_against_scipy(f, a, b, xatol):
    """The port's (x, f(x)) and calls equal scipy's bounded minimize_scalar's."""
    from scipy.optimize import minimize_scalar

    port_calls, ref_calls = [], []
    x, fx = ex._bounded_brent(lambda u: port_calls.append(u) or f(u), a, b, xatol)
    ref = minimize_scalar(lambda u: ref_calls.append(u) or f(u), bounds=(a, b),
                          method="bounded", options={"xatol": xatol})
    assert (x, fx) == (ref.x, ref.fun)
    assert port_calls == ref_calls and len(port_calls) == ref.nfev
    return port_calls


class TestBoundedBrent:
    """The port visits scipy's points in scipy's order and returns its result."""

    @settings(max_examples=100, deadline=None)
    @given(a=hs.floats(-5.0, 5.0), width=hs.floats(1e-3, 3.0),
           # the minimum as a fraction of the cell: at either bound, inside, outside
           t=hs.sampled_from([0.0, 1.0]) | hs.floats(-1.0, 2.0),
           c=hs.tuples(hs.floats(0.1, 10.0), hs.floats(-1.0, 1.0), hs.floats(0.0, 5.0)),
           xatol=hs.sampled_from([1e-5, 2.5e-4, 1e-2]),
           # rounded values give plateaus, so the comparisons meet ties
           levels=hs.sampled_from([None, 8.0, 100.0, 1e3]))
    def test_quartics_and_kinks_match_scipy(self, a, width, t, c, xatol, levels):
        b = a + width
        m = a + t * width

        def rounded(y):
            return y if levels is None else math.floor(y * levels) / levels

        def quartic(u):  # products only, so a float and a numpy float agree
            d = u - m
            return rounded((c[0] * d * d + c[1] * d + c[2]) * d * d)

        def kink(u):  # no parabola fits it; rounded, it ties points other than the best
            return rounded(c[0] * abs(u - m))

        for f in (quartic, kink):
            _brent_against_scipy(f, a, b, xatol)

    @pytest.mark.parametrize("r", [0.0, -0.0, 5e-324, -5e-324, 2.5, -2.5])
    def test_step_sign_is_scipys(self, r):
        assert ex._signed(0.75, r) == 0.75 * (np.sign(r) + (r == 0))

    def test_constant_takes_golden_steps_to_the_far_bound(self):
        calls = _brent_against_scipy(lambda u: 1.0, 0.0, 1.0, 1e-5)
        assert calls == sorted(calls) and calls[-1] > 1.0 - 1e-4

    def test_parabolic_step_near_a_bound_matches_scipy(self):
        # the last parabola lands within 2 tol1 of the narrowed bracket's
        # edge, so the step is tol1 towards the bracket's middle
        for m in (0.7, 0.3):
            calls = _brent_against_scipy(lambda u: (u - m) * (u - m), 0.0, 1.0, 1e-5)
            assert m in calls

    @pytest.mark.parametrize("m", [0.11, 0.83])
    def test_staircase_ties_match_scipy(self, m):
        # a new point that ties the second best without beating the best
        # takes the second best's place
        _brent_against_scipy(lambda u: math.floor(100.0 * abs(u - m)) / 100.0, 0.0, 1.0, 1e-5)

    def test_call_cap(self):
        # a slope into the bound at 0 shrinks the bracket by golden steps
        # towards a tolerance of 1e-300: about 1,400 steps, cut at 500
        calls = _brent_against_scipy(lambda u: u, 0.0, 1.0, 1e-300)
        assert len(calls) == 500

    @pytest.mark.parametrize("f, a, b, xatol", [
        # a cell near u = 0 and under two tolerances wide: tol1 = sqrt(eps)|x| + xatol/3
        # decides whether the loop runs at all
        (lambda u: (u - 2.0**-12) ** 2, 0.0, 2.0**-11, 2.5e-4),
        # a plateau through the first point: a parabolic step must be strictly
        # shorter than half the step before last
        (lambda u: math.floor(8.0 * (u + 1.0 - 2.0 * ex._GOLDEN) ** 2) / 8.0, -1.0, 1.0, 0.3),
        # parabolic steps that reach a bracket end exactly are not taken
        (lambda u: -math.cos(2.0 * (u - 0.5)), 0.0, 16.0, 1e-5),
        (lambda u: -math.cos(7.0 * (u - 0.5)), 0.0, 2.0, 1e-5),
        (lambda u: -math.cos(u), 0.0, 16.0, 1e-5),
        # a step before last of exactly tol1 (a step near a bound) allows no parabola
        (lambda u: -math.cos(4.99 * u), 0.0, 16.0, 1e-2),
        # a worse point that ties the third one takes its place
        (lambda u: math.floor(64.0 * abs(u - 0.32)) / 64.0, 0.0, 4.0, 1e-5),
        # a worse point replaces the third one when that is still the first point
        (lambda u: math.exp(u) - u, -1.0, 1.0, 1e-5),
    ], ids=["narrow-cell-near-zero", "plateau", "cos2", "cos7", "cos1", "cos4.99", "stair-tie", "exp"])
    def test_boundary_cases_match_scipy(self, f, a, b, xatol):
        _brent_against_scipy(f, a, b, xatol)


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

    def test_minimum_at_the_top_end_is_an_edge(self, monkeypatch):
        _fake_gate(monkeypatch, lambda u: math.exp(_U[6] - u))
        with pytest.warns(UserWarning, match="edge") as record:
            opt = ex.optimize_alpha(self.CFG, (_LO, _HI), None)
        assert (opt.kind, opt.alpha, opt.error) == ("edge", _HI, 1.0)
        assert record[0].filename == __file__  # the warning names the caller's line

    def test_wells_next_to_both_ends_are_multimodal(self, monkeypatch):
        # every interior grid point counts, the first and the last included
        _fake_gate(monkeypatch, lambda u: 1.0 - 0.9 * math.exp(-((u - _U[1]) / 0.3) ** 2)
                   - math.exp(-((u - _U[5]) / 0.3) ** 2))
        with pytest.warns(UserWarning, match="multimodal"):
            opt = ex.optimize_alpha(self.CFG, (_LO, _HI), None)
        assert opt.kind == "multimodal"

    @pytest.mark.parametrize("table", [
        (3.0, 2.0, 2.0, 1.0, 2.0, 3.0, 4.0),  # grid[1] ties grid[2]: no minimum there
        (2.0, 3.0, 1.0, 3.0, 4.0, 5.0, 6.0),  # grid[0] is an end, not an interior minimum
    ], ids=["tie", "low-end"])
    def test_one_strict_interior_minimum_is_unimodal(self, monkeypatch, table):
        _fake_gate(monkeypatch, lambda u: table[round((u - _U[0]) / _H)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opt = ex.optimize_alpha(self.CFG, (_LO, _HI), None)
        assert (opt.kind, opt.error) == ("unimodal", 1.0)

    @pytest.mark.parametrize("curve, cell", [
        (lambda u: math.exp(u - _U[0]), (0, 1)),
        (lambda u: math.cosh(u - _U[2] - 0.1 * _H), (1, 3)),
        (lambda u: math.cosh(u - _U[5] - 0.1 * _H), (4, 6)),
        (lambda u: math.exp(_U[6] - u), (5, 6)),
    ], ids=["low-end", "grid2", "grid5", "top-end"])
    def test_brent_refines_the_cells_beside_the_coarse_minimum(self, monkeypatch, curve, cell):
        _fake_gate(monkeypatch, curve)
        cells = []
        brent = ex._bounded_brent

        def spy(f, a, b, xatol):
            cells.append((a, b, xatol))
            return brent(f, a, b, xatol)

        monkeypatch.setattr(ex, "_bounded_brent", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the two ends warn "edge"
            ex.optimize_alpha(self.CFG, (_LO, _HI), None)
        grid = np.geomspace(_LO, _HI, 7)
        assert cells == [(math.log(grid[cell[0]]), math.log(grid[cell[1]]), ex._ALPHA_XATOL)]

    def test_bracket_below_one(self, monkeypatch):
        _fake_gate(monkeypatch, lambda u: u * u)
        opt = ex.optimize_alpha(self.CFG, (0.5, 2.0), None)
        assert opt.kind == "unimodal" and abs(math.log(opt.alpha)) < 1e-3

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


def test_flat_error_curve_returns_the_bracket_end():
    # gamma = 0: the gate is the identity, every alpha has error 0, so the
    # coarse minimum is grid[0] and Brent's point only ties it
    cfg = GateConfig.make(lam_db=5.0, alpha=3.0, gamma=0.0, n_fock=32)
    with pytest.warns(UserWarning, match="edge"):
        opt = ex.optimize_alpha(cfg, (3.0, 30.0), st.squeezed_vacuum(0.5, 32))
    assert (opt.alpha, opt.error, opt.kind) == (3.0, 0.0, "edge")


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
        # a cheap lossy row (kappa = 1, N = 32) next to a displacement whose
        # frame Hamiltonian overflows, a numerical failure found before the
        # integrator starts
        base = GateConfig(lam=fk.lambda_from_db(6.0), alpha=30.0, gamma=0.1, n_fock=32,
                          kappa=1.0)
        spec = ex.SweepSpec(base=base, param="alpha", values=(30.0, 1e200),
                            input_state="squeezed:0.5")
        rows = ex.run_sweep(spec)
        assert rows[0]["ok"]
        assert not rows[1]["ok"]
        assert rows[1]["message"].startswith(
            "ContractViolationError: frame Hamiltonian is not finite")
        assert math.isnan(rows[1]["error"])

    @pytest.mark.parametrize("mode, lam_db", [
        ("cube", 7000.0),      # lam = 10**350 overflows
        ("cube", -7000.0),     # lam underflows to 0
        ("cube", 1500.0),      # alpha = C lam^3 overflows
        ("fixed", 3000.0),     # lam^3 in the gate time overflows
        ("optimize", -7000.0),
    ])
    def test_squeezing_without_a_gate_refused_before_any_gate(self, monkeypatch, mode, lam_db):
        def forbidden(*args):
            raise AssertionError("the input was parsed or a gate ran")

        for name in ("parse_state", "cubic_gate"):
            monkeypatch.setattr(ex, name, forbidden)
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1, n_fock=32)
        kw = dict(base=base, values=(5.0, lam_db), input_state="vacuum", alpha_mode=mode)
        with pytest.raises(ValueError, match=f"lam_db entry {lam_db} gives no valid gate"):
            ex.run_sweep(ex.SweepSpec(param="lam_db", **kw))
        if mode != "optimize":
            spec = ex.SweepSpec(param="dtheta", **{**kw, "values": (1e-4,)})
            with pytest.raises(ValueError, match=f"lam_db entry {lam_db} gives no valid gate"):
                ex.noise_sweep(spec, (10.0, lam_db))
        # the same entries, swept as alpha, are not squeezings
        assert ex.SweepSpec(param="alpha", **{**kw, "alpha_mode": "fixed"}).values == (5.0, lam_db)

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

    def test_input_parsed_once_and_bad_selector_raises(self, monkeypatch):
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1, n_fock=32)
        spec = ex.SweepSpec(base=base, param="lam_db", values=(8.0, 10.0, 12.0),
                            input_state="squeezed:0.5", alpha_mode="cube")
        parsed = []
        parse = ex.parse_state
        monkeypatch.setattr(ex, "parse_state", lambda *a: parsed.append(a) or parse(*a))
        assert all(r["ok"] for r in ex.run_sweep(spec))
        assert parsed == [("squeezed:0.5", 32, 0.1)]

        # a bad input is the sweep's error, raised before any point runs
        def forbidden(*args):
            raise AssertionError("a gate ran")

        monkeypatch.setattr(ex, "cubic_gate", forbidden)
        with pytest.raises(ValueError, match="bad state selector"):
            ex.run_sweep(replace(spec, input_state="gkp:q+:0.5"))
        with pytest.raises(ValueError, match="bad state selector"):
            ex.noise_sweep(replace(spec, param="dtheta", input_state="gkp:q+:0.5"), (8.0,))

    def test_relative_offset_is_resolved_at_each_rows_alpha(self):
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1, n_fock=48,
                          noise=dyn.NoiseParams(ddelta_rel=1e-4))
        spec = ex.SweepSpec(base=base, param="lam_db", values=(5.0, 8.0),
                            input_state="squeezed:0.5", alpha_mode="cube")
        psi = st.squeezed_vacuum(0.5, base.n_fock)
        for row in ex.run_sweep(spec):
            cfg = replace(base, lam=row["lam"], alpha=row["alpha"])
            assert row["alpha"] != base.alpha
            assert row["error"] == ex.cubic_gate(cfg, psi).error

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

    @pytest.mark.parametrize("mode", ["cube", "optimize"])
    def test_alpha_sweep_takes_fixed_alpha_only(self, mode):
        # the cube law or the optimizer would overwrite every swept alpha
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1)
        with pytest.raises(ValueError, match="alpha sweep takes alpha_mode 'fixed'"):
            ex.SweepSpec(base=base, param="alpha", values=(10.0, 20.0), alpha_mode=mode)

    def test_optimized_point_runs_only_the_optimizer_gates(self, monkeypatch):
        gates, optima = [], []
        gate, optimize = ex.cubic_gate, ex.optimize_alpha
        monkeypatch.setattr(ex, "cubic_gate", lambda *a: gates.append(a) or gate(*a))
        monkeypatch.setattr(ex, "optimize_alpha",
                            lambda *a: optima.append(optimize(*a)) or optima[-1])
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1, n_fock=48)
        spec = ex.SweepSpec(base=base, param="lam_db", values=(6.0, 8.0),
                            input_state="squeezed:0.5", alpha_mode="optimize")
        rows = ex.run_sweep(spec)
        assert len(gates) == sum(opt.evaluations for opt in optima)
        for row, opt in zip(rows, optima):
            cfg = replace(base, lam=row["lam"], alpha=opt.alpha)
            assert (row["alpha"], row["error"], row["tau"]) == (opt.alpha, opt.error, cfg.tau)
            assert row["error"] == gate(cfg, st.squeezed_vacuum(0.5, 48)).error

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
                for x in (0.0, v, -v)))
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
        # a detuning offset in the base, about 1e-3 at 8 dB, on a dtheta sweep
        dict(noise=dyn.NoiseParams(ddelta_rel=4e-7)),
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

    def test_trotterized_offset_sweep_refused_before_work(self, monkeypatch):
        # a detuning offset on a drive-free base is refused before the input is
        # parsed, not recorded as failed rows
        def forbidden(*args):
            raise AssertionError("sweep work started")

        monkeypatch.setattr(ex, "parse_state", forbidden)
        monkeypatch.setattr(ex, "cubic_gate", forbidden)
        base = GateConfig(lam=1.0, alpha=5.0, gamma=0.1, n_fock=48, trotter_steps=2)
        spec = ex.SweepSpec(base=base, param="ddelta_rel", values=(1e-6,),
                            input_state="squeezed:0.5")
        with pytest.raises(dyn.UnsupportedConfigurationError, match="dtheta only"):
            ex.noise_sweep(spec, (5.0,))

    def test_rejects_optimized_alpha_before_parsing(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("input parsed")

        monkeypatch.setattr(ex, "parse_state", forbidden)
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1)
        spec = ex.SweepSpec(base=base, param="dtheta", values=(1e-4,), alpha_mode="optimize")
        with pytest.raises(ValueError, match="optimize"):
            ex.noise_sweep(spec, (10.0,))

    def test_zero_offset_scores_zero_excess(self):
        (row,) = ex.noise_sweep(replace(_dtheta_spec(n_fock=48), values=(0.0,)), (8.0,))
        assert row["error_plus"] == row["error_minus"] == row["error_int"]
        assert row["excess"] == 0.0 and math.copysign(1.0, row["excess"]) == 1.0  # not -0

    @pytest.mark.parametrize("param", ["dtheta", "ddelta_rel", "dbeta_x_rel"])
    def test_rejects_base_offset_on_swept_channel_before_any_gate(self, monkeypatch, param):
        # the rows set the channel to +-v, so a base offset would move E_int alone
        def forbidden(*args):
            raise AssertionError("a gate ran")

        monkeypatch.setattr(ex, "cubic_gate", forbidden)
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1, n_fock=32,
                          noise=dyn.NoiseParams(**{param: 1e-5}))
        spec = ex.SweepSpec(base=base, param=param, values=(1e-6,),
                            input_state="squeezed:0.5", alpha_mode="cube")
        with pytest.raises(ValueError, match=f"{param}.*base offset must be 0"):
            ex.noise_sweep(spec, (8.0,))

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

    def test_flags_a_row_when_either_sign_exceeds_half(self):
        # at 0.0072 E(+v) = 0.496 and E(-v) = 0.501: one side past 0.5 flags the row
        base = GateConfig(lam=1.0, alpha=30.0, gamma=0.1, n_fock=32)
        spec = ex.SweepSpec(base=base, param="ddelta_rel", values=(1e-3, 0.0072),
                            input_state="squeezed:0.5", alpha_mode="cube")
        small, large = ex.noise_sweep(spec, (8.0,))
        assert small["message"] == "" and small["error_minus"] < 0.02
        assert large["error_plus"] < 0.5 < large["error_minus"]
        assert large["ok"]
        assert large["message"] == "error exceeds 0.5; outside the small-noise regime"


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


class TestBfgs:
    def test_concave_start_skips_the_update(self):
        # the first step spans a concave stretch (y.s < 0): an update there
        # would flip the sign of H and the next direction would climb
        def f(x):
            return -x[0] ** 2 + x[0] ** 4, np.array([-2.0 * x[0] + 4.0 * x[0] ** 3])

        x, fx = ex._bfgs(f, np.array([0.1]))
        assert abs(x[0] - math.sqrt(0.5)) < 1e-6 and abs(fx + 0.25) < 1e-12

    def test_no_decrease_warns_and_returns_the_best_point(self):
        calls = []

        def uphill(x):  # the gradient's sign is wrong, so every step climbs
            calls.append(x)
            return float(x @ x), -2.0 * x

        with pytest.warns(UserWarning, match="BFGS stopped at max.grad. = 2"):
            x, fx = ex._bfgs(uphill, np.array([1.0, 1.0]))
        assert x.tolist() == [1.0, 1.0] and fx == 2.0
        assert len(calls) == 1 + ex._MAX_BACKTRACKS

    @pytest.mark.parametrize("a, f0, d0, fa, da, step", [
        (1.0, 0.0, -1.0, 1e3, 3e3, 0.1),          # steep rise: clipped to 0.1 a
        (1.0, 0.0, -1.0, -0.9, -0.1, 0.5),        # minimizer past a: clipped to 0.5 a
        (1.0, 0.0, -1.0, -0.5, -1.0, 0.5),        # no real minimizer
        (1.0, 0.0, -1.0, math.nan, math.nan, 0.5),
        (2.0, 0.0, -1.0, 1.0, 1.0, None),         # an interior minimizer
        (1.0, 0.0, -0.27, 0.73, 2.73, None),      # t^3 - 0.27 t, minimized at 0.3
    ])
    def test_cubic_backtrack_stays_in_its_safeguard(self, a, f0, d0, fa, da, step):
        t = ex._cubic_backtrack(a, f0, d0, fa, da)
        if step is not None:
            assert t == step * a
        else:  # inside the safeguard, the Hermite cubic has its minimum at t
            secant = (fa - f0) / a
            c2, c3 = (3.0 * secant - 2.0 * d0 - da) / a, (d0 + da - 2.0 * secant) / a**2
            assert 0.1 * a < t < 0.5 * a
            assert abs(d0 + 2.0 * c2 * t + 3.0 * c3 * t * t) < 1e-12
            assert 2.0 * c2 + 6.0 * c3 * t > 0.0


def _n48_inputs(mixed):
    n = 48
    target = st.ideal_cubic_target(0.1, st.squeezed_vacuum(0.5, n))
    out = st.squeezed_vacuum(0.6, n)
    if mixed:
        rho = 0.9 * out.density_matrix().matrix + 0.1 * fk.vacuum(n).density_matrix().matrix
        out = fk.MixedState(rho)
    return target, out


def _lossless_15db_inputs():
    cfg = GateConfig.make(lam_db=15.0, alpha=1.85 * (10**0.75) ** 3, gamma=0.1, n_fock=128)
    res = dyn.cubic_gate(cfg, st.squeezed_vacuum(0.5, 128))
    return res.target, res.state


class TestCorrectionAgainstScipy:
    """The package's BFGS reaches scipy's optimum in at most one evaluation more."""

    @pytest.mark.parametrize("inputs", ["pure-48", "mixed-48", "lossless-15dB-128"])
    def test_matches_scipy_bfgs(self, inputs, monkeypatch):
        from scipy.optimize import minimize

        target, out = (_lossless_15db_inputs() if inputs.startswith("lossless")
                       else _n48_inputs(inputs.startswith("mixed")))
        ref = minimize(ex._correction_objective, np.zeros(5), args=(target, out),
                       jac=True, method="BFGS")
        assert ref.success
        evaluations = []
        spectrum = ex.Spectrum
        monkeypatch.setattr(ex, "Spectrum", lambda h: evaluations.append(h) or spectrum(h))
        f, params = ex.optimize_gaussian_correction(target, out)
        monkeypatch.undo()
        assert abs(f + ref.fun) <= 1e-10
        assert len(evaluations) <= ref.nfev + 1
        assert np.abs(params - ref.x).max() < 1e-4


class TestGenerateCubicState:
    def test_lossless_high_squeezing(self):
        cfg = GateConfig.make(lam_db=15.0, alpha=1.85 * (10**0.75) ** 3, gamma=0.1,
                              n_fock=128)
        res = ex.generate_cubic_state(cfg)
        assert res.fidelity > 0.999
        assert res.fidelity >= res.raw_fidelity - 1e-12
        assert res.wigner.min() < -1e-3  # non-classicality
        assert res.nlq_variance > 0

    def test_fidelity_improves_toward_one_with_squeezing(self):
        fids = []
        for db in (7.5, 12.5):
            lam = fk.lambda_from_db(db)
            cfg = GateConfig(lam=lam, alpha=1.85 * lam**3, gamma=0.1, n_fock=128)
            fids.append(ex.generate_cubic_state(cfg).fidelity)
        assert fids[1] > fids[0]
