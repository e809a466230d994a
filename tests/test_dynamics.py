import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy import sparse

from kerrcubic import algebra as alg
from kerrcubic import dynamics as dyn
from kerrcubic import fock as fk
from kerrcubic import states as st
from kerrcubic.dynamics import GateConfig, NoiseParams
from lab_frame import shifted_frame, squeeze


def make_cfg(**kw):
    base = dict(lam=2.0, alpha=3.0, gamma=0.1, n_fock=96)
    base.update(kw)
    return GateConfig(**base)


class TestGateConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_cfg(lam=-1.0)
        with pytest.raises(ValueError):
            make_cfg(kappa=-0.1)
        with pytest.raises(ValueError):
            make_cfg(gamma=-0.2)
        # integer fields are checked when the configuration is built
        for field, value in [("n_fock", 64.0), ("trotter_steps", 2.5), ("trotter_steps", "2")]:
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                make_cfg(**{field: value})
        cfg = make_cfg(n_fock=np.int64(64), trotter_steps=np.int32(2))
        assert (cfg.n_fock, cfg.trotter_steps) == (64, 2)

    @pytest.mark.parametrize("field", ["lam", "alpha", "kappa"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_field(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            make_cfg(**{field: value})

    @pytest.mark.parametrize("field", ["dtheta", "ddelta_rel", "dbeta_x_rel"])
    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_rejects_nonfinite_noise_offset(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            NoiseParams(**{field: value})

    # chi = 1 is the time unit, the drive offset is real, and the detuning and
    # drive offsets are relative to their counter-terms: none is a field
    @pytest.mark.parametrize("build", [
        lambda: NoiseParams(dbeta_p=0.1),
        lambda: make_cfg(chi=2.0),
        lambda: GateConfig.make(lam_db=10.0, alpha=10.0, gamma=0.1, chi=2.0),
        lambda: NoiseParams(ddelta=0.1),
        lambda: NoiseParams(dbeta_x=0.1),
    ], ids=["dbeta_p", "chi", "make-chi", "ddelta", "dbeta_x"])
    def test_removed_field_rejected(self, build):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            build()

    def test_make_from_db(self):
        cfg = GateConfig.make(lam_db=15.0, alpha=10.0, gamma=0.1, chi_over_kappa=1e-4)
        assert abs(cfg.lam - 10**0.75) < 1e-12
        assert abs(cfg.kappa - 1e4) < 1e-9
        assert abs(cfg.lam_db - 15.0) < 1e-12

    @pytest.mark.parametrize("ratio", [0.0, -1e-4, math.nan, math.inf])
    def test_make_rejects_bad_chi_over_kappa(self, ratio):
        with pytest.raises(ValueError, match="chi_over_kappa"):
            GateConfig.make(lam_db=10.0, alpha=10.0, gamma=0.1, chi_over_kappa=ratio)

    def test_make_without_ratio_is_lossless(self):
        assert GateConfig.make(lam_db=10.0, alpha=10.0, gamma=0.1).kappa == 0.0

    def test_tau_matches_parameters(self):
        cfg = make_cfg()
        p = alg.cubic_parameters(1.0, cfg.lam, cfg.alpha, cfg.gamma)
        assert cfg.tau == p.tau


class TestEffectiveGenerators:
    def test_lossless_limit(self):
        h, l_op = dyn.effective_generators(make_cfg(kappa=0.0))
        assert np.abs(l_op).max() == 0.0

    def test_unit_gain_lindblad(self):
        cfg = make_cfg(lam=1.0, kappa=2.0)
        _, l_op = dyn.effective_generators(cfg)
        ref = math.sqrt(2.0) * fk.annihilation(cfg.n_fock)
        assert np.abs(l_op - ref).max() < 1e-12

    def test_cubic_coefficient_through_pipeline(self):
        cfg = make_cfg(lam=2.0, alpha=8.0)
        h, _ = dyn.effective_generators(cfg)
        # read the x^3 coefficient back off the matrix: <3 x^3-ish> trick is
        # fragile, so rebuild through the algebra route instead
        hp = alg.substitute_gaussian_frame(
            alg.driven_kerr(1.0, *alg.cubic_counterterms(1.0)), 2.0
        ).drop_constant()
        got = alg.to_quadrature_form(hp).quad_coefficient(3, 0, 8.0)
        assert abs(got - (-(2.0**3) * 8.0 / math.sqrt(2.0))) < 1e-10
        assert np.abs(h - alg.to_matrix(hp, 8.0, cfg.n_fock)).max() == 0.0


def evolve(h, tau, psi):
    """exp(-i H tau)|psi> through fock.Spectrum; PureState checks the norm to 1e-10."""
    return fk.PureState(fk.Spectrum(h).advance(psi.vector, tau), normalize=False)


def _applied(u, psi):
    return fk.PureState(u @ psi.vector, normalize=False)


class TestEvolveUnitary:
    def test_zero_time(self):
        psi = st.squeezed_vacuum(0.5, 64)
        out = evolve(np.diag(np.arange(64, dtype=complex)), 0.0, psi)
        assert fk.fidelity(psi, out) > 1 - 1e-14

    def test_pure_cubic_generator_matches_ideal_gate(self):
        n, gamma, mu = 128, 0.1, 0.7
        tau = gamma / mu
        x = fk.position(n)
        psi = st.squeezed_vacuum(0.5, n)
        out = evolve(-mu * (x @ x @ x), tau, psi)
        ref = _applied(st.ideal_cubic_gate(gamma, n), psi)
        assert fk.fidelity(ref, out) > 1 - 1e-9

    def test_semigroup(self):
        n = 64
        h, _ = dyn.effective_generators(make_cfg(n_fock=n))
        psi = fk.vacuum(n)
        once = evolve(h, 0.02, psi)
        twice = evolve(h, 0.01, evolve(h, 0.01, psi))
        assert fk.fidelity(once, twice) > 1 - 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(fk.ContractViolationError):
            evolve(fk.annihilation(16), 1.0, fk.vacuum(16))


class TestEvolveLindblad:
    def test_lossless_matches_unitary(self):
        n = 48
        h, _ = dyn.effective_generators(make_cfg(n_fock=n, lam=1.3, alpha=1.0))
        psi = fk.vacuum(n)
        rho0 = psi.density_matrix()
        zero_l = np.zeros((n, n))
        rho, diag = dyn.evolve_lindblad(h, zero_l, 0.05, rho0, n_steps=64)
        ref = evolve(h, 0.05, psi)
        assert fk.fidelity(ref, rho) > 1 - 1e-8

    def test_amplitude_decay(self):
        n, kappa, tau = 48, 0.8, 1.1
        a = fk.annihilation(n)
        l_op = math.sqrt(kappa) * a
        psi = _applied(fk.displacement(1.2, n).matrix, fk.vacuum(n))
        rho, _ = dyn.evolve_lindblad(
            np.zeros((n, n)), l_op, tau,
            psi.density_matrix(), n_steps=512,
        )
        got = fk.expectation(a, rho)
        want = 1.2 * math.exp(-kappa * tau / 2.0)
        assert abs(got - want) < 1e-6

    def test_fock_population_decay(self):
        n, kappa = 32, 1.0
        l_op = math.sqrt(kappa) * fk.annihilation(n)
        rho, _ = dyn.evolve_lindblad(
            np.zeros((n, n)), l_op, 1.0,
            fk.fock_state(n, 1).density_matrix(), n_steps=512,
        )
        assert abs(rho.matrix[1, 1].real - math.exp(-1.0)) < 1e-6

    def test_bogoliubov_heating_oracle(self):
        # two-moment closed form: d<n>/dt = -kappa <n> + kappa sinh^2(z)
        n, kappa, lam = 64, 0.5, 1.8
        z = math.log(lam)
        c, s = math.cosh(z), math.sinh(z)
        a = fk.annihilation(n)
        l_op = math.sqrt(kappa) * (c * a + s * a.conj().T)
        tau = 0.6
        rho, _ = dyn.evolve_lindblad(
            np.zeros((n, n)), l_op, tau,
            fk.vacuum(n).density_matrix(), n_steps=1024,
        )
        got = fk.expectation(np.diag(np.arange(n, dtype=complex)), rho).real
        want = s * s * (1.0 - math.exp(-kappa * tau))
        assert abs(got - want) < 1e-6

    def test_trace_and_hermiticity_preserved(self):
        n = 40
        cfg = make_cfg(n_fock=n, kappa=0.5)
        h, l_op = dyn.effective_generators(cfg)
        rho, diag = dyn.evolve_lindblad(h, l_op, cfg.tau * 50, fk.vacuum(n).density_matrix(),
                                        n_steps=256)
        assert diag["trace_drift"] < 1e-10
        assert np.abs(rho.matrix - rho.matrix.conj().T).max() < 1e-14
        assert rho.min_eigenvalue() > -1e-9

    def test_adaptive_converges_deterministically(self):
        n = 32
        cfg = make_cfg(n_fock=n, kappa=1.0, alpha=1.5, lam=1.4)
        h, l_op = dyn.effective_generators(cfg)
        rho1, d1 = dyn.evolve_lindblad(h, l_op, 0.02, fk.vacuum(n).density_matrix())
        rho2, d2 = dyn.evolve_lindblad(h, l_op, 0.02, fk.vacuum(n).density_matrix())
        assert d1["steps"] == d2["steps"]
        assert np.array_equal(rho1.matrix, rho2.matrix)

    def test_step_control_failure_raises(self, monkeypatch):
        n = 24
        l_op = 3.0 * fk.annihilation(n)
        monkeypatch.setattr(dyn, "LINDBLAD_TOL", 1e-16)
        monkeypatch.setattr(dyn, "MAX_STEP_DOUBLINGS", 0)
        with pytest.raises(dyn.IntegrationError):
            dyn.evolve_lindblad(np.zeros((n, n)), l_op, 5.0,
                                fk.fock_state(n, 6).density_matrix())

    def test_trace_leak_raises(self, monkeypatch):
        # a step that grows the trace by ~2e-6 must trip the 1e-8 trace guard
        class LeakySpectrum(fk.Spectrum):
            def unitary(self, t):
                return (1.0 + 1e-6) * super().unitary(t)

        monkeypatch.setattr(dyn, "Spectrum", LeakySpectrum)
        n = 16
        cfg = make_cfg(n_fock=n, kappa=0.5)
        h, l_op = dyn.effective_generators(cfg)
        with pytest.raises(dyn.IntegrationError, match="trace drifted"):
            dyn.evolve_lindblad(h, l_op, cfg.tau, fk.vacuum(n).density_matrix(), n_steps=4)

    def test_negativity_warns(self, monkeypatch):
        n = 16
        rho = np.zeros((n, n), dtype=complex)
        rho[0, 0], rho[1, 1] = 1.0 + 1e-5, -1e-5

        def negative_output(spectrum, lindblad, tau, rho0, n_steps):
            return rho, 0.0

        monkeypatch.setattr(dyn, "_lindblad_fixed", negative_output)
        with pytest.warns(fk.TruncationWarning, match="negativity"):
            _, diag = dyn.evolve_lindblad(np.zeros((n, n)), fk.annihilation(n), 0.1,
                                          fk.vacuum(n).density_matrix(), n_steps=4)
        assert diag["min_eigenvalue"] < -1e-7

    def test_non_finite_output_is_contract_violation(self, monkeypatch):
        # a NaN state passes the trace guard (NaN > 1e-8 is false); the state
        # contract refuses it, so the CLI reports a numerical failure
        n = 16

        def nan_output(spectrum, lindblad, tau, rho0, n_steps):
            return np.full((n, n), np.nan, dtype=complex), np.nan

        monkeypatch.setattr(dyn, "_lindblad_fixed", nan_output)
        with pytest.raises(fk.ContractViolationError, match="not finite"):
            dyn.evolve_lindblad(np.zeros((n, n)), fk.annihilation(n), 0.1,
                                fk.vacuum(n).density_matrix(), n_steps=4)


def _dense_lindblad_reference(h, lm, tau, rho0, n_steps):
    # the integrator's former loop: two dense half-step sandwiches and two
    # dense dissipator evaluations per step
    u_half = fk.Spectrum(h).unitary(0.5 * tau / n_steps)
    u_half_dag = u_half.conj().T
    lm_dag = lm.conj().T
    m_op = lm_dag @ lm
    dt = tau / n_steps

    def d(r):
        return lm @ r @ lm_dag - 0.5 * (m_op @ r + r @ m_op)

    rho = rho0.copy()
    for _ in range(n_steps):
        rho = u_half @ rho @ u_half_dag
        k1 = d(rho)
        k2 = d(rho + dt * k1)
        rho = rho + (0.5 * dt) * (k1 + k2)
        rho = u_half @ rho @ u_half_dag
        rho = 0.5 * (rho + rho.conj().T)
    return rho


def _dense_ladder_reference(h, lm, tau, rho0):
    # the adaptive ladder over the dense loop; returns (rho, rungs). Pairs
    # (p, 2p) start at the stability floor; a failing pair with delta d jumps
    # max(1, ceil(log4(d / tol))) doublings on, the last pair ending at the cap
    tol = dyn.LINDBLAD_TOL
    floor = math.ceil(tau * float(np.abs(lm.conj().T @ lm).sum(axis=1).max()))
    n_top = max(128, floor) << dyn.MAX_STEP_DOUBLINGS
    p, rungs, states = max(8, floor), [], {}
    while 2 * p <= n_top:
        for n in (p, 2 * p):
            if n not in states:
                states[n] = _dense_lindblad_reference(h, lm, tau, rho0, n)
                rungs.append(n)
        delta = np.abs(states[2 * p] - states[p]).max()
        if delta < tol:
            return states[2 * p], rungs
        nxt = min(p << max(1, math.ceil(math.log(delta / tol, 4))), n_top // 2)
        if nxt == p:
            break
        p = nxt
    raise AssertionError("reference ladder did not converge")


def _floor_128_ladder(h, l_op, tau, rho0, tol):
    # the former ladder: plain doubling from max(128, ceil(tau * m_edge));
    # returns (kept steps, integrated steps, rho)
    n = max(128, math.ceil(tau * float(np.abs(l_op.conj().T @ l_op).sum(axis=1).max())))
    integrated, prev = 0, None
    for _ in range(7):
        rho, _ = dyn.evolve_lindblad(h, l_op, tau, rho0, n_steps=n)
        integrated += n
        if prev is not None and np.abs(rho.matrix - prev).max() < tol:
            return n, integrated, rho.matrix
        prev, n = rho.matrix, 2 * n
    raise AssertionError("floor-128 ladder did not converge")


def _rel_max(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestMergedSparseIntegrator:
    n = 40

    def _generators(self, kind):
        cfg = make_cfg(n_fock=self.n, kappa=0.5, lam=1.6, alpha=2.0)
        h, l_op = dyn.effective_generators(cfg)
        if kind == "random":
            rng = np.random.default_rng(7)
            lm = rng.normal(size=(self.n, self.n)) + 1j * rng.normal(size=(self.n, self.n))
            l_op = 0.05 * lm
        return h, l_op, cfg.tau * 50

    @pytest.mark.parametrize("kind", ["bogoliubov", "random"])
    def test_fixed_steps_match_dense_reference(self, kind):
        hm, lm, tau = self._generators(kind)
        rho0 = st.squeezed_vacuum(0.5, self.n).density_matrix()
        rho, diag = dyn.evolve_lindblad(hm, lm, tau, rho0, n_steps=96)
        ref = _dense_lindblad_reference(hm, lm, tau, rho0.matrix, 96)
        assert _rel_max(rho.matrix, ref) <= 1e-12
        assert diag["steps"] == diag["integrated_steps"] == 96
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)

    def test_adaptive_ladder_keeps_reference_rungs(self):
        n = 32
        cfg = make_cfg(n_fock=n, kappa=1.0, alpha=1.5, lam=1.4)
        h, l_op = dyn.effective_generators(cfg)
        rho0 = fk.vacuum(n).density_matrix()
        rho, diag = dyn.evolve_lindblad(h, l_op, 0.02, rho0)
        ref, rungs = _dense_ladder_reference(h, l_op, 0.02, rho0.matrix)
        assert diag["steps"] == rungs[-1]
        assert [steps for steps, _ in diag["rungs"]] == rungs
        assert diag["integrated_steps"] == sum(rungs)
        assert _rel_max(rho.matrix, ref) <= 1e-12


def _complex_lindblad_reference(spectrum, lindblad, tau, rho0, n_steps):
    # the integrator's former step kernel, verbatim: complex CSR products,
    # conj().T copies and out-of-place stage arithmetic
    l_op, m_op = lindblad
    dt = tau / n_steps
    u_half = spectrum.unitary(0.5 * dt)
    u_step = u_half @ u_half

    def sandwich(u, r):
        r = u @ r @ u.conj().T
        return 0.5 * (r + r.conj().T)

    def d(r):
        lr = l_op @ r
        mr = m_op @ r
        return l_op @ lr.conj().T - 0.5 * (mr + mr.conj().T)

    rho = sandwich(u_half, rho0)
    drift = 0.0
    for k in range(1, n_steps + 1):
        k1 = d(rho)
        k2 = d(rho + dt * k1)
        rho = rho + (0.5 * dt) * (k1 + k2)
        rho = sandwich(u_half if k == n_steps else u_step, rho)
        drift = max(drift, abs(np.trace(rho).real - 1.0))
    return rho, drift


class TestRealViewKernel:
    """The real band kernel reproduces the complex CSR one bit for bit."""

    n = 40

    def _generators(self):
        cfg = make_cfg(n_fock=self.n, kappa=0.5, lam=1.6, alpha=2.0)
        return (*dyn.effective_generators(cfg), cfg.tau * 50)

    @pytest.mark.parametrize("n_steps", [48, 96])
    def test_bit_identical_to_complex_kernel(self, n_steps):
        h, l_op, tau = self._generators()
        assert l_op.dtype == np.float64
        rho0 = st.squeezed_vacuum(0.5, self.n).density_matrix()
        l_cplx = l_op.astype(complex)
        l_sp = sparse.csr_matrix(l_cplx)
        m_op = sparse.csr_matrix(l_cplx.conj().T) @ l_sp
        m_op.sort_indices()
        ref, ref_drift = _complex_lindblad_reference(fk.Spectrum(h), (l_sp, m_op), tau,
                                                     rho0.matrix, n_steps)
        rho, diag = dyn.evolve_lindblad(h, l_op, tau, rho0, n_steps=n_steps)
        assert np.array_equal(rho.matrix, ref)
        assert diag["trace_drift"] == ref_drift

    def test_bogoliubov_operator_reaches_kernel_real(self, monkeypatch):
        # the coefficients, the windows and the outputs of every band product
        # are float64: the real L acts on the float64 views, with no upcast
        h, l_op, tau = self._generators()
        dtypes = set()
        einsum = np.einsum

        def spy(subscripts, *operands, out):
            dtypes.update(x.dtype for x in (*operands, out))
            return einsum(subscripts, *operands, out=out)

        monkeypatch.setattr(np, "einsum", spy)
        dyn.evolve_lindblad(h, l_op, tau, fk.vacuum(self.n).density_matrix(), n_steps=48)
        assert dtypes == {np.dtype(np.float64)}

    def test_real_and_zero_imaginary_operator_agree(self):
        h, l_op, tau = self._generators()
        rho0 = st.squeezed_vacuum(0.5, self.n).density_matrix()
        real, d_real = dyn.evolve_lindblad(h, l_op, tau, rho0, n_steps=48)
        cplx, d_cplx = dyn.evolve_lindblad(h, l_op.astype(complex), tau, rho0, n_steps=48)
        assert np.array_equal(real.matrix, cplx.matrix)
        assert d_real == d_cplx


def _band_product(band, x):
    # B x through the integrator's kernel, x in the middle of a padded buffer
    offsets, _ = band
    pad = max(abs(offsets[0]), abs(offsets[-1]))
    buf = np.zeros((x.shape[0] + 2 * pad, x.shape[1]), dtype=complex)
    buf[pad:pad + x.shape[0]] = x
    return dyn._band_kernel(band, buf, pad)(np.empty_like(x))


def _uneven_operator(n, offsets, seed=3):
    l_op = np.zeros((n, n))
    rng = np.random.default_rng(seed)
    for o in offsets:
        rows = np.arange(max(0, -o), min(n, n - o))
        l_op[rows, rows + o] = rng.normal(size=rows.size)
    return l_op


class TestBandProducts:
    """Each band product and the floor equal their scipy CSR counterparts bit for bit."""

    n = 128

    def _operators(self, kind):
        if kind == "bogoliubov":  # the lossy-state gate point
            cfg = GateConfig.make(15.0, 1.4e4, 0.1, chi_over_kappa=1e-4, n_fock=self.n)
            return dyn.effective_generators(cfg)[1]
        if kind == "uneven":
            return _uneven_operator(self.n, (-1, 2))
        if kind == "gap":
            return _uneven_operator(self.n, (-1, 0, 2))
        return np.zeros((self.n, self.n))

    @pytest.mark.parametrize("kind", ["bogoliubov", "uneven", "gap", "zero"])
    def test_products_and_floor_match_csr(self, kind):
        l_op = self._operators(kind)
        l_sp = sparse.csr_matrix(l_op)
        m_sp = sparse.csr_matrix(l_op.T) @ l_sp
        m_sp.sort_indices()
        l_band = dyn._band(l_op)
        m_band = dyn._gram_band(l_band)
        assert l_band[1].dtype == m_band[1].dtype == np.float64
        rng = np.random.default_rng(11)
        x = rng.normal(size=(self.n, self.n)) + 1j * rng.normal(size=(self.n, self.n))
        for band, csr in ((l_band, l_sp), (m_band, m_sp)):
            want = (csr @ x.view(np.float64)).view(complex)
            assert np.array_equal(_band_product(band, x), want)
        floor = dyn._row_sum_max(m_band[1])
        assert floor == float(abs(m_sp).sum(axis=1).max())
        assert (floor == 0.0) == (kind == "zero")

    def test_band_shapes(self):
        assert dyn._band(self._operators("bogoliubov"))[0] == range(-1, 2, 2)
        assert dyn._band(self._operators("uneven"))[0] == range(-1, 3, 3)
        offsets, coef = dyn._band(self._operators("gap"))
        assert offsets == range(-1, 3)
        assert not coef[:, 2].any()  # offset 1 is a gap, filled with zeros
        assert dyn._band(self._operators("zero"))[0] == range(1)
        assert dyn._gram_band(dyn._band(self._operators("uneven")))[0] == range(-3, 4, 3)


class TestStepLadder:
    """Rungs start at the stability floor and jump to the predicted pair."""

    @staticmethod
    def _setup(n=32, kappa=1.0):
        cfg = make_cfg(n_fock=n, kappa=kappa, alpha=1.5, lam=1.4)
        h, l_op = dyn.effective_generators(cfg)
        m_edge = float(np.abs(l_op.conj().T @ l_op).sum(axis=1).max())
        return h, l_op, m_edge, fk.vacuum(n).density_matrix()

    def test_keeps_floor_128_rung_with_fewer_steps(self, monkeypatch):
        h, l_op, m_edge, rho0 = self._setup()
        tau, tol = 0.05, 1e-9
        assert tau * m_edge < 8  # the floor is 8, far below the former 128
        kept, integrated, ref = _floor_128_ladder(h, l_op, tau, rho0, tol)
        monkeypatch.setattr(dyn, "LINDBLAD_TOL", tol)
        rho, diag = dyn.evolve_lindblad(h, l_op, tau, rho0)
        assert kept == 1024 and integrated == 1920
        assert diag["steps"] == kept
        assert np.array_equal(rho.matrix, ref)
        assert diag["integrated_steps"] == sum(n for n, _ in diag["rungs"]) < integrated
        # (8, 16) fails, then the model jumps straight to the pair (512, 1024)
        assert [n for n, _ in diag["rungs"]] == [8, 16, 512, 1024]
        assert [d is None for _, d in diag["rungs"]] == [True, False, True, False]
        assert diag["step_delta"] == diag["rungs"][-1][1] < tol
        delta = diag["rungs"][1][1]
        assert 4**5 <= delta / tol < 4**6

    def test_every_rung_within_stability_floor(self, monkeypatch):
        h, l_op, m_edge, rho0 = self._setup(n=24, kappa=9.0)
        tau = 0.1
        floor = math.ceil(tau * m_edge)
        assert 8 < floor < 128
        monkeypatch.setattr(dyn, "LINDBLAD_TOL", 1e-8)
        _, diag = dyn.evolve_lindblad(h, l_op, tau, rho0)
        steps = [n for n, _ in diag["rungs"]]
        assert steps[0] == floor
        assert len(steps) > 2  # the first pair failed
        assert all(tau * m_edge / n <= 1.0 for n in steps)

    def test_failing_ladder_ends_at_largest_rung(self, monkeypatch):
        h, l_op, m_edge, rho0 = self._setup(n=24, kappa=9.0)
        tau = 0.1
        floor = math.ceil(tau * m_edge)
        calls = []
        fixed = dyn._lindblad_fixed

        def spy(spectrum, lindblad, tau, rho0, n_steps):
            calls.append(n_steps)
            return fixed(spectrum, lindblad, tau, rho0, n_steps)

        monkeypatch.setattr(dyn, "_lindblad_fixed", spy)
        monkeypatch.setattr(dyn, "LINDBLAD_TOL", 1e-16)
        monkeypatch.setattr(dyn, "MAX_STEP_DOUBLINGS", 1)
        with pytest.raises(dyn.IntegrationError, match="up to 256 steps"):
            dyn.evolve_lindblad(h, l_op, tau, rho0)
        # the last pair tried is the former ladder's last pair, 128 and 256
        assert calls == [floor, 2 * floor, 128, 256]

    @pytest.mark.parametrize("kw", [
        dict(n_steps=0), dict(n_steps=-4), dict(tau=-1.0), dict(tau=math.nan),
        dict(tau=math.inf), dict(tau=-math.inf),
    ])
    def test_evolve_rejects_invalid_setting_before_work(self, kw, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(dyn, "Spectrum", no_work)
        monkeypatch.setattr(dyn, "_lindblad_fixed", no_work)
        h, l_op, _, rho0 = self._setup(n=16)
        with pytest.raises(ValueError, match=next(iter(kw))):
            dyn.evolve_lindblad(h, l_op, rho0=rho0, **{"tau": 0.05, **kw})

    @pytest.mark.parametrize("arg, case", [
        ("h", "non-square"), ("l_op", "non-square"), ("l_op", "dimension"),
        ("h", "dimension"), ("rho0", "dimension"), ("h", "nan"), ("l_op", "inf"),
    ])
    def test_evolve_rejects_invalid_operator_before_work(self, arg, case, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(dyn, "Spectrum", no_work)
        monkeypatch.setattr(dyn, "_lindblad_fixed", no_work)
        h, l_op, _, rho0 = self._setup(n=16)
        args = {"h": h, "l_op": l_op, "rho0": rho0}
        if case == "non-square":
            args[arg] = args[arg][:, :-1]
        elif case == "dimension" and arg == "rho0":
            args[arg] = fk.vacuum(17).density_matrix()
        elif case == "dimension":
            args[arg] = np.zeros((17, 17))
        else:
            args[arg] = args[arg].copy()
            args[arg][3, 4] = getattr(math, case)
        with pytest.raises(ValueError, match=rf"\b{arg}\b"):
            dyn.evolve_lindblad(tau=0.05, **args)

    def test_one_step_and_zero_time_are_valid(self):
        h, l_op, _, rho0 = self._setup(n=16)
        _, diag = dyn.evolve_lindblad(h, l_op, 0.001, rho0, n_steps=1)
        assert diag["steps"] == diag["integrated_steps"] == 1
        rho, diag = dyn.evolve_lindblad(h, l_op, 0.0, rho0)
        assert rho is rho0
        assert diag == {"trace_drift": 0.0, "steps": 0, "integrated_steps": 0}

    def test_non_finite_rung_means_plain_doubling(self, monkeypatch):
        # rungs 16 and 32 blow up: no pair is compared until (64, 128), each
        # rung is integrated once, and the model's jump starts from there
        h, l_op, _, rho0 = self._setup()
        fixed = dyn._lindblad_fixed

        def blow_up(spectrum, lindblad, tau, rho0, n_steps):
            rho, drift = fixed(spectrum, lindblad, tau, rho0, n_steps)
            return (np.full_like(rho, np.nan) if n_steps in (16, 32) else rho), drift

        monkeypatch.setattr(dyn, "_lindblad_fixed", blow_up)
        rho, diag = dyn.evolve_lindblad(h, l_op, 0.05, rho0)
        assert [n for n, _ in diag["rungs"][:5]] == [8, 16, 32, 64, 128]
        assert [d is None for _, d in diag["rungs"][:5]] == [True] * 4 + [False]
        assert np.all(np.isfinite(rho.matrix))

    @pytest.mark.parametrize("ratio", [1.0, 2.0])
    def test_delta_up_to_four_tolerances_doubles_once(self, monkeypatch, ratio):
        # a pair passes only below the tolerance; a delta of exactly tol
        # predicts no doubling, and the ladder still moves on by one
        h, l_op, _, rho0 = self._setup()
        _, diag = dyn.evolve_lindblad(h, l_op, 0.05, rho0)
        monkeypatch.setattr(dyn, "LINDBLAD_TOL", diag["rungs"][1][1] / ratio)
        _, diag = dyn.evolve_lindblad(h, l_op, 0.05, rho0)
        assert [n for n, _ in diag["rungs"][:3]] == [8, 16, 32]
        assert diag["rungs"][2][1] is not None

    def test_trace_drift_bound_is_inclusive(self, monkeypatch):
        h, l_op, _, rho0 = self._setup(n=16)
        fixed = dyn._lindblad_fixed

        def drift(limit):
            def spy(spectrum, lindblad, tau, rho0, n_steps):
                return fixed(spectrum, lindblad, tau, rho0, n_steps)[0], limit
            return spy

        monkeypatch.setattr(dyn, "_lindblad_fixed", drift(1e-8))
        assert dyn.evolve_lindblad(h, l_op, 0.05, rho0, n_steps=8)[1]["trace_drift"] == 1e-8
        monkeypatch.setattr(dyn, "_lindblad_fixed", drift(1.0000001e-8))
        with pytest.raises(dyn.IntegrationError, match="trace drifted"):
            dyn.evolve_lindblad(h, l_op, 0.05, rho0, n_steps=8)

    def test_negativity_warning_threshold_and_caller(self, monkeypatch):
        h, l_op, _, rho0 = self._setup(n=16)
        monkeypatch.setattr(fk.MixedState, "min_eigenvalue", lambda self: -1e-7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dyn.evolve_lindblad(h, l_op, 0.05, rho0, n_steps=8)
        monkeypatch.setattr(fk.MixedState, "min_eigenvalue", lambda self: -2e-7)
        with pytest.warns(fk.TruncationWarning, match="negativity") as record:
            dyn.evolve_lindblad(h, l_op, 0.05, rho0, n_steps=8)
        assert record[0].filename == __file__  # stacklevel 2: the caller's line


def _exact_lindblad(h, l_op, tau, rho0):
    """rho(tau) = exp(tau Liouvillian) rho0 on the N^2-dimensional row-major vec of rho."""
    from scipy.linalg import expm

    n = h.shape[0]
    eye = np.eye(n)
    m_op = l_op.conj().T @ l_op
    liouvillian = (-1j * (np.kron(h, eye) - np.kron(eye, h.T)) + np.kron(l_op, l_op.conj())
                   - 0.5 * (np.kron(m_op, eye) + np.kron(eye, m_op.T)))
    return (expm(tau * liouvillian) @ rho0.reshape(-1)).reshape(n, n)


class TestExactMasterEquation:
    """The lossy gate against the exact solution of its master equation.

    The kept 2p-step state of the ladder lies within its `step_delta` of the
    exact rho(tau), and so within `LINDBLAD_TOL`: Strang-Heun is second order,
    so the true error is about a third of the delta that accepted the rung.
    The gate error and the minimum eigenvalue follow. N stays small because
    the Liouvillian has N^2 rows.
    """

    @staticmethod
    def _check(cfg):
        n = cfg.n_fock
        psi = st.squeezed_vacuum(0.5, n)
        res = dyn.cubic_gate(cfg, psi)
        rho = _exact_lindblad(*dyn.effective_generators(cfg), cfg.tau,
                              psi.density_matrix().matrix)
        delta = res.diagnostics["step_delta"]
        assert np.abs(res.state.matrix - rho).max() <= min(delta, dyn.LINDBLAD_TOL)
        # |<t|D|t>| and |lambda_min(A) - lambda_min(B)| are at most ||D||_2 <= N max|D|
        exact_error = 1.0 - np.vdot(res.target.vector, rho @ res.target.vector).real
        assert abs(res.error - exact_error) <= n * delta
        exact_min = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
        kept_min = res.diagnostics["min_eigenvalue"]
        assert abs(kept_min - exact_min) <= n * delta
        if abs(exact_min) > 1e-14:  # below that the sign is roundoff
            assert np.sign(kept_min) == np.sign(exact_min)

    @pytest.mark.parametrize("lam_db, alpha, chi_over_kappa", [
        (12.5, None, 1e-3),   # fig3b's first grid at its reference alpha
        (20.0, None, 1e-3),
        (15.0, 1.4e4, 1e-4),  # fig4's operating point
    ])
    def test_recipe_points(self, lam_db, alpha, chi_over_kappa):
        lam = fk.lambda_from_db(lam_db)
        alpha = 1.85 * lam**3 if alpha is None else alpha
        self._check(GateConfig.make(lam_db, alpha, 0.1, chi_over_kappa, n_fock=24))

    @settings(max_examples=6, deadline=None)
    @given(lam_db=hs.floats(5.0, 20.0), alpha_factor=hs.floats(0.5, 3.0),
           log_ratio=hs.floats(-4.0, -1.0))
    def test_drawn_points(self, lam_db, alpha_factor, log_ratio):
        alpha = alpha_factor * 1.85 * fk.lambda_from_db(lam_db) ** 3
        self._check(GateConfig.make(lam_db, alpha, 0.1, 10.0**log_ratio, n_fock=16))


class TestCubicGate:
    def test_zero_angle_zero_error(self):
        cfg = make_cfg(gamma=0.0)
        psi = st.squeezed_vacuum(0.5, cfg.n_fock)
        res = dyn.cubic_gate(cfg, psi)
        assert res.error == 0.0

    def test_frame_equivalence_oracle(self):
        # effective-frame pipeline vs explicit conjugation, lossless
        lam, alpha, gamma, n = 2.0, 3.0, 0.2, 120
        cfg = GateConfig(lam=lam, alpha=alpha, gamma=gamma, n_fock=n)
        psi = fk.vacuum(n)
        res = dyn.cubic_gate(cfg, psi)
        params = alg.cubic_parameters(1.0, lam, alpha, gamma)
        delta, beta = alg.cubic_counterterms(1.0)
        a = fk.annihilation(n)
        ad = a.conj().T
        h_native = (
            -0.5 * (ad @ ad @ a @ a)
            + delta(alpha).real * (ad @ a)
            + beta(alpha).real * (a + ad)
        )
        s = squeeze(math.log(lam), n)
        d = fk.displacement(alpha, n).matrix
        u_native = fk.Spectrum(h_native).unitary(params.tau)
        oracle = fk.PureState(s.conj().T @ d.conj().T @ u_native @ d @ s @ psi.vector)
        assert fk.fidelity(oracle, res.state) > 1 - 1e-6

    def test_error_invariant_under_global_phase(self):
        cfg = make_cfg()
        psi = st.squeezed_vacuum(0.5, cfg.n_fock)
        phased = fk.PureState(np.exp(1.3j) * psi.vector, normalize=False)
        e1 = dyn.cubic_gate(cfg, psi).error
        e2 = dyn.cubic_gate(cfg, phased).error
        assert abs(e1 - e2) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dyn.cubic_gate(make_cfg(n_fock=64), fk.vacuum(32))

    # at make_cfg's alpha = 3 the detuning counter-term is 26: an offset of 0.2
    @pytest.mark.parametrize("noise", [NoiseParams(),
                                       NoiseParams(dtheta=0.01, ddelta_rel=0.2 / 26)])
    def test_cached_operating_point_is_bit_identical(self, noise):
        cfg = make_cfg(noise=noise)
        psi = st.squeezed_vacuum(0.5, cfg.n_fock)

        def clear():
            for cache in (dyn._frame_hamiltonian, dyn._frame_number_operator,
                          st._cached_target, alg._ladder_diagonal):
                cache.cache_clear()

        clear()
        cold = dyn.cubic_gate(cfg, psi)
        warm = dyn.cubic_gate(cfg, psi)
        assert dyn._frame_hamiltonian.cache_info().hits >= 1
        assert st._cached_target.cache_info().hits >= 1
        clear()
        again = dyn.cubic_gate(cfg, psi)
        for res in (warm, again):
            assert res.error == cold.error
            assert res.state.vector.tobytes() == cold.state.vector.tobytes()
            assert res.target.vector.tobytes() == cold.target.vector.tobytes()

    def test_lossless_gate_builds_no_lindblad_operator(self, monkeypatch):
        def forbidden(n):
            raise AssertionError("lossless gate built the Lindblad operator")

        psi = st.squeezed_vacuum(0.5, 48)
        ref = dyn.cubic_gate(make_cfg(n_fock=48), psi)
        monkeypatch.setattr(dyn, "annihilation", forbidden)
        res = dyn.cubic_gate(make_cfg(n_fock=48), psi)
        assert np.array_equal(res.state.vector, ref.state.vector)
        with pytest.raises(AssertionError, match="Lindblad"):
            dyn.cubic_gate(make_cfg(n_fock=48, kappa=0.01), psi)

    def test_generator_cache_distinguishes_noise(self):
        h0, _ = dyn.effective_generators(make_cfg())
        cfg = make_cfg(noise=NoiseParams(ddelta_rel=0.5 / 26))  # 0.5 at alpha = 3
        h1, _ = dyn.effective_generators(cfg)
        delta, beta = alg.cubic_counterterms(1.0)
        # the relative offset is exactly ddelta_rel times the detuning counter-term
        hp = alg.frame_hamiltonian(1.0, cfg.lam, delta + delta * cfg.noise.ddelta_rel, beta)
        assert np.array_equal(h1, alg.to_matrix(hp, cfg.alpha, cfg.n_fock))
        assert not np.array_equal(h1, h0)

    def test_drive_offset_is_eps_times_the_drive_counterterm(self):
        eps = 0.5 / 54  # 0.5 at alpha = 3
        delta, beta = alg.cubic_counterterms(1.0)
        hp = alg.frame_hamiltonian(1.0, 1.3, delta, beta + beta * eps)
        assert dyn._frame_hamiltonian(1.3, 0.0, eps) == hp
        assert dyn._frame_hamiltonian(1.3, 0.0, -eps) != hp


class TestNoiseEquivalences:
    def setup_method(self):
        self.n = 128
        self.lam = fk.lambda_from_db(10.0)
        self.alpha = 1.85 * self.lam**3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fk.TruncationWarning)
            self.psi = st.gkp_state(st.GkpParams("z+", 0.5), self.n)
        self.cfg0 = GateConfig(lam=self.lam, alpha=self.alpha, gamma=0.1, n_fock=self.n)
        self.out0 = dyn.cubic_gate(self.cfg0, self.psi).state

    def _p_displaced(self, out, shift):
        d = fk.displacement(1j * shift / math.sqrt(2.0), self.n)
        return fk.PureState(d.matrix @ out.vector, normalize=False)

    def test_phase_noise_is_p_displacement(self):
        dtheta = 1e-6
        cfg = GateConfig(lam=self.lam, alpha=self.alpha, gamma=0.1, n_fock=self.n,
                         noise=NoiseParams(dtheta=dtheta))
        noisy = dyn.cubic_gate(cfg, self.psi).state
        shift = -math.sqrt(2.0) * self.lam * self.alpha * dtheta
        ref = self._p_displaced(self.out0, shift)
        assert fk.fidelity(ref, noisy) > 1 - 1e-4

    def test_detuning_noise_is_p_displacement(self):
        rel = 2e-7
        cfg = GateConfig(lam=self.lam, alpha=self.alpha, gamma=0.1, n_fock=self.n,
                         noise=NoiseParams(ddelta_rel=rel))
        noisy = dyn.cubic_gate(cfg, self.psi).state
        shift = -6.0 * 0.1 * self.alpha**2 / self.lam**2 * rel
        ref = self._p_displaced(self.out0, shift)
        assert fk.fidelity(ref, noisy) > 1 - 1e-4

    def test_drive_noise_is_p_displacement(self):
        rel = 3e-7
        cfg = GateConfig(lam=self.lam, alpha=self.alpha, gamma=0.1, n_fock=self.n,
                         noise=NoiseParams(dbeta_x_rel=rel))
        noisy = dyn.cubic_gate(cfg, self.psi).state
        shift = -4.0 * 0.1 * self.alpha**2 / self.lam**2 * rel
        ref = self._p_displaced(self.out0, shift)
        assert fk.fidelity(ref, noisy) > 1 - 1e-4


class TestTrotter:
    def test_requires_lossless(self):
        # refused when the configuration is built, before any gate
        with pytest.raises(dyn.UnsupportedConfigurationError, match="lossless case only"):
            make_cfg(trotter_steps=2, kappa=0.1)

    def test_requires_steps(self):
        with pytest.raises(dyn.UnsupportedConfigurationError):
            dyn.trotterized_gate(make_cfg(trotter_steps=0), fk.vacuum(96))

    def test_zero_drive_equals_continuous_exactly(self):
        # with the drive off the kick displacements are the identity and every
        # step factor is the same undriven-Kerr exponential
        n = 96
        cfg = make_cfg(n_fock=n, trotter_steps=4, lam=1.5, alpha=2.0)
        params = alg.cubic_parameters(1.0, cfg.lam, cfg.alpha, cfg.gamma)
        xi, h_steps = dyn._discrete_sequence(cfg, alg.AlphaPoly(0), params.tau)
        assert xi == 0j
        psi = fk.vacuum(n).vector
        for h_k in h_steps:
            psi = fk.Spectrum(h_k).advance(psi, params.tau / 4)
        h0 = alg.to_matrix(
            alg.substitute_gaussian_frame(
                alg.driven_kerr(1.0, alg.cubic_counterterms(1.0)[0], 0), cfg.lam
            ).drop_constant(),
            cfg.alpha, n,
        )
        cont = evolve(h0, params.tau, fk.vacuum(n))
        assert fk.fidelity(cont, fk.PureState(psi, normalize=False)) > 1 - 1e-12

    def test_second_order_convergence(self):
        n = 192
        lam = fk.lambda_from_db(10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fk.TruncationWarning)
            psi = st.gkp_state(st.GkpParams("z+", 0.5), n)
        cont = dyn.cubic_gate(GateConfig(lam=lam, alpha=12.0, gamma=0.1, n_fock=n), psi).error
        diffs = []
        for n_t in (2, 8):
            res = dyn.trotterized_gate(
                GateConfig(lam=lam, alpha=12.0, gamma=0.1, n_fock=n, trotter_steps=n_t), psi
            )
            diffs.append(abs(res.error - cont))
        ratio = diffs[0] / diffs[1]
        assert 16.0 * 0.7 < ratio < 16.0 * 1.3  # N^-2 between N=2 and N=8

    def test_cubic_gate_dispatches_to_trotter(self):
        n = 96
        cfg = make_cfg(n_fock=n, trotter_steps=2, lam=1.5, alpha=2.0)
        psi = fk.vacuum(n)
        r1 = dyn.cubic_gate(cfg, psi)
        r2 = dyn.trotterized_gate(cfg, psi)
        assert r1.error == r2.error

    # offsets of 0.1 and -0.1 at alpha = 5, where delta_c = 74 and beta_c = -250
    @pytest.mark.parametrize("noise", [NoiseParams(ddelta_rel=0.1 / 74),
                                       NoiseParams(dbeta_x_rel=-0.1 / 250),
                                       NoiseParams(dtheta=0.01, dbeta_x_rel=0.1 / 250)])
    def test_detuning_and_drive_offsets_rejected_before_work(self, noise):
        # the drive-free scheme has no continuous detuning or drive to offset, so
        # the configuration is refused when it is built
        with pytest.raises(dyn.UnsupportedConfigurationError, match="dtheta only"):
            GateConfig(lam=fk.lambda_from_db(5.0), alpha=5.0, gamma=0.1, n_fock=48,
                       trotter_steps=2, noise=noise)

    def test_zero_angle_is_identity(self):
        # like the continuous gate, gamma = 0 never enters the medium
        psi = st.squeezed_vacuum(0.5, 48)
        cfg = GateConfig(lam=1.5, alpha=2.0, gamma=0.0, n_fock=48, trotter_steps=3)
        res = dyn.trotterized_gate(cfg, psi)
        assert res.error == 0.0 and res.state is psi and res.diagnostics == {"tau": 0.0}


def _substituted_segments(cfg, beta, tau):
    """Oracle: every Trotter segment from its own frame substitution."""
    kerr = alg.driven_kerr(1.0, alg.cubic_counterterms(1.0)[0], 0)
    n_t = cfg.trotter_steps
    h_steps = []
    for k in range(1, n_t + 1):
        w_k = beta * complex(0.0, -(2 * k - 1) * tau / (2.0 * n_t))
        h_k = shifted_frame(kerr, cfg.lam, w_k).drop_constant()
        h_steps.append(alg.to_matrix(h_k, cfg.alpha, cfg.n_fock))
    return -1j * tau * cfg.lam * beta(cfg.alpha), h_steps


class TestTrotterSegmentExpansion:
    EXACT = alg.ExactComplex
    SCALARS = {
        "zero": EXACT(Fraction(0), Fraction(0)),
        "real": EXACT(Fraction(3, 8), Fraction(0)),
        "imaginary": EXACT(Fraction(0), Fraction(-5, 16)),
        "segment": EXACT.of(complex(0.0, -3 * 0.0123 / 14.0)),
        "complex": EXACT(Fraction(1, 3), Fraction(-2, 7)),
    }

    @pytest.mark.parametrize("lam", [1.5, fk.lambda_from_db(10.0)])
    @pytest.mark.parametrize("name", sorted(SCALARS))
    def test_shift_expansion_equals_substitution(self, lam, name):
        s = self.SCALARS[name]
        chi = 1.0
        beta = alg.cubic_counterterms(chi)[1]
        kerr = alg.driven_kerr(chi, alg.cubic_counterterms(chi)[0], 0)
        w = beta * s
        direct = shifted_frame(kerr, lam, w)
        # general form, any scalar: p(a^dag + conj(w), a + w), then the frame
        shifted = alg.BosonPolynomial()
        for group in dyn._taylor_shift(kerr, w.conjugate(), w).values():
            shifted = shifted + group
        assert alg.substitute_gaussian_frame(shifted, lam) == direct
        if s.re == 0:  # the cached form: sum_m s^m Q_m for imaginary s
            total, power = alg.BosonPolynomial(), alg.ExactComplex.of(1)
            for q_m in dyn._segment_expansion(lam, beta):
                total = total + q_m * power
                power = power * s
            assert total == direct.drop_constant()

    @pytest.mark.parametrize("n, steps, lam_db, alpha, selector", [
        (48, 1, 5.0, 5.0, "squeezed:0.5"),
        (64, 3, 10.0, 12.0, "gkp:z+:0.5"),
        (96, 4, 10.0, 16.0, "gkp:x+:0.5"),
        (448, 1, 10.0, 12.0, "gkp:z+:0.5"),
    ])
    def test_gate_bit_identical_to_per_segment_substitution(self, monkeypatch, n, steps,
                                                            lam_db, alpha, selector):
        cfg = GateConfig(lam=fk.lambda_from_db(lam_db), alpha=alpha, gamma=0.1, n_fock=n,
                         trotter_steps=steps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fk.TruncationWarning)
            psi = st.parse_state(selector, n, 0.0)
            new = dyn.trotterized_gate(cfg, psi)
            monkeypatch.setattr(dyn, "_discrete_sequence", _substituted_segments)
            old = dyn.trotterized_gate(cfg, psi)
        assert np.array_equal(new.state.vector, old.state.vector)
        assert new.error == old.error

    @pytest.mark.parametrize("steps", [1, 3])
    def test_zero_duration_gate_bit_identical_to_per_segment_substitution(self, monkeypatch,
                                                                           steps):
        # gamma = 0 with a phase offset still runs the segments, at tau = 0: every
        # term of order m >= 1 vanishes and only Q_0 is left
        cfg = GateConfig(lam=fk.lambda_from_db(10.0), alpha=12.0, gamma=0.0, n_fock=64,
                         trotter_steps=steps, noise=NoiseParams(dtheta=0.01))
        beta = alg.cubic_counterterms(1.0)[1]
        xi, h_steps = dyn._discrete_sequence(cfg, beta, 0.0)
        xi_ref, h_ref = _substituted_segments(cfg, beta, 0.0)
        assert xi == xi_ref and len(h_steps) == len(h_ref) == steps
        for h_k, h_k_ref in zip(h_steps, h_ref):
            assert np.array_equal(h_k.view(np.int64), h_k_ref.view(np.int64))
        psi = st.squeezed_vacuum(0.5, cfg.n_fock)
        new = dyn.trotterized_gate(cfg, psi)
        monkeypatch.setattr(dyn, "_discrete_sequence", _substituted_segments)
        old = dyn.trotterized_gate(cfg, psi)
        assert new.diagnostics["tau"] == 0.0 and new.error > 0.0
        assert np.array_equal(new.state.vector, old.state.vector)
        assert new.error == old.error

    def test_band_assembly_prunes_zero_slots(self):
        # a segment slot can be exactly zero (every slot past Q_0 at tau = 0);
        # band_matrix drops zero slots as AlphaPoly and BosonPolynomial do,
        # before the dimension check
        slots = {(0, 1): [0.5, 0j, 2.0, 0j], (1, 0): [0.5, 0j, 2.0], (3, 4): [0j, 0j]}
        exact = alg.BosonPolynomial({key: alg.AlphaPoly(c) for key, c in slots.items()})
        assert max(m + nn for m, nn in exact.terms) == 1
        assert np.array_equal(alg.band_matrix(slots, 3.0, 3), alg.to_matrix(exact, 3.0, 3))
        with pytest.raises(fk.InvalidDimensionError):
            alg.band_matrix(slots, 3.0, 2)
        assert np.array_equal(alg.band_matrix({(2, 2): [0j]}, 3.0, 2), np.zeros((2, 2)))
        with pytest.raises(fk.InvalidDimensionError):
            alg.band_matrix({}, 3.0, 1)

    def test_substitutions_once_per_expansion(self, monkeypatch):
        real = dyn.substitute_gaussian_frame
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        dyn._segment_numerators.cache_clear()
        monkeypatch.setattr(dyn, "substitute_gaussian_frame", counting)
        cfg = GateConfig(lam=fk.lambda_from_db(5.0), alpha=5.0, gamma=0.1, n_fock=48,
                         trotter_steps=16)
        psi = st.squeezed_vacuum(0.5, cfg.n_fock)
        with pytest.warns(fk.TruncationWarning, match="excursion"):
            dyn.trotterized_gate(cfg, psi)
            assert 1 <= len(calls) <= 5  # one per order m of the shift
            calls.clear()
            dyn.trotterized_gate(replace(cfg, alpha=7.0), psi)
            dyn.trotterized_gate(replace(cfg, trotter_steps=3), psi)
        assert calls == []


class TestPhotonTrace:
    def test_initial_value_matches_input_expectation(self):
        cfg = make_cfg(lam=1.5, alpha=2.0, n_fock=96)
        psi = st.squeezed_vacuum(0.5, cfg.n_fock)
        series = dyn.photon_number_trace(cfg, psi, samples=5)
        n_op, const = dyn.effective_number_operator(cfg)
        want = fk.expectation(n_op, psi).real + const
        assert abs(series["total"][0] - want) < 1e-10
        assert abs(series["fluctuation"][0] - (want - cfg.alpha**2)) < 1e-10

    def test_sample_count_and_span(self):
        cfg = make_cfg(lam=1.5, alpha=2.0, n_fock=96)
        psi = fk.vacuum(cfg.n_fock)
        series = dyn.photon_number_trace(cfg, psi, samples=9)
        assert len(series["t"]) == 9
        assert series["t"][0] == 0.0
        assert abs(series["t"][-1] - cfg.tau) < 1e-18

    def test_trace_ends_at_the_gate_output_from_one_spectrum(self, monkeypatch):
        cfg = make_cfg(lam=1.5, alpha=2.0, n_fock=96)
        psi = st.squeezed_vacuum(0.5, cfg.n_fock)
        out = dyn.cubic_gate(cfg, psi).state
        spectra = []
        spectrum = dyn.Spectrum
        monkeypatch.setattr(dyn, "Spectrum", lambda h: spectra.append(h) or spectrum(h))
        monkeypatch.setattr(dyn, "cubic_gate", None)  # the trace runs no gate
        series = dyn.photon_number_trace(cfg, psi, samples=5)
        assert len(spectra) == 1
        n_op, const = dyn.effective_number_operator(cfg)
        assert abs(series["total"][-1] - (fk.expectation(n_op, out).real + const)) < 1e-10

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            dyn.photon_number_trace(make_cfg(), fk.vacuum(96), samples=1)

    def test_zero_angle_trace_is_flat(self):
        # gamma = 0 never enters the medium: the series is the input's moments
        cfg = make_cfg(lam=1.5, alpha=2.0, gamma=0.0)
        psi = st.squeezed_vacuum(0.5, cfg.n_fock)
        series = dyn.photon_number_trace(cfg, psi, samples=5)
        n_op, const = dyn.effective_number_operator(cfg)
        want = fk.expectation(n_op, psi).real + const
        assert len(series["t"]) == 5 and not series["t"].any()
        assert np.all(series["total"] == series["total"][0])
        assert abs(series["total"][0] - want) < 1e-10

    @staticmethod
    def _forbid_gate_work(monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("gate work started")

        for name in ("cubic_gate", "evolve_lindblad", "_discrete_sequence", "Spectrum"):
            monkeypatch.setattr(dyn, name, forbidden)

    def test_trotterized_trace_rejected_before_gate_work(self, monkeypatch):
        self._forbid_gate_work(monkeypatch)
        cfg = make_cfg(lam=1.5, alpha=2.0, trotter_steps=2)
        with pytest.raises(dyn.UnsupportedConfigurationError, match="lossless continuous"):
            dyn.photon_number_trace(cfg, fk.vacuum(cfg.n_fock), samples=5)

    def test_lossy_trace_rejected_before_gate_work(self, monkeypatch):
        # series are recorded for the lossless continuous gate only
        self._forbid_gate_work(monkeypatch)
        cfg = make_cfg(lam=1.5, alpha=2.0, n_fock=48, kappa=0.5)
        with pytest.raises(dyn.UnsupportedConfigurationError, match="lossless continuous"):
            dyn.photon_number_trace(cfg, fk.vacuum(cfg.n_fock), samples=4)
