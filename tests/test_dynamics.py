import math
import warnings

import numpy as np
import pytest

from kerrcubic import algebra as alg
from kerrcubic import dynamics as dyn
from kerrcubic import fock as fk
from kerrcubic import states as st
from kerrcubic.dynamics import GateConfig, NoiseParams


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
            make_cfg(loss_frame="other")
        with pytest.raises(ValueError):
            make_cfg(gamma=-0.2)

    @pytest.mark.parametrize("field", ["chi", "lam", "alpha", "kappa"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_field(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            make_cfg(**{field: value})

    @pytest.mark.parametrize("field", ["dtheta", "ddelta", "dbeta_x", "dbeta_p"])
    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_rejects_nonfinite_noise_offset(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            NoiseParams(**{field: value})

    def test_make_from_db(self):
        cfg = GateConfig.make(lam_db=15.0, alpha=10.0, gamma=0.1, chi_over_kappa=1e-4)
        assert abs(cfg.lam - 10**0.75) < 1e-12
        assert abs(cfg.kappa - 1e4) < 1e-9
        assert abs(cfg.lam_db - 15.0) < 1e-12

    def test_tau_matches_parameters(self):
        cfg = make_cfg()
        p = alg.cubic_parameters(cfg.chi, cfg.lam, cfg.alpha, cfg.gamma)
        assert cfg.tau == p.tau


class TestEffectiveGenerators:
    def test_lossless_limit(self):
        h, l_op, drift = dyn.effective_generators(make_cfg(kappa=0.0))
        assert np.abs(l_op.matrix).max() == 0.0
        assert drift == 0.0

    def test_unit_gain_lindblad(self):
        cfg = make_cfg(lam=1.0, kappa=2.0)
        _, l_op, drift = dyn.effective_generators(cfg)
        ref = math.sqrt(2.0) * fk.annihilation(cfg.n_fock).matrix
        assert np.abs(l_op.matrix - ref).max() < 1e-12
        assert abs(drift - math.sqrt(2.0) * cfg.alpha) < 1e-12

    def test_cubic_coefficient_through_pipeline(self):
        cfg = make_cfg(lam=2.0, alpha=8.0)
        h, _, _ = dyn.effective_generators(cfg)
        # read the x^3 coefficient back off the matrix: <3 x^3-ish> trick is
        # fragile, so rebuild through the algebra route instead
        hp = alg.substitute_gaussian_frame(
            alg.driven_kerr(1.0, *alg.cubic_counterterms(1.0)), 2.0
        ).drop_constant()
        got = alg.to_quadrature_form(hp).quad_coefficient(3, 0, 8.0)
        assert abs(got - (-(2.0**3) * 8.0 / math.sqrt(2.0))) < 1e-10
        assert np.abs(h.matrix - alg.to_matrix(hp, 8.0, cfg.n_fock).matrix).max() == 0.0

    def test_gauge_term_is_momentum_generator(self):
        cfg = make_cfg(kappa=4.0)
        _, l_op, drift = dyn.effective_generators(cfg)
        g = dyn._gauge_hamiltonian(l_op, drift)
        # (i/2)(c* L - c L^dag) with real drift equals -(kappa alpha / (sqrt2 lam)) p
        ref = -(cfg.kappa * cfg.alpha / (math.sqrt(2.0) * cfg.lam)) * fk.momentum(cfg.n_fock).matrix
        assert np.abs(g - ref).max() < 1e-10 * np.abs(ref).max()


class TestEvolveUnitary:
    def test_zero_time(self):
        psi = st.squeezed_vacuum(0.5, 64)
        out = dyn.evolve_unitary(fk.number(64), 0.0, psi)
        assert fk.fidelity(psi, out) > 1 - 1e-14

    def test_pure_cubic_generator_matches_ideal_gate(self):
        n, gamma, mu = 128, 0.1, 0.7
        tau = gamma / mu
        x = fk.TruncatedMode(n).x
        h = fk.Operator(-mu * (x @ x @ x), hermitian=True)
        psi = st.squeezed_vacuum(0.5, n)
        out = dyn.evolve_unitary(h, tau, psi)
        ref = st.ideal_cubic_gate(gamma, n) @ psi
        assert fk.fidelity(ref, out) > 1 - 1e-9

    def test_semigroup(self):
        n = 64
        h, _, _ = dyn.effective_generators(make_cfg(n_fock=n))
        psi = fk.vacuum(n)
        once = dyn.evolve_unitary(h, 0.02, psi)
        twice = dyn.evolve_unitary(h, 0.01, dyn.evolve_unitary(h, 0.01, psi))
        assert fk.fidelity(once, twice) > 1 - 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(fk.ContractViolationError):
            dyn.evolve_unitary(fk.annihilation(16), 1.0, fk.vacuum(16))


class TestEvolveLindblad:
    def test_lossless_matches_unitary(self):
        n = 48
        h, _, _ = dyn.effective_generators(make_cfg(n_fock=n, lam=1.3, alpha=1.0))
        psi = fk.vacuum(n)
        rho0 = psi.density_matrix()
        zero_l = fk.Operator(np.zeros((n, n)))
        rho, diag = dyn.evolve_lindblad(h, zero_l, 0.05, rho0, n_steps=64)
        ref = dyn.evolve_unitary(h, 0.05, psi)
        assert fk.fidelity(ref, rho) > 1 - 1e-8

    def test_amplitude_decay(self):
        n, kappa, tau = 48, 0.8, 1.1
        a = fk.annihilation(n)
        l_op = fk.Operator(math.sqrt(kappa) * a.matrix)
        psi = fk.displacement(1.2, n) @ fk.vacuum(n)
        rho, _ = dyn.evolve_lindblad(
            fk.Operator(np.zeros((n, n)), hermitian=True), l_op, tau,
            psi.density_matrix(), n_steps=512,
        )
        got = fk.expectation(a, rho)
        want = 1.2 * math.exp(-kappa * tau / 2.0)
        assert abs(got - want) < 1e-6

    def test_fock_population_decay(self):
        n, kappa = 32, 1.0
        l_op = fk.Operator(math.sqrt(kappa) * fk.annihilation(n).matrix)
        rho, _ = dyn.evolve_lindblad(
            fk.Operator(np.zeros((n, n)), hermitian=True), l_op, 1.0,
            fk.fock_state(n, 1).density_matrix(), n_steps=512,
        )
        assert abs(rho.matrix[1, 1].real - math.exp(-1.0)) < 1e-6

    def test_bogoliubov_heating_oracle(self):
        # two-moment closed form: d<n>/dt = -kappa <n> + kappa sinh^2(z)
        n, kappa, lam = 64, 0.5, 1.8
        z = math.log(lam)
        c, s = math.cosh(z), math.sinh(z)
        a = fk.annihilation(n).matrix
        l_op = fk.Operator(math.sqrt(kappa) * (c * a + s * a.conj().T))
        tau = 0.6
        rho, _ = dyn.evolve_lindblad(
            fk.Operator(np.zeros((n, n)), hermitian=True), l_op, tau,
            fk.vacuum(n).density_matrix(), n_steps=1024,
        )
        got = fk.expectation(fk.number(n), rho).real
        want = s * s * (1.0 - math.exp(-kappa * tau))
        assert abs(got - want) < 1e-6

    def test_trace_and_hermiticity_preserved(self):
        n = 40
        cfg = make_cfg(n_fock=n, kappa=0.5)
        h, l_op, _ = dyn.effective_generators(cfg)
        rho, diag = dyn.evolve_lindblad(h, l_op, cfg.tau * 50, fk.vacuum(n).density_matrix(),
                                        n_steps=256)
        assert diag["trace_drift"] < 1e-10
        assert np.abs(rho.matrix - rho.matrix.conj().T).max() < 1e-14
        assert rho.min_eigenvalue() > -1e-9

    def test_adaptive_converges_deterministically(self):
        n = 32
        cfg = make_cfg(n_fock=n, kappa=1.0, alpha=1.5, lam=1.4)
        h, l_op, _ = dyn.effective_generators(cfg)
        rho1, d1 = dyn.evolve_lindblad(h, l_op, 0.02, fk.vacuum(n).density_matrix())
        rho2, d2 = dyn.evolve_lindblad(h, l_op, 0.02, fk.vacuum(n).density_matrix())
        assert d1["steps"] == d2["steps"]
        assert np.array_equal(rho1.matrix, rho2.matrix)

    def test_step_control_failure_raises(self):
        n = 24
        l_op = fk.Operator(3.0 * fk.annihilation(n).matrix)
        with pytest.raises(dyn.IntegrationError):
            dyn.evolve_lindblad(
                fk.Operator(np.zeros((n, n)), hermitian=True), l_op, 5.0,
                fk.fock_state(n, 6).density_matrix(), tol=1e-16, max_doublings=0,
            )


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
        a = fk.annihilation(n).matrix
        ad = a.conj().T
        h_native = (
            -0.5 * (ad @ ad @ a @ a)
            + params.delta_cubic(alpha).real * (ad @ a)
            + params.beta_cubic(alpha).real * (a + ad)
        )
        s = fk.squeeze(math.log(lam), n).matrix
        d = fk.displacement(alpha, n).matrix
        u_native = fk._expm_hermitian(h_native, -1j * params.tau)
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

    @pytest.mark.parametrize("noise", [NoiseParams(), NoiseParams(dtheta=0.01, ddelta=0.2)])
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

    def test_generator_cache_distinguishes_noise(self):
        h0, _, _ = dyn.effective_generators(make_cfg())
        cfg = make_cfg(noise=NoiseParams(ddelta=0.5))
        h1, _, _ = dyn.effective_generators(cfg)
        delta, beta = alg.cubic_counterterms(cfg.chi)
        hp = alg.substitute_gaussian_frame(
            alg.driven_kerr(cfg.chi, delta + alg.AlphaPoly(0.5), beta), cfg.lam
        ).drop_constant()
        assert np.array_equal(h1.matrix, alg.to_matrix(hp, cfg.alpha, cfg.n_fock).matrix)
        assert not np.array_equal(h1.matrix, h0.matrix)


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
        dc = alg.cubic_counterterms(1.0)[0](self.alpha).real
        cfg = GateConfig(lam=self.lam, alpha=self.alpha, gamma=0.1, n_fock=self.n,
                         noise=NoiseParams(ddelta=rel * dc))
        noisy = dyn.cubic_gate(cfg, self.psi).state
        shift = -6.0 * 0.1 * self.alpha**2 / self.lam**2 * rel
        ref = self._p_displaced(self.out0, shift)
        assert fk.fidelity(ref, noisy) > 1 - 1e-4

    def test_drive_noise_is_p_displacement(self):
        rel = 3e-7
        bc = alg.cubic_counterterms(1.0)[1](self.alpha).real
        cfg = GateConfig(lam=self.lam, alpha=self.alpha, gamma=0.1, n_fock=self.n,
                         noise=NoiseParams(dbeta_x=rel * bc))
        noisy = dyn.cubic_gate(cfg, self.psi).state
        shift = -4.0 * 0.1 * self.alpha**2 / self.lam**2 * rel
        ref = self._p_displaced(self.out0, shift)
        assert fk.fidelity(ref, noisy) > 1 - 1e-4


class TestTrotter:
    def test_requires_lossless(self):
        cfg = make_cfg(trotter_steps=2, kappa=0.1)
        with pytest.raises(dyn.UnsupportedConfigurationError):
            dyn.trotterized_gate(cfg, fk.vacuum(cfg.n_fock))

    def test_requires_steps(self):
        with pytest.raises(dyn.UnsupportedConfigurationError):
            dyn.trotterized_gate(make_cfg(trotter_steps=0), fk.vacuum(96))

    def test_zero_drive_equals_continuous_exactly(self):
        # with the drive off the kick displacements are the identity and every
        # step factor is the same undriven-Kerr exponential
        n = 96
        cfg = make_cfg(n_fock=n, trotter_steps=4, lam=1.5, alpha=2.0)
        params = alg.cubic_parameters(cfg.chi, cfg.lam, cfg.alpha, cfg.gamma)
        xi, h_steps = dyn._discrete_sequence(cfg, alg.AlphaPoly(0), params.tau)
        assert xi == 0j
        psi = fk.vacuum(n).vector
        for h_k in h_steps:
            psi = dyn._SpectralPropagator(h_k.matrix).advance(psi, params.tau / 4)
        h0 = alg.to_matrix(
            alg.substitute_gaussian_frame(
                alg.driven_kerr(cfg.chi, alg.cubic_counterterms(cfg.chi)[0], 0), cfg.lam
            ).drop_constant(),
            cfg.alpha, n,
        )
        cont = dyn.evolve_unitary(h0, params.tau, fk.vacuum(n))
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


class TestPhotonTrace:
    def test_initial_value_matches_input_expectation(self):
        cfg = make_cfg(lam=1.5, alpha=2.0, n_fock=96)
        psi = st.squeezed_vacuum(0.5, cfg.n_fock)
        series, _ = dyn.photon_number_trace(cfg, psi, samples=5)
        n_op, const = dyn.effective_number_operator(cfg)
        want = fk.expectation(n_op, psi).real + const
        assert abs(series["total"][0] - want) < 1e-10
        assert abs(series["fluctuation"][0] - (want - cfg.alpha**2)) < 1e-10

    def test_sample_count_and_span(self):
        cfg = make_cfg(lam=1.5, alpha=2.0, n_fock=96)
        psi = fk.vacuum(cfg.n_fock)
        series, _ = dyn.photon_number_trace(cfg, psi, samples=9)
        assert len(series["t"]) == 9
        assert series["t"][0] == 0.0
        assert abs(series["t"][-1] - cfg.tau) < 1e-18

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            dyn.photon_number_trace(make_cfg(), fk.vacuum(96), samples=1)

    def test_lossy_trace_runs(self):
        cfg = make_cfg(lam=1.5, alpha=2.0, n_fock=48, kappa=0.5, lindblad_steps=64)
        psi = fk.vacuum(cfg.n_fock)
        series, res = dyn.photon_number_trace(cfg, psi, samples=4)
        assert len(series["t"]) >= 3
        assert np.all(np.isfinite(series["total"]))
