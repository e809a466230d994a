import ast
import cmath
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from kerrcubic import algebra as alg
from kerrcubic import dynamics as dyn
from kerrcubic import experiments as ex
from kerrcubic import fock as fk
from kerrcubic import states as st
from lab_frame import squeeze


def interior(m, n=None):
    d = fk.interior_dim(n if n is not None else m.shape[0])
    return m[:d, :d]


def _applied(u, psi):
    return fk.PureState(u @ psi.vector, normalize=False)


def number(n):
    """The number operator a^dag a = diag(0, 1, ..., N-1), as a complex array."""
    return np.diag(np.arange(n, dtype=complex))


class TestAnnihilation:
    def test_matrix_entries_n3(self):
        a = fk.annihilation(3)
        expected = np.zeros((3, 3), complex)
        expected[0, 1] = 1.0
        expected[1, 2] = math.sqrt(2.0)
        assert np.array_equal(a, expected)

    def test_kills_vacuum(self):
        a = fk.annihilation(16)
        assert np.linalg.norm(a @ fk.vacuum(16).vector) == 0.0

    def test_canonical_commutator(self):
        for n in (4, 17, 64):
            a = fk.annihilation(n)
            comm = a @ a.conj().T - a.conj().T @ a
            assert np.abs(comm[: n - 1, : n - 1] - np.eye(n - 1)).max() < 1e-13

    def test_xp_commutator_interior(self):
        n = 32
        x, p = fk.position(n), fk.momentum(n)
        comm = x @ p - p @ x
        assert np.abs(comm[: n - 1, : n - 1] - 1j * np.eye(n - 1)).max() < 1e-13

    def test_bad_dimension(self):
        with pytest.raises(fk.InvalidDimensionError):
            fk.annihilation(1)


class TestDisplacement:
    def test_zero_is_identity(self):
        d = fk.displacement(0.0, 24).matrix
        assert np.abs(d - np.eye(24)).max() < 1e-12

    def test_coherent_photon_number(self):
        psi = _applied(fk.displacement(2.0, 64).matrix, fk.vacuum(64))
        n = fk.expectation(number(64), psi)
        assert abs(n - 4.0) < 1e-6

    def test_inverse_pair(self):
        n = 48
        prod = fk.displacement(1.0, n).matrix @ fk.displacement(-1.0, n).matrix
        assert np.abs(interior(prod) - np.eye(fk.interior_dim(n))).max() < 1e-8

    def test_unitary_interior(self):
        n = 64
        d = fk.displacement(1.5 + 0.5j, n).matrix
        g = d.conj().T @ d - np.eye(n)
        assert np.abs(interior(g)).max() < 1e-10

    def test_conjugation_shifts_mode(self):
        n, s = 96, 1.2 - 0.7j
        a = fk.annihilation(n)
        d = fk.displacement(s, n).matrix
        lhs = d.conj().T @ a @ d
        ref = a + s * np.eye(n)
        assert np.abs((lhs - ref)[:24, :24]).max() < 1e-9

    def test_truncation_warning(self):
        with pytest.warns(fk.TruncationWarning):
            fk.displacement(4.0, 32)


class TestSqueeze:
    def test_zero_is_identity(self):
        s = squeeze(0.0, 24)
        assert np.abs(s - np.eye(24)).max() < 1e-12

    def test_x_variance(self):
        # x-variance of S(z)|0> is e^{2z}/2; at z = ln 0.5 that is 0.125
        n = 64
        psi = _applied(squeeze(math.log(0.5), n), fk.vacuum(n))
        assert abs(fk.variance(fk.position(n), psi) - 0.125) < 1e-6
        assert abs(fk.variance(fk.momentum(n), psi) - 2.0) < 1e-6

    def test_minimum_uncertainty(self):
        n = 96
        for z in (-0.6, 0.2, 0.8):
            psi = _applied(squeeze(z, n), fk.vacuum(n))
            prod = fk.variance(fk.position(n), psi) * fk.variance(fk.momentum(n), psi)
            assert abs(prod - 0.25) < 1e-6

    def test_unitary_interior(self):
        n = 96
        s = squeeze(0.7, n)
        g = s.conj().T @ s - np.eye(n)
        assert np.abs(interior(g)).max() < 1e-10

    def test_bogoliubov_action(self):
        n, z = 128, 0.5
        a = fk.annihilation(n)
        s = squeeze(z, n)
        lhs = s.conj().T @ a @ s
        ref = math.cosh(z) * a + math.sinh(z) * a.conj().T
        assert np.abs((lhs - ref)[:24, :24]).max() < 1e-9

    def test_truncation_warning(self):
        with pytest.warns(fk.TruncationWarning):
            squeeze(2.5, 16)


class TestExpGenerator:
    """exp(-i G t) of a Hermitian generator G, through fock.Spectrum."""

    def test_zero_time_identity(self):
        u = fk.Spectrum(number(16)).unitary(0.0)
        assert np.abs(u - np.eye(16)).max() < 1e-12

    def test_number_full_period(self):
        u = fk.Spectrum(number(32)).unitary(2 * math.pi)
        assert np.abs(u - np.eye(32)).max() < 1e-10

    def test_group_property(self):
        n = 24
        x = fk.position(n)
        g = x @ x + fk.momentum(n)
        u1 = fk.Spectrum(g).unitary(0.3)
        u2 = fk.Spectrum(g).unitary(0.45)
        u12 = fk.Spectrum(g).unitary(0.75)
        assert np.abs(u1 @ u2 - u12).max() < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(fk.ContractViolationError):
            fk.Spectrum(fk.annihilation(8))

    def test_hermiticity_tolerance_is_relative(self):
        # the check is 1e-12 of the largest entry, independent of the scale;
        # a real matrix (float64, or complex128 with a zero imaginary part)
        # gets it as a symmetry check before the real solver
        a = fk.annihilation(8)
        for scale in (1.0, 1e17):
            h = scale * number(8)
            for real in (np.real, np.asarray):
                assert fk.Spectrum(real(h + 1e-13 * scale * a)).v.dtype == np.float64
                with pytest.raises(fk.ContractViolationError):
                    fk.Spectrum(real(h + 1e-11 * scale * a))
        fk.Spectrum(np.zeros((4, 4), complex))  # the zero generator is allowed


class TestRealSymmetricPath:
    """A generator with an exactly zero imaginary part is diagonalized as real."""

    def test_zero_imaginary_part_gives_real_decomposition(self):
        h = number(8) + fk.position(8)
        assert h.dtype == complex and not h.imag.any()
        spec = fk.Spectrum(h)
        assert spec.w.dtype == np.float64 and spec.v.dtype == np.float64
        u = spec.unitary(0.7)
        assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-12

    def test_one_imaginary_entry_stays_complex(self):
        h = number(8).copy()
        h[2, 5], h[5, 2] = 0.5j, -0.5j
        spec = fk.Spectrum(h)
        assert spec.v.dtype == np.complex128
        w, v = np.linalg.eigh(h)
        assert np.array_equal(spec.w, w) and np.array_equal(spec.v, v)


class TestFidelity:
    def test_self_fidelity(self):
        psi = _applied(fk.displacement(0.8, 32).matrix, fk.vacuum(32))
        assert abs(fk.fidelity(psi, psi) - 1.0) < 1e-12

    def test_orthogonal(self):
        assert fk.fidelity(fk.fock_state(8, 0), fk.fock_state(8, 1)) == 0.0

    def test_mixed_overlap(self):
        rho = fk.MixedState(np.diag([0.5, 0.5] + [0.0] * 6))
        assert abs(fk.fidelity(fk.fock_state(8, 0), rho) - 0.5) < 1e-12

    def test_mixed_equals_pure(self):
        # <t|psi><psi|t> = |<t|psi>|^2 for complex amplitudes
        rng = np.random.default_rng(3)
        t, psi = (fk.PureState(rng.normal(size=8) + 1j * rng.normal(size=8)) for _ in range(2))
        assert abs(fk.fidelity(t, psi.density_matrix()) - fk.fidelity(t, psi)) < 1e-14

    def test_symmetric_pure(self):
        a = _applied(fk.displacement(0.5, 32).matrix, fk.vacuum(32))
        b = _applied(squeeze(0.3, 32), fk.vacuum(32))
        assert abs(fk.fidelity(a, b) - fk.fidelity(b, a)) < 1e-12

    def test_global_phase_invariance(self):
        psi = _applied(squeeze(0.4, 32), fk.vacuum(32))
        phased = fk.PureState(np.exp(0.7j) * psi.vector, normalize=False)
        assert abs(fk.fidelity(psi, phased) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(fk.DimensionMismatchError):
            fk.fidelity(fk.vacuum(8), fk.vacuum(16))


class TestExpectation:
    def test_vacuum_number(self):
        assert fk.expectation(number(16), fk.vacuum(16)) == 0.0

    def test_coherent_position(self):
        s = 1.3
        psi = _applied(fk.displacement(s, 80).matrix, fk.vacuum(80))
        val = fk.expectation(fk.position(80), psi)
        assert abs(val - math.sqrt(2.0) * s) < 1e-8

    def test_hermitian_gives_real(self):
        psi = _applied(fk.displacement(0.4 + 0.9j, 64).matrix, fk.vacuum(64))
        val = fk.expectation(fk.position(64), psi)
        assert abs(val.imag) < 1e-10


def _hermite_wavefunction(vec, x):
    out = np.zeros_like(x, dtype=complex)
    phi_prev = np.zeros_like(x, dtype=float)
    phi = np.pi**-0.25 * np.exp(-(x**2) / 2)
    for n, c in enumerate(vec):
        if n > 0:
            phi, phi_prev = (
                math.sqrt(2.0 / n) * x * phi - math.sqrt((n - 1) / n) * phi_prev,
                phi,
            )
        out += c * phi
    return out


def _wigner_oracle(vec, x, p):
    # W(x,p) = (1/pi) Int dy psi*(x+y) psi(x-y) e^{2ipy}
    ys = np.linspace(-12.0, 12.0, 4001)
    dy = ys[1] - ys[0]
    integrand = (
        np.conj(_hermite_wavefunction(vec, x + ys))
        * _hermite_wavefunction(vec, x - ys)
        * np.exp(2j * p * ys)
    )
    return float(np.real(integrand.sum() * dy / math.pi))


class TestWigner:
    def test_vacuum_peak(self):
        w = fk.wigner(fk.vacuum(32), [0.0], [0.0])
        assert abs(w[0, 0] - 1.0 / math.pi) < 1e-8

    def test_vacuum_normalization(self):
        xs = np.arange(-6.0, 6.0, 0.05)
        w = fk.wigner(fk.vacuum(32), xs, xs)
        assert abs(w.sum() * 0.05 * 0.05 - 1.0) < 1e-4

    def test_against_transform_oracle(self):
        rng = np.random.default_rng(7)
        vec = rng.normal(size=10) + 1j * rng.normal(size=10)
        vec /= np.linalg.norm(vec)
        psi = fk.PureState(np.concatenate([vec, np.zeros(22)]))
        for x0, p0 in [(0.0, 0.0), (0.7, -1.1), (-1.9, 0.4)]:
            fast = fk.wigner(psi, [x0], [p0])[0, 0]
            slow = _wigner_oracle(vec, x0, p0)
            assert abs(fast - slow) < 1e-10

    def test_real_output_and_linearity(self):
        rho1 = fk.fock_state(12, 0).density_matrix()
        rho2 = fk.fock_state(12, 3).density_matrix()
        mix = fk.MixedState(0.25 * rho1.matrix + 0.75 * rho2.matrix)
        xs = np.linspace(-2, 2, 9)
        w_mix = fk.wigner(mix, xs, xs)
        w_sum = 0.25 * fk.wigner(rho1, xs, xs) + 0.75 * fk.wigner(rho2, xs, xs)
        assert w_mix.dtype.kind == "f"
        assert np.abs(w_mix - w_sum).max() < 1e-12

    def test_fock1_negative_at_origin(self):
        w = fk.wigner(fk.fock_state(16, 1), [0.0], [0.0])
        assert w[0, 0] < -0.3

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            fk.wigner(fk.vacuum(8), [0.0, math.inf], [0.0])


def _per_point_wigner(state, xs, ps):
    # the former fock.wigner: the Laguerre ladder runs on every grid point
    xs, ps = np.asarray(xs, dtype=float), np.asarray(ps, dtype=float)
    rho = (np.outer(state.vector, state.vector.conj()) if isinstance(state, fk.PureState)
           else state.matrix)
    x, p = xs[:, None], ps[None, :]
    b = 2.0 * (x * x + p * p)
    two_alpha_conj = math.sqrt(2.0) * (x - 1j * p)
    w = np.zeros((xs.size, ps.size), dtype=float)
    g = np.ones_like(two_alpha_conj)
    for d in range(rho.shape[0]):
        coeffs = np.diagonal(rho, offset=-d)
        if np.any(coeffs != 0):
            lag_prev, lag = np.zeros_like(b), np.ones_like(b)
            r, sgn = 1.0, 1.0
            acc = np.zeros_like(two_alpha_conj)
            for k in range(coeffs.size):
                if k > 0:
                    lag, lag_prev = (
                        ((2 * k - 1 + d - b) * lag - (k - 1 + d) * lag_prev) / k, lag,
                    )
                    r *= math.sqrt(k / (k + d))
                    sgn = -sgn
                if coeffs[k] != 0:
                    acc = acc + (sgn * r * coeffs[k]) * lag
            contrib = acc * g
            w += np.real(contrib) if d == 0 else 2.0 * np.real(contrib)
        g = g * two_alpha_conj / math.sqrt(d + 1.0)
    return w * np.exp(-0.5 * b) / math.pi


class TestWignerDistinctRadii:
    """The ladder runs once per distinct radius, bit for bit the per-point one."""

    n = 32

    def _states(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(self.n, self.n)) + 1j * rng.normal(size=(self.n, self.n))
        rho = a @ a.conj().T
        mixed = fk.MixedState(rho / np.trace(rho).real)
        vec = rng.normal(size=self.n) + 1j * rng.normal(size=self.n)
        return {"mixed": mixed, "pure": fk.PureState(vec)}

    @pytest.mark.parametrize("kind", ["mixed", "pure"])
    @pytest.mark.parametrize("grid", ["symmetric", "asymmetric", "repeated"])
    def test_matches_per_point_ladder(self, kind, grid):
        rng = np.random.default_rng(5)
        if grid == "symmetric":
            xs = ps = np.linspace(-4.0, 4.0, 33)
        elif grid == "asymmetric":
            # non-uniform and xs != ps: hardly any radius repeats
            xs = np.sort(rng.uniform(-5.0, 3.0, 17))
            ps = np.sort(rng.uniform(-2.0, 4.5, 23))
        else:
            # every radius appears several times, also across x <-> p
            xs = np.array([-3.0, -1.5, 0.0, 1.5, 3.0, 1.5, -0.5])
            ps = np.array([1.5, -3.0, 0.0, 3.0, 0.5, -1.5])
            assert np.unique(np.add.outer(xs * xs, ps * ps)).size < xs.size * ps.size / 3
        state = self._states()[kind]
        got = fk.wigner(state, xs, ps)
        assert got.shape == (xs.size, ps.size)
        assert np.array_equal(got, _per_point_wigner(state, xs, ps))


class TestValueTypes:
    def test_pure_state_normalizes(self):
        psi = fk.PureState(np.array([3.0, 4.0]))
        assert abs(np.linalg.norm(psi.vector) - 1.0) < 1e-12

    def test_pure_state_rejects_zero(self):
        with pytest.raises(ValueError):
            fk.PureState(np.zeros(4))

    def test_mixed_state_trace_check(self):
        with pytest.raises(fk.ContractViolationError):
            fk.MixedState(np.diag([0.7, 0.7, 0.0, 0.0]))

    def test_mixed_state_hermiticity_check(self):
        m = np.diag([1.0, 0.0]).astype(complex)
        m[0, 1] = 0.3
        with pytest.raises(fk.ContractViolationError):
            fk.MixedState(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_mixed_state_rejects_non_finite_entries(self, bad):
        # a NaN trace or entry fails both comparisons above, so it needs its own check
        with pytest.raises(fk.ContractViolationError, match="not finite"):
            fk.MixedState(np.full((4, 4), bad))
        m = np.diag([1.0, 0.0, 0.0]).astype(complex)
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(fk.ContractViolationError, match="not finite"):
            fk.MixedState(m)

    def test_transformed_applies_the_unitary(self):
        # u|psi> for a pure state and u rho u^dag for a mixed one: the same state
        n = 6
        u = fk.Spectrum(fk.momentum(n) + number(n)).unitary(0.8)  # not symmetric
        psi = fk.PureState(np.arange(1.0, n + 1) + 1j)
        out = psi.transformed(u)
        assert np.array_equal(out.vector, u @ psi.vector)
        rho = psi.density_matrix().transformed(u)
        assert np.abs(rho.matrix - np.outer(out.vector, out.vector.conj())).max() < 1e-14

    def test_truncation_convergence_contract(self):
        def mean_n(n):
            psi = _applied(fk.displacement(1.0, n).matrix, fk.vacuum(n))
            return fk.expectation(number(n), psi).real

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = fk.check_truncation_convergence(mean_n, 64)
        assert abs(val - 1.0) < 1e-8

        def bad_scalar(n):
            return 1.0 / n  # moves with the cutoff by construction

        with pytest.warns(fk.TruncationWarning):
            fk.check_truncation_convergence(bad_scalar, 16)


class TestGaussianUnitarityInvariant:
    def test_all_constructed_gaussians(self):
        n = 100
        d = fk.interior_dim(n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fk.TruncationWarning)
            mats = [
                fk.displacement(1.0, n).matrix,
                fk.displacement(-0.5 + 2.0j, n).matrix,
                squeeze(0.8, n),
                squeeze(-0.6, n),
            ]
        for u in mats:
            g = u.conj().T @ u - np.eye(n)
            assert np.abs(g[:d, :d]).max() < 1e-8


def _former_expm_hermitian(h, scale):
    # the eigh+exp formula the package used before fock.Spectrum
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)) @ v.conj().T


def _max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestOneSpectralPath:
    """Every exponential goes through fock.Spectrum, bit-for-bit as before."""

    def test_gaussian_unitaries_match_former_formula(self):
        # D(s) = R(arg s + pi/2) exp(-i|s|(a + a^dag)) R^dag and
        # S(z) = R(pi/4) exp(-iz(a^2 + a^dag^2)/2) R^dag, R(t) = diag(e^{ikt}):
        # bit-identical to that rotated real-spectrum formula, and within
        # roundoff of the former complex Hermitian solve
        for n in (2, 17, 128):
            a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
            a2 = a @ a

            def rotated(h, theta, t):
                r = np.exp(1j * theta * np.arange(n))
                return r[:, None] * _former_expm_hermitian(h, -1j * t) * r.conj()

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", fk.TruncationWarning)
                for s in (1.3 - 0.7j, -0.4 + 1.1j, -0.9 - 0.2j, 0.6 + 0.8j, -2.0, 1.5j, 0.0):
                    u = fk.displacement(s, n).matrix
                    assert np.array_equal(u, rotated(a + a.T, cmath.phase(s) + math.pi / 2,
                                                     abs(s)))
                    gen = s * a.T - np.conj(s) * a
                    assert _max_rel(u, _former_expm_hermitian(1j * gen, -1j)) < 1e-12, (n, s)
                for z in (0.6, -0.45):
                    u = squeeze(z, n)
                    assert np.array_equal(u, rotated(0.5 * (a2 + a2.T), math.pi / 4, z))
                    gen = 0.5 * z * (a2.T - a2)
                    assert _max_rel(u, _former_expm_hermitian(1j * gen, -1j)) < 1e-12, (n, z)

    def test_ideal_cubic_gate_matches_former_formula(self):
        # x^3 is real: bit-identical to the formula on its real part, and
        # within roundoff of the former complex Hermitian solve
        x = fk.position(256)
        x3 = x @ x @ x
        u = st.ideal_cubic_gate(0.1, 256)
        assert np.array_equal(u, _former_expm_hermitian(x3.real, 1j * 0.1))
        assert _max_rel(u, _former_expm_hermitian(x3, 1j * 0.1)) < 1e-12

    def test_lossless_gate_matches_former_propagator(self):
        lam = fk.lambda_from_db(10.0)
        cfg = dyn.GateConfig(lam=lam, alpha=1.85 * lam**3, gamma=0.1, n_fock=96)
        psi = st.squeezed_vacuum(0.5, 96)
        h = dyn.effective_generators(cfg)[0]

        def propagate(m):
            w, v = np.linalg.eigh(m)
            return v @ (np.exp(-1j * w * cfg.tau) * (v.conj().T @ psi.vector))

        out = dyn.cubic_gate(cfg, psi).state.vector
        assert np.array_equal(out, propagate(h.real))
        assert _max_rel(out, propagate(h)) < 1e-12

    def test_correction_matches_former_formula(self):
        lam = fk.lambda_from_db(7.5)
        cfg = dyn.GateConfig(lam=lam, alpha=1.85 * lam**3, gamma=0.1, n_fock=48)
        grid = (np.linspace(-3.0, 3.0, 7),) * 2
        res = ex.generate_cubic_state(cfg, grid=grid)
        gen = sum(c * b for c, b in zip(res.correction, ex._correction_basis(48)))
        w, v = np.linalg.eigh(gen)
        g = (v * np.exp(1j * w)) @ v.conj().T
        assert np.array_equal(fk.Spectrum(gen).unitary(-1.0), g)
        tv = res.evolution.target.vector
        assert np.array_equal(fk.Spectrum(gen).advance(tv, 1.0),
                              v @ (np.exp(-1j * w) * (v.conj().T @ tv)))
        corrected = fk.PureState(g @ res.evolution.state.vector, normalize=False)
        assert np.array_equal(fk.wigner(corrected, *grid), res.wigner)
        assert st.nlq_variance(corrected, cfg.gamma) == res.nlq_variance

    def test_eigh_is_called_only_inside_spectrum(self):
        sites = []
        for path in sorted(Path(fk.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            spectrum = [node for node in ast.walk(tree)
                        if isinstance(node, ast.ClassDef) and node.name == "Spectrum"]
            for node in ast.walk(tree):
                name = getattr(node, "attr", None) or getattr(node, "id", None)
                if name in ("eigh", "expm"):
                    inside = any(c.lineno <= node.lineno <= c.end_lineno for c in spectrum)
                    sites.append((path.name, node.lineno, inside))
        assert len(sites) == 1 and sites[0][0] == "fock.py" and sites[0][2], sites


_CFG = dyn.GateConfig(lam=1.5, alpha=2.0, gamma=0.1, n_fock=16, kappa=0.5)
_ARRAY_PRODUCERS = {
    "algebra.to_matrix": lambda: [alg.to_matrix(alg.driven_kerr(1.0, 0.3, 0.7), 2.0, 16)],
    "dynamics.effective_generators": lambda: dyn.effective_generators(_CFG)[:1],
    "dynamics.effective_number_operator": lambda: dyn.effective_number_operator(_CFG)[:1],
    "states.ideal_cubic_gate": lambda: [st.ideal_cubic_gate(0.1, 16)],
    "states.nlq_operator": lambda: [st.nlq_operator(0.1, 16)],
    "fock.annihilation": lambda: [fk.annihilation(16)],
    "fock.position": lambda: [fk.position(16)],
    "fock.momentum": lambda: [fk.momentum(16)],
}


class TestPlainArrayOperators:
    """Operators are numpy arrays; only `displacement` boxes its matrix as `Operator`."""

    @pytest.mark.parametrize("producer", sorted(_ARRAY_PRODUCERS))
    def test_producer_returns_arrays(self, producer):
        for m in _ARRAY_PRODUCERS[producer]():
            assert type(m) is np.ndarray and m.dtype == complex and m.shape == (16, 16)

    def test_operator_is_built_only_by_displacement(self):
        # every reference to the name in the package: the class itself, and the
        # annotation and construction inside `displacement`; no isinstance
        # check, annotation or import anywhere else
        refs = []
        for path in sorted(Path(fk.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
            for node in ast.walk(tree):
                if "Operator" in (getattr(node, "id", None), getattr(node, "attr", None),
                                  getattr(node, "name", None)):
                    owner = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                    refs.append((path.name, type(node).__name__, owner))
        assert sorted(refs) == [("fock.py", "ClassDef", []),
                                ("fock.py", "Name", ["displacement"]),
                                ("fock.py", "Name", ["displacement"])], refs
        # a docstring and the `matrix` field: no arithmetic
        (box,) = [node for node in ast.walk(ast.parse(Path(fk.__file__).read_text()))
                  if isinstance(node, ast.ClassDef) and node.name == "Operator"]
        assert [type(node).__name__ for node in box.body] == ["Expr", "AnnAssign"]
        with pytest.raises(TypeError):
            fk.displacement(0.5, 8) @ fk.vacuum(8)


class TestOneRealSpectrumPerInput:
    """Grid inputs and the Trotter kick take real spectra, not one complex eigh per peak."""

    @staticmethod
    def _count_spectra(monkeypatch):
        built = []
        init = fk.Spectrum.__init__

        def counting(self, h):
            built.append(np.iscomplexobj(h))
            init(self, h)

        monkeypatch.setattr(fk.Spectrum, "__init__", counting)
        return built

    @pytest.mark.parametrize("selector", ["gkp:x+:0.5", "gkp:z+:0.5"])
    def test_grid_state_builds_two_real_spectra(self, monkeypatch, selector):
        fk.displacement_spectrum.cache_clear()
        built = self._count_spectra(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fk.TruncationWarning)
            st.parse_state(selector, 64, 0.0)
        assert built == [False, False]

    def test_trotterized_gate_forms_no_displacement_matrix(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an N x N displacement matrix was formed")

        monkeypatch.setattr(fk, "displacement", forbidden)
        monkeypatch.setattr(dyn, "displacement", forbidden, raising=False)
        lam = fk.lambda_from_db(5.0)
        cfg = dyn.GateConfig(lam=lam, alpha=5.0, gamma=0.1, n_fock=48, trotter_steps=2)
        psi = st.squeezed_vacuum(0.5, 48)
        st.ideal_cubic_target(cfg.gamma, psi)  # cached: the gate reuses it
        fk.displacement_spectrum.cache_clear()
        built = self._count_spectra(monkeypatch)
        assert 0.0 <= dyn.trotterized_gate(cfg, psi).error <= 1.0
        assert len(built) == cfg.trotter_steps + 1  # one per segment, one for the kick

    def test_second_trotterized_gate_reuses_the_kick_spectrum(self, monkeypatch):
        cfg = dyn.GateConfig(lam=fk.lambda_from_db(5.0), alpha=5.0, gamma=0.1, n_fock=48,
                             trotter_steps=3)
        psi = st.squeezed_vacuum(0.5, 48)
        first = dyn.trotterized_gate(cfg, psi)
        built = self._count_spectra(monkeypatch)
        second = dyn.trotterized_gate(cfg, psi)
        assert len(built) == cfg.trotter_steps  # the segments only
        assert np.array_equal(second.state.vector, first.state.vector)
        assert second.error == first.error


class TestVectorActions:
    """D(s)|psi> and S(z)|psi> take their spectra from the vector's dimension."""

    @pytest.mark.parametrize("n", [24, 40])
    def test_equal_the_dense_unitaries(self, n):
        rng = np.random.default_rng(n)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        for s in (0.7, -0.4 + 0.9j):
            dense = fk.displacement(s, n).matrix @ psi
            assert np.abs(fk.displace_vector(s, psi) - dense).max() < 1e-12
        for z in (0.3, -0.5):
            assert np.abs(fk.squeeze_vector(z, psi) - squeeze(z, n) @ psi).max() < 1e-12

    def test_coherent_and_squeezed_moments(self):
        n = 64
        vac = fk.vacuum(n).vector
        coherent = fk.PureState(fk.displace_vector(0.8 - 0.6j, vac), normalize=False)
        assert abs(fk.expectation(fk.annihilation(n), coherent) - (0.8 - 0.6j)) < 1e-10
        squeezed = fk.PureState(fk.squeeze_vector(math.log(0.5), vac), normalize=False)
        assert abs(fk.variance(fk.position(n), squeezed) - 0.125) < 1e-6


def test_only_fock_names_the_spectra():
    # each vector action picks its own spectrum, so no caller can pair D(s)
    # with the squeeze spectrum or S(z) with the displacement one
    spectra = {"displacement_spectrum", "squeeze_spectrum"}
    for path in sorted(Path(fk.__file__).parent.glob("*.py")):
        if path.name == "fock.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name for alias in node.names}
        assert not names & spectra, path.name


class TestCachedDisplacementSpectrum:
    def test_one_read_only_spectrum_per_dimension(self):
        s = fk.displacement_spectrum(24)
        assert fk.displacement_spectrum(24) is s
        assert fk.displacement_spectrum(32) is not s
        for arr in (s.w, s.v):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        a = fk.annihilation(24).real
        w, v = np.linalg.eigh(a + a.T)
        assert np.array_equal(s.w, w) and np.array_equal(s.v, v)
