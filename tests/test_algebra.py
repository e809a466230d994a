import math
from fractions import Fraction

import numpy as np
import pytest

from kerrcubic import algebra as alg
from kerrcubic import fock as fk
from kerrcubic.algebra import AlphaPoly, BosonPolynomial, ExactComplex, QuadraturePolynomial


def poly_matrix_direct(p, alpha, n):
    """Independent matrix assembly: explicit dense products, no shared code path."""
    a = fk.annihilation(n)
    out = np.zeros((n, n), complex)
    for (m, nn), coeff in p.terms.items():
        t = np.eye(n, dtype=complex)
        for _ in range(m):
            t = t @ a.conj().T
        for _ in range(nn):
            t = t @ a
        out += coeff(alpha) * t
    return out


def power_tower_matrix(p, alpha, n):
    """Dense assembly from the powers of a, in to_matrix's term order: the bitwise reference."""
    a = fk.annihilation(n)
    pows = [np.eye(n, dtype=complex)]
    for _ in range(max(max(key) for key in p.terms)):
        pows.append(pows[-1] @ a)
    out = np.zeros((n, n), complex)
    for (m, nn), coeff in sorted(p.terms.items()):
        out += coeff(alpha) * (pows[m].conj().T @ pows[nn])
    return out


class TestAlphaPoly:
    def test_pruning_and_degree(self):
        p = AlphaPoly([1, 0, 2, 0, 0])
        assert p.degree == 2
        assert AlphaPoly([0, 0]).is_zero

    def test_arithmetic_exact(self):
        p = AlphaPoly([1, 2]) * AlphaPoly([0, 0, 3])
        assert p.coefficient(2) == ExactComplex.of(3)
        assert p.coefficient(3) == ExactComplex.of(6)
        q = AlphaPoly([1, 2]) - AlphaPoly([1, 2])
        assert q.is_zero

    def test_eval_and_conjugate(self):
        p = AlphaPoly([1j, 2.0])
        assert p(3.0) == 1j + 6.0
        assert p.conjugate()(3.0) == -1j + 6.0

    def test_product_with_ordered_polynomial_commutes(self):
        # AlphaPoly defers to the polynomial, so both orders scale its terms
        a = AlphaPoly([0, 1])
        low = BosonPolynomial({(0, 1): 1})
        assert a * low == low * a
        assert a * 2 == 2 * a == AlphaPoly([0, 2])
        assert a * 1.5j == AlphaPoly([0, 1.5j])
        assert a * ExactComplex.of(3) == AlphaPoly([0, 3])


class TestMultiply:
    def test_single_commutator(self):
        prod = BosonPolynomial({(0, 1): 1}) * BosonPolynomial({(1, 0): 1})
        assert prod.terms.keys() == {(1, 1), (0, 0)}
        assert prod.coefficient(0, 0)(0) == 1.0

    def test_rook_formula(self):
        a = BosonPolynomial({(0, 1): 1})
        ad = BosonPolynomial({(1, 0): 1})
        prod = (a * a) * (ad * ad)
        assert prod.coefficient(2, 2)(0) == 1.0
        assert prod.coefficient(1, 1)(0) == 4.0
        assert prod.coefficient(0, 0)(0) == 2.0

    def test_random_products_vs_matrix_oracle(self):
        rng = np.random.default_rng(3)
        n = 40
        d = fk.interior_dim(n)

        def random_poly(deg):
            return BosonPolynomial({
                (m, k): complex(rng.normal(), rng.normal())
                for m in range(deg + 1) for k in range(deg + 1 - m)
            })

        for _ in range(5):
            p, q = random_poly(3), random_poly(3)
            lhs = alg.to_matrix(p * q, 0.0, n)
            rhs = poly_matrix_direct(p, 0.0, n) @ poly_matrix_direct(q, 0.0, n)
            assert np.abs((lhs - rhs)[:d, :d]).max() < 1e-9

    def test_hermiticity_preserved(self):
        h = alg.driven_kerr(1.0, 0.3, 0.7)
        assert (h * h).dagger() == h * h


class TestSubstitution:
    def test_identity_frame(self):
        sub = alg.substitute_gaussian_frame(BosonPolynomial({(0, 1): 1}), 1.0)
        assert sub.coefficient(0, 1)(0) == 1.0
        assert sub.coefficient(0, 0) == AlphaPoly.SYMBOL

    def test_number_operator_constant(self):
        lam = 2.0
        sub = alg.substitute_gaussian_frame(BosonPolynomial({(1, 1): 1}), lam)
        const = sub.coefficient(0, 0)
        assert abs(complex(const.coefficient(0)) - math.sinh(math.log(lam)) ** 2) < 1e-15
        assert const.coefficient(1).is_zero
        assert complex(const.coefficient(2)) == 1.0

    def test_degree0_slice_returns_input(self):
        p = alg.driven_kerr(1.0, 0.4, 0.2)
        sub = alg.substitute_gaussian_frame(p, 1.0)
        sliced = BosonPolynomial(
            {key: AlphaPoly(poly.coefficient(0)) for key, poly in sub.terms.items()}
        )
        assert sliced == p

    def test_cubic_quadrature_coefficient(self):
        # the x^3 coefficient of the substituted driven Kerr is -chi lam^3 alpha/sqrt(2)
        chi, lam, alpha = 1.0, 2.0, 8.0
        sub = alg.substitute_gaussian_frame(alg.driven_kerr(chi, 0.3, 0.1), lam)
        quad = alg.to_quadrature_form(sub)
        got = quad.quad_coefficient(3, 0, alpha)
        want = -chi * lam**3 * alpha / math.sqrt(2.0)
        assert abs(got - want) < 1e-12 * abs(want)

    def test_matrix_against_explicit_conjugation(self):
        # oracle cutoff chosen so the conjugation sandwich itself converges on
        # the compared block; the engine side is cutoff-exact
        lam, alpha, n = 1.5, 2.0, 180
        sub = alg.substitute_gaussian_frame(BosonPolynomial({(1, 1): 1}), lam)
        lhs = alg.to_matrix(sub, alpha, n)
        s = fk.squeeze(math.log(lam), n)
        dmat = fk.displacement(alpha, n).matrix
        nmat = fk.number(n)
        rhs = s.conj().T @ dmat.conj().T @ nmat @ dmat @ s
        assert np.abs((lhs - rhs)[:32, :32]).max() < 1e-7

    def test_unitary_equivalence_small_params(self):
        # exp of the substituted generator equals the conjugated exponential
        lam, alpha, n, t = 1.4, 1.2, 170, 0.07
        p = alg.driven_kerr(1.0, 0.5, 0.3)
        h_eff = alg.to_matrix(alg.substitute_gaussian_frame(p, lam), alpha, n)
        u_eff = fk.Spectrum(h_eff).unitary(t)
        s = fk.squeeze(math.log(lam), n)
        dmat = fk.displacement(alpha, n).matrix
        h_native = alg.to_matrix(p, 0.0, n)
        u_native = fk.Spectrum(h_native).unitary(t)
        u_conj = s.conj().T @ dmat.conj().T @ u_native @ dmat @ s
        d = 24
        assert np.abs((u_eff - u_conj)[:d, :d]).max() < 1e-5


class TestDrivenKerr:
    def test_plain_kerr(self):
        h = alg.driven_kerr(1.0)
        assert set(h.terms) == {(2, 2)}
        assert h.coefficient(2, 2)(0) == -0.5

    def test_hermitian_at_numeric_displacement(self):
        delta, beta = alg.cubic_counterterms(1.0)
        h = alg.driven_kerr(1.0, delta, beta)
        assert h.dagger() == h
        m = alg.to_matrix(h, 2.0, 32)
        assert np.abs(m - m.conj().T).max() < 1e-12 * np.abs(m).max()

    def test_matrix_matches_direct_construction(self):
        n = 32
        h = alg.to_matrix(alg.driven_kerr(1.0, 0.3, 0.7), 0.0, n)
        a = fk.annihilation(n)
        ad = a.conj().T
        ref = -0.5 * (ad @ ad @ a @ a) + 0.3 * (ad @ a) + 0.7 * (a + ad)
        assert np.abs(h - ref).max() < 1e-12

    def test_rejects_bad_kerr_rate(self):
        with pytest.raises(ValueError):
            alg.driven_kerr(0.0)


class TestCubicParameters:
    def test_unit_point(self):
        p = alg.cubic_parameters(1.0, 1.0, 1.0, 1.0)
        assert abs(p.tau - math.sqrt(2.0)) < 1e-15
        assert abs(p.mu - 1.0 / math.sqrt(2.0)) < 1e-15
        assert p.delta_cubic(1.0) == 2.0
        assert p.beta_cubic(1.0) == -2.0

    def test_gate_time_at_reference_point(self):
        # tau = sqrt(2)*0.1/(1.4e4 * 10^2.25), frozen from direct arithmetic
        p = alg.cubic_parameters(1.0, 10**0.75, 1.4e4, 0.1)
        assert abs(p.tau - 5.6805052054789335e-08) < 1e-3 * 5.68e-8

    def test_rate_time_product_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            chi, lam, alpha, gamma = rng.uniform(0.01, 50.0, 4)
            p = alg.cubic_parameters(chi, lam, alpha, gamma)
            assert p.mu * p.tau == gamma

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            alg.cubic_parameters(1.0, 1.0, -2.0, 0.1)


def reference_effective_kerr(chi, lam, delta, beta) -> QuadraturePolynomial:
    """Hand-coded frame-substituted driven Kerr, term by term in X = sqrt2 x, P = sqrt2 p.

    Independent of the substitution engine: each displayed term of the
    expansion is entered with its known coefficient and multiplied out in the
    (X, P) ring only.
    """
    lam2 = Fraction(float(lam)) ** 2
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

    quartic = (
        x() * x() * x() * x() * AlphaPoly(ec(lam2**2 * chi_f / -32))
        + p() * x() * x() * p() * AlphaPoly(ec(chi_f / -32))
        + x() * p() * p() * x() * AlphaPoly(ec(chi_f / -32))
        + p() * p() * p() * p() * AlphaPoly(ec(chi_f / (-32 * lam2**2)))
    )
    # x^3: -(1/sqrt2) chi lam^3 alpha -> X^3 * (-chi lam^3 alpha / 4)
    lam_f = Fraction(float(lam))
    cubic = (
        x() * x() * x() * (asym * AlphaPoly(ec(-chi_f * lam_f**3 / 4)))
        + p() * x() * p() * (asym * AlphaPoly(ec(-chi_f / (4 * lam_f))))
    )
    alpha2 = asym * asym
    delta_quad_x = (AlphaPoly(ec(-3 * chi_f)) * alpha2 + AlphaPoly(ec(chi_f)) + delta) * AlphaPoly(ec(lam2 / 4))
    delta_quad_p = (AlphaPoly(ec(-chi_f)) * alpha2 + AlphaPoly(ec(chi_f)) + delta) * AlphaPoly(ec(1 / (4 * lam2)))
    quadratic = x() * x() * delta_quad_x + p() * p() * delta_quad_p
    lin_poly = (
        AlphaPoly(ec(-chi_f)) * alpha2 * asym
        + AlphaPoly(ec(chi_f)) * asym
        + delta * asym
        + beta
    ) * AlphaPoly(ec(lam_f))
    linear = x() * lin_poly
    return quartic + cubic + quadratic + linear


def drop_const(quad: QuadraturePolynomial) -> QuadraturePolynomial:
    terms = dict(quad.terms)
    terms.pop((0, 0), None)
    return QuadraturePolynomial(terms)


class TestEffectiveCubicHamiltonian:
    @pytest.mark.parametrize(
        "chi,lam,alpha,gamma",
        [(1.0, 2.0, 8.0, 0.1), (0.7, 10**0.75, 1.4e4, 0.1), (3.3, 1.3, 2.7, 0.25),
         (1.0, 10.0, 1.0e6, 0.05)],
    )
    def test_counterterm_cancellation_is_exact(self, chi, lam, alpha, gamma):
        h = alg.effective_cubic_hamiltonian(chi, lam, alpha, gamma)
        quad = alg.to_quadrature_form(h)
        assert quad.coefficient(1, 0).is_zero
        assert quad.coefficient(2, 0).is_zero

    def test_cubic_coefficient_equals_minus_mu(self):
        chi, lam, alpha, gamma = 1.0, 2.0, 8.0, 0.1
        h = alg.effective_cubic_hamiltonian(chi, lam, alpha, gamma)
        quad = alg.to_quadrature_form(h)
        got = quad.quad_coefficient(3, 0, alpha)
        mu = alg.cubic_parameters(chi, lam, alpha, gamma).mu
        assert abs(got + mu) < 1e-12 * mu
        assert abs(got - (-(lam**3) * alpha / math.sqrt(2.0))) < 1e-10

    def test_full_expansion_matches_reference(self):
        # every canonical coefficient agrees exactly with the hand-coded form
        rng = np.random.default_rng(42)
        for _ in range(5):
            chi = float(rng.uniform(0.2, 3.0))
            lam = float(rng.uniform(1.1, 6.0))
            delta = float(rng.uniform(-5.0, 5.0))
            beta = float(rng.uniform(-5.0, 5.0))
            engine = drop_const(alg.to_quadrature_form(
                alg.substitute_gaussian_frame(alg.driven_kerr(chi, delta, beta), lam)
            ))
            ref = drop_const(reference_effective_kerr(chi, lam, delta, beta))
            assert engine == ref

    def test_full_expansion_with_symbolic_counterterms(self):
        chi, lam = 1.0, 2.0
        delta, beta = alg.cubic_counterterms(chi)
        engine = drop_const(alg.to_quadrature_form(
            alg.substitute_gaussian_frame(alg.driven_kerr(chi, delta, beta), lam)
        ))
        ref = drop_const(reference_effective_kerr(chi, lam, delta, beta))
        assert engine == ref

    def test_matrix_hermiticity(self):
        h = alg.effective_cubic_hamiltonian(1.0, 2.0, 8.0, 0.1)
        m = alg.to_matrix(h, 8.0, 48)
        assert np.abs(m - m.conj().T).max() < 1e-12 * np.abs(m).max()

    def test_number_matrix_diagonal(self):
        m = alg.to_matrix(BosonPolynomial({(1, 1): 1}), 0.0, 8)
        assert np.abs(m - np.diag(np.arange(8.0))).max() < 1e-13

    def test_degree_overflow_rejected(self):
        with pytest.raises(fk.InvalidDimensionError):
            alg.to_matrix(alg.driven_kerr(1.0), 0.0, 4)

    def test_banded_assembly_equals_power_tower_for_random_polynomials(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(8, 48))
            terms = {
                (int(rng.integers(0, 4)), int(rng.integers(0, 4))):
                    [complex(*rng.normal(size=2)) for _ in range(int(rng.integers(1, 4)))]
                for _ in range(int(rng.integers(1, 8)))
            }
            p = BosonPolynomial(terms)
            alpha = float(rng.normal(scale=10.0))
            assert np.array_equal(alg.to_matrix(p, alpha, n),
                                  power_tower_matrix(p, alpha, n))

    @pytest.mark.parametrize("ddelta", [0.0, 3e5])
    def test_banded_assembly_equals_power_tower_at_operating_point(self, ddelta):
        # the cubic Hamiltonian at alpha = 1.4e4, 15 dB, where entries reach ~1e17
        lam, alpha, n = 10**0.75, 1.4e4, 128
        delta, beta = alg.cubic_counterterms(1.0)
        h = alg.substitute_gaussian_frame(
            alg.driven_kerr(1.0, delta + AlphaPoly(ddelta), beta), lam
        ).drop_constant()
        m = alg.to_matrix(h, alpha, n)
        fk.Spectrum(m)  # hermitian to fk.HERMITICITY_RTOL
        assert np.array_equal(m, power_tower_matrix(h, alpha, n))
