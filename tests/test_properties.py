"""Property tests of the algebraic laws the exact engine relies on."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as hs

from kerrcubic import algebra as alg
from kerrcubic import dynamics as dyn
from kerrcubic.algebra import AlphaPoly, BosonPolynomial
from lab_frame import dagger, shifted_frame

# Gaussian-integer coefficients keep the exact arithmetic small and fast
gaussian_ints = hs.builds(complex, hs.integers(-3, 3), hs.integers(-3, 3))
alpha_polys = hs.lists(gaussian_ints, max_size=3).map(AlphaPoly)
# (a^dag)^m a^n with m + n <= 2, so a product has the Kerr term's degree 4
monomials = hs.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
boson_polys = hs.dictionaries(monomials, alpha_polys, max_size=4).map(BosonPolynomial)
# quarter steps: exact binary fractions with small denominators
squeeze_factors = hs.integers(1, 24).map(lambda k: k / 4)

FAST = settings(max_examples=40, deadline=None)


class TestAlgebraProperties:
    @FAST
    @given(boson_polys, boson_polys, squeeze_factors, alpha_polys)
    def test_substitution_is_multiplicative(self, p, q, lam, offset):
        # a -> c a + s a^dag + shift keeps [a, a^dag] = 1 exactly (c^2 - s^2 = 1)
        def frame(poly):
            return alg.substitute_gaussian_frame(poly, lam)

        def shifted(poly):
            return shifted_frame(poly, lam, offset)

        assert frame(p * q) == frame(p) * frame(q)
        assert shifted(p * q) == shifted(p) * shifted(q)
        assert shifted_frame(p, lam, 0) == frame(p)

    @FAST
    @given(boson_polys, boson_polys)
    def test_dagger_reverses_products(self, p, q):
        assert dagger(p * q) == dagger(q) * dagger(p)

    @FAST
    @given(boson_polys, boson_polys)
    def test_quadrature_form_is_multiplicative(self, p, q):
        # a = (X + iP)/2, a^dag = (X - iP)/2 keeps [a, a^dag] = 1 only if [P, X] = -2i
        quad = alg.to_quadrature_form
        assert quad(p * q) == quad(p) * quad(q)

    @FAST
    @given(chi=hs.floats(0.01, 5.0, exclude_min=True, exclude_max=True),
           lam=hs.floats(1.0, 12.0))
    def test_counterterms_cancel_exactly_at_any_operating_point(self, chi, lam):
        h = alg.frame_hamiltonian(chi, lam, *alg.cubic_counterterms(chi))
        quad = alg.to_quadrature_form(h)
        assert quad.coefficient(1, 0).is_zero
        assert quad.coefficient(2, 0).is_zero
        assert quad.coefficient(3, 0) == AlphaPoly([0, -Fraction(chi) * Fraction(lam) ** 3 / 4])

    @FAST
    @given(lam=squeeze_factors, eps=hs.floats(-1.0, 1.0))
    def test_relative_offset_is_eps_times_the_counterterm(self, lam, eps):
        # (1 + eps) delta_c and (1 + eps) beta_c: the offset alone, substituted
        # on its own, is what a relative offset adds to the frame Hamiltonian
        delta_c, beta_c = alg.cubic_counterterms(1.0)
        h0 = dyn._frame_hamiltonian(lam, 0.0, 0.0)

        def frame(terms):
            return alg.substitute_gaussian_frame(BosonPolynomial(terms), lam).drop_constant()

        assert dyn._frame_hamiltonian(lam, eps, 0.0) == h0 + frame({(1, 1): eps * delta_c})
        drive = eps * beta_c
        assert dyn._frame_hamiltonian(lam, 0.0, eps) == h0 + frame(
            {(1, 0): drive, (0, 1): drive.conjugate()})

    @settings(max_examples=25, deadline=None)
    @given(
        lam_db=hs.floats(0.0, 20.0),
        alpha=hs.floats(1.0, 2e4),
        ddelta_rel=hs.floats(-1.0, 1.0),
        dbeta_x_rel=hs.floats(-1.0, 1.0),
    )
    def test_real_parameters_give_a_real_frame_matrix(self, lam_db, alpha, ddelta_rel,
                                                      dbeta_x_rel):
        # fock.Spectrum takes the real symmetric solver exactly when this holds
        noise = dyn.NoiseParams(ddelta_rel=ddelta_rel, dbeta_x_rel=dbeta_x_rel)
        cfg = dyn.GateConfig.make(lam_db, alpha, 0.1, n_fock=16, noise=noise)
        m = dyn._frame_matrix(cfg)
        assert not m.imag.any()
