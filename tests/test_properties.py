"""Property tests of the algebraic laws the exact engine relies on."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as hs

from kerrcubic import algebra as alg
from kerrcubic import dynamics as dyn
from kerrcubic.algebra import AlphaPoly, BosonPolynomial

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
    @given(boson_polys, boson_polys, squeeze_factors, hs.none() | alpha_polys)
    def test_substitution_is_multiplicative(self, p, q, lam, offset):
        # a -> c a + s a^dag + shift keeps [a, a^dag] = 1 exactly (c^2 - s^2 = 1)
        def subst(poly):
            return alg.substitute_gaussian_frame(poly, lam, offset=offset)

        assert subst(p * q) == subst(p) * subst(q)

    @FAST
    @given(boson_polys, boson_polys)
    def test_dagger_reverses_products(self, p, q):
        assert (p * q).dagger() == q.dagger() * p.dagger()

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
        quad = alg.to_quadrature_form(alg.effective_cubic_hamiltonian(chi, lam, 1.0, 0.1))
        assert quad.coefficient(1, 0).is_zero
        assert quad.coefficient(2, 0).is_zero
        assert quad.coefficient(3, 0) == AlphaPoly([0, -Fraction(chi) * Fraction(lam) ** 3 / 4])

    @settings(max_examples=25, deadline=None)
    @given(
        chi=hs.floats(0.1, 10.0),
        lam_db=hs.floats(0.0, 20.0),
        alpha=hs.floats(1.0, 2e4),
        ddelta=hs.floats(-1.0, 1.0),
        dbeta_x=hs.floats(-1.0, 1.0),
    )
    def test_real_parameters_give_a_real_frame_matrix(self, chi, lam_db, alpha, ddelta,
                                                      dbeta_x):
        # fock.Spectrum takes the real symmetric solver exactly when this holds
        cfg = dyn.GateConfig.make(lam_db, alpha, 0.1, chi=chi, n_fock=16,
                                  noise=dyn.NoiseParams(ddelta=ddelta, dbeta_x=dbeta_x))
        m = dyn._frame_matrix(cfg)
        assert not m.imag.any()
