import math
from dataclasses import replace

import pytest

from kerrcubic import soliton as so


def second_sig_fig_agrees(value, printed):
    """Agreement within one unit in the second significant figure of `printed`."""
    scale = 10.0 ** math.floor(math.log10(abs(printed)))
    return abs(value - printed) <= 0.1 * scale


TABLE = [
    ("silicon-on-insulator", 3.4e-6, 3.4561962449584127e-06),
    ("algaas-on-insulator", 2.2e-5, 2.2544460681399888e-05),
    ("si3n4", 5.1e-6, 5.069087825939006e-06),
]


class TestFigureOfMerit:
    @pytest.mark.parametrize("name,printed,exact", TABLE)
    def test_builtin_rows(self, name, printed, exact):
        m = next(mm for mm in so.BUILTIN_MATERIALS if mm.name == name)
        fom = so.figure_of_merit(m)
        assert second_sig_fig_agrees(fom, printed)
        assert abs(fom - exact) < 1e-12 * exact  # frozen regression value

    def test_group_velocity_cancels(self):
        m = so.BUILTIN_MATERIALS[0]
        r1 = so.soliton_scales(replace(m, v_g=1.0e8))
        r2 = so.soliton_scales(replace(m, v_g=2.0e8))
        assert abs(r1.chi / r1.kappa - r2.chi / r2.kappa) < 1e-12 * (r1.chi / r1.kappa)

    @pytest.mark.parametrize("m", so.BUILTIN_MATERIALS, ids=lambda m: m.name)
    def test_rounded_closed_form_within_one_percent(self, m):
        # chi/kappa ~ 3.83 hbar omega0 gamma_nl / (T_fwhm alpha_att), the
        # rounded closed form of the module docstring
        closed = 3.83 * so.HBAR * m.omega0 * m.gamma_nl / (m.t_fwhm * m.alpha_att)
        assert abs(so.figure_of_merit(m) / closed - 1.0) < 0.01

    def test_homogeneity(self):
        m = so.BUILTIN_MATERIALS[0]
        base = so.figure_of_merit(m)
        double_gamma = so.MaterialParams(gamma_nl=2 * m.gamma_nl, alpha_att=m.alpha_att,
                                         wavelength=m.wavelength, t_fwhm=m.t_fwhm)
        double_att = so.MaterialParams(gamma_nl=m.gamma_nl, alpha_att=2 * m.alpha_att,
                                       wavelength=m.wavelength, t_fwhm=m.t_fwhm)
        double_t = so.MaterialParams(gamma_nl=m.gamma_nl, alpha_att=m.alpha_att,
                                     wavelength=m.wavelength, t_fwhm=2 * m.t_fwhm)
        assert abs(so.figure_of_merit(double_gamma) - 2 * base) < 1e-12 * base
        assert abs(so.figure_of_merit(double_att) - base / 2) < 1e-12 * base
        assert abs(so.figure_of_merit(double_t) - base / 2) < 1e-12 * base

    @pytest.mark.parametrize("m", so.BUILTIN_MATERIALS, ids=lambda m: m.name)
    def test_rates_need_group_velocity(self, m):
        # the rates scale with v_g, so none is invented; their ratio does not
        assert m.v_g is None
        with pytest.raises(so.MissingFieldError, match="v_g"):
            so.soliton_scales(m)
        assert so.figure_of_merit(m) == so.figure_of_merit(replace(m, v_g=1.0e8))
        scales = so.soliton_scales(replace(m, v_g=2.0e8))
        assert scales.chi / scales.kappa == pytest.approx(so.figure_of_merit(m), rel=1e-12)

    def test_missing_field_named(self):
        m = so.MaterialParams(gamma_nl=100.0, alpha_att=10.0, wavelength=1.5e-6)
        with pytest.raises(so.MissingFieldError, match="t_fwhm"):
            so.figure_of_merit(m)
        with pytest.raises(so.MissingFieldError, match="wavelength"):
            so.MaterialParams(gamma_nl=100.0).omega0

    def test_scales_positive(self):
        # gamma_nl = 5e-324 underflows chi to 0; small rates are still rates
        with pytest.raises(ValueError, match="soliton scales must be positive"):
            so.soliton_scales(replace(MAT, gamma_nl=5e-324))
        assert 0.0 < so.soliton_scales(replace(MAT, alpha_att=1e-9)).kappa < 1.0

    def test_missing_nonlinear_coefficient_named(self):
        m = so.MaterialParams(alpha_att=10.0, wavelength=1.5e-6, t_fwhm=1e-13)
        with pytest.raises(so.MissingFieldError, match="gamma_nl"):
            so.figure_of_merit(m)
        with pytest.raises(so.MissingFieldError, match="gamma_nl"):
            so.soliton_timescale(100, replace(m, v_g=1.2e8, gvd=2.0e-2))


MAT = so.MaterialParams(name="test", gamma_nl=280.0, alpha_att=400.0,
                        wavelength=1.54e-6, t_fwhm=100e-15, v_g=1.2e8, gvd=2.0e-2)


class TestSolitonTimescale:
    def test_scaling_with_photon_number(self):
        # T_n (n-1) is constant for a fixed material
        ref = so.soliton_timescale(2, MAT) * 1
        for n in (10, 100, 5000):
            assert abs(so.soliton_timescale(n, MAT) * (n - 1) - ref) < 1e-12 * ref

    def test_linear_in_dispersion(self):
        m2 = so.MaterialParams(name="t", gamma_nl=MAT.gamma_nl, alpha_att=MAT.alpha_att,
                               wavelength=MAT.wavelength, t_fwhm=MAT.t_fwhm,
                               v_g=MAT.v_g, gvd=2 * MAT.gvd)
        assert abs(so.soliton_timescale(50, m2) - 2 * so.soliton_timescale(50, MAT)) \
            < 1e-12 * so.soliton_timescale(50, MAT)

    def test_round_trip_against_figure_of_merit(self):
        # tune gvd so that T_nbar matches t_fwhm/1.763, then chi from that
        # timescale must agree with the scales route
        nbar = 10**6
        t_target = MAT.t_fwhm / (2.0 * math.acosh(math.sqrt(2.0)))
        gvd = t_target * (nbar - 1) * so.HBAR * MAT.omega0 * MAT.v_g**3 * MAT.gamma_nl / 2.0
        m = so.MaterialParams(name="tuned", gamma_nl=MAT.gamma_nl, alpha_att=MAT.alpha_att,
                              wavelength=MAT.wavelength, t_fwhm=MAT.t_fwhm,
                              v_g=MAT.v_g, gvd=gvd)
        t_n = so.soliton_timescale(nbar, m)
        chi_direct = so.HBAR * m.omega0 * m.v_g * m.gamma_nl / (2.0 * t_n)
        scales = so.soliton_scales(m)
        assert abs(chi_direct / scales.chi - 1.0) < 0.01

    def test_requires_dispersion_data(self):
        m = so.MaterialParams(gamma_nl=100.0, alpha_att=1.0, wavelength=1.5e-6,
                              t_fwhm=1e-13)
        with pytest.raises(so.MissingFieldError):
            so.soliton_timescale(100, m)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            so.soliton_timescale(1, MAT)


class TestEnvelopeOverlap:
    def test_identical_photon_numbers(self):
        assert so.envelope_overlap(100, 100, MAT) == 1.0

    def test_symmetry(self):
        assert abs(so.envelope_overlap(120, 100, MAT)
                   - so.envelope_overlap(100, 120, MAT)) < 1e-12

    def test_two_sigma_spread_regression(self):
        # n = nbar + 2 sqrt(nbar) at nbar = 100; quadrature oracle value frozen
        val = so.envelope_overlap(120, 100, MAT)
        assert val > 0.99
        assert abs(val - 0.9939800180240514) < 1e-10

    def test_approaches_one(self):
        assert so.envelope_overlap(10001, 10000, MAT) > 0.999999

    @pytest.mark.parametrize("n, n_bar, quad", [
        (120, 100, 0.9939800180239812),
        (100, 120, 0.9939800180239812),
        (10001, 10000, 0.9999999982123761),
        (3, 4, 0.9713510581066667),
        (10**6 + 2000, 10**6, 0.9999992864483359),
    ])
    def test_matches_adaptive_quadrature(self, n, n_bar, quad):
        # reference values from scipy.integrate.quad at epsrel 1e-12
        assert abs(so.envelope_overlap(n, n_bar, MAT) - quad) < 1e-13

    @pytest.mark.parametrize("n, n_bar", [(3, 2), (2, 3)])
    def test_exact_at_width_ratio_two(self, n, n_bar):
        # widths go as 1/(n - 1), so 1:2 here for any material, and
        # int sech(x) sech(2x) dx = pi (sqrt 2 - 1)
        exact = math.pi * (1.0 - 1.0 / math.sqrt(2.0))
        assert abs(so.envelope_overlap(n, n_bar, MAT) - exact) < 1e-14
        assert abs(so.envelope_overlap(n, n_bar, replace(MAT, gvd=7.0)) - exact) < 1e-14

    @pytest.mark.parametrize("n_bar", [19, 100, 10**6])
    def test_wide_width_ratios(self, n_bar):
        # z / min(a, b) stays within 40, so no cosh overflows at any width ratio
        val = so.envelope_overlap(2, n_bar, MAT)
        assert 0.0 < val < 1.0
        assert so.envelope_overlap(n_bar, 2, MAT) == val

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_widths_refused(self):
        # gamma_nl this small overflows both widths to inf, so the sums are nan
        with pytest.raises(RuntimeError, match="did not converge"):
            so.envelope_overlap(3, 2, replace(MAT, gamma_nl=1e-310))

    def test_rejects_small_n(self):
        for n, n_bar in ((1, 100), (100, 1), (1, 1)):
            with pytest.raises(ValueError, match="photon numbers must be >= 2"):
                so.envelope_overlap(n, n_bar, MAT)


class TestMaterialParams:
    def test_rejects_nonpositive_fields(self):
        for v in (-1.0, 0.0):
            with pytest.raises(ValueError, match="gamma_nl must be finite and > 0"):
                so.MaterialParams(gamma_nl=v)

    @pytest.mark.parametrize("field", ["gamma_nl", "alpha_att", "wavelength", "t_fwhm",
                                       "v_g", "gvd"])
    def test_rejects_infinite_fields(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite and > 0, got inf"):
            replace(MAT, **{field: math.inf})
