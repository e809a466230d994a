"""Quantum Kerr-soliton platform numbers: timescales, overlaps, figure of merit.

The figure of merit is the ratio of the single-mode self-phase-modulation rate
to the loss rate,

    chi / kappa = hbar omega0 gamma_nl * (2 arccosh sqrt(2)) / (ln(10)/10)
                  / (2 * T_fwhm * alpha_att)
                ~ 3.83 hbar omega0 gamma_nl / (T_fwhm alpha_att),

computed internally from chi = hbar omega0 v_g gamma_nl / (2 T) and
kappa = (ln 10 / 10) alpha_att v_g (dB-per-length to natural rate), where the
group velocity cancels. The nonlinear coefficient gamma_nl is a platform's
quoted value, given directly, as in the built-in table and the materials CSV.
All quantities SI.

scipy.integrate is imported inside `envelope_overlap`, the one integral here,
so the platform table and figures of merit never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.99792458e8  # m / s

_DB_TO_NAT = math.log(10.0) / 10.0          # dB/length -> 1/length
_FWHM_TO_TN = 2.0 * math.acosh(math.sqrt(2.0))  # T_fwhm = 1.763 T_n


class MissingFieldError(ValueError):
    """A required material parameter was not provided."""


@dataclass(frozen=True)
class MaterialParams:
    """Waveguide/platform parameters (SI units).

    gamma_nl is the nonlinear coefficient (W^-1 m^-1). v_g is needed for the
    rates of `soliton_scales` (not for their ratio), and v_g and gvd
    (d^2 omega / dk^2, m^2/s) for the photon-number-dependent timescale. A
    field left None is named by the `MissingFieldError` of the first function
    that needs it.
    """

    name: str = ""
    gamma_nl: float | None = None
    alpha_att: float | None = None   # dB per meter
    wavelength: float | None = None  # meters
    t_fwhm: float | None = None      # seconds
    v_g: float | None = None         # m/s
    gvd: float | None = None         # m^2/s

    def __post_init__(self):
        for field_name in ("gamma_nl", "alpha_att", "wavelength", "t_fwhm",
                           "v_g", "gvd"):
            v = getattr(self, field_name)
            if v is not None and not v > 0:
                raise ValueError(f"{field_name} must be positive, got {v}")

    def _require(self, *names: str):
        for nm in names:
            if getattr(self, nm) is None:
                raise MissingFieldError(f"material parameter {nm!r} is required here")

    @property
    def omega0(self) -> float:
        self._require("wavelength")
        return 2.0 * math.pi * C_LIGHT / self.wavelength


@dataclass(frozen=True)
class SolitonScales:
    kappa: float  # temporal loss rate, 1/s
    chi: float    # single-mode SPM rate, 1/s

    def __post_init__(self):
        if min(self.kappa, self.chi) <= 0:
            raise ValueError("soliton scales must be positive")


def soliton_scales(m: MaterialParams) -> SolitonScales:
    """Loss and SPM rates at the pulse timescale T = t_fwhm / 1.763."""
    m._require("alpha_att", "wavelength", "t_fwhm", "gamma_nl", "v_g")
    t_n = m.t_fwhm / _FWHM_TO_TN
    kappa = _DB_TO_NAT * m.alpha_att * m.v_g
    chi = HBAR * m.omega0 * m.v_g * m.gamma_nl / (2.0 * t_n)
    return SolitonScales(kappa, chi)


def figure_of_merit(m: MaterialParams) -> float:
    """chi/kappa for the platform; the group velocity cancels, so a material
    without one is scored at v_g = 1e8 m/s."""
    scales = soliton_scales(m if m.v_g is not None else replace(m, v_g=1.0e8))
    return scales.chi / scales.kappa


def soliton_timescale(n: int, m: MaterialParams) -> float:
    """Characteristic time of the n-photon soliton: 2 gvd / ((n-1) hbar omega0 v_g^3 gamma_nl)."""
    if n < 2:
        raise ValueError(f"photon number must be >= 2, got {n}")
    m._require("v_g", "gvd", "wavelength", "gamma_nl")
    return 2.0 * m.gvd / ((n - 1) * HBAR * m.omega0 * m.v_g**3 * m.gamma_nl)


def envelope_overlap(n: int, n_bar: int, m: MaterialParams) -> float:
    """Overlap of the sech envelopes of the n- and n_bar-photon solitons.

    h_n(z) = sech(z / (v_g T_n)) / sqrt(2 v_g T_n); adaptive quadrature.
    """
    if n < 2 or n_bar < 2:
        raise ValueError("photon numbers must be >= 2")
    if n == n_bar:
        return 1.0
    a = m.v_g * soliton_timescale(n, m)
    b = m.v_g * soliton_timescale(n_bar, m)

    def integrand(z):
        return (1.0 / math.cosh(z / a)) * (1.0 / math.cosh(z / b))

    # sech tails fall like e^{-|z|/a}: +-40 scales is ~e^{-40} of the peak
    scale = max(a, b)
    from scipy.integrate import quad

    val, err = quad(integrand, -40.0 * scale, 40.0 * scale,
                    limit=400, epsabs=0.0, epsrel=1e-12)
    if not math.isfinite(val) or err > 1e-6 * abs(val):
        raise RuntimeError(f"envelope overlap quadrature did not converge (err {err})")
    return val / (2.0 * math.sqrt(a * b))


#: The waveguide platforms of the built-in comparison table (100 fs pulses).
BUILTIN_MATERIALS = (
    MaterialParams(name="silicon-on-insulator", gamma_nl=280.0, alpha_att=400.0,
                   wavelength=1.54e-6, t_fwhm=100e-15),
    MaterialParams(name="algaas-on-insulator", gamma_nl=660.0, alpha_att=140.0,
                   wavelength=1.59e-6, t_fwhm=100e-15),
    MaterialParams(name="si3n4", gamma_nl=1.0, alpha_att=1.0,
                   wavelength=1.5e-6, t_fwhm=100e-15),
)
