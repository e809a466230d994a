"""Input and target states: squeezed vacuum, grid (GKP) qubits, cubic phase.

The grid-state constructor supports two displacement conventions for the
lattice, selected by ``GkpParams.convention``:

* ``literal``: peaks from D(2k*sqrt(pi)) with D(s) = exp(s a^dag - s* a),
  i.e. an x-period of 2*sqrt(2*pi) (the default).
* ``standard-lattice``: peaks from D(k*sqrt(2*pi)), x-period 2*sqrt(pi).

Both give identical scaling behaviour in every sweep; only absolute peak
positions differ.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .fock import (
    PureState,
    MixedState,
    Spectrum,
    TruncationWarning,
    displace_vector,
    displacement_spectrum,
    momentum,
    position,
    squeeze_spectrum,
    squeeze_vector,
    vacuum,
    variance,
)

_GKP_LABELS = ("z+", "z-", "x+", "x-", "y+", "y-")
_CONVENTIONS = ("literal", "standard-lattice")


@dataclass(frozen=True)
class GkpParams:
    """Grid-qubit construction parameters."""

    label: str
    delta: float
    eps_k: float = 1e-8
    convention: str = "literal"

    def __post_init__(self):
        if self.label not in _GKP_LABELS:
            raise ValueError(f"unknown GKP label {self.label!r}, expected one of {_GKP_LABELS}")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"envelope width delta must be finite and positive, got {self.delta}")
        if not 0 < self.eps_k < 1:
            raise ValueError(f"peak cutoff eps_k must lie in (0, 1), got {self.eps_k}")
        if self.convention not in _CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")


def squeezed_vacuum(delta: float, n: int) -> PureState:
    """Squeezed vacuum |Delta> with <p^2> = Delta^2/2 (and <x^2> = 1/(2 Delta^2))."""
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, got {delta}")
    if delta > 1:
        warnings.warn(f"delta = {delta} > 1 is outside the intended regime", stacklevel=2)
    z = -math.log(delta)
    if math.exp(2 * abs(z)) > n / 4.0:
        warnings.warn(
            f"delta = {delta} strains Fock cutoff N = {n}", TruncationWarning, stacklevel=2
        )
    vec = squeeze_vector(squeeze_spectrum(n), z, vacuum(n).vector)
    return PureState(vec, normalize=False)


def _gkp_displacements(params: GkpParams, n: int):
    """Displacement amplitudes and envelope weights of the retained peaks, by amplitude.

    A peak at amplitude s is kept when its weight exp(-(s delta)^2/2) reaches
    eps_k, i.e. |s| <= sqrt(-2 ln eps_k)/delta. The count follows in closed
    form; more peaks than the Fock dimension n, or none, is refused before any
    is enumerated.
    """
    if params.convention == "literal":
        period = 2.0 * math.sqrt(math.pi)  # in D-amplitude units
    else:
        period = math.sqrt(2.0 * math.pi)
    offset = 0.0 if params.label == "z+" else 0.5  # z- lattice: half a period over
    reach = math.sqrt(-2.0 * math.log(params.eps_k)) / (params.delta * period)
    # peaks at (k + offset)*period for k_min <= k <= k_max, mirror images
    k_max = math.floor(reach - offset)
    k_min = -k_max - round(2 * offset)
    count = k_max - k_min + 1
    if count > n:
        raise ValueError(f"delta = {params.delta} keeps {count} grid peaks, more than the "
                         f"Fock dimension N = {n}")
    if count < 1:
        raise ValueError(f"delta = {params.delta} keeps no {params.label} grid peak")
    out = []
    for k in range(k_min - 1, k_max + 2):  # one beyond each end: the weight decides the edge
        s = (k + offset) * period
        w = math.exp(-0.5 * (s * params.delta) ** 2)
        if w >= params.eps_k:
            out.append((s, w))
    return out


def _gkp_sublattice(peaks, delta: float, n: int, base: np.ndarray,
                    displacements: Spectrum) -> PureState:
    """One sub-lattice from its peaks, the squeezed core and the displacement spectrum."""
    if math.exp(2 * abs(math.log(delta))) > n / 4.0:
        warnings.warn(
            f"delta = {delta} strains Fock cutoff N = {n}", TruncationWarning, stacklevel=3
        )
    xmax_needed = math.sqrt(2.0) * max(abs(s) for s, _ in peaks)
    if xmax_needed > math.sqrt(2.0 * n) - 3.0:
        warnings.warn(
            f"outermost grid peak at x = {xmax_needed:.1f} strains Fock cutoff N = {n}",
            TruncationWarning,
            stacklevel=3,
        )
    vec = np.zeros(n, dtype=complex)
    for s, w in peaks:
        vec += w * displace_vector(displacements, s, base)
    return PureState(vec)


def gkp_state(params: GkpParams, n: int) -> PureState:
    """Approximate GKP qubit state: Gaussian-weighted displaced squeezed vacua.

    The comb runs along x with x-squeezed cores (<x^2> = delta^2/2), the
    orientation in which the even/odd sub-lattices are near-orthogonal qubit
    states; the envelope weight exp(-(s_k delta)^2/2) uses the displacement
    amplitude s_k of each peak. One squeeze and one displacement spectrum
    serve every peak of both sub-lattices.
    """
    labels = (params.label,) if params.label in ("z+", "z-") else ("z+", "z-")
    # every lattice is checked before any eigh
    lattices = [_gkp_displacements(replace(params, label=label), n) for label in labels]
    base = squeeze_vector(squeeze_spectrum(n), math.log(params.delta), vacuum(n).vector)
    displacements = displacement_spectrum(n)
    zp = _gkp_sublattice(lattices[0], params.delta, n, base, displacements)
    if len(lattices) == 1:
        return zp
    zm = _gkp_sublattice(lattices[1], params.delta, n, base, displacements)
    phase = {"x+": 1.0, "x-": -1.0, "y+": 1j, "y-": -1j}[params.label]
    return PureState(zp.vector + phase * zm.vector)


def _warn_winding(gamma: float, n: int) -> None:
    if abs(gamma) * (2.0 * n) ** 1.5 > 1e5:
        warnings.warn(
            f"gate angle {gamma} winds many turns across the cutoff window N = {n}",
            TruncationWarning,
            stacklevel=3,
        )


def ideal_cubic_gate(gamma: float, n: int) -> np.ndarray:
    """The unitary exp(i*gamma*x^3) on the truncated space."""
    _warn_winding(gamma, n)
    x = position(n)
    x3 = x @ x @ x
    return Spectrum(x3).unitary(-gamma)


def ideal_cubic_target(gamma: float, psi_in: PureState) -> PureState:
    """The ideal gate's output exp(i*gamma*x^3)|psi_in>, with a read-only vector.

    Cached per (gamma, amplitudes of psi_in): the repeated gates of an alpha
    optimization share one target. The cutoff warning fires on every call.
    """
    _warn_winding(gamma, psi_in.dim)
    return _cached_target(float(gamma), psi_in.vector.tobytes())


@lru_cache(maxsize=32)
def _cached_target(gamma: float, amplitudes: bytes) -> PureState:
    psi = PureState(np.frombuffer(amplitudes, dtype=complex).copy(), normalize=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)  # warned by the caller
        out = PureState(ideal_cubic_gate(gamma, psi.dim) @ psi.vector, normalize=False)
    out.vector.setflags(write=False)
    return out


def nlq_operator(gamma: float, n: int) -> np.ndarray:
    """The nonlinear quadrature p - 3*gamma*x^2."""
    x = position(n)
    return momentum(n) - 3.0 * gamma * (x @ x)


def nlq_variance(state: PureState | MixedState, gamma: float) -> float:
    """Variance of p - 3*gamma*x^2; Delta^2/2 for an ideal finite-width cubic state."""
    dim = state.dim
    return variance(nlq_operator(gamma, dim), state)


def representable_peak_cutoff(params: GkpParams, gamma: float, n: int) -> float:
    """Peak-weight cutoff keeping every retained grid peak gate-representable.

    A peak at position x shears to momentum ~3*gamma*x^2 under the cubic gate;
    once x + 3*gamma*x^2 exceeds the cutoff window sqrt(2N), the peak cannot be
    represented and its amplitude pollutes gate-error measurements as a
    spurious floor. Returns an eps_k (>= the configured one) that drops such
    peaks.
    """
    x_edge = math.sqrt(2.0 * n) - 4.0
    g3 = 3.0 * abs(gamma)
    if g3 == 0.0:
        return params.eps_k
    # solve x + 3 gamma x^2 = x_edge for the largest representable peak
    x_allow = (-1.0 + math.sqrt(1.0 + 4.0 * g3 * x_edge)) / (2.0 * g3)
    labels = (params.label,) if params.label in ("z+", "z-") else ("z+", "z-")
    eps = params.eps_k
    for label in labels:
        for s, w in _gkp_displacements(replace(params, label=label), n):
            if math.sqrt(2.0) * abs(s) > x_allow:
                eps = max(eps, w * (1.0 + 1e-12))
    return min(eps, 0.999)


def parse_state(selector: str, n: int) -> PureState:
    """Build an input state from a compact selector string.

    Formats: "vacuum", "fock:<k>", "squeezed:<delta>",
    "gkp:<label>:<delta>[:<convention>]" with label in z+/z-/x+/x-/y+/y-.
    """
    from .fock import fock_state, vacuum as vacuum_state

    parts = selector.strip().split(":")
    kind = parts[0]
    try:
        if kind == "vacuum" and len(parts) == 1:
            return vacuum_state(n)
        if kind == "fock" and len(parts) == 2:
            return fock_state(n, int(parts[1]))
        if kind == "squeezed" and len(parts) == 2:
            return squeezed_vacuum(float(parts[1]), n)
        if kind == "gkp" and len(parts) in (3, 4):
            convention = parts[3] if len(parts) == 4 else "literal"
            return gkp_state(GkpParams(parts[1], float(parts[2]), convention=convention), n)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad state selector {selector!r}: {exc}") from exc
    raise ValueError(f"unrecognized state selector {selector!r}")
