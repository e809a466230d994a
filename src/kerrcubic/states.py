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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import (
    Operator,
    PureState,
    MixedState,
    TruncatedMode,
    TruncationWarning,
    _expm_hermitian,
    displacement,
    squeeze,
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
        if not self.delta > 0:
            raise ValueError(f"envelope width delta must be positive, got {self.delta}")
        if not 0 < self.eps_k < 1:
            raise ValueError(f"peak cutoff eps_k must lie in (0, 1), got {self.eps_k}")
        if self.convention not in _CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")


@dataclass(frozen=True)
class TargetSpec:
    """An input state together with the gate angle defining its ideal image."""

    input: PureState
    gamma: float

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise ValueError("gate angle must be finite")


def squeezed_vacuum(delta: float, n: int) -> PureState:
    """Squeezed vacuum |Delta> with <p^2> = Delta^2/2 (and <x^2> = 1/(2 Delta^2))."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if delta > 1:
        warnings.warn(f"delta = {delta} > 1 is outside the intended regime", stacklevel=2)
    z = -math.log(delta)
    if math.exp(2 * abs(z)) > n / 4.0:
        warnings.warn(
            f"delta = {delta} strains Fock cutoff N = {n}", TruncationWarning, stacklevel=2
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)  # already warned above
        s = squeeze(z, n)
    return s @ vacuum(n)


def _gkp_displacements(params: GkpParams):
    """Displacement amplitudes and envelope weights of the retained peaks."""
    if params.convention == "literal":
        period = 2.0 * math.sqrt(math.pi)  # in D-amplitude units
    else:
        period = math.sqrt(2.0 * math.pi)
    if params.label in ("z+",):
        amps = lambda k: k * period  # noqa: E731
    else:  # z- lattice, offset by half a period
        amps = lambda k: (k + 0.5) * period  # noqa: E731
    out = []
    k = 0
    while True:
        added = False
        for kk in ({0} if k == 0 else {k, -k}):
            s = amps(kk)
            w = math.exp(-0.5 * (s * params.delta) ** 2)
            if w >= params.eps_k:
                out.append((s, w))
                added = True
        if not added and k > 0:
            break
        k += 1
    return sorted(out)


def gkp_state(params: GkpParams, n: int) -> PureState:
    """Approximate GKP qubit state: Gaussian-weighted displaced squeezed vacua.

    The comb runs along x with x-squeezed cores (<x^2> = delta^2/2), the
    orientation in which the even/odd sub-lattices are near-orthogonal qubit
    states; the envelope weight exp(-(s_k delta)^2/2) uses the displacement
    amplitude s_k of each peak.
    """
    if params.label in ("z+", "z-"):
        z = math.log(params.delta)
        if math.exp(2 * abs(z)) > n / 4.0:
            warnings.warn(
                f"delta = {params.delta} strains Fock cutoff N = {n}",
                TruncationWarning,
                stacklevel=2,
            )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            base = squeeze(z, n) @ vacuum(n)
        peaks = _gkp_displacements(params)
        xmax_needed = math.sqrt(2.0) * max(abs(s) for s, _ in peaks)
        if xmax_needed > math.sqrt(2.0 * n) - 3.0:
            warnings.warn(
                f"outermost grid peak at x = {xmax_needed:.1f} strains Fock cutoff N = {n}",
                TruncationWarning,
                stacklevel=2,
            )
        vec = np.zeros(n, dtype=complex)
        for s, w in peaks:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                d = displacement(s, n)
            vec += w * (d.matrix @ base.vector)
        return PureState(vec)
    zp = gkp_state(GkpParams("z+", params.delta, params.eps_k, params.convention), n)
    zm = gkp_state(GkpParams("z-", params.delta, params.eps_k, params.convention), n)
    phase = {"x+": 1.0, "x-": -1.0, "y+": 1j, "y-": -1j}[params.label]
    return PureState(zp.vector + phase * zm.vector)


def _warn_winding(gamma: float, n: int) -> None:
    if abs(gamma) * (2.0 * n) ** 1.5 > 1e5:
        warnings.warn(
            f"gate angle {gamma} winds many turns across the cutoff window N = {n}",
            TruncationWarning,
            stacklevel=3,
        )


def ideal_cubic_gate(gamma: float, n: int) -> Operator:
    """The unitary exp(i*gamma*x^3) on the truncated space."""
    _warn_winding(gamma, n)
    x = TruncatedMode(n).x
    x3 = x @ x @ x
    return Operator(_expm_hermitian(x3, 1j * gamma))


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
        out = ideal_cubic_gate(gamma, psi.dim) @ psi
    out.vector.setflags(write=False)
    return out


def nlq_operator(gamma: float, n: int) -> Operator:
    """The nonlinear quadrature p - 3*gamma*x^2."""
    mode = TruncatedMode(n)
    return Operator(mode.p - 3.0 * gamma * (mode.x @ mode.x), hermitian=True)


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
        sub = GkpParams(label, params.delta, params.eps_k, params.convention)
        for s, w in _gkp_displacements(sub):
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
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad state selector {selector!r}: {exc}") from exc
    raise ValueError(f"unrecognized state selector {selector!r}")
