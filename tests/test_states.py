import contextlib
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kerrcubic import fock as fk
from kerrcubic import states as st


def parity_reflected(psi):
    signs = np.where(np.arange(psi.dim) % 2 == 0, 1.0, -1.0)
    return fk.PureState(signs * psi.vector, normalize=False)


def _applied(u, psi):
    return fk.PureState(u @ psi.vector, normalize=False)


class TestSqueezedVacuum:
    def test_delta_one_is_vacuum(self):
        psi = st.squeezed_vacuum(1.0, 32)
        assert fk.fidelity(fk.vacuum(32), psi) > 1 - 1e-12

    def test_momentum_variance(self):
        n = 96
        psi = st.squeezed_vacuum(0.5, n)
        assert abs(fk.variance(fk.momentum(n), psi) - 0.125) < 1e-6

    def test_position_variance_partner(self):
        n = 96
        psi = st.squeezed_vacuum(0.5, n)
        assert abs(fk.variance(fk.position(n), psi) - 2.0) < 1e-6

    def test_zero_means(self):
        n = 96
        psi = st.squeezed_vacuum(0.4, n)
        assert abs(fk.expectation(fk.position(n), psi)) < 1e-10
        assert abs(fk.expectation(fk.momentum(n), psi)) < 1e-10

    def test_warns_when_cutoff_strained(self):
        with pytest.warns(fk.TruncationWarning):
            st.squeezed_vacuum(0.05, 32)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            st.squeezed_vacuum(0.0, 32)

    def test_cutoff_doubling_convergence(self):
        def pvar(n):
            return fk.variance(fk.momentum(n), st.squeezed_vacuum(0.5, n))

        with warnings.catch_warnings():
            warnings.simplefilter("error", fk.TruncationWarning)
            fk.check_truncation_convergence(pvar, 96)


class TestGkpState:
    def test_zero_mean_position(self):
        n = 192
        zp = st.gkp_state(st.GkpParams("z+", 0.5), n)
        assert abs(fk.expectation(fk.position(n), zp)) < 1e-8

    def test_normalized(self):
        n = 192
        for label in ("z+", "z-", "x+", "x-", "y+", "y-"):
            psi = st.gkp_state(st.GkpParams(label, 0.5), n)
            assert abs(np.linalg.norm(psi.vector) - 1.0) < 1e-10

    def test_logical_overlap_regression(self):
        # direct inner product of the two constructed vectors, frozen value
        n = 192
        zp = st.gkp_state(st.GkpParams("z+", 0.5), n)
        zm = st.gkp_state(st.GkpParams("z-", 0.5), n)
        assert abs(abs(zp.overlap(zm)) - 0.00308053263) < 1e-9

    def test_prenormalization_norm_differs_from_one(self):
        # overlapping peaks at delta = 0.3: the raw superposition is not normalized
        n = 320
        params = st.GkpParams("z+", 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            base = _applied(fk.squeeze(math.log(0.3), n), fk.vacuum(n))
            vec = sum(
                w * (fk.displacement(s, n).matrix @ base.vector)
                for s, w in st._gkp_displacements(params, n)
            )
        assert abs(np.linalg.norm(vec) - 1.0) > 0.05

    def test_parity_symmetry(self):
        n = 192
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fk.TruncationWarning)
            zp = st.gkp_state(st.GkpParams("z+", 0.5), n)
            zm = st.gkp_state(st.GkpParams("z-", 0.5), n)
        assert fk.fidelity(zp, parity_reflected(zp)) > 1 - 1e-8
        assert fk.fidelity(zm, parity_reflected(zm)) > 1 - 1e-8

    def test_half_period_map_regression(self):
        n = 192
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fk.TruncationWarning)
            zp = st.gkp_state(st.GkpParams("z+", 0.5), n)
            zm = st.gkp_state(st.GkpParams("z-", 0.5), n)
            shifted = _applied(fk.displacement(math.sqrt(math.pi), n).matrix, zp)
        assert abs(abs(zm.overlap(shifted)) - 0.8247997594) < 1e-8

    def test_conventions_differ_in_lattice_scale(self):
        n = 192
        lit = st.gkp_state(st.GkpParams("z+", 0.5, convention="literal"), n)
        std = st.gkp_state(st.GkpParams("z+", 0.5, convention="standard-lattice"), n)
        n_lit = fk.expectation(fk.number(n), lit).real
        n_std = fk.expectation(fk.number(n), std).real
        assert n_lit != pytest.approx(n_std, rel=0.05)

    def test_superposition_labels(self):
        n = 160
        with pytest.warns(fk.TruncationWarning, match="outermost grid peak"):
            zp = st.gkp_state(st.GkpParams("z+", 0.5), n)
            zm = st.gkp_state(st.GkpParams("z-", 0.5), n)
            xp = st.gkp_state(st.GkpParams("x+", 0.5), n)
        manual = fk.PureState(zp.vector + zm.vector)
        assert fk.fidelity(manual, xp) > 1 - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            st.GkpParams("w+", 0.5)
        with pytest.raises(ValueError):
            st.GkpParams("z+", -0.1)
        with pytest.raises(ValueError):
            st.GkpParams("z+", 0.5, eps_k=2.0)
        with pytest.raises(ValueError):
            st.GkpParams("z+", 0.5, convention="hex")


def _former_gaussian(gen):
    # exp(gen) for an anti-Hermitian gen by one complex Hermitian eigh, as
    # displacement and squeeze were built before the rotated real spectra
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * w)) @ v.conj().T


class TestGkpMatchesPerPeakBuild:
    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("label", ["z+", "z-", "x+", "y+"])
    def test_matches_former_formula(self, label, n):
        params = st.GkpParams(label, 0.5)
        a = np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)
        z = math.log(params.delta)
        base = _former_gaussian(0.5 * z * (a.T @ a.T - a @ a))[:, 0]

        def sublattice(lbl):
            vec = sum(w * (_former_gaussian(s * a.T - s * a) @ base)
                      for s, w in st._gkp_displacements(replace(params, label=lbl), n))
            return vec / np.linalg.norm(vec)

        if label in ("z+", "z-"):
            want = sublattice(label)
        else:
            want = sublattice("z+") + {"x+": 1.0, "y+": 1j}[label] * sublattice("z-")
            want /= np.linalg.norm(want)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fk.TruncationWarning)
            got = st.gkp_state(params, n).vector
        assert np.abs(got - want).max() < 1e-13


# (category, message) of every warning each builder raised before the
# rotated real spectra replaced the complex ones
_FORMER_WARNINGS = [
    (lambda: fk.displacement(3.0, 16),
     [("TruncationWarning", "displacement |s|^2 = 9 strains Fock cutoff N = 16")]),
    (lambda: fk.displacement(-1.0 + 0.5j, 64), []),
    (lambda: fk.squeeze(-1.2, 16),
     [("TruncationWarning", "squeeze gain e^(2|z|) = 11 strains Fock cutoff N = 16")]),
    (lambda: fk.squeeze(0.3, 64), []),
    (lambda: st.squeezed_vacuum(0.05, 32),
     [("TruncationWarning", "delta = 0.05 strains Fock cutoff N = 32")]),
    (lambda: st.squeezed_vacuum(1.5, 32),
     [("UserWarning", "delta = 1.5 > 1 is outside the intended regime")]),
    (lambda: st.squeezed_vacuum(0.5, 96), []),
    (lambda: st.gkp_state(st.GkpParams("z+", 0.5), 64),
     [("TruncationWarning", "outermost grid peak at x = 15.0 strains Fock cutoff N = 64")]),
    (lambda: st.gkp_state(st.GkpParams("x+", 0.5), 64),
     [("TruncationWarning", "outermost grid peak at x = 15.0 strains Fock cutoff N = 64"),
      ("TruncationWarning", "outermost grid peak at x = 12.5 strains Fock cutoff N = 64")]),
    (lambda: st.gkp_state(st.GkpParams("y-", 0.2), 32),
     [("TruncationWarning", "delta = 0.2 strains Fock cutoff N = 32"),
      ("TruncationWarning", "outermost grid peak at x = 40.1 strains Fock cutoff N = 32"),
      ("TruncationWarning", "delta = 0.2 strains Fock cutoff N = 32"),
      ("TruncationWarning", "outermost grid peak at x = 42.6 strains Fock cutoff N = 32")]),
    (lambda: st.gkp_state(st.GkpParams("z-", 0.5), 256), []),
]


@pytest.mark.parametrize("case", range(len(_FORMER_WARNINGS)))
def test_warnings_fire_as_before(case):
    build, want = _FORMER_WARNINGS[case]
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        build()
    assert [(w.category.__name__, str(w.message)) for w in rec] == want


class TestBadStateParameters:
    @pytest.mark.parametrize("delta", [math.inf, math.nan, -math.inf, 0.0])
    def test_nonfinite_or_nonpositive_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="finite and positive"):
            st.squeezed_vacuum(delta, 32)
        with pytest.raises(ValueError, match="finite and positive"):
            st.GkpParams("z+", delta)

    @pytest.mark.parametrize("selector", ["squeezed:inf", "squeezed:nan", "gkp:z+:inf",
                                          "gkp:z+:1e300", "squeezed:1e300", "gkp:x+:1e-300"])
    def test_selector_errors_are_value_errors(self, selector):
        regime = (pytest.warns(UserWarning, match="outside the intended regime")
                  if selector == "squeezed:1e300" else contextlib.nullcontext())
        with regime, pytest.raises(ValueError, match="bad state selector"):
            st.parse_state(selector, 32, 0.0)

    @pytest.mark.parametrize("selector", ["gkp:z+:1e-9", "gkp:y-:1e-9", "gkp:z+:1e-4"])
    def test_too_many_peaks_rejected_before_enumeration(self, selector):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="grid peaks, more than the Fock dimension"):
            st.parse_state(selector, 448, 0.0)
        assert time.perf_counter() - start < 1.0

    def test_peak_cutoff_rejects_too_many_peaks(self):
        with pytest.raises(ValueError, match="more than the Fock dimension"):
            st.representable_peak_cutoff(st.GkpParams("z-", 1e-9), 0.1, 256)

    def test_closed_form_count_matches_kept_peaks(self):
        for convention, period in (("literal", 2 * math.sqrt(math.pi)),
                                   ("standard-lattice", math.sqrt(2 * math.pi))):
            for label, offset in (("z+", 0.0), ("z-", 0.5)):
                for delta in (0.2, 0.3, 0.5, 0.9, 2.0):
                    params = st.GkpParams(label, delta, convention=convention)
                    scan = [s for s in ((k + offset) * period for k in range(-200, 200))
                            if math.exp(-0.5 * (s * delta) ** 2) >= params.eps_k]
                    kept = st._gkp_displacements(params, len(scan))
                    assert [s for s, _ in kept] == scan
                    # the guard's closed-form count is exactly the kept count
                    with pytest.raises(ValueError, match="more than the Fock dimension"):
                        st._gkp_displacements(params, len(scan) - 1)

    def test_lattice_without_peaks_rejected(self):
        with pytest.raises(ValueError, match="no z- grid peak"):
            st.gkp_state(st.GkpParams("z-", 10.0), 32)

    def test_nonfinite_amplitudes_violate_contract(self):
        with pytest.raises(fk.ContractViolationError, match="not finite"):
            fk.PureState(np.array([1.0, np.nan]))
        with pytest.raises(fk.ContractViolationError, match="not finite"):
            fk.PureState(np.array([np.inf, 0.0]))


class TestIdealCubicGate:
    def test_zero_angle_identity(self):
        u = st.ideal_cubic_gate(0.0, 32)
        assert np.abs(u - np.eye(32)).max() < 1e-12

    def test_commutes_with_position(self):
        n = 128
        u = st.ideal_cubic_gate(0.1, n)
        x = fk.position(n)
        d = fk.interior_dim(n)
        comm = u @ x - x @ u
        assert np.abs(comm[:d, :d]).max() < 1e-8

    def test_inverse_pair(self):
        n = 96
        u = st.ideal_cubic_gate(0.1, n) @ st.ideal_cubic_gate(-0.1, n)
        assert np.abs(u - np.eye(n)).max() < 1e-9

    def test_composition(self):
        n = 96
        d = fk.interior_dim(n)
        twice = st.ideal_cubic_gate(0.07, n) @ st.ideal_cubic_gate(0.07, n)
        once = st.ideal_cubic_gate(0.14, n)
        assert np.abs((twice - once)[:d, :d]).max() < 1e-9


    def test_repeated_call_still_warns(self):
        for _ in range(2):
            with pytest.warns(fk.TruncationWarning):
                st.ideal_cubic_gate(500.0, 32)


class TestIdealCubicTarget:
    def test_equals_gate_applied_to_input(self):
        n = 96
        psi = st.squeezed_vacuum(0.5, n)
        ref = _applied(st.ideal_cubic_gate(0.1, n), psi)
        got = st.ideal_cubic_target(0.1, psi)
        assert got.vector.tobytes() == ref.vector.tobytes()
        assert st.ideal_cubic_target(0.1, psi) is got
        assert st.ideal_cubic_target(0.2, psi) is not got

    def test_cached_vector_is_read_only(self):
        target = st.ideal_cubic_target(0.1, fk.vacuum(32))
        with pytest.raises(ValueError):
            target.vector[0] = 0.0

    def test_repeated_call_still_warns(self):
        psi = fk.vacuum(32)
        for _ in range(2):
            with pytest.warns(fk.TruncationWarning):
                st.ideal_cubic_target(500.0, psi)


class TestNlqVariance:
    def test_cubic_state_value(self):
        # the quartic operator is cutoff-sensitive; 0.1257 at N=128, converged by 256
        n = 256
        out = _applied(st.ideal_cubic_gate(0.1, n), st.squeezed_vacuum(0.5, n))
        assert abs(st.nlq_variance(out, 0.1) - 0.125) < 1e-4

    def test_vacuum_zero_angle(self):
        assert abs(st.nlq_variance(fk.vacuum(64), 0.0) - 0.5) < 1e-12

    def test_gate_maps_p_variance(self):
        # Var(p - 3 gamma x^2) after the gate equals Var(p) before, for
        # x-diagonal Gaussian inputs
        n = 256
        gamma = 0.08
        u = st.ideal_cubic_gate(gamma, n)
        for delta in (0.5, 0.7, 1.0):
            psi = st.squeezed_vacuum(delta, n)
            before = fk.variance(fk.momentum(n), psi)
            after = st.nlq_variance(_applied(u, psi), gamma)
            assert abs(after - before) < 1e-5

    def test_nonnegative(self):
        assert st.nlq_variance(fk.fock_state(32, 2), 0.3) >= 0.0


class TestRepresentablePeakCutoff:
    def test_passthrough_when_everything_fits(self):
        params = st.GkpParams("z+", 0.5, eps_k=1e-3)
        assert st.representable_peak_cutoff(params, 0.01, 1024) == 1e-3

    def test_trims_sheared_peaks(self):
        params = st.GkpParams("z-", 0.4, eps_k=1e-8)
        eps = st.representable_peak_cutoff(params, 0.1, 256)
        assert eps > 1e-8
        psi = st.gkp_state(st.GkpParams("z-", 0.4, eps_k=eps), 256)
        assert abs(np.linalg.norm(psi.vector) - 1.0) < 1e-10

    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("delta", [0.3, 0.4, 0.5])
    @pytest.mark.parametrize("label", ["z+", "z-", "x+", "y+"])
    def test_every_kept_peak_is_representable(self, label, delta, n):
        # at the returned cutoff, no peak of any sub-lattice the state is built
        # from lies beyond x_allow, the root of x + 3 gamma x^2 = sqrt(2N) - 4;
        # a peak whose weight equals the cutoff exactly would still be kept
        gamma = 0.1
        x_edge = math.sqrt(2.0 * n) - 4.0
        x_allow = (math.sqrt(1.0 + 12.0 * gamma * x_edge) - 1.0) / (6.0 * gamma)
        assert abs(x_allow + 3.0 * gamma * x_allow**2 - x_edge) < 1e-12 * x_edge
        eps = st.representable_peak_cutoff(st.GkpParams(label, delta), gamma, n)
        sublattices = (label,) if label in ("z+", "z-") else ("z+", "z-")
        for sub in sublattices:
            peaks = st._gkp_displacements(st.GkpParams(sub, delta, eps_k=eps), n)
            beyond = [s for s, _ in peaks if math.sqrt(2.0) * abs(s) > x_allow]
            assert beyond == [], (sub, eps, beyond)


class TestParseStateInputRule:
    @pytest.mark.parametrize("n", [128, 192, 256, 448])
    @pytest.mark.parametrize("delta", [0.3, 0.4, 0.5])
    @pytest.mark.parametrize("label", ["z+", "z-", "x+", "y+"])
    def test_gate_input_keeps_representable_peaks(self, label, delta, n):
        # the grid inputs the benchmark builds, and criteria 7 and 9 with it
        eps = st.representable_peak_cutoff(st.GkpParams(label, delta, eps_k=1e-8), 0.1, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fk.TruncationWarning)
            want = st.gkp_state(st.GkpParams(label, delta, eps_k=eps), n)
            got = st.parse_state(f"gkp:{label}:{delta}", n, 0.1)
        assert np.array_equal(got.vector, want.vector)

    @pytest.mark.parametrize("selector, params", [
        ("gkp:z+:0.3", st.GkpParams("z+", 0.3)),
        ("gkp:z-:0.4", st.GkpParams("z-", 0.4)),
        ("gkp:y-:0.5", st.GkpParams("y-", 0.5)),
        ("gkp:x+:0.3:standard-lattice", st.GkpParams("x+", 0.3, convention="standard-lattice")),
    ])
    def test_without_gamma_every_peak_is_kept(self, selector, params):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fk.TruncationWarning)
            assert np.array_equal(st.parse_state(selector, 256, 0.0).vector,
                                  st.gkp_state(params, 256).vector)

    def test_refusal_names_the_gate_window(self):
        # at N = 32 a gamma = 0.1 gate represents x <= 2.35; every z- peak of
        # delta = 0.5 lies beyond, at |x| = sqrt(2 pi) = 2.51
        x_allow = (math.sqrt(1.0 + 12.0 * 0.1 * (math.sqrt(64.0) - 4.0)) - 1.0) / 0.6
        want = (f"bad state selector 'gkp:x+:0.5': delta = 0.5 keeps no z- grid peak within "
                f"x = {x_allow:.3g}, the largest position a gamma = 0.1 gate represents at N = 32")
        with pytest.raises(ValueError) as info:
            st.parse_state("gkp:x+:0.5", 32, 0.1)
        assert str(info.value) == want
        with pytest.warns(fk.TruncationWarning, match="outermost grid peak"):
            assert st.parse_state("gkp:x+:0.5", 32, 0.0).dim == 32


class TestParseState:
    def test_selectors(self):
        n = 160
        assert fk.fidelity(fk.vacuum(n), st.parse_state("vacuum", n, 0.0)) == 1.0
        assert fk.fidelity(fk.fock_state(n, 3), st.parse_state("fock:3", n, 0.0)) == 1.0
        sv = st.parse_state("squeezed:0.5", n, 0.0)
        assert abs(fk.variance(fk.momentum(n), sv) - 0.125) < 1e-6
        with pytest.warns(fk.TruncationWarning, match="outermost grid peak"):
            zp = st.parse_state("gkp:z+:0.5", n, 0.0)
            assert fk.fidelity(st.gkp_state(st.GkpParams("z+", 0.5), n), zp) > 1 - 1e-12
        std = st.parse_state("gkp:z+:0.5:standard-lattice", n, 0.0)
        assert std.dim == n

    def test_bad_selectors(self):
        for sel in ("nope", "fock:x", "gkp:z+", "squeezed:-1"):
            with pytest.raises(ValueError):
                st.parse_state(sel, 32, 0.0)
