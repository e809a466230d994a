import math
import warnings

import numpy as np
import pytest

from kerrcubic import fock as fk
from kerrcubic import states as st


def parity_reflected(psi):
    signs = np.where(np.arange(psi.dim) % 2 == 0, 1.0, -1.0)
    return fk.PureState(signs * psi.vector, normalize=False)


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
            base = fk.squeeze(math.log(0.3), n) @ fk.vacuum(n)
            vec = sum(
                w * (fk.displacement(s, n).matrix @ base.vector)
                for s, w in st._gkp_displacements(params)
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
            shifted = fk.displacement(math.sqrt(math.pi), n) @ zp
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


class TestIdealCubicGate:
    def test_zero_angle_identity(self):
        u = st.ideal_cubic_gate(0.0, 32).matrix
        assert np.abs(u - np.eye(32)).max() < 1e-12

    def test_commutes_with_position(self):
        n = 128
        u = st.ideal_cubic_gate(0.1, n).matrix
        x = fk.position(n).matrix
        d = fk.interior_dim(n)
        comm = u @ x - x @ u
        assert np.abs(comm[:d, :d]).max() < 1e-8

    def test_inverse_pair(self):
        n = 96
        u = st.ideal_cubic_gate(0.1, n).matrix @ st.ideal_cubic_gate(-0.1, n).matrix
        assert np.abs(u - np.eye(n)).max() < 1e-9

    def test_composition(self):
        n = 96
        d = fk.interior_dim(n)
        twice = st.ideal_cubic_gate(0.07, n).matrix @ st.ideal_cubic_gate(0.07, n).matrix
        once = st.ideal_cubic_gate(0.14, n).matrix
        assert np.abs((twice - once)[:d, :d]).max() < 1e-9


    def test_repeated_call_still_warns(self):
        for _ in range(2):
            with pytest.warns(fk.TruncationWarning):
                st.ideal_cubic_gate(500.0, 32)


class TestIdealCubicTarget:
    def test_equals_gate_applied_to_input(self):
        n = 96
        psi = st.squeezed_vacuum(0.5, n)
        ref = st.ideal_cubic_gate(0.1, n) @ psi
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
        out = st.ideal_cubic_gate(0.1, n) @ st.squeezed_vacuum(0.5, n)
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
            after = st.nlq_variance(u @ psi, gamma)
            assert abs(after - before) < 1e-5

    def test_nonnegative(self):
        assert st.nlq_variance(fk.fock_state(32, 2), 0.3) >= 0.0


class TestTargetSpec:
    def test_bundles_input_and_angle(self):
        psi = fk.vacuum(32)
        spec = st.TargetSpec(psi, 0.1)
        assert spec.input is psi and spec.gamma == 0.1

    def test_rejects_nonfinite_angle(self):
        with pytest.raises(ValueError):
            st.TargetSpec(fk.vacuum(8), math.inf)


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


class TestParseState:
    def test_selectors(self):
        n = 160
        assert fk.fidelity(fk.vacuum(n), st.parse_state("vacuum", n)) == 1.0
        assert fk.fidelity(fk.fock_state(n, 3), st.parse_state("fock:3", n)) == 1.0
        sv = st.parse_state("squeezed:0.5", n)
        assert abs(fk.variance(fk.momentum(n), sv) - 0.125) < 1e-6
        zp = st.parse_state("gkp:z+:0.5", n)
        assert fk.fidelity(st.gkp_state(st.GkpParams("z+", 0.5), n), zp) > 1 - 1e-12
        std = st.parse_state("gkp:z+:0.5:standard-lattice", n)
        assert std.dim == n

    def test_bad_selectors(self):
        for sel in ("nope", "fock:x", "gkp:z+", "squeezed:-1"):
            with pytest.raises(ValueError):
                st.parse_state(sel, 32)
