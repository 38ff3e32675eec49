import numpy as np
import pytest
import scipy.linalg

import nistab as ns
from nistab.beamcase import _beta, _d_prime
from nistab.errors import (
    InsufficientRangeError,
    NotARootError,
    SingularAtSError,
)

TABLE_ROOTS = np.array([3.395326441, 9.501801884, 17.08210071, 29.32863976,
                        47.01240951, 96.84550724, 128.7332003, 165.2195349,
                        206.2898971, 251.9420283])


class TestCharacteristicFunction:
    def test_real_on_imaginary_axis(self, beam_params):
        for w in (0.5, 2.0, 11.0, 40.0, 200.0):
            d = ns.d_of_s(beam_params, 1j * w)
            assert abs(d.imag) <= 1e-12 * max(1.0, abs(d))

    def test_zero_at_origin(self, beam_params):
        assert ns.d_of_s(beam_params, 0.0) == 0.0

    def test_vanishes_at_first_root(self, beam_params):
        d = ns.d_of_s(beam_params, 1j * 3.395326441)
        scale = abs(ns.d_of_s(beam_params, 1j * 3.0))
        assert abs(d) <= 1e-7 * scale


class TestModalRoots:
    def test_first_five_match_benchmark(self, beam_roots):
        np.testing.assert_allclose(beam_roots[:5], TABLE_ROOTS[:5], rtol=1e-4)

    def test_benchmark_rows_reproduced_to_1e4(self, beam_roots):
        # the model has one root (near 69.58) that the benchmark table skips;
        # every tabulated root must be matched by a computed one
        for w_ref in TABLE_ROOTS:
            nearest = beam_roots[np.argmin(np.abs(beam_roots - w_ref))]
            assert abs(nearest - w_ref) <= 1e-4 * w_ref

    def test_extra_root_between_rows_five_and_six(self, beam_roots):
        assert 69.5 < beam_roots[5] < 69.7

    def test_sorted_unique(self, beam_roots):
        assert np.all(np.diff(beam_roots) > 0)

    def test_insufficient_range(self, beam_params):
        with pytest.raises(InsufficientRangeError):
            ns.find_modal_roots(beam_params, 3, omega_max=5.0)


class TestBeamTransferMatrix:
    def test_reciprocal_and_real_on_axis(self, beam_params, beam_roots):
        mids = np.sqrt(beam_roots[:-1] * beam_roots[1:])  # between resonances
        for w in list(mids[:8]) + [0.37, 1.1]:
            G = ns.beam_tf(beam_params, 1j * float(w)).G
            assert np.all(np.isfinite(G))
            assert np.linalg.norm(G - G.T) <= 1e-8 * np.linalg.norm(G)
            assert np.linalg.norm(G.imag) <= 1e-10 * np.linalg.norm(G)

    def test_rigid_body_limit(self, beam_params):
        lim = (1e-4) ** 2 * ns.beam_tf(beam_params, 1e-4 + 0j).G
        np.testing.assert_allclose(np.real(lim), [[0.14, 0.0], [0.0, 0.0]],
                                   atol=1e-2)

    def test_rigid_limit_equals_inverse_total_inertia(self, beam_params):
        """Independent analytic oracle: lim s^2 G_11 = 1/(I_h + mu l^3/3)."""
        lim = (1e-5) ** 2 * ns.beam_tf(beam_params, 1e-5 + 0j).G
        assert lim[0, 0].real == pytest.approx(1.0 / beam_params.total_inertia,
                                               rel=1e-6)

    def test_origin_rejected(self, beam_params):
        with pytest.raises(SingularAtSError):
            ns.beam_tf(beam_params, 0.0)

    def test_propagation_bases_agree_at_crossover(self, beam_params):
        # |beta l| = 6 sits near w = 8.33; the two solver branches must join
        # continuously across the switch
        w = 6.0 ** 2 / (beam_params.l * (beam_params.mu / beam_params.EI) ** 0.25) ** 2
        G1 = ns.beam_tf(beam_params, 1j * (w * (1.0 - 1e-6))).G
        G2 = ns.beam_tf(beam_params, 1j * (w * (1.0 + 1e-6))).G
        assert np.linalg.norm(G1 - G2) <= 1e-4 * np.linalg.norm(G1)

    def test_against_independent_propagation(self, beam_params):
        """Dual route: literal matrix-exponential propagation of the
        fourth-order state, solved without the normalized basis."""
        p = beam_params
        for w in (0.8, 4.7, 12.0):
            s = 1j * w
            beta4 = float(p.mu * w * w / p.EI)
            Abar = np.zeros((4, 4))
            Abar[0, 1] = Abar[1, 2] = Abar[2, 3] = 1.0
            Abar[3, 0] = beta4
            Phi = scipy.linalg.expm(Abar * p.l)
            ca = cs = p.voltage_gain

            def solve(tau, Va):
                M = np.zeros((3, 3), dtype=complex)
                rhs = np.zeros(3, dtype=complex)
                M[0] = [-p.hub_inertia * s * s, p.EI, 0.0]
                rhs[0] = -tau
                M[1] = Phi[2, 1:4]
                rhs[1] = ca * Va / p.EI - Phi[2, 2] * ca * Va / p.EI
                M[2] = Phi[3, 1:4]
                rhs[2] = -Phi[3, 2] * ca * Va / p.EI
                v = np.linalg.solve(M, rhs)
                z0 = np.array([0.0, v[0], v[1], v[2]], dtype=complex)
                z0[2] += ca * Va / p.EI
                zL = Phi @ z0
                return v[0], cs * (zL[1] - v[0])

            t1, v1 = solve(1.0, 0.0)
            t2, v2 = solve(0.0, 1.0)
            ref = np.array([[t1, t2], [v1, v2]])
            got = ns.beam_tf(p, s).G
            assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)


class TestModalResidues:
    def test_first_mode_psd_rank_one(self, beam_params, beam_roots):
        K = ns.modal_residue(beam_params, float(beam_roots[0]))
        w = np.linalg.eigvalsh(K)
        assert w[0] >= -1e-9          # PSD
        assert w[-1] > 0.3            # nonzero modal strength
        assert abs(np.linalg.det(K)) <= 1e-8 * w[-1] ** 2  # rank one

    def test_all_benchmark_modes_psd(self, beam_params, beam_roots):
        for w0 in beam_roots[:10]:
            K = ns.modal_residue(beam_params, float(w0))
            assert np.linalg.eigvalsh(K)[0] >= -1e-8 * max(

                1.0, np.linalg.norm(K))

    def test_mode_shape_direction_matches_realization(self, beam_params,
                                                      beam_roots, arm_plant):
        """The rational approximation's residue at the retained mode must
        point along the same (rank-one) mode-shape direction as the beam's.
        The magnitudes differ by the documented product-calibration factor,
        so only the direction is pinned."""
        K_beam = ns.modal_residue(beam_params, float(beam_roots[0]))
        K_ss = ns.imaginary_axis_residue(arm_plant, float(beam_roots[0]))
        K_ss = np.real(0.5 * (K_ss + K_ss.conj().T))
        _, v1 = np.linalg.eigh(K_beam)
        _, v2 = np.linalg.eigh(K_ss)
        alignment = abs(float(v1[:, -1] @ v2[:, -1]))
        assert alignment >= 1.0 - 1e-6

    def test_not_a_root(self, beam_params):
        with pytest.raises(NotARootError):
            ns.modal_residue(beam_params, 5.0)


class TestFiniteDimApprox:
    def test_rigid_coefficient_close_to_limit(self, beam_params):
        mm = ns.finite_dim_approx(beam_params, 1)
        np.testing.assert_allclose(mm.g2, [[0.14, 0.0], [0.0, 0.0]], atol=0.014)
        assert np.linalg.eigvalsh(mm.g2)[0] >= -1e-12

    def test_model_is_ni(self, arm_plant):
        assert ns.classify_ni(arm_plant).is_ni

    def test_coefficients_symmetric_psd(self, beam_params):
        mm = ns.finite_dim_approx(beam_params, 2)
        for _p, Ci in mm.terms:
            np.testing.assert_allclose(Ci, Ci.T, atol=1e-12)
            assert np.linalg.eigvalsh(Ci)[0] >= -1e-8 * np.linalg.norm(Ci)

    def test_laurent_structural_identity(self, beam_params, arm_plant):
        mm = ns.finite_dim_approx(beam_params, 1)
        L = ns.laurent_coefficients(arm_plant)
        np.testing.assert_allclose(L.G2, mm.g2, atol=1e-9)
        assert np.linalg.norm(L.G1) <= 1e-9

    def test_first_pole_matches_root(self, beam_params, beam_roots):
        mm = ns.finite_dim_approx(beam_params, 1)
        assert mm.terms[0][0] == pytest.approx(float(beam_roots[0]), rel=1e-9)

    def test_tracks_beam_in_rigid_band(self, beam_params):
        """Truncation quality: in the band below p1/20 the approximation
        follows the transcendental model, improving with the mode count.

        (A 2 percent bound up to p_n/2 is unattainable for any truncated
        modal sum here: the discarded modes contribute an O(5%+) static
        offset for small n and the response crosses zeros inside the band.)
        """
        sups = []
        for n in (1, 2, 3):
            mm = ns.finite_dim_approx(beam_params, n)
            p1 = mm.terms[0][0]
            ws = np.geomspace(0.02, p1 / 20.0, 25)
            rel = []
            for w in ws:
                Gf = mm.evaluate(1j * w)
                Gb = ns.beam_tf(beam_params, 1j * float(w)).G
                rel.append(np.linalg.norm(Gf - Gb) / np.linalg.norm(Gb))
            sups.append(max(rel))
        assert sups[0] <= 0.04
        assert sups[2] < sups[1] < sups[0]


class TestResidueScan:
    def test_value_at_root_consistent_with_residue(self, beam_params, beam_roots):
        w0 = float(beam_roots[0])
        (w, val), = ns.emit_residue_scan(beam_params, 1.0, np.array([w0]))
        K = ns.modal_residue(beam_params, w0)
        dp = _d_prime(beam_params, w0, 1e-5 * w0)
        target = dp ** 2 * np.linalg.eigvalsh(K)[0]
        scale = dp ** 2 * np.linalg.norm(K)
        assert abs(val - target) <= 1e-6 * scale

    def test_far_from_roots_gamma_dominates(self, beam_params):
        w = 6.0  # between the first two resonances
        gamma = 1e9
        (_, val), = ns.emit_residue_scan(beam_params, gamma, np.array([w]))
        D = ns.d_of_s(beam_params, 1j * w)
        assert val >= 0.5 * gamma * abs(D) ** 2

    def test_full_scan_nonnegative(self, beam_params):
        """With the default weight (10) the positivity scan stays above zero
        over the whole band; at its low-frequency edge the weighted D^2 term
        must dominate the indefinite off-resonance mixing, which a unit
        weight does not achieve."""
        table = ns.emit_residue_scan(beam_params, 10.0,
                                     np.geomspace(0.1, 260.0, 220))
        for w, val in table:
            D = abs(ns.d_of_s(beam_params, 1j * w))
            dp = abs(_d_prime(beam_params, w, 1e-5 * max(1.0, w)))
            N = np.linalg.norm(ns.beam_tf(beam_params, 1j * w).G) * D
            scale = dp * N + 10.0 * D * D
            assert val >= -1e-6 * max(scale, 1e-12)


def test_parameter_json_round_trip(beam_params):
    d = beam_params.to_dict()
    back = ns.BeamParameters.from_dict(d)
    assert back == beam_params
    with pytest.raises(Exception):
        ns.BeamParameters.from_dict({"bogus": 1.0})


def test_beta_principal_branch(beam_params):
    for s in (1j * 2.0, 3.0 + 0j, 1.0 + 1.0j, -2.0 + 0.5j):
        b = _beta(beam_params, s)
        assert b.real >= -1e-12
