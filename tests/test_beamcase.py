import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import nistab as ns
from nistab import beamcase
from nistab.beamcase import _beam_response, _beta, _d_prime, _numerator_at
from nistab.errors import (
    InsufficientRangeError,
    NistabError,
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


class TestRootScanScale:
    """D depends on the arm only through beta l and I_h / (mu l^3): scaling
    EI by f moves no root in beta l and multiplies every w by sqrt(f)."""

    @pytest.mark.parametrize("factor", [1e-8, 100.0])
    def test_roots_and_poles_scale_with_sqrt_stiffness(self, beam_params, beam_roots,
                                                       factor):
        scaled = replace(beam_params,
                         stiffness_correction=beam_params.stiffness_correction * factor)
        ratio = np.sqrt(factor)
        np.testing.assert_allclose(ns.find_modal_roots(scaled, 11),
                                   beam_roots * ratio, rtol=1e-10, atol=0.0)
        mm, ref = ns.finite_dim_approx(scaled, 10), ns.finite_dim_approx(beam_params, 10)
        np.testing.assert_allclose([q for q, _ in mm.terms],
                                   [q * ratio for q, _ in ref.terms], rtol=1e-10, atol=0.0)
        # G(j ratio w) of the scaled arm is G(jw) / factor, so the modal
        # coefficients of C / (s^2 + p^2) and C0 / s^2 do not move
        for (_, C), (_, C_ref) in zip(mm.terms, ref.terms):
            assert np.linalg.norm(C - C_ref) <= 1e-8 * np.linalg.norm(C_ref)
        assert np.linalg.norm(mm.g2 - ref.g2) <= 1e-8 * np.linalg.norm(ref.g2)

    @pytest.mark.parametrize("factor", [1e-8, 1.0, 100.0])
    def test_omega_max_below_the_count(self, beam_params, beam_roots, factor):
        scaled = replace(beam_params,
                         stiffness_correction=beam_params.stiffness_correction * factor)
        ratio = np.sqrt(factor)
        with pytest.raises(InsufficientRangeError):
            ns.find_modal_roots(scaled, 3, omega_max=5.0 * ratio)
        three = ns.find_modal_roots(scaled, 3, omega_max=1.01 * beam_roots[2] * ratio)
        np.testing.assert_allclose(three, beam_roots[:3] * ratio, rtol=1e-10, atol=0.0)


def test_no_scipy_optimize_import(tmp_path):
    """The beam steps run without scipy.optimize: a fresh interpreter that
    imports nistab and calls each of them never loads it."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import nistab as ns\n"
        "p = ns.BeamParameters()\n"
        "w = ns.find_modal_roots(p, 2)\n"
        "ns.modal_residue(p, float(w[0]))\n"
        "ns.finite_dim_approx(p, 2)\n"
        "ns.emit_residue_scan(p, 10.0, np.array([1.0, float(w[0])]))\n"
        "ns.beam_tf(p, 2j)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
    )
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(ns.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


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

    @pytest.mark.parametrize("n", [10, 40])
    def test_ratio_form_matches_bare_products(self, beam_params, n):
        """Reference: the partial-fraction rule with k and the bare products,
        finite below 44 modes; the ratio form regroups the same factors."""
        mm = ns.finite_dim_approx(beam_params, n)
        poles = np.array([pi for pi, _C in mm.terms])
        w0 = mm.meta["omega0"]
        k = float(np.real(ns.d_of_s(beam_params, 1j * w0))) / (
            -w0 ** 2 * np.prod(poles ** 2 - w0 ** 2))
        N = _numerator_at(beam_params, np.concatenate([[0.0], poles]),
                          np.concatenate([[2.0 * w0], 1e-5 * poles]))
        gaps = poles ** 2 - poles[:, None] ** 2
        np.fill_diagonal(gaps, 1.0)
        ref = [Ni / (k * np.prod(g) * -pi ** 2) for Ni, g, pi in zip(N[1:], gaps, poles)]
        for (_p, Ci), R in zip(mm.terms, ref):
            np.testing.assert_allclose(Ci, 0.5 * (R + R.T), rtol=0,
                                       atol=1e-13 * np.abs(R).max())
        # C0 also loses the negative eigenvalue dust (within 1e-6 of its norm)
        R0 = N[0] / (k * np.prod(poles ** 2))
        np.testing.assert_allclose(mm.g2, 0.5 * (R0 + R0.T), rtol=0,
                                   atol=1e-6 * np.abs(R0).max())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sixty_modes_stay_finite(self, beam_params):
        """The bare products prod p_j^2 and prod (p_j^2 - p_i^2) overflow from
        44 modes; the coefficients are formed from ratios instead."""
        mm = ns.finite_dim_approx(beam_params, 60)
        coeffs = [mm.g2] + [Ci for _p, Ci in mm.terms]
        assert all(np.isfinite(Ci).all() for Ci in coeffs)
        for Ci in coeffs:
            assert np.linalg.eigvalsh(Ci)[0] >= -1e-8 * np.linalg.norm(Ci)
        # the rigid pair and 59 oscillatory pairs: the 60th coefficient
        # (1.4e-9) is below modal_to_ss's rank floor 1e-10 (1 + max ||C_i||)
        assert ns.modal_to_ss(mm).n == 120

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_coefficient_rejected(self, beam_params):
        """From 222 modes N = G D overflows at the top modes (29 NaN terms at
        250): the first non-finite coefficient is named, not returned."""
        mm = ns.finite_dim_approx(beam_params, 221)
        assert all(np.isfinite(Ci).all() for _p, Ci in mm.terms)
        for n in (222, 250):
            with pytest.raises(NistabError, match="mode 222 "):
                ns.finite_dim_approx(beam_params, n)


class TestResidueScan:
    def test_value_at_root_consistent_with_residue(self, beam_params, beam_roots):
        w0 = float(beam_roots[0])
        (w, val), = ns.emit_residue_scan(beam_params, 1.0, np.array([w0]))
        K = ns.modal_residue(beam_params, w0)
        dp = _d_prime(beam_params, w0, 1e-5 * w0)
        target = dp ** 2 * np.linalg.eigvalsh(K)[0]
        scale = dp ** 2 * np.linalg.norm(K)
        assert abs(val - target) <= 1e-6 * scale

    def test_values_a_few_ulps_off_a_root(self, beam_params, beam_roots):
        """Next to a root the boundary solve loses N = G D to cancellation;
        the scan moves such points off the root, so its value stays the
        root's D'^2 lambda_min(K) a few ulps either side."""
        for w0 in beam_roots[:3]:
            w0 = float(w0)
            K = ns.modal_residue(beam_params, w0)
            dp = _d_prime(beam_params, w0, 1e-5 * w0)
            target = dp ** 2 * np.linalg.eigvalsh(K)[0]
            scale = dp ** 2 * np.linalg.norm(K)
            grid = [w0]
            for n in (1, 2, 5, 50):
                for way in (np.inf, -np.inf):
                    w = w0
                    for _ in range(n):
                        w = np.nextafter(w, way)
                    grid.append(w)
            for w, val in ns.emit_residue_scan(beam_params, 1.0, np.array(grid)):
                assert abs(w / w0 - 1.0) <= 2e-7
                assert abs(val - target) <= 1e-6 * scale
            assert_scan_matches_per_point(beam_params, grid, gamma=1.0)

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


def test_beta_and_d_of_s_elementwise(beam_params):
    s = np.array([1j * 2.0, 3.0 + 0j, 1.0 + 1.0j, -2.0 + 0.5j, 1j * 8.3, 1j * 250.0])
    b, d = _beta(beam_params, s), ns.d_of_s(beam_params, s)
    assert b.shape == d.shape == s.shape
    for k, sk in enumerate(s):
        bk, dk = _beta(beam_params, sk), ns.d_of_s(beam_params, sk)
        assert np.ndim(bk) == np.ndim(dk) == 0
        assert isinstance(bk, complex) and isinstance(dk, complex)
        # the array loops may round sin/cos in the last place differently
        assert abs(bk - b[k]) <= 1e-15 * abs(b[k])
        assert abs(dk - d[k]) <= 1e-14 * abs(d[k])
    assert isinstance(_beta(beam_params, 2j), complex)
    assert isinstance(ns.d_of_s(beam_params, 2j), complex)


def per_point_scan(p, gamma, omegas):
    """Reference for emit_residue_scan: one beam_tf, d_of_s and _d_prime per
    grid point, with the scale of the scanned matrix for a relative bound.
    A point within 1e-7 relative of a root of D (|D| <= 1e-7 w |D'|), or on
    one, moves 1e-7 relative away from the root first (up, when D = 0)."""
    rows = []
    for w in omegas:
        if w <= 0.0:
            continue
        D, dp = complex(ns.d_of_s(p, 1j * w)), _d_prime(p, w, 1e-5 * w)
        try:
            G = ns.beam_tf(p, 1j * w).G
            near = abs(D) <= 1e-7 * w * abs(dp)
        except SingularAtSError:
            near = True
        if near:
            w = w * (1.0 - 1e-7 if D.real * dp < 0.0 else 1.0 + 1e-7)
            G = ns.beam_tf(p, 1j * w).G
            D, dp = complex(ns.d_of_s(p, 1j * w)), _d_prime(p, w, 1e-5 * w)
        Q = -dp * np.real(G * D) + gamma * abs(D) ** 2 * np.eye(2)
        scale = abs(dp) * np.linalg.norm(G) * abs(D) + gamma * abs(D) ** 2
        rows.append((w, np.linalg.eigvalsh(0.5 * (Q + Q.T))[0], scale))
    return rows


def assert_scan_matches_per_point(p, omegas, gamma=10.0):
    got = ns.emit_residue_scan(p, gamma, np.asarray(omegas, dtype=float))
    ref = per_point_scan(p, gamma, omegas)
    assert len(got) == len(ref)
    for (w, val), (w_ref, val_ref, scale) in zip(got, ref):
        assert isinstance(w, float) and isinstance(val, float)
        assert w == w_ref
        assert abs(val - val_ref) <= 1e-9 * scale
    return got


def switch_frequency(p):
    """w at which |beta l| = 6, where the propagation basis switches."""
    return 6.0 ** 2 / (p.l * (p.mu / p.EI) ** 0.25) ** 2


class TestBatchedEvaluation:
    """The batched boundary solve against the per-point evaluation."""

    def test_scan_across_the_basis_switch(self, beam_params):
        ws = switch_frequency(beam_params)
        grid = np.linspace(0.5 * ws, 2.0 * ws, 41)
        assert grid.min() < ws < grid.max()
        assert_scan_matches_per_point(beam_params, grid)

    def test_scan_point_on_a_root(self, beam_params, beam_roots):
        # a point on a root: the batch and the reference both move it 1e-7
        # relative away from the root
        w0 = float(beam_roots[0])
        assert_scan_matches_per_point(beam_params, [1.0, w0, 12.0])

    def test_one_point_scan(self, beam_params):
        (row,) = assert_scan_matches_per_point(beam_params, [4.2])
        assert row[0] == 4.2

    def test_nonpositive_points_skipped(self, beam_params):
        table = assert_scan_matches_per_point(
            beam_params, [-3.0, 0.0, 2.0, -0.5, 15.0, 0.0])
        assert [w for w, _ in table] == [2.0, 15.0]
        assert ns.emit_residue_scan(beam_params, 10.0, np.array([0.0, -1.0])) == []

    def test_singular_point_nudged_and_solved_again(self, beam_params, monkeypatch):
        """A member the stacked solve reports as singular (NaN) moves by 1e-7
        relative; the rest of the grid is unaffected."""
        solve, hit = beamcase._beam_response, 5.0

        def singular_at_hit(p, s):
            G = solve(p, s)
            G[np.asarray(s) == 1j * hit] = np.nan
            return G

        monkeypatch.setattr(beamcase, "_beam_response", singular_at_hit)
        table = ns.emit_residue_scan(beam_params, 10.0, np.array([2.0, hit, 12.0]))
        monkeypatch.undo()
        moved = hit * (1.0 + 1e-7)
        assert [w for w, _ in table] == [2.0, moved, 12.0]
        for (w, val), (_, val_ref, scale) in zip(
                table, per_point_scan(beam_params, 10.0, [2.0, moved, 12.0])):
            assert abs(val - val_ref) <= 1e-9 * scale

    def test_point_still_singular_after_nudge_raises(self, beam_params, monkeypatch):
        solve = beamcase._beam_response

        def singular_near_5(p, s):
            G = solve(p, s)
            G[np.abs(np.asarray(s) - 5j) < 1e-3] = np.nan
            return G

        monkeypatch.setattr(beamcase, "_beam_response", singular_near_5)
        with pytest.raises(SingularAtSError):
            ns.emit_residue_scan(beam_params, 10.0, np.array([2.0, 5.0]))

    def test_response_matches_beam_tf_across_the_switch(self, beam_params, beam_roots):
        ws = switch_frequency(beam_params)
        w = np.concatenate([np.geomspace(0.05, 260.0, 60),
                            ws * np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9]),
                            np.sqrt(beam_roots[:-1] * beam_roots[1:])])
        G = _beam_response(beam_params, 1j * w)
        assert G.shape == (w.size, 2, 2)
        for k, wk in enumerate(w):
            ref = ns.beam_tf(beam_params, 1j * float(wk)).G
            assert np.linalg.norm(G[k] - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_stencils_match_scalar_calls(self, beam_params, beam_roots):
        w = np.array([0.7, 3.0, float(beam_roots[0]), 9.0, 60.0])
        h = 1e-5 * np.maximum(1.0, w)
        N, dp = _numerator_at(beam_params, w, h), _d_prime(beam_params, w, h)
        assert N.shape == (w.size, 2, 2) and dp.shape == w.shape
        for k in range(w.size):
            Nk = _numerator_at(beam_params, float(w[k]), float(h[k]))
            dk = _d_prime(beam_params, float(w[k]), float(h[k]))
            assert Nk.shape == (2, 2) and np.ndim(dk) == 0
            assert np.linalg.norm(N[k] - Nk) <= 1e-9 * np.linalg.norm(Nk)
            assert abs(dp[k] - dk) <= 1e-9 * abs(dk)


# Values of the per-frequency solver that the batched one replaced (one
# 4x4 boundary solve per frequency, in a Python loop), default
# BeamParameters, numpy 2.4 / scipy 1.17, printed with %.15e.  Each row is
# (root, (K00, K01, K11)) of the symmetric 2x2 matrix.
PER_POINT_RESIDUES = [
    (3.395326443354295e+00, (2.127896203216088e-01, -2.713645753194506e-01, 3.460635562345935e-01)),
    (9.501801888145696e+00, (2.886490198704526e-01, 1.226466198476638e-03, 5.211240062261628e-06)),
    (1.708210072055826e+01, (1.387981382637557e-01, -1.892594517946791e-01, 2.580664304412782e-01)),
    (2.932863977778106e+01, (2.532721031674306e-02, 3.970994695263975e-02, 6.226030688974184e-02)),
    (4.701240954371963e+01, (5.321712691572632e-03, -2.816229832281411e-02, 1.490337965969369e-01)),
    (6.958326479743525e+01, (1.521508321773266e-03, 1.276919079180724e-02, 1.071648647228819e-01)),
    (9.684550721577511e+01, (5.425557936997663e-04, -8.443562399413067e-03, 1.314035290391338e-01)),
    (1.287332004588261e+02, (2.259779429616686e-04, 5.139938308705588e-03, 1.169094889131804e-01)),
    (1.652194936117822e+02, (1.055005296839538e-04, -3.656658753854306e-03, 1.267401527005828e-01)),
    (2.062916918972256e+02, (5.375177926002366e-05, 2.540190651384899e-03, 1.200438131390699e-01)),
    (2.519431144318073e+02, (2.934596575646642e-05, -1.915138850018760e-03, 1.249833399687301e-01)),
]
PER_POINT_G2_10 = (1.406822129313448e-01, 2.481357488064629e-08, 4.376626479837354e-15)
PER_POINT_TERMS_10 = [
    (3.395326443354295e+00, (1.443922332471856e+00, -1.841393250071524e+00, 2.348276652529066e+00)),
    (9.501801888145696e+00, (5.453979823167052e+00, 2.317389438321572e-02, 9.846559709864870e-05)),
    (1.708210072055826e+01, (4.654708088345511e+00, -6.346969145871170e+00, 8.654466955619485e+00)),
    (2.932863977778106e+01, (1.406331243636739e+00, 2.204954212653135e+00, 3.457096684650378e+00)),
    (4.701240954371963e+01, (4.342552875289684e-01, -2.298062233802177e+00, 1.216125671256456e+01)),
    (6.958326479743525e+01, (1.546938206509476e-01, 1.298260996629448e+00, 1.089559756347707e+01)),
    (9.684550721577511e+01, (5.651042792955158e-02, -8.794474779685204e-01, 1.368646274437878e+01)),
    (1.287332004588261e+02, (1.870973252345631e-02, 4.255586615338835e-01, 9.679463572206307e+00)),
    (1.652194936117822e+02, (4.797756764083495e-03, -1.662907221681785e-01, 5.763652815038041e+00)),
    (2.062916918972256e+02, (6.949730659110701e-04, 3.284289579423355e-02, 1.552082889337239e+00)),
]


def sym(entries):
    a, b, c = entries
    return np.array([[a, b], [b, c]])


def assert_close_rel(got, ref, rtol=1e-9):
    assert np.linalg.norm(got - ref) <= rtol * np.linalg.norm(ref)


def test_residues_match_per_point_values(beam_params, beam_roots):
    for w, (root, K_ref) in zip(beam_roots, PER_POINT_RESIDUES):
        assert w == pytest.approx(root, rel=1e-12)
        assert_close_rel(ns.modal_residue(beam_params, float(w)), sym(K_ref))


def test_ten_mode_approximation_matches_per_point_values(beam_params):
    mm = ns.finite_dim_approx(beam_params, 10)
    assert_close_rel(mm.g2, sym(PER_POINT_G2_10))
    assert len(mm.terms) == len(PER_POINT_TERMS_10)
    for (pole, C), (pole_ref, C_ref) in zip(mm.terms, PER_POINT_TERMS_10):
        assert isinstance(pole, float) and pole == pytest.approx(pole_ref, rel=1e-12)
        assert_close_rel(C, sym(C_ref))
