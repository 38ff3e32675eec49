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
    DimensionError,
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
        # about 650 roots lie below beta l = 2048, where the scan gives up
        with pytest.raises(InsufficientRangeError, match="only 6[0-9][0-9] roots below"):
            ns.find_modal_roots(beam_params, 700)

    @pytest.mark.parametrize("count", [2.5, True, "3", 0, -1])
    def test_count_must_be_a_positive_integer(self, beam_params, count):
        with pytest.raises(DimensionError, match="mode count must be an integer"):
            ns.find_modal_roots(beam_params, count)
        with pytest.raises(DimensionError, match="mode count must be an integer"):
            ns.finite_dim_approx(beam_params, count)

    def test_numpy_integer_count_accepted(self, beam_params, beam_roots):
        np.testing.assert_array_equal(ns.find_modal_roots(beam_params, np.int64(3)),
                                      beam_roots[:3])
        mm = ns.finite_dim_approx(beam_params, np.int64(3))
        assert len(mm.terms) == 3 and type(mm.meta["n_modes"]) is int


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
            G = ns.beam_tf(beam_params, 1j * float(w))
            assert np.all(np.isfinite(G))
            assert np.linalg.norm(G - G.T) <= 1e-8 * np.linalg.norm(G)
            assert np.linalg.norm(G.imag) <= 1e-10 * np.linalg.norm(G)

    def test_rigid_body_limit(self, beam_params):
        lim = (1e-4) ** 2 * ns.beam_tf(beam_params, 1e-4 + 0j)
        np.testing.assert_allclose(np.real(lim), [[0.14, 0.0], [0.0, 0.0]],
                                   atol=1e-2)

    def test_rigid_limit_equals_inverse_total_inertia(self, beam_params):
        """Independent analytic oracle: lim s^2 G_11 = 1/(I_h + mu l^3/3)."""
        lim = (1e-5) ** 2 * ns.beam_tf(beam_params, 1e-5 + 0j)
        assert lim[0, 0].real == pytest.approx(1.0 / beam_params.total_inertia,
                                               rel=1e-6)

    def test_origin_rejected(self, beam_params):
        with pytest.raises(SingularAtSError):
            ns.beam_tf(beam_params, 0.0)

    def test_propagation_bases_agree_at_crossover(self, beam_params):
        # |beta l| = 6 sits near w = 8.33; the two solver branches must join
        # continuously across the switch
        w = 6.0 ** 2 / (beam_params.l * (beam_params.mu / beam_params.EI) ** 0.25) ** 2
        G1 = ns.beam_tf(beam_params, 1j * (w * (1.0 - 1e-6)))
        G2 = ns.beam_tf(beam_params, 1j * (w * (1.0 + 1e-6)))
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
            got = ns.beam_tf(p, s)
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

    @pytest.mark.parametrize("omega0", [0.0, -3.395])
    def test_non_positive_frequency_is_not_a_root(self, beam_params, omega0):
        with pytest.raises(NotARootError, match="is not a positive frequency"):
            ns.modal_residue(beam_params, omega0)

    def test_nearest_root_too_far_is_not_a_root(self, beam_params, beam_roots):
        # the root lies inside the bracket omega0 (1 -+ 5e-4), but 1e-4 away
        with pytest.raises(NotARootError, match="nearest root 3.395326443 is 3.40e-04 away"):
            ns.modal_residue(beam_params, float(beam_roots[0]) * (1.0 + 1e-4))


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
                Gb = ns.beam_tf(beam_params, 1j * float(w))
                rel.append(np.linalg.norm(Gf - Gb) / np.linalg.norm(Gb))
            sups.append(max(rel))
        assert sups[0] <= 0.04
        assert sups[2] < sups[1] < sups[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sixty_modes_stay_finite(self, beam_params):
        mm = ns.finite_dim_approx(beam_params, 60)
        coeffs = [mm.g2] + [Ci for _p, Ci in mm.terms]
        assert all(np.isfinite(Ci).all() for Ci in coeffs)
        for Ci in coeffs:
            assert np.linalg.eigvalsh(Ci)[0] >= -1e-8 * np.linalg.norm(Ci)
        # the rigid pair and all 60 oscillatory pairs
        assert ns.modal_to_ss(mm).n == 122

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_coefficient_rejected(self, beam_params):
        """From 221 modes D' (and N = G D a little later) overflows at the top
        modes: the first non-finite coefficient is named, not returned."""
        mm = ns.finite_dim_approx(beam_params, 220)
        assert all(np.isfinite(Ci).all() for _p, Ci in mm.terms)
        for n in (221, 250):
            with pytest.raises(NistabError, match=r"mode 221 is not finite \(D' overflows\)"):
                ns.finite_dim_approx(beam_params, n)

    def test_terms_do_not_depend_on_the_mode_count(self, beam_params):
        small, big = (ns.finite_dim_approx(beam_params, n) for n in (40, 60))
        assert_close_rel(big.g2, small.g2, rtol=1e-12)
        for (p40, C40), (p60, C60) in zip(small.terms, big.terms[:40]):
            assert p60 == pytest.approx(p40, rel=1e-12)
            assert_close_rel(C60, C40, rtol=1e-12)

    @pytest.mark.parametrize("n", [40, 60])
    def test_many_mode_arm_stable_and_oracle_agrees(self, beam_params, paper_irc, n):
        rep = ns.run_analysis(ns.modal_to_ss(ns.finite_dim_approx(beam_params, n)),
                              paper_irc.realization)
        v = rep.verdict
        assert (v.outcome, v.theorem_used.value, v.branch.value) == (
            ns.Outcome.STABLE, "double_pole", "nsd")
        assert v.oracle_agrees is True

    @pytest.mark.parametrize("change", [{}, {"Ih": 0.1, "l": 1.3},
                                        {"rho": 5000.0, "E": 2e11, "I": 3e-9}])
    def test_d_of_s_rigid_limit(self, beam_params, change):
        """D(s) = 8 mu I_total s^2 + O(s^4), which gives C_0 = N(0) / (8 mu I_total)."""
        p = replace(beam_params, **change)
        w0 = float(ns.find_modal_roots(p, 1)[0]) / 100.0

        def ratio(w):
            return -float(np.real(ns.d_of_s(p, 1j * w))) / w ** 2

        limit = (4.0 * ratio(w0 / 2.0) - ratio(w0)) / 3.0
        assert limit == pytest.approx(8.0 * p.mu * p.total_inertia, rel=1e-9)


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
            N = np.linalg.norm(ns.beam_tf(beam_params, 1j * w)) * D
            scale = dp * N + 10.0 * D * D
            assert val >= -1e-6 * max(scale, 1e-12)


def test_parameter_json_round_trip(beam_params):
    d = beam_params.to_dict()
    back = ns.BeamParameters.from_dict(d)
    assert back == beam_params
    with pytest.raises(Exception):
        ns.BeamParameters.from_dict({"bogus": 1.0})



def test_parameters_are_finite_reals(beam_params):
    # ints and numpy scalars are real numbers, stored as floats; a negative
    # piezo coefficient is allowed, a negative length, a bool or a string not
    got = ns.BeamParameters.from_dict({"l": 2, "E": np.float64(69.0e9), "ts": np.int64(1),
                                       "k31": -0.5})
    assert (got.l, got.E, got.ts, got.k31) == (2.0, 69.0e9, 1.0, -0.5)
    assert type(got.l) is float and type(got.ts) is float
    for bad in ({"l": -1.0}, {"I": 0.0}, {"C": True}, {"C": np.bool_(True)}, {"C": "1"},
                {"ts": np.nan}, {"voltage_gain": -np.inf}, {"rho": 10 ** 400}, [("l", 1.0)]):
        with pytest.raises(DimensionError):
            ns.BeamParameters.from_dict(bad)

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
            G = ns.beam_tf(p, 1j * w)
            near = abs(D) <= 1e-7 * w * abs(dp)
        except SingularAtSError:
            near = True
        if near:
            w = w * (1.0 - 1e-7 if D.real * dp < 0.0 else 1.0 + 1e-7)
            G = ns.beam_tf(p, 1j * w)
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
            ref = ns.beam_tf(beam_params, 1j * float(wk))
            assert np.linalg.norm(G[k] - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_stencils_match_scalar_calls(self, beam_params, beam_roots):
        w = np.array([0.7, 3.0, float(beam_roots[0]), 9.0, 60.0])
        h = 1e-5 * np.maximum(1.0, w)
        N, dp = _numerator_at(beam_params, w, h)
        assert N.shape == (w.size, 2, 2) and dp.shape == w.shape
        np.testing.assert_array_equal(dp, _d_prime(beam_params, w, h))
        for k in range(w.size):
            Nk, dk = _numerator_at(beam_params, float(w[k]), float(h[k]))
            assert Nk.shape == (2, 2) and np.ndim(dk) == 0
            assert np.linalg.norm(N[k] - Nk) <= 1e-9 * np.linalg.norm(Nk)
            assert abs(dp[k] - dk) <= 1e-9 * abs(dk)


def _beam_response_stacked(p, s):
    """_beam_response as written before its decaying-exponential boundary
    system was assembled in place: each row stacked from its broadcast
    entries, and M stacked from the rows."""
    EI, Ih, L, ca = p.EI, p.hub_inertia, p.l, p.voltage_gain
    s = np.asarray(s, dtype=complex)
    beta = _beta(p, s)
    G = np.empty((s.size, 2, 2), dtype=complex)
    small = np.abs(beta * L) <= beamcase._BASIS_SWITCH
    if small.any():
        sk = s[small]
        Abar = np.zeros((sk.size, 4, 4), dtype=complex)
        Abar[:, 0, 1] = Abar[:, 1, 2] = Abar[:, 2, 3] = 1.0
        Abar[:, 3, 0] = beta[small] ** 4
        Phi = scipy.linalg.expm(Abar * L)
        M = np.zeros((sk.size, 3, 3), dtype=complex)
        M[:, 0, 0], M[:, 0, 1] = -Ih * sk * sk, EI
        M[:, 1:] = Phi[:, 2:, 1:]
        rhs = np.zeros((sk.size, 3, 2), dtype=complex)
        rhs[:, 0, 0] = -1.0
        rhs[:, 1:, 1] = np.array([ca / EI, 0.0]) - Phi[:, 2:, 2] * ca / EI
        z0 = np.zeros((sk.size, 4, 2), dtype=complex)
        z0[:, 1:] = beamcase._solve_scaled(M, rhs)
        z0[:, 2, 1] += ca / EI
        G[small, 0] = z0[:, 1]
        G[small, 1] = ca * ((Phi[:, 1:2] @ z0)[:, 0] - z0[:, 1])
    big = ~small
    if big.any():
        sk, bk = s[big], beta[big]
        bl = bk * L
        El = np.exp(-bl)
        S, Co = np.sin(bl), np.cos(bl)

        def row(*entries):
            return np.stack(np.broadcast_arrays(*entries), axis=-1).astype(complex)

        Yp0 = row(1, 0, -1, El)
        YpL = row(Co, -S, -El, 1)
        M = np.stack([
            row(0, 1, 1, El),
            (EI * bk ** 2)[:, None] * row(0, -1, 1, El)
            - (Ih * sk * sk * bk)[:, None] * Yp0,
            row(-S, -Co, El, 1),
            row(-Co, S, -El, 1),
        ], axis=1)
        rhs = np.zeros((sk.size, 4, 2), dtype=complex)
        rhs[:, 1] = [-1.0, ca]
        rhs[:, 2, 1] = ca / (EI * bk ** 2)
        c = beamcase._solve_scaled(M, rhs)
        theta = bk[:, None] * np.einsum("kj,kjc->kc", Yp0, c)
        G[big, 0] = theta
        G[big, 1] = ca * (bk[:, None] * np.einsum("kj,kjc->kc", YpL, c) - theta)
    return G


def test_in_place_assembly_bitwise_equal_to_stacked_rows(beam_params, beam_roots):
    """Every input the beam stages and the basis switch give: the stencils
    about the first 11 roots, finite_dim_approx's combined stencil at 10 and
    60 modes, the bench's 400-point scan grid, |beta l| a relative 1e-12 either
    side of the switch, off-axis points in both bases, and no point at all."""
    p = beam_params

    def stencil(w, h):
        return 1j * (w + np.multiply.outer(beamcase._STENCIL, h)).ravel()

    inputs = [stencil(w, 1e-5 * w) for w in beam_roots]
    for n in (10, 60):
        poles = ns.find_modal_roots(p, n)
        w0 = poles[0] / 100.0
        inputs.append(stencil(np.concatenate([[0.0], poles]),
                              np.concatenate([[2.0 * w0], 1e-5 * poles])))
    inputs.append(1j * np.linspace(0.1, 260.0, 400))
    bl = beamcase._BASIS_SWITCH * np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12])
    inputs.append(1j * beamcase._rad_per_bl2(p) * bl ** 2)
    ring = np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)
    inputs += [3.0 * ring, 60.0 * ring, np.array([], dtype=complex)]
    small = [(np.abs(_beta(p, s) * p.l) <= beamcase._BASIS_SWITCH).tolist() for s in inputs[-4:-1]]
    assert small == [[True, True, False], [True] * 16, [False] * 16]
    for s in inputs:
        got, ref = _beam_response(p, s), _beam_response_stacked(p, s)
        assert got.shape == (s.size, 2, 2)
        assert got.tobytes() == ref.tobytes()


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
    """C_i = 2 p_i K_i, and C_0 = lim s^2 G(s) = diag(1/total_inertia, 0)."""
    mm = ns.finite_dim_approx(beam_params, 10)
    assert_close_rel(mm.g2, np.diag([1.0 / beam_params.total_inertia, 0.0]), rtol=1e-6)
    assert len(mm.terms) == 10
    for (pole, C), (pole_ref, K_ref) in zip(mm.terms, PER_POINT_RESIDUES):
        assert isinstance(pole, float) and pole == pytest.approx(pole_ref, rel=1e-12)
        assert_close_rel(C, 2.0 * pole_ref * sym(K_ref))
