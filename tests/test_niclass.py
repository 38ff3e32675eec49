import itertools

import numpy as np
import pytest
import scipy.linalg

import nistab as ns
from nistab import ltimodel, niclass
from nistab.errors import (NonFiniteResponseError, NotAPoleError, NotMinimalError,
                           NotSimplePoleError)
from nistab.ltimodel import _spectral

from conftest import double_integrator, first_order_lag_minus, ladder_modal_models

EPS = np.finfo(float).eps


class TestClassifyNi:
    def test_double_integrator_is_ni(self):
        rep = ns.classify_ni(double_integrator())
        assert rep.is_ni
        np.testing.assert_allclose(np.real(rep.cond4_G2), [[1.0]], atol=1e-7)

    def test_negated_double_integrator_fails_condition4(self):
        # also beside a lossless mode w^2/(s^2 + w^2): j(G - G*) = 0 off the
        # poles, so only condition 4 refutes it, though S0's unit coupling
        # is 1/w of ||A||
        plants = [ns.StateSpaceModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                                     [[-1.0, 0.0]], [[0.0]])]
        for w in (1e7, 1e9):
            A = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0, w], [0.0, 0.0, -w, 0.0]])
            plants.append(ns.StateSpaceModel(
                A, [[0.0], [1.0], [0.0], [w]], [[-1.0, 0.0, 1.0, 0.0]], [[0.0]]))
        for m in plants:
            rep = ns.classify_ni(m)
            assert not rep.is_ni, m.n
            assert any("s^2" in r for r in rep.reasons), rep.reasons

    def test_case_study_plant_is_ni(self, arm_plant):
        rep = ns.classify_ni(arm_plant)
        assert rep.is_ni

    def test_rhp_pole_fails(self):
        m = ns.StateSpaceModel([[1.0]], [[1.0]], [[1.0]], [[0.0]])
        rep = ns.classify_ni(m)
        assert not rep.is_ni and rep.cond1_rhp_poles

    def test_negative_axis_residue_fails_condition3(self):
        # -1/(s^2 + 1): residue -1/2 at s = j
        m = ns.StateSpaceModel([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[-1.0, 0.0]])
        rep = ns.classify_ni(m)
        assert not rep.is_ni
        assert rep.reasons == ["residue at j*1 has eigenvalue -5.000e-01"]
        assert [r["simple"] for r in rep.to_dict()["cond3_residues"]] == [True]

    def test_defective_axis_pole_fails_condition3(self):
        # 1/(s^2 + 1)^2 in companion form: a double pole at s = j
        A = np.diag(np.ones(3), 1)
        A[3, 0], A[3, 2] = -1.0, -2.0
        m = ns.StateSpaceModel(A, [[0.0], [0.0], [0.0], [1.0]], [[1.0, 0.0, 0.0, 0.0]])
        rep = ns.classify_ni(m)
        assert not rep.is_ni
        assert len(rep.reasons) == 1
        assert rep.reasons[0].endswith("is defective (Jordan structure of size >= 2)")
        assert [r["simple"] for r in rep.to_dict()["cond3_residues"]] == [False]

    def test_non_hermitian_axis_residue_fails_condition3(self):
        # [1 1; 0 0]/(s^2 + 1): residue K = [1 1; 0 0]/2 at s = j, whose
        # Hermitian defect is 1/2^1/2; the residue is not dropped from the
        # sweep, which sees j(G - G*) = j(K - K^T) 2/(1 - w^2) beside the pole
        m = ns.StateSpaceModel([[0.0, 1.0], [-1.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]],
                               [[1.0, 0.0], [0.0, 0.0]])
        rep = ns.classify_ni(m)
        assert not rep.is_ni
        assert rep.reasons == ["j(G - G*) has eigenvalue -2.500e+03 at omega = 0.9998",
                               "residue at j*1 has Hermitian defect 7.071e-01",
                               "residue at j*1 has eigenvalue -1.036e-01"]

    def test_non_hermitian_double_pole_fails_condition4(self):
        # [1 e; 0 0]/s^2: lim s^2 G(s) is not Hermitian, whatever the sign of
        # its Hermitian part
        for e, worst in ((1.0, "-1.000e+06"), (1e-3, "-1.000e+03")):
            m = ns.StateSpaceModel([[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, e]],
                                   [[1.0, 0.0], [0.0, 0.0]])
            rep = ns.classify_ni(m)
            assert not rep.is_ni and rep.cond4_higher_order
            assert rep.reasons == [f"j(G - G*) has eigenvalue {worst} at omega = 0.001",
                                   "lim s^2 G(s) is not Hermitian"]

    def test_triple_origin_pole_fails(self):
        A = np.diag(np.ones(2), 1)
        m = ns.StateSpaceModel(A, [[0.0], [0.0], [1.0]], [[1.0, 0.0, 0.0]], [[0.0]])
        rep = ns.classify_ni(m)
        assert not rep.is_ni
        assert not rep.cond4_higher_order

    def test_higher_order_origin_chains_fail(self):
        # 1/s^5 passes conditions 1-3 (j(G - G*) = 2/w^5 > 0), so condition
        # 4 must see s^-k coefficients beyond s^-3 and s^-4
        for k in (4, 5, 6):
            A = np.diag(np.ones(k - 1), 1)
            B = np.zeros((k, 1))
            B[-1, 0] = 1.0
            C = np.zeros((1, k))
            C[0, 0] = 1.0
            rep = ns.classify_ni(ns.StateSpaceModel(A, B, C, [[0.0]]))
            assert not rep.is_ni and not rep.cond4_higher_order, k

    def test_higher_order_origin_pole_beside_fast_mode_fails(self):
        # 1/s^5 + w^2/(s^2 + w^2): on the contour |s| = w/3 the s^-5 term is
        # a share of about 3^5 / w^5 = 2e-8 of G, so the order must be read
        # from the realization
        w = 100.0
        A = np.zeros((7, 7))
        A[:4, 1:5] = np.eye(4)
        A[5, 6], A[6, 5] = w, -w
        B = np.zeros((7, 1))
        B[4, 0], B[6, 0] = 1.0, w
        C = np.zeros((1, 7))
        C[0, 0] = C[0, 5] = 1.0
        rep = ns.classify_ni(ns.StateSpaceModel(A, B, C, [[0.0]]))
        assert not rep.is_ni and not rep.cond4_higher_order

    def test_fast_mode_beside_double_integrator_is_ni(self):
        for w in (1e3, 1e5):
            A = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0, w], [0.0, 0.0, -w, 0.0]])
            rep = ns.classify_ni(ns.StateSpaceModel(
                A, [[0.0], [1.0], [0.0], [w]], [[1.0, 0.0, 1.0, 0.0]], [[0.0]]))
            assert rep.is_ni and rep.cond4_higher_order, w
            assert rep.cond4_G2[0, 0] == pytest.approx(1.0, rel=1e-6)

    def test_fast_mode_beside_partial_double_integrator_is_ni(self):
        # diag(1, 0)/s^2 + [1 1; 1 1] w^2/(s^2 + w^2): minimal and NI; read on
        # a tenth of w, the contour G2 drowned in rounding of size eps r^2 |G0|.
        # The unit coupling in S0 is 1/w of ||A||: a rank cut at the origin
        # cluster's radius, 1e-7 ||A||, dropped it from 1e7 rad/s on
        for w in (3e6, 1e7, 1e9):
            mm = ns.ModalModel(m=2, terms=((w, w * w * np.ones((2, 2))),),
                               g2=np.diag([1.0, 0.0]))
            G = ns.modal_to_ss(mm)
            rep = ns.classify_ni(G)
            assert rep.is_ni, (w, rep.reasons)
            np.testing.assert_allclose(np.real(rep.cond4_G2), np.diag([1.0, 0.0]),
                                       atol=1e-9)
            assert ns.laurent_coefficients(G).agreement <= 1e-9, w
            assert ns.to_block_diagonal(G).k == 1, w

    def test_single_pole_plants_under_ill_conditioned_transforms_are_ni(self):
        # G2 = 0 for these plants: condition 4 must not read rounding as a
        # negative eigenvalue of lim s^2 G(s)
        rejected = []
        for seed in range(60):
            for fam in ("single", "single_inv", "single_range"):
                G = ns.random_ni_plant(np.random.default_rng(seed), fam)[0]
                n = G.n
                trng = np.random.default_rng(1000 + seed)
                U, _ = np.linalg.qr(trng.normal(size=(n, n)))
                V, _ = np.linalg.qr(trng.normal(size=(n, n)))
                T = U @ np.diag(np.geomspace(1.0, 1e4, n)) @ V.T
                rep = ns.classify_ni(ns.similarity_transform(G, T))
                if not rep.is_ni:
                    rejected.append((seed, fam, rep.reasons))
        assert not rejected, rejected

    def test_condition4_reads_the_laurent_g2(self, arm_plant):
        np.testing.assert_array_equal(ns.classify_ni(arm_plant).cond4_G2,
                                      ns.laurent_coefficients(arm_plant).G2)

    def test_sweep_noise_under_floor_is_not_a_violation(self, monkeypatch):
        # a lossless plant has j(G - G*) = 0 off its poles; in a realization
        # with cond(T) = 1e4 the evaluated G falls below -COND2_RTOL (1 + ||G||)
        # beside the poles, and only the near-pole noise floor keeps the full
        # sweep of G (forced by a split condition limit of 0) from calling that
        # a violation.  Condition 2 is decided on the remainder, which for
        # these plants holds no axis pole, so no point falls below it.  The
        # lossy plant adds -0.1/(s + 1), a genuine violation of condition 2
        # whose exact worst value is -0.1 at w = 1
        from nistab.niclass import COND2_RTOL

        def under(model, rep):
            return min(me + COND2_RTOL * (1.0 + np.linalg.norm(ns.eval_tf(model, 1j * w), 2))
                       for w, me in rep.cond2_min_eig_by_freq)

        lossless, lossy = _scrambled_modes()
        with monkeypatch.context() as mp:
            mp.setattr(niclass, "TRANSFORM_COND_LIMIT", 0.0)
            rep = ns.classify_ni(lossless)
        assert rep.is_ni, rep.reasons
        assert under(lossless, rep) < 0.0
        rep = ns.classify_ni(lossless)
        assert rep.is_ni, rep.reasons
        assert under(lossless, rep) >= 0.0
        rep = ns.classify_ni(lossy)
        assert not rep.is_ni
        assert rep.reasons == ["j(G - G*) has eigenvalue -1.000e-01 at omega = 1"]
        w, me = rep.cond2_worst
        assert w == pytest.approx(1.0, rel=1e-12) and me == pytest.approx(-0.1, rel=1e-9)

    def test_axis_residues_on_ill_conditioned_realization(self):
        # with cond(T) = 1e5, eigvals(A) put the pole near j within the
        # cluster radius and a sorted Schur form of its own put it outside,
        # so classify_ni and stability_verdict raised NotAPoleError
        mm = ns.ModalModel(m=1, terms=((1.0, [[1.0]]), (3.0, [[2.0]]), (10.0, [[5.0]])))
        model = ns.modal_to_ss(mm)
        n = model.n
        rng = np.random.default_rng(0)
        U, _ = np.linalg.qr(rng.normal(size=(n, n)))
        V, _ = np.linalg.qr(rng.normal(size=(n, n)))
        T = U @ np.diag(np.geomspace(1.0, 1e-5, n)) @ V.T
        scrambled = ns.similarity_transform(model, T)
        rep = ns.classify_ni(scrambled)
        assert rep.is_ni, rep.reasons
        got = [K for (_w0, K, *_rest) in rep.cond3_residues]
        np.testing.assert_allclose(np.real(got), [[[0.5]], [[1 / 3]], [[0.25]]], rtol=1e-5)
        v = ns.stability_verdict(scrambled, first_order_lag_minus(2.0),
                                 ns.VerdictOptions(run_oracle=True))
        assert v.outcome is ns.Outcome.STABLE and v.oracle_agrees is True

    def test_requires_minimal(self):
        m = ns.StateSpaceModel(np.diag([-1.0, -2.0]), [[1.0], [0.0]],
                               [[1.0, 0.0]], [[0.0]])
        with pytest.raises(NotMinimalError):
            ns.classify_ni(m)

    def test_scaling_preserves_ni(self, rng):
        from nistab.freebody import random_ni_plant

        for alpha in (0.1, 3.0):
            for trial in range(4):
                model, _ = random_ni_plant(
                    np.random.default_rng(rng.integers(0, 2 ** 63)), "mixed")
                scaled = ns.StateSpaceModel(model.A, model.B,
                                            alpha * model.C, model.D)
                assert ns.classify_ni(scaled).is_ni

    def test_sweep_profile_nonnegative(self, arm_plant):
        rep = ns.classify_ni(arm_plant)
        for w, me in rep.cond2_min_eig_by_freq:
            assert me >= -1e-6 * (1.0 + abs(me))


class TestClassifySni:
    def test_first_order_lag(self):
        assert ns.classify_sni(first_order_lag_minus(0.0)).is_sni

    def test_paper_irc(self, paper_irc):
        assert ns.classify_sni(paper_irc.realization).is_sni

    def test_integrator_is_not_sni(self):
        m = ns.StateSpaceModel([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        rep = ns.classify_sni(m)
        assert not rep.is_sni and rep.closed_rhp_poles

    def test_static_gain_is_not_sni(self):
        gbar = ns.StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)),
                                  np.zeros((1, 0)), [[-2.0]])
        assert not ns.classify_sni(gbar).is_sni


def _refuted_ni():
    """One model refuted by each NI condition, some by several."""
    lossy = _scrambled_modes()[1]
    neg_residue = ns.StateSpaceModel([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[-1.0, 0.0]])
    A = np.diag(np.ones(3), 1)
    A[3, 0], A[3, 2] = -1.0, -2.0
    defective = ns.StateSpaceModel(A, [[0.0], [0.0], [0.0], [1.0]], [[1.0, 0.0, 0.0, 0.0]])
    skew_residue = ns.StateSpaceModel([[0.0, 1.0], [-1.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]],
                                      [[1.0, 0.0], [0.0, 0.0]])
    triple = ns.StateSpaceModel(np.diag(np.ones(2), 1), [[0.0], [0.0], [1.0]],
                                [[1.0, 0.0, 0.0]])
    skew_g2 = ns.StateSpaceModel([[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]],
                                 [[1.0, 0.0], [0.0, 0.0]])
    negated = ns.StateSpaceModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[-1.0, 0.0]])
    rhp = ns.StateSpaceModel([[1.0]], [[1.0]], [[1.0]])
    return [lossy, neg_residue, defective, skew_residue, triple, skew_g2, negated, rhp]


class TestConditionTwoRoutine:
    """Both tests decide condition 2 by ``_condition2``; each verdict is ``not reasons``."""

    def test_each_test_makes_one_call_on_a_ladder_rung(self, monkeypatch, paper_irc):
        # the NI test calls it once, not strict, on the rung's origin block;
        # the SNI test once, strict, on the controller's whole Schur triangle
        # on the base grid, ``_remainder(spec, (), False)``
        calls = []
        routine, remainder = niclass._condition2, niclass._remainder

        def counted(spec, poles, drop, strict):
            calls.append(strict)
            return routine(spec, poles, drop, strict)

        def swept(spec, poles, drop):
            got = remainder(spec, poles, drop)
            calls.append((got[0].shape[0], got[0] is spec.schur[0], got[4] is niclass._BASE_GRID))
            return got

        monkeypatch.setattr(niclass, "_condition2", counted)
        monkeypatch.setattr(niclass, "_remainder", swept)
        plant = ns.modal_to_ss(ladder_modal_models(1, (25,))[0])
        assert ns.classify_ni(plant).is_ni
        assert calls == [False, (4, False, True)]
        calls.clear()
        assert ns.classify_sni(paper_irc.realization).is_sni
        assert calls == [True, (2, True, True)]
        calls.clear()
        v = ns.run_analysis(plant, paper_irc.realization).verdict
        assert v.outcome is ns.Outcome.STABLE
        assert calls == [True, (2, True, True), False, (4, False, True)]

    def test_verdict_is_no_reason(self, arm_plant, paper_irc):
        # every report either test builds, passing or failing
        ni_models = [double_integrator(), arm_plant] + _refuted_ni()
        ni = [ns.classify_ni(m) for m in ni_models]
        assert [r.is_ni for r in ni] == [True, True] + [False] * (len(ni_models) - 2)
        static = ns.StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                                    [[-2.0]])
        lag = ns.StateSpaceModel([[-1.0]], [[1.0]], [[-1.0]])
        sni_models = [first_order_lag_minus(2.0), paper_irc.realization, static, lag] + ni_models
        sni = [ns.classify_sni(m) for m in sni_models]
        assert [r.is_sni for r in sni] == [True, True] + [False] * (len(sni_models) - 2)
        assert all(r.is_ni is (not r.reasons) for r in ni)
        assert all(r.is_sni is (not r.reasons) for r in sni)
        # the static gain and -1/(s + 1) are refuted by the sweep alone
        assert [r.reasons[0].split(":")[0] for r in sni[2:4]] == [
            "j(G - G*) not strictly positive"] * 2
        assert [r.closed_rhp_poles for r in sni[2:4]] == [[], []]


def _conditioned(model, cond, seed):
    """model under U diag(geomspace(1, cond, n)) V^T, U and V random orthogonal."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(model.n, model.n)))
    V, _ = np.linalg.qr(rng.normal(size=(model.n, model.n)))
    return ns.similarity_transform(model, U @ np.diag(np.geomspace(1.0, cond, model.n)) @ V.T)


def _scrambled_modes():
    """Three lossless modes, and the same beside -0.1/(s + 1), under cond(T) = 1e4."""
    mm = ns.ModalModel(m=1, terms=((1.0, [[1.0]]), (3.0, [[2.0]]), (10.0, [[5.0]])))
    lossless = ns.modal_to_ss(mm)
    lossy = ns.StateSpaceModel(
        scipy.linalg.block_diag(lossless.A, [[-1.0]]),
        np.vstack([lossless.B, [[1.0]]]), np.hstack([lossless.C, [[-0.1]]]), [[0.0]])
    rng = np.random.default_rng(0)
    out = []
    for model in (lossless, lossy):
        U, _ = np.linalg.qr(rng.normal(size=(model.n, model.n)))
        V, _ = np.linalg.qr(rng.normal(size=(model.n, model.n)))
        T = U @ np.diag(np.geomspace(1.0, 1e-4, model.n)) @ V.T
        out.append(ns.similarity_transform(model, T))
    return out


def _ni_draws():
    from nistab.freebody import random_ni_plant

    return [random_ni_plant(np.random.default_rng(seed), fam)[0]
            for seed, fam in enumerate(("single", "double", "mixed"))]


def _ni_plants(beam_params):
    """NI plants for the bound tests, with the lossy scrambled plant the one non-NI."""
    arm = [ns.modal_to_ss(ns.finite_dim_approx(beam_params, k)) for k in (1, 2, 5)]
    rungs = [ns.modal_to_ss(mm) for mm in ladder_modal_models(1, (10, 25))]
    return _scrambled_modes() + arm + rungs + _ni_draws()


class TestSweepBounds:
    """The bounds that let the sweeps skip exact SVDs decide as the SVDs would."""

    def _controllers(self, paper_irc):
        irc = paper_irc.realization
        return ([irc, _conditioned(irc, 1e6, 0)]
                + [ns.random_sni_controller(np.random.default_rng(seed), 1 + seed % 3).realization
                   for seed in range(20)])

    def test_floor_bound_is_above_noise_floor(self, paper_irc, beam_params):
        # the controllers on the SNI grid, and NI plants on theirs, off
        # their poles.  Not the draws under cond(T) = 1e3: there cond2 nears
        # 1e12 by the split origin pole, LAPACK's smallest singular value
        # carries a relative error near eps cond2, and the SVD's floor reads
        # up to 3e-6 above the bound, which itself is above the exact value
        # (FLOOR_CLEARANCE absorbs both)
        sweeps = [(m, ()) for m in self._controllers(paper_irc)]
        for model in _ni_plants(beam_params):
            spec = _spectral(model)
            clusters = niclass._axis_pole_clusters(spec.eigs, spec.ztol)
            sweeps.append((model, tuple(w for w, _ in clusters)))
        noise = 200.0 * np.finfo(float).eps
        for model, poles in sweeps:
            spec = _spectral(model)
            omegas = niclass._sweep_grid(poles)
            T, Z = spec.schur
            _, G = niclass._sweep_min_eigs(T, Z.conj().T @ spec.B, spec.C @ Z, spec.D, omegas)
            norm_f, norm = np.linalg.norm(G, axis=(1, 2)), np.linalg.svd(G, compute_uv=False)[:, 0]
            bound = noise * niclass._cond2_bound(T, spec.norm2, omegas) * (1.0 + norm_f)
            floor = noise * niclass._cond2(T, omegas) * (1.0 + norm)
            assert np.all(bound >= floor), model.n

    def test_hurwitz_controller_that_is_not_sni(self):
        rep = ns.classify_sni(ns.StateSpaceModel([[-1.0]], [[1.0]], [[-1.0]], [[0.0]]))
        assert not rep.is_sni and not rep.closed_rhp_poles
        assert rep.reasons == ["j(G - G*) not strictly positive: -1.000e+00 at omega = 1"]

    def test_fallback_matches_exact_floor_everywhere(self, paper_irc, monkeypatch):
        # the transformed IRCs have points the bound cannot clear; with a
        # bound that clears none, every point takes the exact SVD floor
        irc = paper_irc.realization
        models = [_conditioned(irc, cond, 0) for cond in (3e3, 1e4, 1e6)] + [irc]
        exact_floor = niclass._cond2
        exact_points = []

        def spy(T, omegas):
            exact_points.append(omegas.size)
            return exact_floor(T, omegas)

        monkeypatch.setattr(niclass, "_cond2", spy)
        got = [ns.classify_sni(m).to_dict() for m in models]
        assert sum(exact_points[:3]) > 0 and exact_points[3] == 0
        monkeypatch.setattr(niclass, "_cond2_bound",
                            lambda T, norm2, omegas: np.full(omegas.size, np.inf))
        assert got == [ns.classify_sni(m).to_dict() for m in models]

    def test_ni_bound_decides_as_exact_route(self, beam_params, monkeypatch):
        models = _ni_plants(beam_params) + [_conditioned(m, 1e3, seed)
                                            for seed, m in enumerate(_ni_draws())]
        got = [ns.classify_ni(m).to_dict() for m in models]
        monkeypatch.setattr(niclass, "_cond2_bound",
                            lambda T, norm2, omegas: np.full(omegas.size, np.inf))
        assert got == [ns.classify_ni(m).to_dict() for m in models]
        assert sum(not d["is_ni"] for d in got) == 1

    def test_ni_violation_decided_by_the_bound(self, monkeypatch):
        # the lossy plant's violation is established with no n x n SVD: with
        # an exact cond2 that clears every point it reaches, the report is
        # unchanged (the points that reach it are the noise beside the poles)
        lossy = _scrambled_modes()[1]
        want = ns.classify_ni(lossy).to_dict()
        monkeypatch.setattr(niclass, "_cond2", lambda T, omegas: np.full(omegas.size, np.inf))
        assert ns.classify_ni(lossy).to_dict() == want
        assert not want["is_ni"] and "j(G - G*) has eigenvalue" in want["reasons"][0]


class TestLeastEig:
    """The stacked least eigenvalue of the Hermitian part, closed form for m = 2."""

    @staticmethod
    def _stacks(rng, m, count=200):
        """Random, diagonal, Hermitian part diagonal (b = 0 for m = 2, skew-Hermitian
        off-diagonal part), rank-deficient PSD (rank m - 1, so 0 for m = 1) and scalar
        stacks of (count, m, m) complex matrices."""
        def cnormal(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        diag = np.zeros((count, m, m), dtype=complex)
        diag[:, range(m), range(m)] = rng.normal(size=(count, m))
        S = cnormal(count, m, m)
        skew = diag + (S - S.conj().transpose(0, 2, 1))
        skew[:, range(m), range(m)] = diag[:, range(m), range(m)]
        V = cnormal(count, m, m - 1)
        scalar = rng.normal(size=(count, 1, 1)) * np.eye(m)
        return [cnormal(count, m, m), diag, skew, V @ V.conj().transpose(0, 2, 1), scalar]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_agrees_with_eigvalsh(self, m):
        rng = np.random.default_rng(m)
        for scale in (1.0, 1e150, 1e-150):
            for M in self._stacks(rng, m):
                M = scale * M
                w = np.linalg.eigvalsh(0.5 * (M + M.conj().transpose(0, 2, 1)))
                err = np.abs(niclass._least_eig(M) - w[:, 0])
                assert np.all(err <= 4.0 * EPS * np.abs(w).max(axis=1)), (m, scale)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_non_finite_entry_gives_nan(self, m):
        # NaN, +-inf and an infinite imaginary part in each position in turn,
        # the Hermitian part's diagonal included; the last matrix is finite
        bad = (np.nan, np.inf, -np.inf, complex(1.0, np.inf))
        M = np.tile(np.eye(m, dtype=complex), (len(bad) * m * m + 1, 1, 1))
        for k, (x, (i, j)) in enumerate(itertools.product(bad, itertools.product(range(m),
                                                                                   repeat=2))):
            M[k, i, j] = x
        got = niclass._least_eig(M)
        assert np.isnan(got[:-1]).all() and got[-1] == 1.0
        assert niclass._least_eig(np.zeros((0, m, m))).shape == (0,)

    def test_sweep_is_eigvalsh_of_the_hermitian_part(self, paper_irc, beam_params):
        # the profiles of the paper IRC (m = 2), the arm (m = 2) and a scalar
        # plant agree with stacked eigvalsh to rounding of their largest eigenvalue
        arm = ns.modal_to_ss(ns.finite_dim_approx(beam_params, 5))
        for model in (paper_irc.realization, arm, first_order_lag_minus(0.5)):
            spec = _spectral(model)
            T, (Bt, Ct) = spec.schur[0], spec.maps
            omegas = niclass._sweep_grid(tuple(
                w for w, _ in niclass._axis_pole_clusters(spec.eigs, spec.ztol)))
            min_eig, G = niclass._sweep_min_eigs(T, Bt, Ct, spec.D, omegas)
            M = 1j * (G - G.conj().transpose(0, 2, 1))
            w = np.linalg.eigvalsh(0.5 * (M + M.conj().transpose(0, 2, 1)))
            assert np.all(np.abs(min_eig - w[:, 0]) <= 4.0 * EPS * np.abs(w).max(axis=1))


class TestFloorChunks:
    """The floor bound and the exact floor in chunks of at most FLOOR_ENTRIES entries."""

    @staticmethod
    def _record_sweeps(paper_irc, beam_params):
        """(T, ||T||_2, omegas) of the paper IRC, the 10-mode arm and the 104-state
        rung on their sweep grids, every eighth point of the rung's 800."""
        models = [paper_irc.realization, ns.modal_to_ss(ns.finite_dim_approx(beam_params, 10)),
                  ns.modal_to_ss(ladder_modal_models(1, (50,))[0])]
        out = []
        for model in models:
            spec = _spectral(model)
            omegas = niclass._sweep_grid(tuple(
                w for w, _ in niclass._axis_pole_clusters(spec.eigs, spec.ztol)))
            out.append((spec.schur[0], spec.norm2, omegas[::8] if model.n > 100 else omegas))
        assert [T.shape[0] for T, _, _ in out] == [2, 22, 104]
        return out

    def test_chunking_leaves_the_floor(self, paper_irc, beam_params, monkeypatch):
        # one point a chunk against the whole grid in one chunk
        for T, norm2, omegas in self._record_sweeps(paper_irc, beam_params):
            got = []
            for entries in (1, omegas.size * T.shape[0] ** 2):
                monkeypatch.setattr(niclass, "FLOOR_ENTRIES", entries)
                got.append((niclass._cond2_bound(T, norm2, omegas), niclass._cond2(T, omegas)))
            for one, whole in zip(*got):
                np.testing.assert_allclose(one, whole, rtol=1e-15, atol=0.0)

    def test_chunks_stay_within_the_budget(self, monkeypatch):
        # a 404-state rung takes chunks of 6 points (979,616 entries); the
        # 104-state rung at least the 64 points of the former fixed chunk
        assert niclass.FLOOR_ENTRIES // 104 ** 2 >= 64
        T = _spectral(ns.modal_to_ss(ladder_modal_models(1, (200,))[0])).schur[0]
        entries = []
        solve, svd = niclass._schur_solve, np.linalg.svd

        def counted_solve(T, s, R, blocks=None):
            entries.append(s.size * R.size)
            return solve(T, s, R, blocks)

        def counted_svd(a, *args, **kwargs):
            entries.append(a.size)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(niclass, "_schur_solve", counted_solve)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        omegas = niclass._BASE_GRID[::57]
        niclass._cond2_bound(T, 1.0, omegas)
        niclass._cond2(T, omegas)
        assert T.shape[0] == 404 and omegas.size == 8
        assert entries == 2 * [6 * 404 ** 2, 2 * 404 ** 2]
        assert max(entries) <= niclass.FLOOR_ENTRIES

    def test_empty_grid_and_empty_triangle(self, paper_irc):
        # no points give no values; a triangle of no rows gives cond2 = 1 at every point
        T, none = _spectral(paper_irc.realization).schur[0], np.zeros(0)
        for T, omegas, want in ((T, none, none), (np.zeros((0, 0)), niclass._BASE_GRID[:5],
                                                  np.ones(5))):
            for got in (niclass._cond2(T, omegas), niclass._cond2_bound(T, 1.0, omegas)):
                assert got.dtype == float and np.array_equal(got, want)

    def test_irc_floor_bound_is_one_solve(self, paper_irc, monkeypatch):
        # every point of the paper IRC is above SNI_STRICT_FLOOR, so the floor
        # bound is taken on the whole grid, in one back substitution
        calls = []
        solve = niclass._schur_solve

        def counted(T, s, R, blocks=None):
            calls.append((T.shape[0], s.size))
            return solve(T, s, R, blocks)

        monkeypatch.setattr(niclass, "_schur_solve", counted)
        assert ns.classify_sni(paper_irc.realization).is_sni
        assert calls == [(2, niclass.SWEEP_POINTS)]


class TestNonFiniteSweep:
    """A sweep point whose j(G - G*) is not finite is an error, never a pass."""

    @staticmethod
    def _overflowing(paper_irc):
        """-1/(s + 1) and the paper IRC, each with B and C scaled to overflow G."""
        irc = paper_irc.realization
        return (ns.StateSpaceModel([[-1.0]], [[1e200]], [[-1e200]]),
                ns.StateSpaceModel(irc.A, 1e200 * irc.B, 1e200 * irc.C, irc.D))

    def test_classifiers_raise(self, paper_irc):
        plant, ctrl = self._overflowing(paper_irc)
        message = r"^j\(G - G\*\) is not finite at omega = 0\.001$"
        with pytest.raises(NonFiniteResponseError, match=message):
            ns.classify_ni(plant)
        with pytest.raises(NonFiniteResponseError, match=message):
            ns.classify_sni(ctrl)

    def test_verdict_is_inconclusive(self, paper_irc):
        plant, ctrl = self._overflowing(paper_irc)
        want = ("classification unavailable: NonFiniteResponseError: "
                "j(G - G*) is not finite at omega = 0.001")
        for G, Gbar in ((plant, first_order_lag_minus(0.0)), (double_integrator(), ctrl)):
            v = ns.stability_verdict(G, Gbar)
            assert v.outcome is ns.Outcome.INCONCLUSIVE and v.reason == want


#: damping-ratio ranges of the damped corpus; the last straddles ztol, so a
#: draw can hold both modes swept as damped and modes taken as axis poles
DAMPED_ZETAS = ((1e-4, 1e-2), (1e-2, 0.5), (1e-10, 1e-8), (1e-8, 1e-6), (1e-7, 1e-4))


def _mechanical(p, zeta, W):
    """W W^T / (s^2 + 2 zeta p s + p^2), realized on the state block [[0, I], [-p^2 I, -2 zeta p I]]."""
    r = W.shape[1]
    A = np.block([[np.zeros((r, r)), np.eye(r)], [-p * p * np.eye(r), -2.0 * zeta * p * np.eye(r)]])
    return A, np.vstack([np.zeros((r, W.shape[0])), W.T]), np.hstack([W, np.zeros_like(W)])


def _damped_draws(zetas, count, seed=0):
    """``count`` minimal damped NI plants, each with an SNI controller.

    m in 1..3; 1-4 modes at p in [0.5, 20] (spread 0.25 apart, as in
    ``random_ni_plant``), each with coefficient W W^T for a rank-r W and a
    damping ratio log-uniform on ``zetas``; 70% beside a double integrator.
    The modes are also returned, as the plant's state blocks (A, B, C).
    The draws come from a child stream of ``seed``, apart from the
    default_rng(seed) stream of ``montecarlo_agreement``.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    out = []
    while len(out) < count:
        m = int(rng.integers(1, 4))
        freqs = np.sort(rng.uniform(0.5, 20.0, int(rng.integers(1, 5))))
        blocks = [_mechanical(p, 10.0 ** rng.uniform(*np.log10(zetas)),
                              rng.normal(size=(m, int(rng.integers(1, m + 1)))))
                  for p in freqs + 0.25 * np.arange(freqs.size)]
        if rng.uniform() < 0.7:
            blocks.append(_mechanical(0.0, 0.0, rng.normal(size=(m, int(rng.integers(1, m + 1))))))
        ctrl = ns.random_sni_controller(rng, m).realization
        plant = ns.StateSpaceModel(scipy.linalg.block_diag(*[b[0] for b in blocks]),
                                   np.vstack([b[1] for b in blocks]),
                                   np.hstack([b[2] for b in blocks]))
        if _spectral(plant).minimal:
            out.append((plant, ctrl, blocks))
    return out


def _near_defective_pair(zeta):
    """1/(s^2 + 1) + 1/(s^2 + 2 zeta s + 1) in controllable canonical form: a
    damped pole zeta off the axis pole at j, with nearly parallel eigenvectors."""
    A = np.diag(np.ones(3), 1)
    A[3] = -np.polymul([1.0, 0.0, 1.0], [1.0, 2.0 * zeta, 1.0])[:0:-1]
    return ns.StateSpaceModel(A, [[0.0], [0.0], [0.0], [1.0]], [[2.0, 2.0 * zeta, 2.0, 0.0]])


class TestRemainderSweep:
    """Condition 2 on the remainder decides as the full sweep of the whole model."""

    @staticmethod
    def _full_sweep(model, monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(niclass, "TRANSFORM_COND_LIMIT", 0.0)
            return ns.classify_ni(model)

    @staticmethod
    def _count_sweeps(monkeypatch):
        """(states, points) of every condition-2 sweep from here on."""
        sweeps = []
        sweep = niclass._sweep_min_eigs

        def counted(T, Bt, Ct, D, omegas):
            sweeps.append((T.shape[0], omegas.size))
            return sweep(T, Bt, Ct, D, omegas)

        monkeypatch.setattr(niclass, "_sweep_min_eigs", counted)
        return sweeps

    def test_damped_corpus_decides_as_full_sweep(self, monkeypatch):
        # each plant, and its twin with the first mode's coefficient negated
        # (refuted by condition 2 where that mode is damped, by condition 3
        # where it sits within ztol of the axis), is NI or not on both
        # routes; every decisive verdict agrees with the oracle
        paths = {"origin split": 0, "rest split": 0, "whole": 0}
        remainder = niclass._remainder

        def counted(spec, poles, drop):
            got = remainder(spec, poles, drop)
            key = ("whole" if got[0] is spec.schur[0] else
                   "origin split" if got[0].shape[0] == spec.origin_split.n0 else "rest split")
            paths[key] += 1
            return got

        monkeypatch.setattr(niclass, "_remainder", counted)
        for zetas in DAMPED_ZETAS:
            for plant, ctrl, blocks in _damped_draws(zetas, 6):
                v = ns.stability_verdict(plant, ctrl, ns.VerdictOptions(run_oracle=True))
                assert v.ni.is_ni, (zetas, v.ni.reasons)
                assert v.outcome in (ns.Outcome.STABLE, ns.Outcome.UNSTABLE), v.reason
                assert v.oracle_agrees is True, (zetas, v.outcome)
                C = plant.C.copy()
                r = blocks[0][1].shape[0] // 2
                C[:, :r] *= -1.0
                flipped = ns.StateSpaceModel(plant.A, plant.B, C)
                if not _spectral(flipped).minimal:
                    continue
                assert not ns.classify_ni(flipped).is_ni, zetas
                assert not self._full_sweep(flipped, monkeypatch).is_ni, zetas
        assert min(paths.values()) > 0, paths

    def test_transformed_plants_decide_as_full_sweep(self, monkeypatch):
        models = _scrambled_modes() + [_conditioned(m, 1e3, seed)
                                       for seed, m in enumerate(_ni_draws())]
        got = [ns.classify_ni(m).is_ni for m in models]
        assert got == [self._full_sweep(m, monkeypatch).is_ni for m in models]
        assert got == [True, False, True, True, True]

    def test_floor_bound_is_above_noise_floor(self, beam_params):
        # as for whole models (TestSweepBounds); a remainder T = 0 with m = 1
        # has bound = floor in exact arithmetic, hence the rounding allowance
        noise = 200.0 * np.finfo(float).eps
        models = _ni_plants(beam_params) + [p for zetas in DAMPED_ZETAS
                                            for p, _c, _b in _damped_draws(zetas, 2)]
        for model in models:
            spec = _spectral(model)
            poles = tuple(w for w, _ in niclass._axis_pole_clusters(spec.eigs, spec.ztol))
            T, Bt, Ct, norm2, omegas = niclass._remainder(spec, poles, True)
            _, G = niclass._sweep_min_eigs(T, Bt, Ct, spec.D, omegas)
            norm_f, norm = np.linalg.norm(G, axis=(1, 2)), np.linalg.svd(G, compute_uv=False)[:, 0]
            bound = noise * niclass._cond2_bound(T, norm2, omegas) * (1.0 + norm_f)
            floor = noise * niclass._cond2(T, omegas) * (1.0 + norm)
            assert np.all(bound >= floor * (1.0 - 1e-14)), T.shape[0]

    def test_lossless_plant_sweeps_its_origin_block(self, monkeypatch):
        # a ladder rung: 400 points on the 4 states of the origin split, with
        # no split of its own
        sweeps = self._count_sweeps(monkeypatch)
        plant = ns.modal_to_ss(ladder_modal_models(1, (25,))[0])
        assert ns.classify_ni(plant).is_ni
        assert sweeps == [(4, niclass.SWEEP_POINTS)]

    def test_ill_conditioned_remainder_takes_the_full_sweep(self, monkeypatch):
        # the split of the damped pair from the axis pair beside it has a
        # decoupling condition number near 1e6 for zeta = 1e-3, which the
        # remainder serves, and near 1e10 for zeta = 1e-5: that model is swept
        # whole on the bracketed grid, the full sweep of the reference route
        sweeps = self._count_sweeps(monkeypatch)
        for zeta, cond in ((1e-3, 1e6), (1e-5, 1e10)):
            spec = _spectral(_near_defective_pair(zeta))
            damped = np.flatnonzero(spec.eigs.real < -spec.ztol)
            assert damped.size == 2 and spec.split(damped).cond == pytest.approx(cond, rel=0.1)
        assert ns.classify_ni(_near_defective_pair(1e-3)).is_ni
        assert sweeps == [(2, niclass.SWEEP_POINTS)]
        sweeps.clear()
        plant = _near_defective_pair(1e-5)
        rep = ns.classify_ni(plant)
        assert rep.is_ni and not rep.reasons
        [(w0, *_rest)] = rep.cond3_residues
        omegas = niclass._sweep_grid((w0,))
        assert sweeps == [(4, omegas.size)] and omegas.size > niclass.SWEEP_POINTS
        assert w0 == pytest.approx(1.0)
        # the profile is j(G - G*) of the whole model on that grid
        G = ns.freq_response(plant, 1j * omegas)
        M = 1j * (G - G.conj().transpose(0, 2, 1))
        want = np.linalg.eigvalsh(0.5 * (M + M.conj().transpose(0, 2, 1)))[:, 0]
        assert rep.cond2_min_eig_by_freq == list(zip(omegas.tolist(), want.tolist()))

    @pytest.mark.parametrize("eps, worst", [(1e-8, "-2.500e-01"), (2e-8, "-5.000e-01"),
                                            (5e-8, "-1.250e+00")])
    def test_growing_axis_mode_takes_the_full_sweep(self, eps, worst, monkeypatch):
        # 1/(s^2 - 2 eps s + 1): the poles eps +- j(1 - eps^2)^1/2 lie within
        # ztol of the axis, so conditions 1 and 3 take them as axis poles.  A
        # growing mode would drop an NSD term from j(G - G*); its real part is
        # far above the rounding of a computed eigenvalue, so G is swept whole
        # and its brackets refute condition 2
        sweeps = self._count_sweeps(monkeypatch)
        plant = ns.StateSpaceModel([[0.0, 1.0], [-1.0, 2.0 * eps]], [[0.0], [1.0]], [[1.0, 0.0]])
        rep = ns.classify_ni(plant)
        assert not rep.is_ni
        assert rep.reasons == [f"j(G - G*) has eigenvalue {worst} at omega = 1.0002"]
        assert sweeps == [(2, niclass._sweep_grid((1.0,)).size)]
        assert rep.to_dict() == self._full_sweep(plant, monkeypatch).to_dict()

    def test_non_hermitian_residue_takes_the_full_sweep(self, monkeypatch):
        # M/(s^2 + 1) with M[0, 1] raised by 5e-7: the residue K = M/2 has a
        # Hermitian defect of 2.2e-7 ||K||_F, which condition 3 accepts, but
        # its skew part does not drop out of j(G - G*), and beside the pole
        # it is beyond the condition-2 floor.  Above COND2_RTOL ||K||_F the
        # model is swept whole, and the brackets refute it
        sweeps = self._count_sweeps(monkeypatch)
        M = np.array([[2.0, 1.0 + 5e-7], [1.0, 2.0]])
        plant = ns.StateSpaceModel(
            np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]),
            np.vstack([np.zeros((2, 2)), np.eye(2)]), np.hstack([M, np.zeros((2, 2))]))
        rep = ns.classify_ni(plant)
        assert not rep.is_ni
        assert rep.reasons == ["j(G - G*) has eigenvalue -1.250e-03 at omega = 0.9998"]
        [(w0, K, _min_eig, herm_defect, _ok)] = rep.cond3_residues
        assert herm_defect == pytest.approx(2.2e-7 * np.linalg.norm(K), rel=0.1)
        assert sweeps == [(4, niclass._sweep_grid((w0,)).size)]
        assert rep.to_dict() == self._full_sweep(plant, monkeypatch).to_dict()

    def test_defective_axis_pole_takes_the_full_sweep(self, monkeypatch):
        # 1/(s^2 + 1)^2: a double pole at j has no residue, so nothing tells
        # that it drops out of j(G - G*), and G is swept whole
        sweeps = self._count_sweeps(monkeypatch)
        A = np.diag(np.ones(3), 1)
        A[3, 0], A[3, 2] = -1.0, -2.0
        plant = ns.StateSpaceModel(A, [[0.0], [0.0], [0.0], [1.0]], [[1.0, 0.0, 0.0, 0.0]])
        rep = ns.classify_ni(plant)
        assert not rep.is_ni
        [(w0, *_rest)] = rep.cond3_residues
        assert sweeps == [(4, niclass._sweep_grid((w0,)).size)]
        assert rep.to_dict() == self._full_sweep(plant, monkeypatch).to_dict()


def _sweep_grid_per_pole(axis_poles=()):
    """_sweep_grid as first written: one bracket and one guard test per pole."""
    w = np.geomspace(niclass.SWEEP_WMIN, niclass.SWEEP_WMAX, niclass.SWEEP_POINTS)
    extra = []
    for w0 in axis_poles:
        if w0 <= 0.0:
            continue
        g = niclass.POLE_GUARD * max(1.0, w0)
        span = np.geomspace(2.0 * g, 0.2 * max(w0, 10.0 * g), niclass.BRACKET_POINTS // 2)
        extra.append(w0 + span)
        extra.append(np.clip(w0 - span, 0.5 * g, None))
    if extra:
        w = np.concatenate([w] + extra)
    keep = np.ones(w.shape, dtype=bool)
    for w0 in axis_poles:
        keep &= np.abs(w - w0) > niclass.POLE_GUARD * max(1.0, w0)
    return np.unique(w[keep])


@pytest.mark.parametrize("poles", [
    (), (1.0,), (0.5, 3.0, 7.0, 1e3), tuple(np.linspace(0.5, 60.0, 30)), (1.5e-3,),
    # a pole at or below 10 POLE_GUARD has a one-point bracket span, which
    # switches np.geomspace's formula for a whole stacked call
    (5e-4,), (5e-4, 0.37, 2.0), (0.0, -1.0, 2.0, 1e4),
])
def test_sweep_grid_equals_per_pole_brackets(poles):
    got = niclass._sweep_grid(poles)
    ref = _sweep_grid_per_pole(poles)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)


class TestImaginaryAxisResidue:
    def test_undamped_oscillator(self):
        model = ns.modal_to_ss(ns.ModalModel(m=1, terms=((1.0, [[1.0]]),)))
        K = ns.imaginary_axis_residue(model, 1.0)
        np.testing.assert_allclose(K, [[0.5]], atol=1e-12)

    def test_case_study_first_mode_is_rank_one(self, arm_plant, beam_roots):
        K = ns.imaginary_axis_residue(arm_plant, float(beam_roots[0]))
        w = np.linalg.eigvalsh(0.5 * (K + K.conj().T))
        assert w[0] >= -1e-9
        assert w[-1] > 0.1

    def test_not_a_pole(self):
        with pytest.raises(NotAPoleError):
            ns.imaginary_axis_residue(first_order_lag_minus(0.0), 1.0)

    @pytest.mark.parametrize("omega0", [0.0, -1.0])
    def test_non_positive_frequency_rejected(self, arm_plant, omega0):
        with pytest.raises(NotAPoleError, match="omega0 must be positive"):
            ns.imaginary_axis_residue(arm_plant, omega0)

    def test_model_without_states_is_not_a_pole(self):
        # the distance to no eigenvalue once raised numpy's ValueError
        gain = ns.StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[-2.0]])
        with pytest.raises(NotAPoleError, match="nearest at distance inf"):
            ns.imaginary_axis_residue(gain, 1.0)

    def test_semisimple_cluster_allowed(self):
        # rank-2 coefficient: double eigenvalue at jp but still a simple pole
        mm = ns.ModalModel(m=2, terms=((2.0, np.diag([1.0, 3.0])),))
        model = ns.modal_to_ss(mm)
        K = ns.imaginary_axis_residue(model, 2.0)
        np.testing.assert_allclose(K, np.diag([0.25, 0.75]), atol=1e-10)

    def test_ladder_rung_exact_residues(self):
        # 25 rank-one modes, one of them made rank two (a repeated semisimple
        # cluster), beside a full-rank double pole: every residue, from the
        # one Schur form of classify_ni and from imaginary_axis_residue, is
        # the exact modal residue C_i / (2 p_i)
        rng = np.random.default_rng(7)
        freqs = np.sort(rng.uniform(0.5, 50.0, 25)) + 0.25 * np.arange(25)
        terms = []
        for i, p in enumerate(freqs):
            V = rng.normal(size=(2, 2 if i == 12 else 1))
            terms.append((p, V @ V.T))
        W = rng.normal(size=(2, 2))
        model = ns.modal_to_ss(ns.ModalModel(m=2, terms=tuple(terms),
                                             g2=W @ W.T + 0.1 * np.eye(2)))
        rep = ns.classify_ni(model)
        assert rep.is_ni, rep.reasons
        assert len(rep.cond3_residues) == len(terms)
        for (w0, K, *_rest), (p, Ci) in zip(rep.cond3_residues, terms):
            exact = Ci / (2.0 * p)
            assert w0 == pytest.approx(p, rel=1e-12)
            for got in (K, ns.imaginary_axis_residue(model, p)):
                assert np.linalg.norm(got - exact) <= 1e-10 * np.linalg.norm(exact), p
        assert np.linalg.matrix_rank(terms[12][1]) == 2

    def test_defective_pole_rejected(self):
        # real Jordan pair at +-j: minimal SISO model with a double pole at j
        A = np.array([[0.0, 1.0, 1.0, 0.0],
                      [-1.0, 0.0, 0.0, 1.0],
                      [0.0, 0.0, 0.0, 1.0],
                      [0.0, 0.0, -1.0, 0.0]])
        m = ns.StateSpaceModel(A, [[0.0], [0.0], [0.0], [1.0]],
                               [[1.0, 0.0, 0.0, 0.0]], [[0.0]])
        with pytest.raises(NotSimplePoleError):
            ns.imaginary_axis_residue(m, 1.0)

    def test_residue_definition_equivalences(self, rng):
        """lim (s-jw0) s G = jw0 lim (s-jw0) G and the j-weighted variant.

        Checked numerically against the projector-based residue, and the PSD
        verdicts of the two residue conventions must agree (they differ by
        the positive factor w0).
        """
        from nistab.freebody import random_ni_plant

        checked = 0
        for trial in range(20):
            model, mm = random_ni_plant(
                np.random.default_rng(rng.integers(0, 2 ** 63)), "dc_gain")
            for w0, _C in mm.terms:
                K = ns.imaginary_axis_residue(model, w0)      # lim (s-jw0) j G
                R = -1j * K                                   # lim (s-jw0) G
                # numeric limits by small offset
                d = 1e-7 * max(1.0, w0)
                s = 1j * (w0 + d)
                G = ns.eval_tf(model, s)
                R_num = (s - 1j * w0) * G
                K0_num = (s - 1j * w0) * s * G                # old-style s G residue
                assert np.linalg.norm(R_num - R) <= 1e-5 * max(1.0, np.linalg.norm(R))
                assert np.linalg.norm(K0_num - 1j * w0 * R) <= 1e-5 * max(
                    1.0, np.linalg.norm(w0 * R))
                # PSD verdicts agree between conventions
                K0 = 1j * w0 * R  # Hermitian part equals w0 * K
                new_psd = np.linalg.eigvalsh(0.5 * (K + K.conj().T))[0] >= -1e-9
                old_psd = np.linalg.eigvalsh(0.5 * (K0 + K0.conj().T))[0] >= -1e-9
                assert new_psd == old_psd
                checked += 1
        assert checked >= 20


def _residue_plants(beam_params):
    """The ladder rungs of seeds 1-3 at 10, 25, 50 and 100 modes (n = 24 to
    204) and the arm at 1, 2, 5 and 10 modes: every axis pole a single
    eigenvalue."""
    plants = [ns.modal_to_ss(mm) for seed in (1, 2, 3)
              for mm in ladder_modal_models(seed, (10, 25, 50, 100))]
    return plants + [ns.modal_to_ss(ns.finite_dim_approx(beam_params, n))
                     for n in (1, 2, 5, 10)]


def _simple_residues_row_loops(spec, idx):
    """``niclass._simple_residues`` before the shared eigenvector record: its own
    back substitution on T and on T^H reversed, row k updating the columns i > k."""
    T, Z = spec.schur
    order = np.argsort(idx)
    vecs, flip = [], np.ascontiguousarray(T.conj().T[::-1, ::-1])
    for M, i in ((T, idx[order]), (flip, spec.n - 1 - idx[order][::-1])):
        X = np.eye(spec.n, dtype=complex)[:, i]
        lam, starts = M[i, i], np.searchsorted(i, np.arange(spec.n), side="right")
        for k in range(i.max(initial=0) - 1, -1, -1):
            X[k, starts[k]:] = M[k, k + 1:] @ X[k + 1:, starts[k]:] / (lam[starts[k]:] - M[k, k])
        vecs.append(X)
    U = vecs[1][::-1, ::-1]
    CX, UB = spec.C @ Z @ vecs[0], U.conj().T @ (Z.conj().T @ spec.B)
    kappa = np.linalg.norm(vecs[0], axis=0) * np.linalg.norm(U, axis=0)
    back = np.argsort(order)
    return 1j * np.einsum("ik,kj->kij", CX, UB)[back], kappa[back]


def _axis_pole_clusters_split(eigs, tol):
    """``niclass._axis_pole_clusters`` as written before it cut all clusters at once: np.split
    and one np.mean per cluster."""
    axis = np.flatnonzero((np.abs(eigs.real) <= tol) & (eigs.imag > tol))
    axis = axis[np.argsort(eigs.imag[axis], kind="stable")]
    w = eigs.imag[axis]
    cuts = np.flatnonzero(np.diff(w) > niclass.POLE_CLUSTER_RTOL * np.maximum(1.0, w[1:])) + 1
    return [(float(np.mean(w[c])), axis[c]) for c in np.split(np.arange(w.size), cuts) if c.size]


class TestAxisPoleClusters:
    def test_equals_the_per_cluster_loop(self, rng, beam_params):
        # w0 bit for bit and the same index arrays: the ladder rungs, the arm,
        # Monte-Carlo draws (clusters of up to 3), and constructed clusters of
        # 1 to 12 copies a rounding apart, with their conjugates and off-axis
        # eigenvalues mixed in
        from nistab.freebody import _FAMILIES, random_ni_plant

        models = [ns.modal_to_ss(mm) for mm in ladder_modal_models(1, (10, 25, 50, 100))]
        models += [ns.modal_to_ss(ns.finite_dim_approx(beam_params, k)) for k in (1, 5, 10)]
        models += [random_ni_plant(np.random.default_rng(t), _FAMILIES[t % 8])[0]
                   for t in range(200)]
        cases = [(_spectral(model).eigs, _spectral(model).ztol) for model in models]
        for _ in range(300):
            sizes = rng.integers(1, 13, rng.integers(1, 6))
            centers = np.cumsum(rng.uniform(1.0, 10.0, sizes.size))
            w = np.concatenate([c * (1.0 + 1e-9 * rng.normal(size=k))
                                for c, k in zip(centers, sizes)])
            eigs = np.concatenate([1e-12 * rng.normal(size=w.size) + 1j * w, -1j * w, [-1.0, 0.0]])
            cases.append((rng.permutation(eigs), 1e-7))
        sizes = []
        for eigs, tol in cases:
            got, ref = niclass._axis_pole_clusters(eigs, tol), _axis_pole_clusters_split(eigs, tol)
            assert len(got) == len(ref)
            for (w0, idx), (w_ref, idx_ref) in zip(got, ref):
                assert type(w0) is float and np.float64(w0).tobytes() == np.float64(w_ref).tobytes()
                assert np.array_equal(idx, idx_ref)
                sizes.append(idx.size)
        assert max(sizes) == 12 and sizes.count(3) > 50
        assert niclass._axis_pole_clusters(np.array([-1.0 + 0j, 0j]), 1e-7) == []


def _rank_two_plants():
    """Modal plants whose rank-2 coefficients put exact copies of an eigenvalue
    on the Schur diagonal, beside simple modes."""
    from nistab.freebody import random_ni_plant

    mm = ns.ModalModel(m=2, terms=((1.0, np.eye(2)), (2.5, [[2.0, 1.0], [1.0, 1.0]]),
                                   (4.0, np.outer([1.0, 2.0], [1.0, 2.0]))), g2=np.eye(2))
    draws = [random_ni_plant(np.random.default_rng(t), fam, m=3)[0]
             for t, fam in enumerate(("dc_gain", "single", "double", "mixed") * 5)]
    return [ns.modal_to_ss(mm)] + draws


class TestSimpleResidues:
    """A single-eigenvalue axis cluster reads the record's eigenvectors."""

    def test_record_residues_equal_the_row_loops(self):
        # the ladder rungs, the scrambled modes and draws under cond(T) = 1e4
        from nistab.freebody import _FAMILIES, random_ni_plant

        plants = [ns.modal_to_ss(mm) for seed in (1, 2, 3)
                  for mm in ladder_modal_models(seed, (10, 25, 50, 100))]
        plants += _scrambled_modes()
        plants += [_conditioned(random_ni_plant(np.random.default_rng(t),
                                                _FAMILIES[t % len(_FAMILIES)])[0], 1e4, t)
                   for t in range(80)]
        read, checked = [], 0
        for model in plants:
            spec = _spectral(model)
            rec = spec.eigvecs   # the record the PBH test builds
            idx = np.array([i[0] for _w, i in niclass._axis_pole_clusters(spec.eigs, spec.ztol)
                            if i.size == 1], int)
            got, kappa = niclass._simple_residues(spec, idx)
            ref, ref_kappa = _simple_residues_row_loops(spec, idx)
            # the rounding scale of K = j (C Z x)(u^H Z^H B): a residue under
            # cond(T) = 1e4 can be 1e-7 and carry 1e-11 relative rounding
            scale = np.linalg.norm(model.C, 2) * np.linalg.norm(model.B, 2) * ref_kappa
            for K, R, unit in zip(got, ref, scale, strict=True):
                assert np.linalg.norm(K - R) <= 1e-14 * unit, model.n
            np.testing.assert_allclose(kappa, ref_kappa, rtol=1e-12)
            read.append(np.isin(idx, rec.idx).all())
            checked += idx.size
        # every rung reads the record; a few ill-conditioned draws have an
        # axis pole that was no simple PBH shift, which takes the kernel anew
        assert all(read[:12]) and not all(read) and checked > 600

    def test_scrambled_twins_are_one_block(self):
        # under cond(T) = 1e4 the Schur triangle is dense: one block, so the
        # record, the response and the report are the one-block walk's, bit
        # for bit
        s = np.concatenate([1j * niclass._sweep_grid(), [0.3 + 2.0j]])
        for model in _scrambled_modes():
            spec = ltimodel._Spectral(model.A, model.B, model.C, model.D)
            whole = ltimodel._Spectral(model.A, model.B, model.C, model.D)
            vars(whole)["blocks"] = None
            assert [(b, starts.tolist()) for b, starts in ltimodel._blocks(spec.schur[0])] == [
                (model.n, [0])]
            assert spec.blocks is None
            for got, ref in zip(spec.eigvecs, whole.eigvecs, strict=True):
                assert got.tobytes() == ref.tobytes()
            assert ns.freq_response(spec, s).tobytes() == ns.freq_response(whole, s).tobytes()
            assert ns.classify_ni(spec).to_dict() == ns.classify_ni(whole).to_dict()

    def test_record_is_read_where_the_pbh_test_built_it(self, beam_params, monkeypatch):
        # classify_ni reads the record; imaginary_axis_residue on a plain
        # model solves for its one eigenvalue, not for every simple PBH shift
        sizes, kernel = [], niclass._eigvecs
        monkeypatch.setattr(niclass, "_eigvecs",
                            lambda spec, idx: sizes.append(idx.size) or kernel(spec, idx))
        model = ns.modal_to_ss(ns.finite_dim_approx(beam_params, 5))
        rep = ns.classify_ni(model)
        assert rep.is_ni and not sizes
        K = ns.imaginary_axis_residue(model, rep.cond3_residues[0][0])
        assert sizes == [1]
        np.testing.assert_allclose(K, rep.cond3_residues[0][1], rtol=1e-12)

    def test_repeated_diagonal_entries_divide_by_no_zero(self):
        # the kernel divides by t_jj - t_ii; the record and the residues never
        # hand it an i with a copy of t_ii elsewhere on the diagonal (the row
        # loops above divide by zero when they are handed one)
        import warnings

        plants = _rank_two_plants()
        copies = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for model in plants:
                spec = _spectral(model)
                copies += spec.eigs.size - np.unique(spec.eigs).size
                assert spec.pbh_bound > ltimodel.PBH_CLEARANCE
                assert ns.classify_ni(model).is_ni
        assert copies

    def test_batched_kernel_matches_split_route(self, beam_params):
        from nistab.freebody import _FAMILIES, random_ni_plant

        plants = _residue_plants(beam_params)
        for t in range(400):
            model, _ = random_ni_plant(np.random.default_rng(t), _FAMILIES[t % len(_FAMILIES)])
            plants.append(_conditioned(model, 10.0 ** (t % 5), t))
        checked = 0
        for model in plants:
            spec = _spectral(model)
            simple = [(w0, idx) for w0, idx in niclass._axis_pole_clusters(spec.eigs, spec.ztol)
                      if idx.size == 1]
            first = np.array([idx[0] for _w, idx in simple], int)
            got, _kappa = niclass._simple_residues(spec, first)
            for K, (w0, idx) in zip(got, simple, strict=True):
                ref, _kappa = niclass._cluster_residue(spec, idx, w0)
                assert np.linalg.norm(K - ref) <= 1e-8 * np.linalg.norm(ref), (model.n, w0)
            checked += len(simple)
        assert checked > 1000

    def test_condition_numbers_are_wilkinsons(self, beam_params):
        # ||x||_2 ||u||_2 with u x = 1 is 1/|v^H w| for the unit right and
        # left eigenvectors w, v of A; the cluster bound is at least 1
        models = ([ns.modal_to_ss(ns.finite_dim_approx(beam_params, 5))]
                  + [_conditioned(m, 1e3, seed) for seed, m in enumerate(_ni_draws())])
        for model in models:
            spec = _spectral(model)
            clusters = niclass._axis_pole_clusters(spec.eigs, spec.ztol)
            idx = np.array([i[0] for _w, i in clusters if i.size == 1], int)
            _, kappa = niclass._simple_residues(spec, idx)
            lam, vl, vr = scipy.linalg.eig(model.A, left=True, right=True)
            near = np.abs(lam[None, :] - spec.eigs[idx, None]).argmin(axis=1)
            ref = 1.0 / np.abs(np.sum(vl[:, near].conj() * vr[:, near], axis=0))
            np.testing.assert_allclose(kappa, ref, rtol=1e-6)
            for w0, i in clusters:
                if i.size > 1:
                    assert niclass._cluster_residue(spec, i, w0)[1] >= 1.0
        assert any(i.size > 1 for m in models
                   for _w, i in niclass._axis_pole_clusters(_spectral(m).eigs, _spectral(m).ztol))

    def test_origin_split_is_the_only_split(self, beam_params, monkeypatch):
        calls = []
        split = ltimodel._Spectral.split

        def counted(self, idx):
            calls.append(idx.size)
            return split(self, idx)

        monkeypatch.setattr(ltimodel._Spectral, "split", counted)
        for model in _residue_plants(beam_params):
            calls.clear()
            rep = ns.classify_ni(model)
            assert rep.is_ni and len(calls) == 1, (model.n, calls)
        # imaginary_axis_residue makes the same choice: no split at a single
        # eigenvalue, one at a cluster of two
        calls.clear()
        ns.imaginary_axis_residue(model, rep.cond3_residues[0][0])
        assert not calls
        mm = ns.ModalModel(m=2, terms=((2.0, np.diag([1.0, 3.0])),))
        ns.imaginary_axis_residue(ns.modal_to_ss(mm), 2.0)
        assert calls == [2]


class TestSimilarityInvariance:
    def test_classification_invariant(self, rng):
        from nistab.freebody import random_ni_plant

        model, _ = random_ni_plant(np.random.default_rng(2), "double")
        base_ni = ns.classify_ni(model).is_ni
        assert base_ni
        for _ in range(50):
            T = np.eye(model.n) + 0.3 * rng.normal(size=(model.n,) * 2)
            assert ns.classify_ni(ns.similarity_transform(model, T)).is_ni == base_ni

    def test_sni_invariant(self, rng, paper_irc):
        base = ns.classify_sni(paper_irc.realization).is_sni
        for _ in range(8):
            T = np.eye(2) + 0.3 * rng.normal(size=(2, 2))
            m2 = ns.similarity_transform(paper_irc.realization, T)
            assert ns.classify_sni(m2).is_sni == base
