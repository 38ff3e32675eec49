import numpy as np
import pytest

import nistab as ns
from nistab.errors import (
    G2ZeroError,
    JordanBlockTooLargeError,
    LimitDivergentError,
    NotMinimalError,
    NotStrictlyProperError,
    SingularInnerError,
)
from nistab.freebody import (
    _FAMILIES,
    _reduced_gain,
    VerdictOptions,
    random_ni_plant,
    random_sni_controller,
)
from nistab.ltimodel import _laurent_numeric_limits

from conftest import double_integrator, first_order_lag_minus


class TestBlockDiagonal:
    def test_double_integrator_structure(self):
        real = ns.to_block_diagonal(double_integrator())
        assert (real.n1, real.n2, real.k) == (0, 0, 1)
        model = real.to_model()
        np.testing.assert_array_equal(model.A, [[0.0, 1.0], [0.0, 0.0]])
        s = 1.0 + 1.0j
        np.testing.assert_allclose(ns.eval_tf(model, s), [[1.0 / s ** 2]], atol=1e-12)

    def test_scrambled_double_integrator_recovered(self):
        T = np.array([[2.0, -1.0], [0.5, 3.0]])
        scrambled = ns.similarity_transform(double_integrator(), T)
        real = ns.to_block_diagonal(scrambled)
        assert (real.n1, real.n2, real.k) == (0, 0, 1)
        s = 1.0 + 1.0j
        np.testing.assert_allclose(
            ns.eval_tf(real.to_model(), s), [[1.0 / s ** 2]], atol=1e-10)

    def test_case_study_structure(self, arm_plant):
        real = ns.to_block_diagonal(arm_plant)
        assert (real.n1, real.n2, real.k) == (2, 0, 1)
        ev = np.linalg.eigvals(real.A1)
        assert np.allclose(sorted(np.abs(ev.imag)), [3.3953264] * 2, atol=1e-5)

    def test_transfer_matrix_preserved(self, rng):
        for trial in range(8):
            model, _ = random_ni_plant(
                np.random.default_rng(rng.integers(0, 2 ** 63)),
                _FAMILIES[trial % len(_FAMILIES)])
            real = ns.to_block_diagonal(model)
            back = real.to_model()
            for _ in range(10):
                s = complex(rng.normal(), rng.normal()) * 2 + 1.0
                ref = ns.eval_tf(model, s)
                got = ns.eval_tf(back, s)
                assert np.linalg.norm(got - ref) <= 1e-8 * max(1.0, np.linalg.norm(ref))

    def test_rejects_non_strictly_proper(self, paper_irc):
        with pytest.raises(NotStrictlyProperError):
            ns.to_block_diagonal(paper_irc.realization)

    def test_rejects_non_minimal(self):
        m = ns.StateSpaceModel(np.diag([-1.0, -2.0]), [[1.0], [0.0]],
                               [[1.0, 0.0]], [[0.0]])
        with pytest.raises(NotMinimalError):
            ns.to_block_diagonal(m)

    def test_rejects_triple_origin_pole(self):
        A = np.diag(np.ones(2), 1)
        m = ns.StateSpaceModel(A, [[0.0], [0.0], [1.0]], [[1.0, 0.0, 0.0]], [[0.0]])
        with pytest.raises(JordanBlockTooLargeError):
            ns.to_block_diagonal(m)


class TestLaurent:
    def test_case_study_values(self, arm_plant):
        L = ns.laurent_coefficients(arm_plant)
        assert abs(L.G2[0, 0] - 0.14) < 1e-2
        assert abs(L.G2[0, 1]) < 1e-6 and abs(L.G2[1, 1]) < 1e-6
        assert np.linalg.norm(L.G1) < 1e-9
        assert L.agreement is not None and L.agreement <= 1e-6

    def test_pure_single_integrator(self):
        m = ns.StateSpaceModel([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        L = ns.laurent_coefficients(m)
        np.testing.assert_allclose(L.G2, [[0.0]], atol=1e-12)
        np.testing.assert_allclose(L.G1, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(L.G0, [[0.0]], atol=1e-10)

    def test_routes_agree_on_random_models(self, rng):
        worst = 0.0
        for trial in range(30):
            model, _ = random_ni_plant(
                np.random.default_rng(rng.integers(0, 2 ** 63)),
                _FAMILIES[trial % len(_FAMILIES)])
            L = ns.laurent_coefficients(model)
            worst = max(worst, L.agreement)
        assert worst <= 1e-6

    def test_routes_agree_on_ill_conditioned_realization(self):
        # mixed-family plant, similarity transform with cond(T) ~ 980: a
        # polynomial fit extrapolated to s = 0 disagreed here by 2.6e-3
        rng = np.random.default_rng(28)
        plant, _ = random_ni_plant(rng, "mixed")
        random_sni_controller(rng, plant.m)
        Ts = [np.eye(plant.n) + 0.25 * rng.normal(size=(plant.n,) * 2)
              for _ in range(2)]
        assert np.linalg.cond(Ts[1]) > 500.0
        base = ns.laurent_coefficients(plant)
        L = ns.laurent_coefficients(ns.similarity_transform(plant, Ts[1]))
        assert L.agreement <= 1e-6
        np.testing.assert_allclose(L.G0, base.G0, atol=1e-8)

    def test_numeric_route_flags_triple_pole(self):
        # G = 1/s^3: the s^-3 term is all of G on the circle, so the settle
        # measure is 1
        triple = ns.StateSpaceModel(np.diag(np.ones(2), 1), [[0.0], [0.0], [1.0]],
                                    [[1.0, 0.0, 0.0]], [[0.0]])
        G0, G1, G2, settle = _laurent_numeric_limits(triple, 0.5)
        assert settle == pytest.approx(1.0, rel=1e-12)
        assert max(abs(G0[0, 0]), abs(G1[0, 0]), abs(G2[0, 0])) <= 1e-12

    def test_case_study_range_shortcut_not_applicable(self, arm_plant):
        # G2 is rank one but G0' does not kill its null space, so the
        # range-shortcut dispatch must not fire for the benchmark plant
        L = ns.laurent_coefficients(arm_plant)
        assert not ns.nullspace_contained(L.G2, L.G0.T)

    def test_generator_g2_always_psd(self, rng):
        for trial in range(12):
            model, _ = random_ni_plant(
                np.random.default_rng(rng.integers(0, 2 ** 63)),
                _FAMILIES[trial % len(_FAMILIES)])
            L = ns.laurent_coefficients(model)
            assert ns.classify_definiteness(L.G2).is_psd


class TestProjector:
    def test_square_invertible_gives_zero(self, rng):
        X = np.diag([2.0, -3.0])
        Y = rng.normal(size=(2, 2)) + 3 * np.eye(2)
        P = ns.projector_p(X, Y)
        np.testing.assert_allclose(P, np.zeros((2, 2)), atol=1e-12)

    def test_case_study_reduction(self, paper_irc):
        J = np.array([[0.3751], [0.0]])
        N2 = ns.projector_p(paper_irc.dc_gain(), J)
        np.testing.assert_allclose(
            N2, [[0.0, 0.0], [0.0, -0.182252]], atol=1e-3)

    def test_annihilation_and_gauge(self, rng):
        for _ in range(25):
            m = int(rng.integers(2, 6))
            r = int(rng.integers(1, m))
            S = rng.normal(size=(m, m))
            X = 0.5 * (S + S.T) + 0.1 * np.eye(m)
            Y = rng.normal(size=(m, r))
            P = ns.projector_p(X, Y)
            assert np.linalg.norm(P @ Y) <= 1e-10 * max(
                1.0, np.linalg.norm(X) * np.linalg.norm(Y))
            R = rng.normal(size=(r, r)) + 2 * np.eye(r)
            np.testing.assert_allclose(P, ns.projector_p(X, Y @ R), atol=1e-8)

    def test_zero_width_returns_x(self):
        X = np.diag([1.0, -2.0])
        np.testing.assert_array_equal(ns.projector_p(X, np.zeros((2, 0))), X)

    def test_singular_inner_rejected(self):
        X = np.diag([1.0, -1.0])
        Y = np.array([[1.0], [1.0]])
        with pytest.raises(SingularInnerError):
            ns.projector_p(X, Y)


class TestBuildF:
    def _laurent(self, G1, G2):
        G1, G2 = np.atleast_2d(G1), np.atleast_2d(G2)
        return ns.LaurentCoefficients(G0=np.zeros_like(G1), G1=G1, G2=G2,
                                      method=ns.freebody.LaurentMethod.REALIZATION)

    def test_scalar_pure_double_pole(self):
        F = ns.build_f_matrix(self._laurent([[0.0]], [[1.0]]))
        assert F.shape == (1, 1)
        assert abs(abs(F[0, 0]) - 1.0) < 1e-12

    def test_case_study_span_matches_factor(self, arm_plant):
        L = ns.laurent_coefficients(arm_plant)
        F = ns.build_f_matrix(L)
        J = ns.full_rank_factor(L.G2).J
        # span(F) == span(J): principal angle zero
        qf, _ = np.linalg.qr(F)
        qj, _ = np.linalg.qr(J)
        assert abs(abs(qf.T @ qj)[0, 0] - 1.0) < 1e-8

    def test_identity_pair(self):
        F = ns.build_f_matrix(self._laurent(np.eye(2), np.eye(2)))
        assert F.shape[1] >= 1
        g = F.T @ F
        assert np.linalg.cond(g) < 1e8
        X = np.diag([3.0, -1.0])
        ns.projector_p(X, F)  # must be well defined

    def test_g2_zero_rejected(self):
        with pytest.raises(G2ZeroError):
            ns.build_f_matrix(self._laurent(np.eye(2), np.zeros((2, 2))))


class TestStabilityVerdict:
    def test_case_study_chain(self, arm_plant, paper_irc):
        v = ns.stability_verdict(arm_plant, paper_irc.realization,
                                 VerdictOptions(run_oracle=True))
        assert v.outcome is ns.Outcome.STABLE
        assert v.theorem_used is ns.Theorem.DOUBLE_POLE
        assert v.branch is ns.Branch.NSD
        assert v.condition_values["j_gram_max_eig"] == pytest.approx(-0.30991, abs=1e-3)
        assert v.oracle_agrees is True

    def test_full_rank_branch_stable(self):
        v = ns.stability_verdict(double_integrator(), first_order_lag_minus(2.0),
                                 VerdictOptions(run_oracle=True))
        assert v.outcome is ns.Outcome.STABLE
        assert v.theorem_used is ns.Theorem.FULL_RANK_FREE_BODY
        assert v.oracle_agrees is True

    def test_full_rank_branch_unstable(self):
        v = ns.stability_verdict(double_integrator(), first_order_lag_minus(0.5),
                                 VerdictOptions(run_oracle=True))
        assert v.outcome is ns.Outcome.UNSTABLE
        assert v.oracle_agrees is True

    def test_dc_gain_branch(self):
        # plant 1/(s^2 + s + 1): NI with no origin pole
        plant = ns.StateSpaceModel([[0.0, 1.0], [-1.0, -1.0]], [[0.0], [1.0]],
                                   [[1.0, 0.0]], [[0.0]])
        v = ns.stability_verdict(plant, first_order_lag_minus(2.0),
                                 VerdictOptions(run_oracle=True))
        assert v.theorem_used is ns.Theorem.DC_GAIN
        assert v.condition_values["dc_gain_lambda_max"] == pytest.approx(-1.0, abs=1e-9)
        assert v.outcome is ns.Outcome.STABLE and v.oracle_agrees

    def test_precondition_not_ni(self):
        plant = ns.StateSpaceModel([[1.0]], [[1.0]], [[1.0]], [[0.0]])
        v = ns.stability_verdict(plant, first_order_lag_minus(2.0))
        assert v.outcome is ns.Outcome.PRECONDITION_FAILED
        assert "negative imaginary" in v.reason

    def test_precondition_not_sni(self):
        bad_ctrl = ns.StateSpaceModel([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        v = ns.stability_verdict(double_integrator(), bad_ctrl)
        assert v.outcome is ns.Outcome.PRECONDITION_FAILED
        assert "strictly negative imaginary" in v.reason

    def test_laurent_failure_is_inconclusive(self, monkeypatch):
        def fail(model):
            raise LimitDivergentError("numeric Laurent limits failed to settle")

        monkeypatch.setattr(ns.freebody, "laurent_coefficients", fail)
        v = ns.stability_verdict(double_integrator(), first_order_lag_minus(2.0),
                                 VerdictOptions(run_oracle=True))
        assert v.outcome is ns.Outcome.INCONCLUSIVE
        assert "LimitDivergentError" in v.reason and "failed to settle" in v.reason
        assert v.oracle_agrees is None and v.oracle_hurwitz is True

    def test_fast_mode_beside_double_integrator_is_decisive(self):
        # 1/s^2 + w^2/(s^2 + w^2): the contour route must not mistake the
        # mode's aliased Taylor terms for a higher-order origin pole
        for w in (1e3, 1e5):
            A = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0, w], [0.0, 0.0, -w, 0.0]])
            plant = ns.StateSpaceModel(A, [[0.0], [1.0], [0.0], [w]],
                                       [[1.0, 0.0, 1.0, 0.0]], [[0.0]])
            L = ns.laurent_coefficients(plant)
            np.testing.assert_allclose([L.G2[0, 0], L.G1[0, 0], L.G0[0, 0]],
                                       [1.0, 0.0, 1.0], atol=1e-9)
            v = ns.stability_verdict(plant, first_order_lag_minus(2.0),
                                     VerdictOptions(run_oracle=True))
            assert v.outcome is ns.Outcome.STABLE and v.oracle_agrees is True, w

    def test_oracle_skipped_when_channel_counts_differ(self):
        plant = ns.StateSpaceModel([[1.0]], [[1.0]], [[1.0]], [[0.0]])
        ctrl = ns.StateSpaceModel(-np.eye(2), np.eye(2), np.eye(2), -2.0 * np.eye(2))
        v = ns.stability_verdict(plant, ctrl, VerdictOptions(run_oracle=True))
        assert v.outcome is ns.Outcome.PRECONDITION_FAILED
        assert v.oracle_hurwitz is None and v.oracle_agrees is None

    def test_general_and_reduced_paths_agree_when_g1_zero(self, rng):
        """The Hankel-subspace route must reduce to the factor-of-G2 route."""
        for trial in range(12):
            trng = np.random.default_rng(rng.integers(0, 2 ** 63))
            plant, _ = random_ni_plant(trng, "double")
            ctrl = random_sni_controller(trng, plant.m)
            L = ns.laurent_coefficients(plant)
            Gbar0 = ns.eval_tf(ctrl.realization, 0.0).real
            opts = VerdictOptions()
            J = ns.full_rank_factor(L.G2).J
            JtJ = J.T @ J
            friction = L.G1 @ J @ np.linalg.solve(JtJ @ JtJ, J.T @ L.G1.T)
            va = _reduced_gain(L, Gbar0, J, np.zeros_like(L.G0),
                               ns.Theorem.DOUBLE_POLE, "j", opts)
            vb = _reduced_gain(L, Gbar0, ns.build_f_matrix(L), friction,
                               ns.Theorem.DOUBLE_POLE_GENERAL, "f", opts)
            assert (va.outcome, va.branch) == (vb.outcome, vb.branch)

    def test_gauge_invariance_of_conditions(self, rng, paper_irc):
        """Definiteness of Y' Gbar(0) Y and the projector reduction only
        depend on range(Y)."""
        Gbar0 = paper_irc.dc_gain()
        J = np.array([[0.3751], [0.0]])
        base_sign = ns.classify_definiteness(J.T @ Gbar0 @ J).kind
        baseN = ns.projector_p(Gbar0, J)
        for _ in range(20):
            R = rng.normal(size=(1, 1))
            while abs(R[0, 0]) < 0.1:
                R = rng.normal(size=(1, 1))
            JR = J @ R
            assert ns.classify_definiteness(JR.T @ Gbar0 @ JR).kind is base_sign
            np.testing.assert_allclose(ns.projector_p(Gbar0, JR), baseN, atol=1e-10)


class TestDirectStability:
    def test_case_study(self, arm_plant, paper_irc):
        assert ns.direct_stability(arm_plant, paper_irc.realization)

    def test_positive_dc_controller_destabilizes(self):
        assert not ns.direct_stability(double_integrator(), first_order_lag_minus(0.5))

    def test_static_zero_controller(self):
        g = ns.StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        gbar = ns.StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)),
                                  np.zeros((1, 0)), [[0.0]])
        assert ns.direct_stability(g, gbar)


class TestMonteCarlo:
    def test_empty_report(self):
        rep = ns.montecarlo_agreement(0)
        assert rep.agreement_fraction == 1.0
        assert rep.applicable == 0

    def test_seeded_agreement(self):
        rep = ns.montecarlo_agreement(120, seed=7)
        assert rep.agreement_fraction == 1.0
        assert not rep.disagreements
        assert rep.applicable >= 100

    def test_dc_gain_only_generator(self):
        rep = ns.montecarlo_agreement(40, seed=3, families=("dc_gain",))
        assert rep.agreement_fraction == 1.0
        assert all(k.startswith("dc_gain") for k in rep.by_theorem)

    def test_report_serializable(self):
        import json

        rep = ns.montecarlo_agreement(10, seed=0)
        json.dumps(rep.to_dict())
