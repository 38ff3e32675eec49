import warnings

import numpy as np
import pytest
import scipy.linalg

import nistab as ns
from nistab.errors import (
    G2ZeroError,
    IllConditionedTransformError,
    IllPosedError,
    JordanBlockTooLargeError,
    LimitDivergentError,
    NistabError,
    NotMinimalError,
    NotStrictlyProperError,
    SingularInnerError,
)
from nistab import freebody
from nistab.freebody import (
    _FAMILIES,
    _decide,
    _draw_ni_plant,
    _reduced_gain,
    SETTLE_RTOL,
    VerdictOptions,
    random_ni_plant,
    random_sni_controller,
)
from nistab.ltimodel import _laurent_numeric_limits, minimality_margin, spectral_abscissa

from conftest import (
    damped_three_dof,
    double_integrator,
    first_order_lag_minus,
    non_minimal_double_integrator,
)


def _rebuilt(split, s):
    """G(s) from the blocks of an origin split, C1 (sI - T1)^-1 B1 + C0 (I/s + S0/s^2) B0."""
    G = split.C0 @ (np.eye(split.n0) / s + split.T0 / s ** 2) @ split.B0
    if split.n1:
        G = G + split.C1 @ np.linalg.solve(s * np.eye(split.n1) - split.T1, split.B1)
    return G


class TestBlockDiagonal:
    def test_double_integrator_structure(self):
        split = ns.to_block_diagonal(double_integrator())
        assert (split.n1, split.n2, split.k) == (0, 0, 1)
        np.testing.assert_array_equal(np.abs(split.T0), [[0.0, 1.0], [0.0, 0.0]])
        s = 1.0 + 1.0j
        np.testing.assert_allclose(_rebuilt(split, s), [[1.0 / s ** 2]], atol=1e-12)

    def test_scrambled_double_integrator_recovered(self):
        T = np.array([[2.0, -1.0], [0.5, 3.0]])
        scrambled = ns.similarity_transform(double_integrator(), T)
        split = ns.to_block_diagonal(scrambled)
        assert (split.n1, split.n2, split.k) == (0, 0, 1)
        s = 1.0 + 1.0j
        np.testing.assert_allclose(_rebuilt(split, s), [[1.0 / s ** 2]], atol=1e-10)

    def test_case_study_structure(self, arm_plant):
        split = ns.to_block_diagonal(arm_plant)
        assert (split.n1, split.n2, split.k) == (2, 0, 1)
        ev = np.diag(split.T1)
        assert np.allclose(sorted(np.abs(ev.imag)), [3.3953264] * 2, atol=1e-5)

    def test_transfer_matrix_preserved(self, rng):
        for trial in range(8):
            model, _ = random_ni_plant(
                np.random.default_rng(rng.integers(0, 2 ** 63)),
                _FAMILIES[trial % len(_FAMILIES)])
            split = ns.to_block_diagonal(model)
            for _ in range(10):
                s = complex(rng.normal(), rng.normal()) * 2 + 1.0
                ref = ns.eval_tf(model, s)
                got = _rebuilt(split, s)
                assert np.linalg.norm(got - ref) <= 1e-8 * max(1.0, np.linalg.norm(ref))

    def test_ill_conditioned_decoupling_is_inconclusive(self):
        # 1/s^2 + 1/(s + p) in companion form, with the slow pole p just
        # outside the origin tolerance (1e-7 here): its eigenvector is nearly
        # in the origin cluster's invariant subspace, so the decoupling has
        # condition number about p^-4
        p = 2e-7
        plant = ns.StateSpaceModel([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -p]],
                                   [[0.0], [0.0], [1.0]], [[p, 1.0, 1.0]], [[0.0]])
        with pytest.raises(IllConditionedTransformError):
            ns.to_block_diagonal(plant)
        ctrl = ns.make_irc([[1.0]], [[1.0]], [[2.0]]).realization
        verdict = ns.stability_verdict(plant, ctrl)
        assert verdict.outcome is ns.Outcome.INCONCLUSIVE
        assert verdict.reason.startswith(
            "Laurent data unavailable: IllConditionedTransformError")

    def test_exact_modal_data_under_ill_conditioned_transform(self):
        rng = np.random.default_rng(3)
        plant, mm = random_ni_plant(rng, "double")
        n = plant.n
        U, _ = np.linalg.qr(rng.normal(size=(n, n)))
        V, _ = np.linalg.qr(rng.normal(size=(n, n)))
        T = U @ np.diag(np.geomspace(1.0, 1e-3, n)) @ V.T
        assert np.linalg.cond(T) == pytest.approx(1e3)
        L = ns.laurent_coefficients(ns.similarity_transform(plant, T))
        G0 = sum(C / p ** 2 for p, C in mm.terms)
        assert mm.g1 is None
        np.testing.assert_allclose(L.G2, mm.g2, rtol=0, atol=1e-9 * np.linalg.norm(mm.g2))
        np.testing.assert_allclose(L.G1, 0.0, rtol=0, atol=1e-9 * np.linalg.norm(mm.g2))
        np.testing.assert_allclose(L.G0, G0, rtol=0, atol=1e-9 * np.linalg.norm(G0))

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

    def test_contour_coefficients_match_the_per_power_sums(self, rng):
        # the s^0 ... s^-4 coefficients, taken in one product, against one
        # sum per power and one norm per sample, as the rule is written
        N, r = 32, 0.3
        nodes = r * np.exp(1j * np.pi * (2 * np.arange(N // 2) + 1) / N)
        for trial in range(16):
            model, _ = random_ni_plant(np.random.default_rng(rng.integers(0, 2 ** 63)),
                                       _FAMILIES[trial % len(_FAMILIES)])
            samples = ns.freq_response(model, nodes)
            coeff = [(2.0 / N) * np.real(sum(z ** k * G for z, G in zip(nodes, samples)))
                     for k in range(5)]
            size = max(np.linalg.norm(G) for G in samples)
            tail = max(np.linalg.norm(coeff[3]) / r ** 3, np.linalg.norm(coeff[4]) / r ** 4)
            *got, settle = _laurent_numeric_limits(model, r)
            for G, ref in zip(got, coeff):
                np.testing.assert_allclose(G, ref, rtol=0.0, atol=1e-13 * size)
            assert settle == pytest.approx(tail / size, rel=1e-12, abs=1e-14)

    def test_singular_remainder_raises(self):
        # G0 = -Re C1 T1^-1 B1 is a triangular solve on T1, which raises on a
        # zero pivot; the remainder of a real split never has one, so it is
        # put in by hand
        import dataclasses

        from nistab.ltimodel import _spectral

        spec = _spectral(ns.modal_to_ss(ns.ModalModel(1, terms=((2.0, [[1.0]]),), g2=[[1.0]])))
        split = spec.origin_split
        assert split.n0 == 2 and split.n1 == 2
        T1 = split.T1.copy()
        T1[1, 1] = 0.0
        vars(spec)["origin_split"] = dataclasses.replace(split, T1=T1)
        with pytest.raises(np.linalg.LinAlgError,
                           match="singular matrix: resolution failed at diagonal 1"):
            ns.laurent_coefficients(spec)

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

    def test_vector_y_is_one_column(self):
        X = np.diag([2.0, -3.0])
        y = np.array([1.0, 1.0])
        np.testing.assert_array_equal(ns.projector_p(X, y), ns.projector_p(X, y[:, None]))

    def test_row_mismatch_rejected(self):
        with pytest.raises(SingularInnerError, match="Y has 3 rows, X is 2x2"):
            ns.projector_p(np.eye(2), np.ones((3, 1)))

    def test_singular_inner_rejected(self):
        X = np.diag([1.0, -1.0])
        Y = np.array([[1.0], [1.0]])
        with pytest.raises(SingularInnerError):
            ns.projector_p(X, Y)


class TestBuildF:
    def _laurent(self, G1, G2):
        G1, G2 = np.atleast_2d(G1), np.atleast_2d(G2)
        return ns.LaurentCoefficients(G0=np.zeros_like(G1), G1=G1, G2=G2)

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

    @pytest.mark.parametrize("run_oracle", [False, True])
    def test_integrator_controller_is_a_precondition_failure(self, run_oracle):
        # Gbar = -1/s has no Gbar(0): under skip_ni_check the verdict once
        # raised SingularAtSError from eval_tf(Gbar, 0); the NI check already
        # refuses the pair, as -1/s is not SNI
        plant = ns.StateSpaceModel([[-1.0]], [[1.0]], [[1.0]])
        ctrl = ns.StateSpaceModel([[0.0]], [[1.0]], [[-1.0]])
        v = ns.stability_verdict(plant, ctrl, VerdictOptions(run_oracle=run_oracle,
                                                             skip_ni_check=True))
        assert v.outcome is ns.Outcome.PRECONDITION_FAILED
        assert v.reason == "controller has a pole at s = 0: Gbar(0) does not exist"
        assert v.oracle_hurwitz is (True if run_oracle else None)
        assert v.oracle_agrees is None
        checked = ns.stability_verdict(plant, ctrl, VerdictOptions(run_oracle=run_oracle))
        assert checked.outcome is ns.Outcome.PRECONDITION_FAILED

    def test_ill_posed_loop_raises_only_for_a_decisive_verdict(self):
        # G = 1/(s+1) - 0.5 and Gbar = 1/(s+1) - 2: D Dbar = 1, so I - D Dbar
        # is singular; the DC-gain verdict (lambda = -0.5) is STABLE, and the
        # oracle raises; a band that makes it BOUNDARY leaves the oracle unset
        plant = first_order_lag_minus(0.5)
        ctrl = first_order_lag_minus(2.0)
        with pytest.raises(IllPosedError):
            ns.stability_verdict(plant, ctrl, VerdictOptions(run_oracle=True))
        v = ns.stability_verdict(plant, ctrl, VerdictOptions(boundary_band=10.0,
                                                             run_oracle=True))
        assert v.outcome is ns.Outcome.BOUNDARY
        assert v.oracle_hurwitz is None and v.oracle_agrees is None

    def test_empty_gram_records_minus_infinity(self):
        conds = freebody._Conditions(1e-7)
        conds.negative_definite("f_gram_max_eig", np.zeros((0, 0)))
        assert conds.values == {"f_gram_max_eig": -np.inf}
        assert conds.outcome is ns.Outcome.STABLE

    def test_laurent_failure_is_inconclusive(self, monkeypatch):
        def fail(model):
            raise LimitDivergentError("numeric Laurent limits failed to settle")

        monkeypatch.setattr(ns.freebody, "laurent_coefficients", fail)
        v = ns.stability_verdict(double_integrator(), first_order_lag_minus(2.0),
                                 VerdictOptions(run_oracle=True))
        assert v.outcome is ns.Outcome.INCONCLUSIVE
        assert "LimitDivergentError" in v.reason and "failed to settle" in v.reason
        assert v.oracle_agrees is None and v.oracle_hurwitz is True

    @pytest.mark.parametrize("settle, shift, outcome, reason", [
        (0.5 * SETTLE_RTOL, 2 * 5e-4, ns.Outcome.STABLE, ""),
        (2.0 * SETTLE_RTOL, 0.0, ns.Outcome.INCONCLUSIVE,
         "Laurent data unavailable: LimitDivergentError: numeric Laurent limits failed to settle"),
        (0.0, 2 * 2e-3, ns.Outcome.INCONCLUSIVE,
         "Laurent data unavailable: NistabError: Laurent routes disagree by 2.00e-03"),
    ], ids=["within", "unsettled", "disagreeing"])
    def test_contour_cross_check_detects_failure(self, monkeypatch, settle, shift, outcome,
                                                 reason):
        # the contour route's own result, perturbed: a settle share above
        # SETTLE_RTOL, or a G0 that differs from the split's by more than 1e-3
        # relative (scale 1 + ||G2|| = 2 for 1/s^2), makes laurent_coefficients
        # raise, and the verdict is INCONCLUSIVE with that error as its reason
        limits = freebody._laurent_numeric_limits

        def perturbed(spec, r):
            G0n, G1n, G2n, _settle = limits(spec, r)
            return G0n + shift, G1n, G2n, settle

        monkeypatch.setattr(freebody, "_laurent_numeric_limits", perturbed)
        v = ns.stability_verdict(double_integrator(), first_order_lag_minus(2.0),
                                 VerdictOptions(run_oracle=True))
        assert v.outcome is outcome
        assert v.reason.startswith(reason)
        assert v.oracle_hurwitz is True

    @pytest.mark.parametrize("gain, outcome, lam", [
        (1.0, ns.Outcome.BOUNDARY, 1.0), (0.5, ns.Outcome.STABLE, 0.5)],
        ids=["boundary", "stable"])
    def test_indefinite_reduced_gain_is_decided(self, gain, outcome, lam):
        # G2 = diag(1, 0, 0), G1 = 0: Y = J = e1, Y' Gbar(0) Y = -1 < 0, and
        # N = P(Gbar(0), Y) = diag(0, gain, -1) is indefinite (m = 3 at
        # least); G0 N = N has top eigenvalue `gain`
        L = ns.LaurentCoefficients(G0=np.eye(3), G1=np.zeros((3, 3)), G2=np.diag([1.0, 0.0, 0.0]))
        v = _decide(L, np.diag([-1.0, gain, -1.0]), VerdictOptions().boundary_band)
        assert (v.outcome, v.theorem_used, v.branch) == (
            outcome, ns.Theorem.DOUBLE_POLE, ns.Branch.NONE)
        assert v.condition_values == pytest.approx(
            {"j_gram_max_eig": -1.0, "dc_gain_lambda_max": lam}, abs=1e-12)

    @pytest.mark.parametrize("seed, trial, outcome, alpha", [
        (1, 208, ns.Outcome.UNSTABLE, 0.92), (2, 104, ns.Outcome.STABLE, -4.9e-4)],
        ids=["seed1-208", "seed2-104"])
    def test_direct_sum_of_adjacent_trials_is_decided(self, seed, trial, outcome, alpha):
        # trials `trial` and `trial` + 1 of montecarlo_agreement(400, seed),
        # summed: each sums a DC-gain loop and a full-rank free-body loop, so
        # G2 is singular (J spans the second part) and N is indefinite
        def drawn(t):
            rng = np.random.default_rng(seed)
            for _ in range(t + 1):
                trng = np.random.default_rng(rng.integers(0, 2 ** 63))
            plant, _ = random_ni_plant(trng, _FAMILIES[t % len(_FAMILIES)])
            return plant, random_sni_controller(trng, plant.m).realization

        (g1, c1), (g2, c2) = drawn(trial), drawn(trial + 1)
        plant, ctrl = (ns.StateSpaceModel(*(scipy.linalg.block_diag(getattr(a, k), getattr(b, k))
                                            for k in "ABCD"))
                       for a, b in ((g1, g2), (c1, c2)))
        v = ns.stability_verdict(plant, ctrl, VerdictOptions(skip_ni_check=True, run_oracle=True))
        assert (v.outcome, v.theorem_used, v.branch) == (
            outcome, ns.Theorem.DOUBLE_POLE, ns.Branch.NONE)
        assert v.oracle_agrees is True
        assert spectral_abscissa(ns.closed_loop(plant, ctrl)) == pytest.approx(alpha, rel=0.05)

    @pytest.mark.parametrize("D, delta, outcome, lam", [
        ([[2.5, 2.0, 2.0], [2.0, 3.0, 1.0], [2.0, 1.0, 2.0]], [3.0, 0.0, 2.0],
         ns.Outcome.STABLE, 0.5),
        ([[2.0, 0.0, 1.0], [0.0, 2.5, 1.0], [1.0, 1.0, 1.0]], [2.0, 2.0, -3.0],
         ns.Outcome.UNSTABLE, 2.0),
    ], ids=["stable", "unstable"])
    def test_damped_plant_with_indefinite_g0_is_decided(self, D, delta, outcome, lam):
        # a damped free mass beside two sprung ones: one origin pole (G2 = 0),
        # G0 indefinite, and an IRC with Gbar(0) = I - Delta that makes N
        # indefinite
        plant = damped_three_dof(D)
        v = ns.stability_verdict(plant, ns.make_irc(np.eye(3), np.eye(3), np.diag(delta)).realization,
                                 VerdictOptions(run_oracle=True))
        w = np.linalg.eigvalsh(v.laurent.G0)
        assert w[0] < 0.0 < w[-1]
        assert (v.outcome, v.theorem_used, v.branch) == (
            outcome, ns.Theorem.SINGLE_POLE, ns.Branch.NONE)
        assert v.condition_values["dc_gain_lambda_max"] == pytest.approx(lam, abs=1e-9)
        assert v.oracle_agrees is True

    def test_non_minimal_plant_is_inconclusive(self):
        # the classification cannot run on a non-minimal plant; its error is
        # the verdict's reason, as a Laurent failure is, and the oracle runs
        ctrl = ns.make_irc([[1.0]], [[1.0]], [[2.0]]).realization
        for opts, stage in ((VerdictOptions(run_oracle=True), "classification"),
                            (VerdictOptions(run_oracle=True, skip_ni_check=True),
                             "Laurent data")):
            v = ns.stability_verdict(non_minimal_double_integrator(), ctrl, opts)
            assert v.outcome is ns.Outcome.INCONCLUSIVE
            assert v.reason.startswith(f"{stage} unavailable: NotMinimalError: ")
            assert v.ni is None
            assert v.oracle_hurwitz is True and v.oracle_agrees is None

    def test_overflowing_plant_data_is_inconclusive(self):
        # G(0) of the first plant and G1 of the second (1e400/s) overflow to
        # infinity; neither may reach the decision, which raised or decided
        ctrl = ns.make_irc([[1.0]], [[1.0]], [[2.0]]).realization
        opts = VerdictOptions(skip_ni_check=True)
        v = ns.stability_verdict(ns.StateSpaceModel([[-1.0]], [[1e200]], [[-1e200]]), ctrl, opts)
        assert v.outcome is ns.Outcome.INCONCLUSIVE and "not finite" in v.reason
        # the Laurent routes overflow on the second (G1 = C0 B0, the contour
        # coefficients), which they do not test for
        with np.errstate(over="ignore", invalid="ignore"):
            v = ns.stability_verdict(ns.StateSpaceModel([[0.0]], [[1e200]], [[1e200]]),
                                     ctrl, opts)
        assert v.outcome is ns.Outcome.INCONCLUSIVE and "not finite" in v.reason

    def test_overflowing_decision_is_inconclusive(self):
        # G(0) = -1e300 and Gbar(0) are finite, but with the gain -1e10 the
        # DC-gain product G(0) Gbar(0) overflows: eigvals raised LinAlgError on
        # it.  With the gain 2 nothing the decision forms overflows (||G(0)||
        # is taken without squaring), and the verdict stays UNSTABLE
        plant = ns.StateSpaceModel([[-1.0]], [[1e150]], [[-1e150]])
        opts = VerdictOptions(skip_ni_check=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v = ns.stability_verdict(plant, ns.make_irc([[1.0]], [[1.0]], [[-1e10]]).realization,
                                     opts)
            assert v.outcome is ns.Outcome.INCONCLUSIVE and "not finite" in v.reason
            v = ns.stability_verdict(plant, ns.make_irc([[1.0]], [[1.0]], [[2.0]]).realization,
                                     opts)
            assert v.outcome is ns.Outcome.UNSTABLE
            assert v.condition_values["dc_gain_lambda_max"] == pytest.approx(1e300)

    def test_overflowing_loop_leaves_the_oracle_unset(self):
        # the closed-loop matrix holds B Dbar C = -inf: the oracle has nothing
        # to test, and the analysis reports the classification's error
        plant = ns.StateSpaceModel([[-1.0]], [[1e200]], [[-1e200]])
        ctrl = ns.make_irc([[1.0]], [[1.0]], [[2.0]]).realization
        v = ns.stability_verdict(plant, ctrl, VerdictOptions(skip_ni_check=True, run_oracle=True))
        assert v.outcome is ns.Outcome.INCONCLUSIVE
        assert v.oracle_hurwitz is None and v.oracle_agrees is None
        rep = ns.run_analysis(plant, ctrl)
        assert rep.verdict.outcome is ns.Outcome.INCONCLUSIVE
        assert "NonFiniteResponseError" in rep.verdict.reason
        assert rep.oracle_hurwitz is None

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

    def test_faster_modes_beside_double_integrator_are_decisive(self):
        # read on a third of w, the contour G2 carried rounding of size
        # eps (w / 3)^2 |G0| and disagreed with the realization by 1e-3
        for w in (2e6, 3e6):
            mm = ns.ModalModel(m=1, terms=((w, [[w * w]]),), g2=[[1.0]])
            plant = ns.modal_to_ss(mm)
            L = ns.laurent_coefficients(plant)
            assert L.agreement <= 1e-9, w
            v = ns.stability_verdict(plant, first_order_lag_minus(2.0),
                                     VerdictOptions(run_oracle=True))
            assert v.outcome is ns.Outcome.STABLE and v.oracle_agrees is True, w

    def test_ni_report_and_verdict_agree_on_free_body_motion(self, rng):
        for trial in range(2 * len(_FAMILIES)):
            family = _FAMILIES[trial % len(_FAMILIES)]
            trng = np.random.default_rng(rng.integers(0, 2 ** 63))
            plant, _ = random_ni_plant(trng, family)
            ctrl = random_sni_controller(trng, plant.m).realization
            unchecked = ns.stability_verdict(plant, ctrl, VerdictOptions(skip_ni_check=True))
            v = ns.stability_verdict(plant, ctrl)
            free_body = v.ni.cond4_G2 is not None
            assert free_body == (family != "dc_gain")
            for verdict in (v, unchecked):
                if verdict.theorem_used is not ns.Theorem.NONE:
                    assert free_body == (verdict.theorem_used is not ns.Theorem.DC_GAIN)
            assert v.to_dict() == unchecked.to_dict()

    def test_no_spectral_data_outlives_a_call(self, arm_plant, paper_irc, monkeypatch):
        # one PBH test per verdict, and none saved for the next call on the
        # same model
        calls = []
        is_minimal = ns.ltimodel.is_minimal

        def counted(model):
            calls.append(model)
            return is_minimal(model)

        monkeypatch.setattr(ns.ltimodel, "is_minimal", counted)
        for _ in range(2):
            v = ns.stability_verdict(arm_plant, paper_irc.realization)
            assert v.outcome is ns.Outcome.STABLE
        assert len(calls) == 2

    def test_one_schur_form_of_the_plant(self, arm_plant, paper_irc, monkeypatch):
        # the PBH test, the NI test and the Laurent routes share it
        import scipy.linalg

        schur = scipy.linalg.schur
        plant_forms = []

        def counted(a, *args, **kwargs):
            plant_forms.append(np.array_equal(a, arm_plant.A))
            return schur(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", counted)
        v = ns.stability_verdict(arm_plant, paper_irc.realization)
        assert v.outcome is ns.Outcome.STABLE
        assert sum(plant_forms) == 1

    def test_oracle_skipped_when_channel_counts_differ(self):
        plant = ns.StateSpaceModel([[1.0]], [[1.0]], [[1.0]], [[0.0]])
        ctrl = ns.StateSpaceModel(-np.eye(2), np.eye(2), np.eye(2), -2.0 * np.eye(2))
        v = ns.stability_verdict(plant, ctrl, VerdictOptions(run_oracle=True))
        assert v.outcome is ns.Outcome.PRECONDITION_FAILED
        assert v.oracle_hurwitz is None and v.oracle_agrees is None

    @pytest.mark.parametrize("skip_ni_check", [False, True])
    def test_channel_counts_differ_is_a_precondition_failure(self, paper_irc, skip_ni_check):
        # 1-channel plants beside the 2-channel paper IRC: the double
        # integrator once read STABLE off Gbar(0) alone, and the lag (no
        # origin pole) raised ValueError from G0 @ Gbar(0)
        lag = ns.StateSpaceModel([[-1.0]], [[1.0]], [[1.0]])
        for plant in (double_integrator(), lag):
            v = ns.stability_verdict(plant, paper_irc.realization,
                                     VerdictOptions(run_oracle=True, skip_ni_check=skip_ni_check))
            assert v.outcome is ns.Outcome.PRECONDITION_FAILED
            assert "plant 1" in v.reason and "controller 2" in v.reason
            assert v.laurent is None and v.oracle_hurwitz is None

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
            va = _reduced_gain(L, Gbar0, J, np.zeros_like(L.G0), opts.boundary_band,
                               ns.Theorem.DOUBLE_POLE, "j_gram_max_eig")
            vb = _reduced_gain(L, Gbar0, ns.build_f_matrix(L), friction, opts.boundary_band,
                               ns.Theorem.DOUBLE_POLE_GENERAL, "f_gram_max_eig")
            assert (va.outcome, va.branch) == (vb.outcome, vb.branch)

    def test_singular_failing_gram_is_unstable(self):
        # trial 4 of montecarlo_agreement(200, seed=8), a mixed plant (n = 11,
        # m = 2): F' Gbar(0) F has eigenvalues 1.1e-13 and 3.44, so the
        # necessary condition F' Gbar(0) F < 0 fails although the Gram matrix
        # is singular; the loop's spectral abscissa is +2.16.  F has m
        # columns, so N = 0 and the branch is invertible
        rng = np.random.default_rng(8)
        for _ in range(5):
            trng = np.random.default_rng(rng.integers(0, 2 ** 63))
        plant, _ = random_ni_plant(trng, _FAMILIES[4])
        ctrl = random_sni_controller(trng, plant.m).realization
        assert (_FAMILIES[4], plant.n, plant.m) == ("mixed", 11, 2)
        v = ns.stability_verdict(plant, ctrl,
                                 VerdictOptions(skip_ni_check=True, run_oracle=True))
        assert v.outcome is ns.Outcome.UNSTABLE
        assert (v.theorem_used, v.branch) == (ns.Theorem.DOUBLE_POLE_GENERAL,
                                              ns.Branch.INVERTIBLE)
        assert v.condition_values["f_gram_max_eig"] == pytest.approx(3.44, abs=0.01)
        assert v.oracle_agrees is True

    @pytest.mark.parametrize("seed, trial, theorem, key, top", [
        (1, 242, ns.Theorem.DOUBLE_POLE, "j_gram_max_eig", 4.13),
        (2, 301, ns.Theorem.SINGLE_POLE, "f1_gram_max_eig", 20.76),
    ])
    def test_failed_gram_with_indefinite_n_is_unstable(self, seed, trial, theorem, key, top):
        # trial `trial` of montecarlo_agreement(400, seed): the Gram condition
        # fails and N = P(Gbar(0), Y) is indefinite; the loop is unstable
        # (spectral abscissa +1.50 and +1.62)
        rng = np.random.default_rng(seed)
        for _ in range(trial + 1):
            trng = np.random.default_rng(rng.integers(0, 2 ** 63))
        plant, _ = random_ni_plant(trng, _FAMILIES[trial % len(_FAMILIES)])
        ctrl = random_sni_controller(trng, plant.m).realization
        L = ns.laurent_coefficients(plant)
        Y = ns.full_rank_factor(L.G2 if theorem is ns.Theorem.DOUBLE_POLE else L.G1).J
        Gbar0 = ns.eval_tf(ctrl, 0.0).real
        assert ns.classify_definiteness(ns.projector_p(Gbar0, Y)).kind is \
            ns.DefinitenessKind.INDEFINITE
        v = ns.stability_verdict(plant, ctrl,
                                 VerdictOptions(skip_ni_check=True, run_oracle=True))
        assert (v.outcome, v.theorem_used, v.branch) == (
            ns.Outcome.UNSTABLE, theorem, ns.Branch.NONE)
        assert list(v.condition_values) == [key, "dc_gain_lambda_max"]
        assert v.condition_values[key] == pytest.approx(top, abs=0.01)
        assert v.oracle_agrees is True

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


def _irc(delta):
    """IRC with Gamma = Phi = I and the given diagonal Delta."""
    m = len(delta)
    return ns.make_irc(np.eye(m), np.eye(m), np.diag(delta)).realization


_IN_BAND = "a decisive quantity sits inside the tolerance band"

# id: plant, controller, options, then the expected record: outcome, theorem,
# branch, condition values (each within 1e-12) and reason
_VERDICT_PATHS = {
    "dc_gain_boundary": (
        first_order_lag_minus(0.0), first_order_lag_minus(0.0), VerdictOptions(),
        "boundary", "dc_gain", "none", {"dc_gain_lambda_max": 1.0}, _IN_BAND),
    "psd_branch_boundary": (
        ns.modal_to_ss(ns.ModalModel(m=2, terms=((1.0, np.diag([0.0, 0.5])),),
                                     g2=np.diag([1.0, 0.0]))),
        _irc([2.0, -1.0]), VerdictOptions(run_oracle=True),
        "boundary", "double_pole", "psd",
        {"j_gram_max_eig": -1.0, "dc_gain_lambda_max": 1.0}, _IN_BAND),
    "nsd_branch_boundary": (  # [[1/s^2, 0], [0, -0.5/(s + 1)]]
        ns.StateSpaceModel([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
                           [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                           [[1.0, 0.0, 0.0], [0.0, 0.0, -0.5]]),
        _irc([2.0, 3.0]), VerdictOptions(skip_ni_check=True),
        "boundary", "double_pole", "nsd",
        {"j_gram_max_eig": -1.0, "dc_gain_lambda_max": 1.0}, _IN_BAND),
    "not_strictly_proper": (  # 1/s^2 + 0.5
        ns.StateSpaceModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.5]]),
        _irc([2.0]), VerdictOptions(),
        "precondition_failed", "none", "none", {},
        "free-body analysis requires a strictly proper plant"),
    "laurent_coefficients_vanish": (
        ns.StateSpaceModel(np.diag([0.0, -1.0]), [[1e-5], [1.0]], [[1e-5, 1.0]]),
        _irc([2.0]), VerdictOptions(),
        "precondition_failed", "none", "none", {},
        "origin pole detected but both Laurent coefficients vanish "
        "(numerically inconsistent model)"),
    "dc_gain_product_not_real": (
        ns.StateSpaceModel(-np.eye(2), np.eye(2), [[1.0, 2.0], [-2.0, 1.0]]),
        _irc([2.0, 3.0]), VerdictOptions(skip_ni_check=True),
        "precondition_failed", "none", "none", {},
        "dc gain product has non-real eigenvalues; models are not NI/SNI consistent"),
    "negative_axis_residue": (  # -1/(s^2 + 1)
        ns.StateSpaceModel([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[-1.0, 0.0]]),
        _irc([2.0]), VerdictOptions(),
        "precondition_failed", "none", "none", {},
        "plant is not negative imaginary: residue at j*1 has eigenvalue -5.000e-01"),
}


class TestVerdictPaths:
    """Boundary branches and precondition failures, each pinned by its record."""

    @pytest.mark.parametrize("case", list(_VERDICT_PATHS))
    def test_record(self, case):
        G, Gbar, opts, outcome, theorem, branch, values, reason = _VERDICT_PATHS[case]
        d = ns.stability_verdict(G, Gbar, opts).to_dict()
        assert (d["outcome"], d["theorem_used"], d["branch"], d["reason"]) == (
            outcome, theorem, branch, reason)
        assert list(d["condition_values"]) == list(values)
        for key, value in values.items():
            assert d["condition_values"][key] == pytest.approx(value, abs=1e-12)

    def test_psd_branch_boundary_loop_is_not_hurwitz(self):
        G, Gbar, opts, *_ = _VERDICT_PATHS["psd_branch_boundary"]
        v = ns.stability_verdict(G, Gbar, opts)
        assert v.oracle_hurwitz is False and v.oracle_agrees is None


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

    def test_unknown_family_is_a_contract_violation(self):
        # a bare ValueError escaped the NistabError hierarchy; the error is
        # still a ValueError for callers that catch that
        for draw in (random_ni_plant, _draw_ni_plant):
            with pytest.raises(NistabError, match="unknown family 'bogus'"):
                draw(np.random.default_rng(0), "bogus")

    def test_dc_gain_only_generator(self, monkeypatch):
        monkeypatch.setattr(freebody, "_FAMILIES", ("dc_gain",))
        rep = ns.montecarlo_agreement(40, seed=3)
        assert rep.agreement_fraction == 1.0
        assert all(k.startswith("dc_gain") for k in rep.by_theorem)

    def test_draw_gives_up_after_50_tries(self, monkeypatch):
        monkeypatch.setattr(freebody, "minimality_margin", lambda spec: 0.0)
        with pytest.raises(NistabError, match="could not draw a comfortably minimal 'single'"):
            freebody._draw_minimal_plant(np.random.default_rng(0), "single")

    def test_disagreement_recorded(self, monkeypatch):
        # an oracle whose sign is flipped contradicts every decisive verdict
        abscissa = freebody.spectral_abscissa
        monkeypatch.setattr(freebody, "spectral_abscissa", lambda M: -abscissa(M))
        rep = ns.montecarlo_agreement(8, seed=0)
        assert rep.applicable and rep.agreements == 0
        assert len(rep.disagreements) == rep.applicable
        trial, family, outcome = rep.disagreements[0]
        assert family == _FAMILIES[trial % len(_FAMILIES)]
        assert outcome in ("stable", "unstable")
        assert rep.to_dict()["disagreements"][0] == {
            "trial": trial, "family": family, "outcome": outcome}

    def test_report_serializable(self):
        import json

        rep = ns.montecarlo_agreement(10, seed=0)
        json.dumps(rep.to_dict())

    def test_one_spectral_pass_per_trial(self, monkeypatch):
        # the draw filter's record serves the verdict: one Schur form and one
        # minimality margin (two stacked SVD calls) per plant, which the
        # verdict's minimality test reads; no PBH bound, no ztpqrt fold and no
        # eigenvector record
        import scipy.linalg
        from scipy.linalg import lapack

        from nistab import ltimodel

        plants, forms, margins, stacks, machinery = [], [], [], [], []
        draw, schur, svd = freebody._draw_ni_plant, scipy.linalg.schur, np.linalg.svd
        margin = ltimodel.minimality_margin

        def drawn(*args, **kwargs):
            model, mm = draw(*args, **kwargs)
            plants.append(model.A)
            return model, mm

        def counted_schur(a, *args, **kwargs):
            forms.append(next((i for i, A in enumerate(plants) if np.array_equal(a, A)), None))
            return schur(a, *args, **kwargs)

        def counted_margin(model):
            margins.append(margin(model))
            return margins[-1]

        def counted_svd(a, *args, **kwargs):
            if np.ndim(a) == 3:
                stacks.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def forbidden(name, fn):
            def called(*args, **kwargs):
                machinery.append(name)
                return fn(*args, **kwargs)
            return called

        monkeypatch.setattr(freebody, "_draw_ni_plant", drawn)
        monkeypatch.setattr(scipy.linalg, "schur", counted_schur)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(ltimodel, "minimality_margin", counted_margin)
        monkeypatch.setattr(freebody, "minimality_margin", counted_margin)
        for module, name in ((ltimodel, "_pbh_bound"), (ltimodel, "_eigvecs"),
                             (lapack, "ztpqrt")):
            monkeypatch.setattr(module, name, forbidden(name, getattr(module, name)))
        rep = ns.montecarlo_agreement(16, seed=0)
        assert rep.count == 16 and not rep.disagreements
        assert len(plants) == 16
        assert sorted(i for i in forms if i is not None) == list(range(16))
        assert len(margins) == 16 and min(margins) > 50.0
        assert len(stacks) == 32
        assert not machinery

    def test_marginal_oracle_decided_by_the_two_norm(self, monkeypatch):
        # the oracle is marginal where |alpha| <= 1e-7 max(1, ||Abreve||_2);
        # the Frobenius pre-test (||.||_2 <= ||.||_F) may only skip the SVD
        # above 1e-7 max(1, ||Abreve||_F).  Every decisive trial's |alpha| is
        # put strictly between the two thresholds, where the loop is decided,
        # then on the 2-norm threshold, where it is marginal; alpha keeps its
        # sign, so the verdicts still agree
        abscissa, placed = freebody.spectral_abscissa, []

        def at(share):
            def fake(M):
                two, fro = max(1.0, np.linalg.norm(M, 2)), max(1.0, np.linalg.norm(M))
                assert two < fro
                placed.append(M.shape)
                return np.sign(abscissa(M)) * 1e-7 * (two ** (1.0 - share) * fro ** share)
            return fake

        monkeypatch.setattr(freebody, "spectral_abscissa", at(0.5))
        between = ns.montecarlo_agreement(16, seed=0)
        assert placed and between.applicable == between.agreements == len(placed)
        del placed[:]
        monkeypatch.setattr(freebody, "spectral_abscissa", at(0.0))
        on_two = ns.montecarlo_agreement(16, seed=0)
        assert placed and on_two.applicable == 0
        assert on_two.boundary == between.boundary + len(placed)

    def test_filter_keeps_the_margin_draws(self):
        # the filter keeps exactly the draws of "margin > 50" and returns a plain model
        def reference(rng, family):
            for _ in range(50):
                model, mm = _draw_ni_plant(rng, family)
                if minimality_margin(model) > 50.0:
                    return model, mm

        for family in _FAMILIES:
            for seed in range(4):
                model, mm = random_ni_plant(np.random.default_rng(seed), family)
                ref, ref_mm = reference(np.random.default_rng(seed), family)
                assert type(model) is ns.StateSpaceModel
                for got, want in zip((model.A, model.B, model.C, model.D),
                                     (ref.A, ref.B, ref.C, ref.D)):
                    assert got.tobytes() == want.tobytes()
                assert mm.meta == ref_mm.meta and len(mm.terms) == len(ref_mm.terms)
