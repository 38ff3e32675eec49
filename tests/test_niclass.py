import numpy as np
import pytest
import scipy.linalg

import nistab as ns
from nistab import ltimodel, niclass
from nistab.errors import NotAPoleError, NotMinimalError, NotSimplePoleError
from nistab.ltimodel import _spectral

from conftest import double_integrator, first_order_lag_minus, ladder_modal_models


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

    def test_sweep_noise_under_floor_is_not_a_violation(self):
        # a lossless plant has j(G - G*) = 0 off its poles; in a realization
        # with cond(T) = 1e4 the evaluated value falls below
        # -COND2_RTOL (1 + ||G||) beside the poles, but not below the floor
        from nistab.niclass import COND2_RTOL

        mm = ns.ModalModel(m=1, terms=((1.0, [[1.0]]), (3.0, [[2.0]]), (10.0, [[5.0]])))
        lossless = ns.modal_to_ss(mm)
        # the same modes beside -0.1/(s + 1), a genuine violation of condition 2
        lossy = ns.StateSpaceModel(
            scipy.linalg.block_diag(lossless.A, [[-1.0]]),
            np.vstack([lossless.B, [[1.0]]]), np.hstack([lossless.C, [[-0.1]]]),
            [[0.0]])
        rng = np.random.default_rng(0)
        for model, is_ni in ((lossless, True), (lossy, False)):
            n = model.n
            U, _ = np.linalg.qr(rng.normal(size=(n, n)))
            V, _ = np.linalg.qr(rng.normal(size=(n, n)))
            T = U @ np.diag(np.geomspace(1.0, 1e-4, n)) @ V.T
            scrambled = ns.similarity_transform(model, T)
            rep = ns.classify_ni(scrambled)
            assert rep.is_ni is is_ni, rep.reasons
            under = [me + COND2_RTOL * (1.0 + np.linalg.norm(ns.eval_tf(scrambled, 1j * w), 2))
                     for w, me in rep.cond2_min_eig_by_freq]
            assert min(under) < 0.0
        assert any("j(G - G*) has eigenvalue" in r for r in rep.reasons)

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


def _conditioned(model, cond, seed):
    """model under U diag(geomspace(1, cond, n)) V^T, U and V random orthogonal."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(model.n, model.n)))
    V, _ = np.linalg.qr(rng.normal(size=(model.n, model.n)))
    return ns.similarity_transform(model, U @ np.diag(np.geomspace(1.0, cond, model.n)) @ V.T)


class TestSweepBounds:
    """The bounds that let the sweeps skip exact SVDs decide as the SVDs would."""

    def _controllers(self, paper_irc):
        irc = paper_irc.realization
        return ([irc, _conditioned(irc, 1e6, 0)]
                + [ns.random_sni_controller(np.random.default_rng(seed), 1 + seed % 3).realization
                   for seed in range(20)])

    def test_floor_bound_is_above_noise_floor(self, paper_irc):
        for model in self._controllers(paper_irc):
            spec = _spectral(model)
            omegas = niclass._sweep_grid()
            _, G = niclass._sweep_min_eigs(spec, omegas)
            bound = niclass._noise_floor_bound(spec, omegas, np.linalg.norm(G, axis=(1, 2)))
            floor = niclass._noise_floor(spec, omegas, niclass._norm2(G))
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
        exact_floor = niclass._noise_floor
        exact_points = []

        def spy(model, omegas, norms):
            exact_points.append(omegas.size)
            return exact_floor(model, omegas, norms)

        monkeypatch.setattr(niclass, "_noise_floor", spy)
        got = [ns.classify_sni(m).to_dict() for m in models]
        assert sum(exact_points[:3]) > 0 and exact_points[3] == 0
        monkeypatch.setattr(niclass, "_noise_floor_bound",
                            lambda spec, omegas, norms: np.full(omegas.size, np.inf))
        assert got == [ns.classify_sni(m).to_dict() for m in models]


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


class TestSimpleResidues:
    """A single-eigenvalue axis cluster takes the batched eigenvector kernel."""

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
            got = niclass._simple_residues(spec, np.array([idx[0] for _w, idx in simple], int))
            for K, (w0, idx) in zip(got, simple, strict=True):
                ref = niclass._cluster_residue(spec, idx, w0)
                assert np.linalg.norm(K - ref) <= 1e-8 * np.linalg.norm(ref), (model.n, w0)
            checked += len(simple)
        assert checked > 1000

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
