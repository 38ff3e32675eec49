import json

import numpy as np
import pytest
from scipy.linalg import block_diag

import nistab as ns
from nistab.errors import DimensionError, IllPosedError, SingularAtSError

from conftest import double_integrator, first_order_lag_minus, ladder_modal_models


class TestStateSpaceModel:
    def test_model_owns_its_arrays(self):
        # the model froze the caller's float64 arrays in place, so the
        # caller's next write raised "assignment destination is read-only"
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        C = np.array([[1.0, 0.0]])
        model = ns.StateSpaceModel(A, B, C)
        A[0, 0] = 5.0
        B[0, 0] = 5.0
        C[0, 0] = 5.0
        np.testing.assert_array_equal(model.A, [[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(model.B, [[0.0], [1.0]])
        np.testing.assert_array_equal(model.C, [[1.0, 0.0]])
        assert not model.A.flags.writeable


class TestEvalTf:
    def test_double_integrator(self):
        G = ns.eval_tf(double_integrator(), 2j)
        np.testing.assert_allclose(G, [[-0.25]], atol=1e-14)

    def test_irc_dc_gain(self, paper_irc):
        G0 = ns.eval_tf(paper_irc.realization, 0.0)
        np.testing.assert_allclose(
            G0, [[-2.2029, -1.0650], [-1.0650, -0.6971]], atol=5e-5)

    def test_high_frequency_limit_is_d(self, paper_irc):
        G = ns.eval_tf(paper_irc.realization, 1e9)
        np.testing.assert_allclose(G, paper_irc.realization.D, atol=1e-6)

    def test_singular_at_pole(self):
        m = ns.StateSpaceModel([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(SingularAtSError):
            ns.eval_tf(m, 0.0)


class TestMinimal:
    def test_scalar_integrator(self):
        m = ns.StateSpaceModel([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        assert ns.is_minimal(m)

    def test_unreachable_state(self):
        m = ns.StateSpaceModel(np.diag([-1.0, -2.0]), [[1.0], [0.0]],
                               [[1.0, 0.0]], [[0.0]])
        assert not ns.is_minimal(m)

    def test_case_study_plant(self, arm_plant):
        assert ns.is_minimal(arm_plant)

    def test_similarity_invariance(self, rng, arm_plant):
        for _ in range(10):
            T = np.eye(arm_plant.n) + 0.4 * rng.normal(size=(arm_plant.n,) * 2)
            assert ns.is_minimal(ns.similarity_transform(arm_plant, T))


def _transform(rng, n, cond):
    """U diag(1 ... 1/cond) V' for random orthogonal U, V: cond(T) = cond."""
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return U @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ V.T


def _split_mode(turn):
    """One lossless mode at 2 rad/s realized as two copies, with 0.3 and 0.7
    of its rank-one coefficient; the second copy's direction is turned by
    ``turn`` rad.  At turn = 0 the mode is split in two: not minimal."""
    def copy(gain, angle):
        w = np.hypot(1.0, 0.5) * np.array([np.cos(angle), np.sin(angle)])
        return ns.modal_to_ss(ns.ModalModel(2, terms=((2.0, gain * np.outer(w, w)),)))

    a = copy(0.3, np.arctan2(0.5, 1.0))
    b = copy(0.7, np.arctan2(0.5, 1.0) + turn)
    return ns.StateSpaceModel(block_diag(a.A, b.A), np.vstack([a.B, b.B]),
                              np.hstack([a.C, b.C]))


def _jordan_triple():
    """A Jordan triple at -1 beside a mode at -2.  B reaches the triple only
    through its driving state's neighbours, so one mode is lost."""
    A = block_diag([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]], -2.0)
    return ns.StateSpaceModel(A, [[1.0], [1.0], [0.0], [1.0]], [[1.0, 1.0, 1.0, 1.0]])


def _zeroed_b_row(model):
    """``model`` with its last nonzero row of B zeroed."""
    B = model.B.copy()
    B[np.flatnonzero(np.any(B != 0.0, axis=1))[-1]] = 0.0
    return ns.StateSpaceModel(model.A, B, model.C, model.D)


class TestIsMinimal:
    """``is_minimal`` decides from the Schur-form bound or, near the cutoff,
    from the SVD margin; either way it is ``minimality_margin > 1`` (on the
    48 plants of TestMinimalityMargin too)."""

    @staticmethod
    def _plants(rng, count, families=None):
        from nistab.freebody import _FAMILIES

        families = families or _FAMILIES
        for trial in range(count):
            model, _ = ns.random_ni_plant(
                np.random.default_rng(rng.integers(0, 2 ** 63)),
                families[trial % len(families)])
            yield trial, model

    @classmethod
    def _transformed(cls, rng, count):
        """``_plants`` under similarity transforms of cond 10^(trial mod 8)."""
        for trial, model in cls._plants(rng, count):
            yield ns.similarity_transform(
                model, _transform(rng, model.n, 10.0 ** (trial % 8)))

    @staticmethod
    def _agrees(model):
        from nistab.ltimodel import minimality_margin

        margin = minimality_margin(model)
        assert ns.is_minimal(model) == (margin > 1.0)
        return margin

    def test_decision_under_ill_conditioned_similarity(self, rng):
        # cond(T) = 1 ... 1e7 takes the margins from ~1e12 down through the
        # cutoff, so the bound, the fallback and both answers all occur
        margins = [self._agrees(model) for model in self._transformed(rng, 64)]
        assert min(margins) < 1.0 < max(margins)
        assert any(1.0 < m < 1e3 for m in margins)

    def test_decision_on_non_minimal_plants(self, rng):
        # every family, those with a double pole at the origin too
        plants = [_split_mode(0.0)]
        plants += [_zeroed_b_row(model) for _, model in self._plants(rng, 32)]
        for model in plants:
            for cond in (1.0, 1e2):
                moved = ns.similarity_transform(model, _transform(rng, model.n, cond))
                assert self._agrees(moved) < 1.0

    def test_lost_mode_at_a_defective_eigenvalue(self):
        # no input reaches the driving state of the Jordan pair at the
        # origin.  eigvals puts the pair ~1e-8 off zero under a change of
        # coordinates, and there the test cleared the cutoff by 1e6; the
        # pair's mean is within rounding of the exact eigenvalue
        A = block_diag([[0.0, 1.0], [0.0, 0.0]], -1.0, -2.0)
        B = [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        C = [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]
        model = ns.StateSpaceModel(A, B, C)
        assert self._agrees(model) < 1.0
        rng = np.random.default_rng(0)
        for _ in range(5):
            Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            assert self._agrees(ns.similarity_transform(model, Q)) < 1.0

    def test_lost_mode_at_a_jordan_triple(self):
        # eigvals spreads the triple about eps^1/3 wide, past ztol: only a
        # cluster radius of that width links its members and tests their mean
        model = _jordan_triple()
        assert self._agrees(model) < 1.0
        for seed in range(50):
            Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))
            assert self._agrees(ns.similarity_transform(model, Q)) < 1.0, seed

    def test_bound_is_below_margin(self, rng):
        # up to rounding, which is of the order of one cutoff: the rank
        # test's own unit
        from nistab.ltimodel import _pbh_bound, _spectral, minimality_margin

        for model in self._transformed(rng, 64):
            assert _pbh_bound(_spectral(model)) <= minimality_margin(model) + 1.0

    def test_near_cutoff_plant_takes_the_fallback(self, monkeypatch):
        from nistab import ltimodel

        calls = []
        margin = ltimodel.minimality_margin
        monkeypatch.setattr(ltimodel, "minimality_margin",
                            lambda model: calls.append(margin(model)) or calls[-1])
        # margin ~34: minimal, but the bound (~24) is under PBH_CLEARANCE
        near = _split_mode(1e-12)
        assert ltimodel._pbh_bound(ltimodel._spectral(near)) < ltimodel.PBH_CLEARANCE
        assert ns.is_minimal(near)
        assert len(calls) == 1 and 1.0 < calls[0] < ltimodel.PBH_CLEARANCE
        # a thousand times further from the cutoff, the bound decides alone
        assert ns.is_minimal(_split_mode(1e-9))
        assert len(calls) == 1


def _pbh_bound_ztrtri(spec):
    """``ltimodel._pbh_bound`` as first written: ||R^-1||_F by ztrtri at
    every shift, O(n^4) in all."""
    from scipy.linalg import lapack

    from nistab.ltimodel import _pbh_shifts

    n, m = spec.n, spec.m
    T, Z = spec.schur
    lams = _pbh_shifts(spec)
    tri = (np.linalg.norm(np.triu(T, 1)) ** 2
           + np.sum(np.abs(np.diag(T)[None, :] - lams[:, None]) ** 2, axis=1))
    eye = np.eye(n)
    bounds = []
    for upper, rows, shifts in ((T, spec.C @ Z, lams),
                                (T.conj().T[::-1, ::-1], (spec.B.T @ Z)[:, ::-1],
                                 lams.conj())):
        fro = np.sqrt(tri + np.linalg.norm(rows) ** 2)
        for lam, f in zip(shifts, fro):
            R = lapack.ztpqrt(0, min(8, n), upper - lam * eye, rows, overwrite_a=1)[0]
            Rinv, info = lapack.ztrtri(R, overwrite_c=1)
            bounds.append(0.0 if info else 1.0 / (np.linalg.norm(Rinv) * f))
    return float(np.min(bounds, initial=np.inf) / ((n + m) * np.finfo(float).eps))


def _count_calls(monkeypatch, module, name, log):
    """Replace ``module.name`` by a wrapper that appends its result to ``log``."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        log.append(fn(*args, **kwargs))
        return log[-1]

    monkeypatch.setattr(module, name, counted)


class TestPbhBound:
    """The comparison-matrix bound of ``_pbh_bound`` and its ztrtri tier."""

    def test_comparison_bound_below_smallest_singular_value(self, rng, monkeypatch):
        # 1 / (||M^-1 e||_inf ||M^-T e||_inf)^1/2 <= sigma_min(R) at every
        # shift of every plant, R the triangle ztpqrt returns
        from scipy.linalg import lapack

        from nistab.freebody import _FAMILIES, _draw_minimal_plant
        from nistab.ltimodel import _inv_norm_bound, _pbh_bound, _spectral

        triangles = []
        fold = lapack.ztpqrt

        def kept(*args, **kwargs):
            out = fold(*args, **kwargs)
            # a copy: the ztrtri tier overwrites R with its inverse
            triangles.append(out[0].copy())
            return out

        monkeypatch.setattr(lapack, "ztpqrt", kept)
        for seed in range(3):
            seed_rng = np.random.default_rng(seed)
            for trial in range(200):
                _draw_minimal_plant(np.random.default_rng(seed_rng.integers(0, 2 ** 63)),
                                    _FAMILIES[trial % len(_FAMILIES)])
        plants = list(TestIsMinimal._transformed(rng, 64))
        for model in plants + [_jordan_triple(), _split_mode(1e-9)]:
            _pbh_bound(_spectral(model))
        assert len(triangles) > 5000
        singular = 0
        for R in triangles:
            smin = np.linalg.svd(R, compute_uv=False)[-1]
            lower = 1.0 / _inv_norm_bound(R)
            if np.all(np.diag(R)):
                assert lower <= smin * (1.0 + 1e-12)
            else:
                # a zero pivot gives NaN or 0, which clears nothing; the
                # ztrtri tier then returns 0
                singular += 1
                assert not lower > 0.0
        assert singular

    def test_fallback_parity_with_the_ztrtri_bound(self, rng, monkeypatch):
        # the SVD margin runs on exactly the plants where the ztrtri bound
        # does not clear PBH_CLEARANCE, and the decisions are the same
        from nistab import ltimodel

        margin = ltimodel.minimality_margin
        calls = []
        _count_calls(monkeypatch, ltimodel, "minimality_margin", calls)
        fallbacks = 0
        for model in TestIsMinimal._transformed(rng, 400):
            old = _pbh_bound_ztrtri(ltimodel._spectral(model))
            del calls[:]
            minimal = ns.is_minimal(model)
            assert len(calls) == (not old > ltimodel.PBH_CLEARANCE)
            assert minimal == (old > ltimodel.PBH_CLEARANCE or margin(model) > 1.0)
            fallbacks += len(calls)
        assert 0 < fallbacks < 400

    def test_ladder_takes_the_comparison_bound_alone(self, paper_irc, monkeypatch):
        # the benchmark ladder's rungs and a 100-mode rung (n = 24 to 204):
        # no shift takes the ztrtri tier, and no plant the SVD margin
        from scipy.linalg import lapack

        from nistab import freebody, ltimodel

        tier, margins = [], []
        _count_calls(monkeypatch, lapack, "ztrtri", tier)
        _count_calls(monkeypatch, ltimodel, "minimality_margin", margins)
        _count_calls(monkeypatch, freebody, "minimality_margin", margins)
        for seed in (1, 2, 3):
            for mm in ladder_modal_models(seed, (10, 25, 50, 100)):
                v = ns.run_analysis(ns.modal_to_ss(mm), paper_irc.realization).verdict
                assert (v.outcome.value, v.theorem_used.value, v.branch.value) == (
                    "stable", "full_rank_free_body", "invertible")
        assert not tier and not margins

    def test_overflow_never_clears(self):
        # scaled by 1e160 or more, ||T||_F^2 overflows: the bound is 0 or
        # NaN, never a clearing value, and the SVD margin decides
        from nistab.ltimodel import _pbh_bound, _spectral, minimality_margin

        for model, minimal in ((_split_mode(0.5), True), (_split_mode(0.0), False)):
            for scale in (1e160, 1e200):
                big = ns.StateSpaceModel(scale * model.A, scale * model.B, scale * model.C)
                with np.errstate(over="ignore", invalid="ignore"):
                    bound = _pbh_bound(_spectral(big))
                    assert bound == 0.0 or np.isnan(bound)
                    assert ns.is_minimal(big) == (minimality_margin(big) > 1.0) == minimal


class TestClosedLoop:
    def test_strictly_proper_plant_structure(self, paper_irc, arm_plant):
        cl = ns.closed_loop(arm_plant, paper_irc.realization)
        G, Gb = arm_plant, paper_irc.realization
        top = np.hstack([G.A + G.B @ Gb.D @ G.C, G.B @ Gb.C])
        bot = np.hstack([Gb.B @ G.C, Gb.A])
        np.testing.assert_allclose(cl.Abreve, np.vstack([top, bot]), atol=1e-13)

    def test_characteristic_polynomial(self):
        cl = ns.closed_loop(double_integrator(), first_order_lag_minus(2.0))
        coeffs = np.poly(cl.Abreve)
        np.testing.assert_allclose(coeffs, [1.0, 1.0, 2.0, 1.0], atol=1e-10)

    def test_ill_posed_static_loop(self):
        g = ns.StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)),
                               np.zeros((1, 0)), [[0.5]])
        gb = ns.StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)),
                                np.zeros((1, 0)), [[2.0]])
        with pytest.raises(IllPosedError):
            ns.closed_loop(g, gb)

    def test_spectrum_invariant_under_similarity(self, rng):
        g = double_integrator()
        gb = first_order_lag_minus(2.0)
        ref = np.sort_complex(np.linalg.eigvals(ns.closed_loop(g, gb).Abreve))
        for _ in range(10):
            T = np.eye(2) + 0.4 * rng.normal(size=(2, 2))
            g2 = ns.similarity_transform(g, T)
            got = np.sort_complex(np.linalg.eigvals(ns.closed_loop(g2, gb).Abreve))
            np.testing.assert_allclose(got, ref, atol=1e-8)


class TestHurwitz:
    def test_stable(self):
        assert ns.is_hurwitz(np.diag([-1.0, -2.0]))

    def test_marginal(self):
        assert not ns.is_hurwitz(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_case_study_loop(self, arm_plant, paper_irc):
        cl = ns.closed_loop(arm_plant, paper_irc.realization)
        assert ns.is_hurwitz(cl.Abreve)


class TestModalToSs:
    def test_pure_double_integrator_term(self):
        mm = ns.ModalModel(m=1, g2=[[1.0]])
        model = ns.modal_to_ss(mm)
        np.testing.assert_array_equal(model.A, [[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(model.B, [[0.0], [1.0]])
        np.testing.assert_array_equal(model.C, [[1.0, 0.0]])

    def test_single_mode_dc_value(self):
        mm = ns.ModalModel(m=1, terms=((2.0, [[3.0]]),))
        model = ns.modal_to_ss(mm)
        np.testing.assert_allclose(ns.eval_tf(model, 0.0), [[3.0 / 4.0]], atol=1e-12)

    def test_case_study_round_trip(self, beam_params):
        mm = ns.finite_dim_approx(beam_params, 1)
        model = ns.modal_to_ss(mm)
        np.testing.assert_allclose(
            ns.eval_tf(model, 1j), mm.evaluate(1j), atol=1e-10)

    def test_round_trip_random_models(self, rng):
        from nistab.freebody import random_ni_plant, _FAMILIES

        for trial in range(16):
            fam = _FAMILIES[trial % len(_FAMILIES)]
            model, mm = random_ni_plant(
                np.random.default_rng(rng.integers(0, 2 ** 63)), fam)
            for _ in range(20):
                s = complex(rng.normal(), rng.normal()) * 3.0
                if abs(s) < 0.3 or min(abs(s - 1j * p) for p, _ in mm.terms or
                                       [(1e9, None)]) < 0.2:
                    continue
                ref = mm.evaluate(s)
                got = ns.eval_tf(model, s)
                assert np.linalg.norm(got - ref) <= 1e-9 * max(1.0, np.linalg.norm(ref))

    def test_mixed_terms_minimal(self):
        # 1/s content inside and outside the double-pole range
        g1 = np.array([[0.5, 1.0], [1.0, 0.7]])
        g2 = np.array([[1.0, 0.0], [0.0, 0.0]])
        mm = ns.ModalModel(m=2, terms=((3.0, np.eye(2)),), g1=g1, g2=g2)
        model = ns.modal_to_ss(mm)
        assert ns.is_minimal(model)
        s = 0.7 + 1.1j
        np.testing.assert_allclose(ns.eval_tf(model, s), mm.evaluate(s), atol=1e-12)

    def test_decreasing_poles_rejected(self):
        with pytest.raises(DimensionError):
            ns.ModalModel(m=1, terms=((2.0, [[1.0]]), (1.0, [[1.0]])))


def _modal_to_ss_by_blocks(mm):
    """modal_to_ss assembled from np.block / vstack / hstack / block_diag,
    the construction the in-place one replaced: the identity reference."""
    from nistab.ltimodel import _factor_symmetric
    from nistab.matrixcore import full_rank_factor

    m = mm.m
    A_blocks, B_rows, C_cols = [], [], []
    scale_all = 1.0 + max(
        [np.linalg.norm(Ci) for _p, Ci in mm.terms]
        + [np.linalg.norm(M) for M in (mm.g1, mm.g2) if M is not None]
        + [0.0])
    floor = 1e-10 * scale_all
    for p, Ci in mm.terms:
        W, sgn = _factor_symmetric(Ci, floor=floor)
        r = W.shape[1]
        if r == 0:
            continue
        A_blocks.append(np.block([[np.zeros((r, r)), p * np.eye(r)],
                                  [-p * np.eye(r), np.zeros((r, r))]]))
        B_rows.append(np.vstack([np.zeros((r, m)), (sgn[:, None] * W.T) / p]))
        C_cols.append(np.hstack([W, np.zeros((m, r))]))
    G1 = np.zeros((m, m)) if mm.g1 is None else mm.g1
    G2 = np.zeros((m, m)) if mm.g2 is None else mm.g2
    J = full_rank_factor(G2).J if np.linalg.norm(G2) > 0.0 else np.zeros((m, 0))
    k = J.shape[1]
    if k > 0:
        Jpinv = np.linalg.solve(J.T @ J, J.T)
        Q = np.eye(m) - J @ Jpinv
        B3a, C3b, G1_rem = Jpinv @ G1, Q @ G1 @ Jpinv.T, Q @ G1 @ Q
    else:
        G1_rem = G1
    W2, sgn2 = _factor_symmetric(0.5 * (G1_rem + G1_rem.T), floor=floor)
    n2 = W2.shape[1]
    if n2 > 0:
        A_blocks.append(np.zeros((n2, n2)))
        B_rows.append(sgn2[:, None] * W2.T)
        C_cols.append(W2)
    if k > 0:
        A_blocks.append(np.block([[np.zeros((k, k)), np.eye(k)],
                                  [np.zeros((k, k)), np.zeros((k, k))]]))
        B_rows.append(np.vstack([B3a, J.T]))
        C_cols.append(np.hstack([J, C3b]))
    if not A_blocks:
        return np.zeros((0, 0)), np.zeros((0, m)), np.zeros((m, 0))
    return block_diag(*A_blocks), np.vstack(B_rows), np.hstack(C_cols)


def _assert_same_bits(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


def test_modal_to_ss_bitwise_equal_to_block_assembly(beam_params):
    from nistab.freebody import _FAMILIES, _draw_ni_plant

    models = [_draw_ni_plant(np.random.default_rng(seed), fam)[1]
              for fam in _FAMILIES for seed in range(100)]
    models += [ns.finite_dim_approx(beam_params, n) for n in (1, 2, 5, 10)]
    models += ladder_modal_models()
    models += [ns.ModalModel(m=2), ns.ModalModel(m=1, g1=[[0.0]])]
    for mm in models:
        got = ns.modal_to_ss(mm)
        for M, R in zip((got.A, got.B, got.C), _modal_to_ss_by_blocks(mm)):
            _assert_same_bits(M, R)
        _assert_same_bits(got.D, np.zeros((mm.m, mm.m)))


class TestJsonFormat:
    def test_round_trip(self, arm_plant):
        text = ns.model_to_json(arm_plant)
        back = ns.model_from_json(text)
        np.testing.assert_array_equal(back.A, arm_plant.A)
        np.testing.assert_array_equal(back.D, arm_plant.D)

    def test_rejects_nan(self):
        with pytest.raises(DimensionError):
            ns.model_from_dict({"A": [[float("nan")]], "B": [[1.0]], "C": [[1.0]]})

    def test_rejects_ragged(self):
        with pytest.raises(DimensionError):
            ns.model_from_dict({"A": [[0.0, 1.0], [0.0]], "B": [[0.0], [1.0]],
                                "C": [[1.0, 0.0]]})

    def test_rejects_missing_key(self):
        with pytest.raises(DimensionError):
            ns.model_from_json(json.dumps({"A": [[0.0]], "B": [[1.0]]}))

    def test_rejects_bool_entries(self):
        with pytest.raises(DimensionError):
            ns.model_from_dict({"A": [[True]], "B": [[1.0]], "C": [[1.0]]})


def _conditioned_transform(rng, n, cond):
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return U @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ V.T


def _assert_matches_eval_tf(model, s, rtol=1e-9):
    got = ns.freq_response(model, s)
    assert got.shape == (len(s), model.m, model.m)
    for Gk, sk in zip(got, s):
        ref = ns.eval_tf(model, sk)
        assert np.linalg.norm(Gk - ref) <= rtol * max(1.0, np.linalg.norm(ref)), sk


def _freq_response_row_tiled(model, s):
    """freq_response as first written: X laid out (n, K m), each row's
    right-hand side tiled and its pivots repeated m times."""
    s = np.asarray(s, dtype=complex).ravel()
    n, m, K = model.n, model.m, s.size
    G = np.repeat(model.D.astype(complex)[None], K, axis=0)
    T, Z = ns.ltimodel._spectral(model).schur
    Bt = Z.conj().T @ model.B
    pivots = s[None, :] - np.diag(T)[:, None]
    X = np.empty((n, K * m), dtype=complex)
    for i in range(n - 1, -1, -1):
        rhs = np.tile(Bt[i], K) + T[i, i + 1:] @ X[i + 1:]
        X[i] = rhs / np.repeat(pivots[i], m)
    G += np.tensordot(model.C @ Z, X.reshape(n, K, m), axes=(1, 0)).transpose(1, 0, 2)
    return G


class TestFreqResponse:
    def test_static_model(self):
        D = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = ns.StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), D)
        np.testing.assert_array_equal(ns.freq_response(m, [1j, 2.0, -3.0]),
                                      np.stack([D, D, D]))

    def test_jordan_origin_blocks(self, rng, arm_plant):
        s = np.concatenate([1j * np.geomspace(1e-3, 1e4, 50),
                            rng.normal(size=10) + 1j * rng.normal(size=10)])
        _assert_matches_eval_tf(double_integrator(), s)
        _assert_matches_eval_tf(arm_plant, s)
        for family in ("double", "mixed", "single"):
            model, _ = ns.random_ni_plant(np.random.default_rng(3), family)
            _assert_matches_eval_tf(model, s)

    def test_ill_conditioned_similarity(self, rng, arm_plant):
        # below 0.5 rad/s the arm's double pole leaves both evaluations of
        # the transformed model off the exact value by up to 3e-8
        lossless, _ = ns.random_ni_plant(np.random.default_rng(5), "dc_gain")
        for model, wmin in ((arm_plant, 0.5), (lossless, 1e-3)):
            s = 1j * np.geomspace(wmin, 1e3, 40)
            for _ in range(5):
                T = _conditioned_transform(rng, model.n, 1e3)
                _assert_matches_eval_tf(ns.similarity_transform(model, T), s)

    def test_bracket_points_beside_axis_poles(self, arm_plant):
        from nistab.niclass import POLE_GUARD, _sweep_grid

        eigs = np.linalg.eigvals(arm_plant.A)
        poles = tuple(sorted({round(z.imag, 9) for z in eigs if z.imag > 1e-6}))
        w = _sweep_grid(poles)
        near = [x for x in w
                if any(abs(x - p) <= 2.0 * POLE_GUARD * max(1.0, p) * 1.0001 for p in poles)]
        assert len(near) >= 2 * len(poles)
        _assert_matches_eval_tf(arm_plant, 1j * np.array(near))

    def test_bitwise_equal_to_row_tiled_back_substitution(self, beam_params):
        from nistab.freebody import _FAMILIES, _draw_ni_plant
        from nistab.niclass import _sweep_grid

        models = [_draw_ni_plant(np.random.default_rng(seed), fam)[0]
                  for fam in _FAMILIES for seed in range(10)]
        models += [ns.modal_to_ss(ns.finite_dim_approx(beam_params, n)) for n in (1, 5)]
        models += [ns.random_sni_controller(np.random.default_rng(seed), m).realization
                   for seed, m in ((0, 1), (1, 2), (2, 3))]
        s = np.concatenate([1j * _sweep_grid(), [0.3 + 2.0j, -0.7 - 1.1j]])
        for model in models:
            _assert_same_bits(ns.freq_response(model, s), _freq_response_row_tiled(model, s))

    def test_singular_at_eigenvalue(self):
        with pytest.raises(SingularAtSError):
            ns.freq_response(double_integrator(), [1j, 0.0])
        lag = ns.StateSpaceModel(np.diag([-1.0, -2.0]), [[1.0], [1.0]],
                                 [[1.0, 1.0]], [[0.0]])
        with pytest.raises(SingularAtSError):
            ns.freq_response(lag, [-2.0])


def _margin_every_eigenvalue(model):
    """The PBH margin taken at every eigenvalue, conjugates included."""
    n = model.n
    margin = np.inf
    for lam in np.linalg.eigvals(model.A):
        shifted = model.A - lam * np.eye(n)
        for M in (np.hstack([shifted, model.B]), np.vstack([shifted, model.C])):
            sv = np.linalg.svd(M, compute_uv=False)
            cutoff = max(M.shape) * np.finfo(float).eps * max(sv[0], 1e-300)
            margin = min(margin, sv[n - 1] / cutoff)
    return float(margin)


class TestMinimalityMargin:
    def test_conjugate_pairs_skipped_without_changing_margin(self, rng):
        from nistab.freebody import _FAMILIES
        from nistab.ltimodel import minimality_margin

        for trial in range(48):
            model, _ = ns.random_ni_plant(
                np.random.default_rng(rng.integers(0, 2 ** 63)),
                _FAMILIES[trial % len(_FAMILIES)])
            if trial % 3 == 0:
                T = np.eye(model.n) + 0.3 * rng.normal(size=(model.n,) * 2)
                model = ns.similarity_transform(model, T)
            margin = minimality_margin(model)
            assert margin == pytest.approx(_margin_every_eigenvalue(model), rel=1e-9)
            assert ns.is_minimal(model) == (margin > 1.0)

    def test_random_plant_draws_unchanged(self):
        from nistab.freebody import _FAMILIES, _draw_ni_plant

        for seed in range(40):
            family = _FAMILIES[seed % len(_FAMILIES)]
            ref_rng = np.random.default_rng(seed)
            for _ in range(50):
                ref, _mm = _draw_ni_plant(ref_rng, family)
                if _margin_every_eigenvalue(ref) > 50.0:
                    break
            got, _mm = ns.random_ni_plant(np.random.default_rng(seed), family)
            for M, R in ((got.A, ref.A), (got.B, ref.B), (got.C, ref.C)):
                np.testing.assert_array_equal(M, R)
