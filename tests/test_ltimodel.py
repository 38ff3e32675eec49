import json
import warnings

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


    @pytest.mark.parametrize("A, B, C, D, text", [
        (np.zeros((2, 2, 1)), np.zeros((2, 1)), np.zeros((1, 2)), None, "A must be a 2-D array"),
        (np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 3)), None, r"A must be square"),
        (np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)), None, "B has 3 rows, expected 2"),
        (np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 3)), None,
         "C has 3 columns, expected 2"),
        (np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((2, 2)), None,
         "square transfer matrix required: 2 outputs vs 1 inputs"),
        (np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((2, 2)),
         r"D must be 1x1, got \(2, 2\)"),
        # a 1-D array is a column: a C of two entries is a 2 x 1 output map
        (np.zeros((2, 2)), np.zeros((2, 1)), np.zeros(2), None, "C has 1 columns, expected 2"),
    ], ids=["A_ndim", "A_square", "B_rows", "C_columns", "square", "D_shape", "C_1d"])
    def test_dimension_checks(self, A, B, C, D, text):
        with pytest.raises(DimensionError, match=text):
            ns.StateSpaceModel(A, B, C, D)


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


def _count_calls(monkeypatch, module, name, log):
    """Replace ``module.name`` by a wrapper that appends its result to ``log``."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        log.append(fn(*args, **kwargs))
        return log[-1]

    monkeypatch.setattr(module, name, counted)


class TestPbhBound:
    """The comparison-matrix bound of ``_pbh_bound`` and the margin behind it."""

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
            triangles.append(out[0])
            return out

        monkeypatch.setattr(lapack, "ztpqrt", kept)
        # each distinct shift is folded once, so it takes ten seeds of draws
        # (three before) to keep more than 5000 triangles; the draw filter
        # takes no bound, so each draw's is taken here
        for seed in range(10):
            seed_rng = np.random.default_rng(seed)
            for trial in range(200):
                spec, _ = _draw_minimal_plant(
                    np.random.default_rng(seed_rng.integers(0, 2 ** 63)),
                    _FAMILIES[trial % len(_FAMILIES)])
                _pbh_bound(spec)
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
                # a zero pivot gives NaN or 0, which clears nothing
                singular += 1
                assert not lower > 0.0
        assert singular

    def test_fallback_runs_where_the_bound_does_not_clear(self, rng, monkeypatch):
        # the SVD margin runs on exactly the plants where the comparison bound
        # does not clear PBH_CLEARANCE, and every decision is margin > 1
        from nistab import ltimodel

        margin = ltimodel.minimality_margin
        calls = []
        _count_calls(monkeypatch, ltimodel, "minimality_margin", calls)
        fallbacks = 0
        for model in TestIsMinimal._transformed(rng, 400):
            bound = ltimodel._pbh_bound(ltimodel._spectral(model))
            del calls[:]
            minimal = ns.is_minimal(model)
            assert len(calls) == (not bound > ltimodel.PBH_CLEARANCE)
            assert minimal == (margin(model) > 1.0)
            fallbacks += len(calls)
        assert 0 < fallbacks < 400

    def test_singular_triangle_clears_nothing(self):
        # the mode at 2 is uncontrollable: B has an exact zero on it, so the
        # [A - 2I, B] triangle has a zero pivot; the bound is 0 or NaN, with
        # no RuntimeWarning, and the margin decides
        from nistab import ltimodel

        model = ns.StateSpaceModel(np.diag([1.0, 2.0]), [[1.0], [0.0]], [[1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bound = ltimodel._pbh_bound(ltimodel._spectral(model))
            assert not bound > 0.0
            assert not ns.is_minimal(model)

    def test_ladder_takes_the_comparison_bound_alone(self, paper_irc, monkeypatch):
        # the benchmark ladder's rungs and a 100-mode rung (n = 24 to 204):
        # no plant takes the SVD margin
        from nistab import freebody, ltimodel

        margins = []
        _count_calls(monkeypatch, ltimodel, "minimality_margin", margins)
        _count_calls(monkeypatch, freebody, "minimality_margin", margins)
        for seed in (1, 2, 3):
            for mm in ladder_modal_models(seed, (10, 25, 50, 100)):
                v = ns.run_analysis(ns.modal_to_ss(mm), paper_irc.realization).verdict
                assert (v.outcome.value, v.theorem_used.value, v.branch.value) == (
                    "stable", "full_rank_free_body", "invertible")
        assert not margins

    @staticmethod
    def _deflated_excess(model):
        """Largest (bound - sigma_min) over the sides ``_deflated_bounds`` bounds, each at the
        t_ii of its record entry, in units of the cutoff (n + m) eps ||.||_F, and the number
        of such sides."""
        from nistab.ltimodel import _deflated_bounds, _spectral

        spec = _spectral(model)
        rec = spec.eigvecs
        lower = _deflated_bounds(rec, np.array([[np.linalg.norm(model.C)],
                                                [np.linalg.norm(model.B)]]))
        n, worst, sides = model.n, -np.inf, 0
        for k, i in enumerate(rec.idx):
            shifted = model.A - spec.eigs[i] * np.eye(n)
            for M, b in ((np.vstack([shifted, model.C]), lower[0, k]),
                         (np.hstack([shifted, model.B]), lower[1, k])):
                smin = np.linalg.svd(M, compute_uv=False)[n - 1]
                unit = (n + model.m) * np.finfo(float).eps * np.linalg.norm(M)
                worst, sides = max(worst, (b - smin) / unit), sides + 1
        return worst, sides

    def test_deflated_bound_below_smallest_singular_value(self, rng):
        # at every record entry (one Schur diagonal entry in the cluster
        # radius of a shift), on both sides: minimal plants under cond(T) up
        # to 1e7, plants with a zeroed B row (a lost mode, whose gamma is
        # rounding: a Gram form of it would clear the cutoff) at cond 1, 1e2
        # and 1e4, the ladder rungs, the Jordan triple and the split modes,
        # rotated too
        plants = list(TestIsMinimal._transformed(rng, 400))
        for cond in (1.0, 1e2, 1e4):
            plants += [ns.similarity_transform(_zeroed_b_row(model),
                                               _transform(rng, model.n, cond))
                       for _, model in TestIsMinimal._plants(rng, 600)]
        plants += [ns.modal_to_ss(mm) for seed in (1, 2, 3)
                   for mm in ladder_modal_models(seed, (10, 25, 50))]
        for model in (_jordan_triple(), _split_mode(0.0), _split_mode(1e-12), _split_mode(1e-9)):
            plants.append(model)
            for seed in range(10):
                Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(model.n, model.n)))
                plants.append(ns.similarity_transform(model, Q))
        results = [self._deflated_excess(model) for model in plants]
        assert max(worst for worst, _ in results) <= 1.0
        assert sum(sides for _, sides in results) > 5000

    def test_real_eigenvalue_below_the_axis_is_tested(self):
        # a simple real eigenvalue whose complex Schur diagonal entry has a
        # negative rounding imaginary part: its shift, real from the real
        # eigensolver, still maps to that t_ii and is bounded there
        from nistab.ltimodel import _spectral

        for seed in range(200):
            rng = np.random.default_rng(seed)
            Q = rng.normal(size=(5, 5))
            A = Q @ np.diag([-1.0, -2.0, -3.0, -4.0, -5.0]) @ np.linalg.inv(Q)
            model = ns.StateSpaceModel(A, rng.normal(size=(5, 2)), rng.normal(size=(2, 5)))
            spec = _spectral(model)
            below = np.flatnonzero(spec.eigs.imag < 0.0)
            if below.size:
                break
        assert below.size, "no draw put a real eigenvalue below the axis"
        assert np.isin(below, spec.eigvecs.idx).all()
        worst, sides = self._deflated_excess(model)
        assert worst <= 1.0 and sides == 2 * spec.eigvecs.idx.size
        assert ns.is_minimal(model)

    def test_ladder_folds_only_the_origin_cluster(self, monkeypatch):
        # every modal frequency of a ladder rung is a simple eigenvalue pair,
        # bounded by deflation; only the origin, one shift for the 4 exact
        # zeros of its two Jordan pairs, takes the ztpqrt fold, once per side
        # (2 per shift everywhere, and 4 copies of the zero shift, before)
        from scipy.linalg import lapack

        from nistab import ltimodel

        folds = []
        _count_calls(monkeypatch, lapack, "ztpqrt", folds)
        for seed in (1, 2, 3):
            for mm in ladder_modal_models(seed, (10, 25, 50, 100)):
                del folds[:]
                spec = ltimodel._spectral(ns.modal_to_ss(mm))
                assert spec.pbh_bound > ltimodel.PBH_CLEARANCE
                assert len(folds) == 2

    def test_huge_b_and_c_keep_the_bound_finite(self, monkeypatch):
        # ||C||_F, ||B||_F and the gamma norms are 1e200: none is squared, so
        # the bound clears with no warning and no SVD margin is taken (it
        # overflowed to NaN, and the margin decided)
        from nistab import ltimodel

        margins = []
        _count_calls(monkeypatch, ltimodel, "minimality_margin", margins)
        model = ns.StateSpaceModel([[-1.0]], [[1e200]], [[-1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            spec = ltimodel._spectral(model)
            assert np.isfinite(spec.pbh_bound) and spec.pbh_bound > ltimodel.PBH_CLEARANCE
            assert ns.is_minimal(spec)
        assert not margins

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
        np.testing.assert_allclose(cl, np.vstack([top, bot]), atol=1e-13)

    def test_characteristic_polynomial(self):
        cl = ns.closed_loop(double_integrator(), first_order_lag_minus(2.0))
        coeffs = np.poly(cl)
        np.testing.assert_allclose(coeffs, [1.0, 1.0, 2.0, 1.0], atol=1e-10)

    def test_ill_posed_static_loop(self):
        g = ns.StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)),
                               np.zeros((1, 0)), [[0.5]])
        gb = ns.StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)),
                                np.zeros((1, 0)), [[2.0]])
        with pytest.raises(IllPosedError):
            ns.closed_loop(g, gb)

    def test_channel_counts_must_agree(self, paper_irc):
        with pytest.raises(DimensionError, match="channel counts differ: 1 vs 2"):
            ns.closed_loop(double_integrator(), paper_irc.realization)

    def test_spectrum_invariant_under_similarity(self, rng):
        g = double_integrator()
        gb = first_order_lag_minus(2.0)
        ref = np.sort_complex(np.linalg.eigvals(ns.closed_loop(g, gb)))
        for _ in range(10):
            T = np.eye(2) + 0.4 * rng.normal(size=(2, 2))
            g2 = ns.similarity_transform(g, T)
            got = np.sort_complex(np.linalg.eigvals(ns.closed_loop(g2, gb)))
            np.testing.assert_allclose(got, ref, atol=1e-8)


class TestHurwitz:
    def test_stable(self):
        assert ns.is_hurwitz(np.diag([-1.0, -2.0]))

    def test_marginal(self):
        assert not ns.is_hurwitz(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_case_study_loop(self, arm_plant, paper_irc):
        cl = ns.closed_loop(arm_plant, paper_irc.realization)
        assert ns.is_hurwitz(cl)

    def test_empty_spectrum(self):
        # no eigenvalue violates the margin: two static models close a
        # loop with no state, and the oracle answers for it
        from nistab.freebody import direct_stability
        from nistab.ltimodel import spectral_abscissa

        assert spectral_abscissa(np.zeros((0, 0))) == -np.inf
        assert ns.is_hurwitz(np.zeros((0, 0)))
        gain = ns.StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[0.5]])
        gbar = ns.StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[-2.0]])
        assert direct_stability(gain, gbar)


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

    @pytest.mark.parametrize("kwargs, message", [
        ({"terms": ((2.0, np.eye(2)),)}, "mode coefficient must be 1x1"),
        ({"g1": np.eye(2)}, "g1 must be 1x1"),
        ({"g2": 2.0 * np.eye(3)}, "g2 must be 1x1"),
    ], ids=["term", "g1", "g2"])
    def test_coefficient_shapes_checked(self, kwargs, message):
        with pytest.raises(DimensionError, match=message):
            ns.ModalModel(m=1, **kwargs)

    def test_similarity_transform_shape_checked(self):
        with pytest.raises(DimensionError, match="T must be 2x2"):
            ns.similarity_transform(double_integrator(), np.eye(3))


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


def _one_block_record(model):
    """A record of ``model`` whose Schur triangle is walked as one block of n rows."""
    from nistab.ltimodel import _Spectral

    spec = _Spectral(model.A, model.B, model.C, model.D)
    vars(spec)["blocks"] = None
    return spec


def _mixed_block_plant(rng, sizes):
    """A real block-diagonal A with dense blocks of the given sizes (distinct eigenvalues),
    random B and C: its Schur triangle has blocks of several sizes, interleaved."""
    blocks = [rng.normal(size=(b, b)) + 3.0 * k * np.eye(b) for k, b in enumerate(sizes)]
    n = sum(sizes)
    return ns.StateSpaceModel(block_diag(*blocks), rng.normal(size=(n, 2)), rng.normal(size=(2, n)))


def _schur_solve_row_loops(T, s, R, blocks=None):
    """_schur_solve as written before it walked through ``_walk``: one row loop over all n
    rows, and one stacked row loop per block size on ``blocks``."""
    n, K = T.shape[0], s.size
    pivots = s[None, :] - np.diag(T)[:, None]
    r = R.shape[1]
    if blocks is None:
        X = np.empty((n, K * r), dtype=complex)
        Xk = X.reshape(n, K, r)
        for i in range(n - 1, -1, -1):
            Xk[i] = (R[i] + (T[i, i + 1:] @ X[i + 1:]).reshape(K, r)) / pivots[i][:, None]
        return Xk
    X = np.empty((n, K, r), dtype=complex)
    for b, starts in blocks:
        rows = starts[:, None] + np.arange(b)
        Tb = T[rows[:, None], rows[:, :, None]].transpose(0, 2, 1)
        Rb, Pb = R[rows][:, :, None], pivots[rows][..., None]
        Xb = np.empty((starts.size, b, K * r), dtype=complex)
        Xk = Xb.reshape(starts.size, b, K, r)
        for i in range(b - 1, -1, -1):
            Xk[:, i] = (Rb[:, i] + (Tb[:, i, None, i + 1:] @ Xb[:, i + 1:]).reshape(-1, K, r)
                        ) / Pb[:, i]
        X[rows] = Xk
    return X


class TestDiagonalBlocks:
    """The Schur triangle walked per diagonal block (``_Spectral.blocks``) as in one walk."""

    def test_ladder_rung_partition(self):
        # a lossless mode is a 2-row block, the origin cluster of the two
        # double poles one block of 4; the exact zeros between them survive
        # LAPACK's Schur form (one 100-mode rung splits a mode's two rows).
        # The record walks them from BLOCK_WALK_MIN_N states on
        from nistab.ltimodel import BLOCK_WALK_MIN_N, _blocks, _spectral

        for seed in (1, 2, 3):
            for modes, mm in zip((10, 25, 50, 100), ladder_modal_models(seed, (10, 25, 50, 100))):
                spec = _spectral(ns.modal_to_ss(mm))
                got = {b: starts.size for b, starts in _blocks(spec.schur[0])}
                assert (spec.blocks is None) == (spec.n < BLOCK_WALK_MIN_N)
                if modes < 100:
                    assert got == {2: modes, 4: 1}
                else:
                    assert got.pop(4) == 1 and got.get(1, 0) + 2 * got[2] == 2 * modes

    def test_partition_of_constructed_triangles(self, rng):
        from nistab.ltimodel import _blocks

        def sizes(T):
            got = sorted((int(a), b) for b, starts in _blocks(T) for a in starts)
            return [b for _, b in got]

        T = block_diag(*(np.triu(rng.normal(size=(b, b)) + 1.0) for b in (2, 1, 3, 2)))
        assert sizes(T) == [2, 1, 3, 2]
        # one tiny coupling is still a coupling: the two blocks it joins are one
        T[1, 2] = 1e-17
        assert sizes(T) == [3, 3, 2]
        # a nilpotent origin block: its last row is zero, and so is a middle
        # row spanned by the coupling above it
        N = np.zeros((3, 3))
        N[0, 2] = 1.0
        assert sizes(block_diag([[0.0, 1.0], [0.0, 0.0]], N, [[-1.0]])) == [2, 3, 1]
        assert sizes(np.zeros((3, 3))) == [1, 1, 1]
        assert sizes(np.triu(rng.normal(size=(5, 5)))) == [5]
        assert _blocks(np.zeros((0, 0))) == ()

    def test_solve_per_block_equals_one_walk(self, rng):
        from nistab.ltimodel import _blocks, _schur_solve

        s = np.concatenate([1j * np.geomspace(1e-2, 1e2, 9), [0.3 + 2.0j]])
        for sizes in ((1, 2, 3), (4, 1, 1, 2, 4, 3), (5,)):
            T = block_diag(*(np.triu(rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b)))
                             for b in sizes))
            R = rng.normal(size=(T.shape[0], 3))
            got, ref = _schur_solve(T, s, R, _blocks(T)), _schur_solve(T, s, R)
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-14 * np.abs(ref).max())

    def test_solve_equals_the_row_loops(self, rng, beam_params):
        # the walk through _walk on -T against the two row loops it replaced,
        # bit for bit: Z^H B and identity right-hand sides, on the whole
        # triangle and per diagonal block, and the origin remainder (T0, B0)
        from nistab.freebody import _FAMILIES, random_ni_plant
        from nistab.ltimodel import _blocks, _schur_solve, _spectral

        models = [ns.modal_to_ss(mm) for seed in (1, 2, 3)
                  for mm in ladder_modal_models(seed, (10, 25, 50, 100))]
        models += [ns.modal_to_ss(ns.finite_dim_approx(beam_params, k)) for k in (1, 2, 5, 10)]
        models += [random_ni_plant(np.random.default_rng(t), _FAMILIES[t % len(_FAMILIES)])[0]
                   for t in range(400)]
        models += [_mixed_block_plant(rng, (1, 3, 2, 1, 3, 4)) for _ in range(5)]
        s = np.concatenate([1j * np.geomspace(1e-3, 1e4, 30), [0.3 + 2.0j, -0.7 - 1.1j]])
        for model in models:
            spec = _spectral(model)
            T, split = spec.schur[0], spec.origin_split
            cases = [(T, R, blocks) for R in (spec.maps[0], np.eye(model.n))
                     for blocks in (None, _blocks(T))]
            for T, R, blocks in cases + [(split.T0, split.B0, None)]:
                got = _schur_solve(T, s, R, blocks)
                assert got.tobytes() == _schur_solve_row_loops(T, s, R, blocks).tobytes()

    def test_kernels_equal_the_one_block_walk(self, rng, beam_params):
        # _eigvecs, _schur_solve and freq_response per diagonal block against
        # the walk over all rows: the ladder rungs, the arm truncations, 400
        # Monte-Carlo draws and mixed block sizes, each walked per block
        # whatever its size
        from nistab.freebody import _FAMILIES, random_ni_plant
        from nistab.ltimodel import _blocks, _eigvecs, _schur_solve, _Spectral

        models = [ns.modal_to_ss(mm) for seed in (1, 2, 3)
                  for mm in ladder_modal_models(seed, (10, 25, 50, 100))]
        models += [ns.modal_to_ss(ns.finite_dim_approx(beam_params, k)) for k in (1, 2, 5, 10)]
        models += [random_ni_plant(np.random.default_rng(t), _FAMILIES[t % len(_FAMILIES)])[0]
                   for t in range(400)]
        models += [_mixed_block_plant(rng, (1, 3, 2, 1, 3, 4)) for _ in range(5)]
        s = np.concatenate([1j * np.geomspace(1e-3, 1e4, 30), [0.3 + 2.0j, -0.7 - 1.1j]])
        split = []
        for model in models:
            spec, whole = _Spectral(model.A, model.B, model.C, model.D), _one_block_record(model)
            blocks = _blocks(spec.schur[0])
            split.append(blocks[0][0] < model.n)
            vars(spec)["blocks"] = blocks if split[-1] else None
            idx = spec.pbh_shifts[1]
            got, ref = _eigvecs(spec, idx), _eigvecs(whole, idx)
            assert np.array_equal(got.idx, ref.idx)
            kappa = ref.kappa.max(initial=1.0)
            for field, side in (("CX", model.C), ("UB", model.B)):
                unit = 1e-14 * np.linalg.norm(side) * kappa
                assert np.abs(getattr(got, field) - getattr(ref, field)).max(initial=0.0) <= unit
            T, Z = spec.schur
            unit = 1e-14 * np.linalg.norm(T) * kappa
            assert np.abs(got.res - ref.res).max(initial=0.0) <= unit
            for field in ("head", "kappa", "beta"):
                np.testing.assert_allclose(getattr(got, field), getattr(ref, field), rtol=1e-14)
            R = Z.conj().T @ model.B
            X, Y = _schur_solve(T, s, R, spec.blocks), _schur_solve(T, s, R)
            np.testing.assert_allclose(X, Y, rtol=1e-14, atol=1e-14 * np.abs(Y).max())
            G, H = ns.freq_response(spec, s), ns.freq_response(whole, s)
            np.testing.assert_allclose(G, H, rtol=1e-14, atol=1e-14 * np.abs(H).max())
        # every rung, truncation and mixed plant is split, and most draws
        assert all(split[:16]) and all(split[-5:]) and sum(split[16:-5]) > 200


def _whole_blocks(spec, idx):
    """Whether the cluster ``idx`` is none or all rows, or a union of whole diagonal blocks of
    the record's partition: the clusters ``_Spectral.split`` takes by indexing."""
    own = np.isin(np.arange(spec.n), idx)
    if spec.blocks is None:
        return own.all() or not own.any()
    return all((own[rows].all(axis=1) | ~own[rows].any(axis=1)).all()
               for rows in (starts[:, None] + np.arange(b) for b, starts in spec.blocks))


def _split_fresh_maps(spec, idx, reorder=True):
    """``_Spectral.split`` with Z^H B and C Z formed anew: by the reorder route (ztrsen, then
    ztrsyl) from the Z it ends with, or, without ``reorder``, by indexing T and the products
    of the record's Z: (T0, T1, B0, B1, C0, C1, X)."""
    from scipy.linalg import lapack

    T, Z = spec.schur
    k = idx.size
    if not reorder:
        own = np.isin(np.arange(spec.n), idx)
        i, r = np.flatnonzero(own), np.flatnonzero(~own)
        Bt, CZ = Z.conj().T @ spec.B, spec.C @ Z
        return (T[np.ix_(i, i)], T[np.ix_(r, r)], Bt[i], Bt[r], CZ[:, i], CZ[:, r],
                np.zeros((k, spec.n - k), dtype=complex))
    if 0 < k < spec.n:
        select = np.zeros(spec.n, dtype=np.int32)
        select[idx] = 1
        T, Z, *_rest = lapack.ztrsen(select, T, Z, job="N")
        X, scale, _info = lapack.ztrsyl(T[:k, :k], T[k:, k:], T[:k, k:], isgn=-1)
        X = X / scale
    else:
        X = np.zeros((k, spec.n - k), dtype=complex)
    Bt, CZ = Z.conj().T @ spec.B, spec.C @ Z
    return (T[:k, :k], T[k:, k:], Bt[:k] + X @ Bt[k:], Bt[k:], CZ[:, :k],
            CZ[:, k:] - CZ[:, :k] @ X, X)


def _parts(split, s):
    """C0 (s_k I - T0)^-1 B0 and C1 (s_k I - T1)^-1 B1 at every point of ``s``."""
    from nistab.ltimodel import _schur_response

    zero = np.zeros((split.C0.shape[0],) * 2)
    return (_schur_response(split.T0, split.B0, split.C0, zero, s),
            _schur_response(split.T1, split.B1, split.C1, zero, s))


def _assert_same_parts(got, ref, s):
    """Two splits of one cluster give its part and the rest's of G to rounding."""
    for a, b in zip(_parts(got, s), _parts(ref, s)):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12 * np.abs(b).max())
    assert np.allclose(np.sort_complex(np.diag(got.T0)), np.sort_complex(np.diag(ref.T0)),
                       rtol=1e-12, atol=1e-12 * got.scale)


class TestSchurMaps:
    """The record's one (Z^H B, C Z) pair gives the products it replaced, bit for bit."""

    def test_splits_equal_fresh_products(self, beam_params):
        # none and all of the eigenvalues and the origin cluster, on the ladder
        # rungs, the arm and Monte-Carlo draws.  A cluster of whole diagonal
        # blocks (none, all, and the origin cluster of a rung of 32 states or
        # more) is split by indexing the record's maps; its reference indexes
        # fresh products, and the reorder route gives the same G2, G1, cond and
        # parts of G.  Every other cluster is bitwise the reorder route
        from nistab.freebody import _FAMILIES, random_ni_plant
        from nistab.ltimodel import SchurSplit, _spectral

        models = [ns.modal_to_ss(mm) for mm in ladder_modal_models(1, (10, 25))]
        models += [ns.modal_to_ss(ns.finite_dim_approx(beam_params, k)) for k in (1, 5)]
        models += [random_ni_plant(np.random.default_rng(t), _FAMILIES[t % 8])[0]
                   for t in range(40)]
        s = np.array([0.3 + 2.0j, 1j * 7.0])
        routes = []
        for model in models:
            spec = _spectral(model)
            T, Z = spec.schur
            Bt, CZ = spec.maps
            _assert_same_bits(Bt, Z.conj().T @ model.B)
            _assert_same_bits(CZ, model.C @ Z)
            for idx in (np.arange(0), np.arange(spec.n),
                        np.flatnonzero(np.abs(spec.eigs) <= spec.ztol)):
                split = spec.split(idx)
                got = (split.T0, split.T1, split.B0, split.B1, split.C0, split.C1, split.X)
                indexed = _whole_blocks(spec, idx)
                routes.append(indexed and 0 < idx.size < spec.n)
                for a, b in zip(got, _split_fresh_maps(spec, idx, reorder=not indexed)):
                    _assert_same_bits(a, b)
                if indexed and 0 < idx.size < spec.n:
                    ref = SchurSplit(*_split_fresh_maps(spec, idx), scale=split.scale)
                    np.testing.assert_array_equal(split.G2, ref.G2)
                    np.testing.assert_array_equal(np.real(split.C0 @ split.B0),
                                                  np.real(ref.C0 @ ref.B0))
                    assert split.cond == pytest.approx(ref.cond, rel=1e-12)
                    _assert_same_parts(split, ref, s)
        # the n = 54 rung's origin cluster is the one proper cluster split by indexing
        assert sum(routes) == 1


def _scrambled(model, seed=0):
    """``model`` under a random orthogonal change of coordinates: its Schur triangle is dense."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(model.n, model.n)))
    return ns.similarity_transform(model, Q)


class TestIndexedSplit:
    """A cluster of whole diagonal blocks is split by indexing the one Schur form."""

    def test_origin_split_equals_the_reorder_route(self, monkeypatch):
        # every ladder rung of 25, 50 and 100 modes: no ztrsen call, X = 0,
        # and the reorder route's G2 and G1 bit for bit, its G0 and cond to
        # rounding
        import scipy.linalg
        from scipy.linalg import lapack

        from nistab.ltimodel import SchurSplit, _spectral

        reorders = []
        _count_calls(monkeypatch, lapack, "ztrsen", reorders)
        for seed in (1, 2, 3):
            for mm in ladder_modal_models(seed, (25, 50, 100)):
                spec = _spectral(ns.modal_to_ss(mm))
                split = spec.origin_split
                assert not reorders and split.n0 == 4
                assert not split.X.any()
                idx = np.flatnonzero(np.abs(spec.eigs) <= spec.ztol)
                ref = SchurSplit(*_split_fresh_maps(spec, idx), scale=split.scale)
                del reorders[:]
                np.testing.assert_array_equal(split.G2, ref.G2)
                np.testing.assert_array_equal(np.real(split.C0 @ split.B0),
                                              np.real(ref.C0 @ ref.B0))
                G0, G0_ref = (-np.real(sp.C1 @ scipy.linalg.solve_triangular(sp.T1, sp.B1))
                              for sp in (split, ref))
                np.testing.assert_allclose(G0, G0_ref, rtol=0.0, atol=1e-14 * np.abs(G0_ref).max())
                assert split.cond == pytest.approx(ref.cond, rel=1e-14)

    def test_scrambled_rung_reorders(self, monkeypatch):
        # a dense Schur triangle is one block: the origin cluster inside it is
        # moved by ztrsen, and gives the structured rung's G2
        from scipy.linalg import lapack

        from nistab.ltimodel import _spectral

        reorders = []
        _count_calls(monkeypatch, lapack, "ztrsen", reorders)
        model = ns.modal_to_ss(ladder_modal_models(1, (25,))[0])
        spec = _spectral(_scrambled(model))
        assert spec.blocks is None
        split = spec.origin_split
        assert len(reorders) == 1 and split.n0 == 4
        ref = _spectral(model).origin_split
        np.testing.assert_allclose(split.G2, ref.G2, rtol=0.0, atol=1e-9 * np.abs(ref.G2).max())

    def test_cluster_in_the_middle_of_t(self, rng, monkeypatch):
        # whole blocks that neither start nor end T, on a ladder rung and on
        # triangles with blocks of several sizes: the split's two parts sum to
        # G and equal the reorder route's, with no ztrsen call
        from scipy.linalg import lapack

        from nistab.ltimodel import SchurSplit, _Spectral

        reorders = []
        _count_calls(monkeypatch, lapack, "ztrsen", reorders)
        models = [ns.modal_to_ss(ladder_modal_models(2, (25,))[0])]
        models += [_mixed_block_plant(rng, (1, 3, 2, 1, 3, 4) * 3) for _ in range(3)]
        s = np.array([0.3 + 2.0j, 1j * 0.7, 1j * 40.0])
        for model in models:
            spec = _Spectral(model.A, model.B, model.C, model.D)
            groups = sorted((int(a), b) for b, starts in spec.blocks for a in starts)
            assert len(groups) > 6
            for picks in ((2,), (3, 5), (1, len(groups) - 3)):
                idx = np.concatenate([np.arange(a, a + b) for a, b in (groups[j] for j in picks)])
                split = spec.split(idx)
                assert not reorders and not split.X.any()
                assert np.array_equal(np.diag(split.T0), spec.eigs[idx])
                assert np.array_equal(split.T0, np.triu(split.T0))
                G = sum(_parts(split, s)) + model.D
                H = ns.freq_response(model, s)
                np.testing.assert_allclose(G, H, rtol=0.0, atol=1e-12 * np.abs(H).max())
                _assert_same_parts(split, SchurSplit(*_split_fresh_maps(spec, idx),
                                                     scale=split.scale), s)
                del reorders[:]

    def test_norm2_from_blocks(self, rng, beam_params):
        # ||A||_2 as the largest singular value over T's diagonal blocks, on
        # every record with a partition; the SVD of A on the others
        from nistab.ltimodel import _spectral

        models = [ns.modal_to_ss(mm) for seed in (1, 2, 3)
                  for mm in ladder_modal_models(seed, (10, 25, 50, 100))]
        models += [ns.modal_to_ss(ns.finite_dim_approx(beam_params, k)) for k in (2, 10, 20)]
        models += [_mixed_block_plant(rng, (1, 3, 2, 1, 3, 4) * 3) for _ in range(5)]
        models += [_scrambled(models[1])]
        partitioned = 0
        for model in models:
            spec = _spectral(model)
            partitioned += spec.blocks is not None
            ref = np.linalg.norm(model.A, 2)
            assert spec.norm2 == pytest.approx(ref, rel=1e-14, abs=0.0)
        assert partitioned == sum(model.n >= 32 for model in models) - 1


def _pbh_shifts_eigvals(spec):
    """The PBH shift values as they were taken from a real eigensolver: one of each
    conjugate pair, each distinct value once, and the mean of each cluster of distinct
    eigenvalues linked within PBH_CLUSTER_RTOL max(1, ||A||_2)."""
    from nistab.ltimodel import PBH_CLUSTER_RTOL

    eigs = np.unique(np.linalg.eigvals(spec.A))
    shifts = [eigs[eigs.imag >= 0.0]]
    near = np.abs(eigs[:, None] - eigs[None, :]) <= PBH_CLUSTER_RTOL * max(
        1.0, np.linalg.norm(spec.A, 2))
    linked = np.flatnonzero(near.sum(axis=1) > 1)
    if linked.size:
        eigs, near = eigs[linked], near[np.ix_(linked, linked)]
        label = np.arange(linked.size)
        while True:
            least = np.where(near, label[None, :], linked.size).min(axis=1)
            if np.array_equal(least, label):
                break
            label = least
        for root in np.unique(label):
            members = eigs[label == root]
            if members.imag.max() >= 0.0:
                mean = members.mean()
                shifts.append([mean.real if members.imag.min() <= 0.0 else mean])
    return np.unique(np.concatenate(shifts))


def _eigvals_record(model):
    """A record of ``model`` whose PBH shifts are those of :func:`_pbh_shifts_eigvals`, split
    as the record split them: the shifts with one t_ii in their cluster radius are simple,
    tested at that t_ii; and those shift values."""
    from nistab.ltimodel import PBH_CLUSTER_RTOL, _Spectral

    spec = _Spectral(model.A, model.B, model.C, model.D)
    lams = _pbh_shifts_eigvals(spec)
    dist = np.abs(spec.eigs[None, :] - lams[:, None])
    simple = (dist <= PBH_CLUSTER_RTOL * max(1.0, np.linalg.norm(model.A, 2))).sum(axis=1) == 1
    vars(spec)["pbh_shifts"] = (lams[~simple], np.unique(np.argmin(dist[simple], axis=1)))
    return spec, lams


def _margin_at(model, shifts):
    """``minimality_margin`` taken at the given shift values."""
    n, margin = model.n, np.inf
    for lam in shifts:
        shifted = model.A - lam * np.eye(n)
        for M in (np.hstack([shifted, model.B]), np.vstack([shifted, model.C])):
            sv = np.linalg.svd(M, compute_uv=False)
            margin = min(margin, sv[n - 1] / (max(M.shape) * np.finfo(float).eps * sv[0]))
    return margin


class TestPbhShifts:
    """The PBH shifts read off diag(T), each eigenvalue tested once."""

    @staticmethod
    def _shifts(model):
        from nistab.ltimodel import _spectral

        spec = _spectral(model)
        lams, idx = spec.pbh_shifts
        return np.concatenate([lams, spec.eigs[idx]])

    def test_each_eigenvalue_tested_once(self):
        # in their own coordinates and rotated: a simple eigenvalue, real or
        # one of a conjugate pair, is tested once, at its t_ii, on whichever
        # side of the real axis rounding put a real one; a multiple eigenvalue
        # (a modal frequency of rank 2 or 3, a Jordan pair or triple) at each
        # distinct computed member and at their mean, which is within rounding
        # of the exact eigenvalue; nothing more than the radius below the axis
        rank3 = ns.modal_to_ss(ns.ModalModel(3, terms=((2.0, np.eye(3)), (5.0, np.ones((3, 3))))))
        jordan_pair = ns.StateSpaceModel(block_diag([[0.0, 1.0], [0.0, 0.0]], -3.0),
                                         [[0.0], [1.0], [1.0]], [[1.0, 0.0, 1.0]])
        cases = [(_jordan_triple(), [-2.0], [(-1.0, 3)]), (jordan_pair, [-3.0], [(0.0, 2)]),
                 (rank3, [5j], [(2j, 3)]), (_split_mode(0.5), [], [(2j, 2)])]
        for model, simple, multiple in cases:
            for seed in range(10):
                shifts = self._shifts(_scrambled(model, seed) if seed else model)
                assert shifts.imag.min() > -1e-4
                for lam in simple:
                    got = shifts[np.abs(shifts - lam) < 1e-4]
                    assert got.size == 1 and abs(got[0] - lam) < 1e-12 * (1 + abs(lam)), seed
                for lam, copies in multiple:
                    assert np.sum(np.abs(shifts - lam) < 1e-10) >= 1, (seed, lam)
                    assert np.sum(np.abs(shifts - lam) < 1e-4) <= copies + 1, (seed, lam)

    def test_decisions_match_the_eigensolver_shifts(self, rng):
        # the bound and is_minimal on 400 Monte-Carlo draws under similarity
        # transforms of cond 1 to 1e7, against the shifts of the real
        # eigensolver: each source's bound stays below the margin at its own
        # shifts, so whichever of them clears, the decisions are the same
        from nistab.ltimodel import PBH_CLEARANCE, _spectral

        clears = minimal = 0
        for model in TestIsMinimal._transformed(rng, 400):
            old, shifts = _eigvals_record(model)
            new = _spectral(model)
            margin = _margin_at(model, shifts)
            assert old.pbh_bound <= margin + 1.0 and new.pbh_bound <= new.margin + 1.0
            decided = old.pbh_bound > PBH_CLEARANCE or margin > 1.0
            assert ns.is_minimal(model) == decided == (new.margin > 1.0)
            clears += new.pbh_bound > PBH_CLEARANCE
            minimal += decided
        assert 0 < clears < 400 and 0 < minimal < 400


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

    def test_stacked_margin_is_the_per_shift_loop(self, rng):
        # bitwise: the two stacked SVD calls give the margins of one SVD per
        # shift and side, on raw Monte-Carlo draws, ladder rungs of 10 and 25
        # modes, ill-conditioned similarity transforms, the Jordan triple and
        # a nearly split mode; n = 0 has no shift and reads inf
        from nistab.freebody import _FAMILIES, _draw_ni_plant
        from nistab.ltimodel import _spectral, minimality_margin

        models = [_draw_ni_plant(np.random.default_rng(rng.integers(0, 2 ** 63)),
                                 _FAMILIES[trial % len(_FAMILIES)])[0] for trial in range(800)]
        models += [ns.modal_to_ss(mm) for seed in (1, 2, 3)
                   for mm in ladder_modal_models(seed, (10, 25))]
        models += list(TestIsMinimal._transformed(rng, 64))
        models += [_jordan_triple(), _split_mode(1e-9)]
        for model in models:
            spec = _spectral(model)
            lams, idx = spec.pbh_shifts
            shifts = np.concatenate([lams, spec.eigs[idx]])
            assert minimality_margin(model) == _margin_at(model, shifts)
        empty = ns.StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)))
        assert minimality_margin(empty) == np.inf and ns.is_minimal(empty)

    def test_is_minimal_reads_a_taken_margin(self, monkeypatch):
        # a record holding its margin is decided on it, with no PBH bound; a
        # record without one keeps the bound-first order
        from nistab import ltimodel

        bounds = []
        _count_calls(monkeypatch, ltimodel, "_pbh_bound", bounds)
        near = ltimodel._spectral(_split_mode(1e-12))
        assert 1.0 < ltimodel.minimality_margin(near) < ltimodel.PBH_CLEARANCE
        assert ns.is_minimal(near) and not bounds
        for model in (_split_mode(1e-12), _jordan_triple()):
            fresh = ltimodel._spectral(model)
            assert ns.is_minimal(fresh) == (ltimodel.minimality_margin(model) > 1.0)
            assert len(bounds) == 1
            del bounds[:]

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
