"""Property-based checks over randomized inputs (hypothesis-driven seeds)."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

import nistab as ns
from nistab.freebody import (
    _FAMILIES, LaurentCoefficients, _decide, random_ni_plant, random_sni_controller)

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_psd_sqrt_squares_back(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    W = rng.normal(size=(m, m + 1)) * 10.0 ** rng.integers(-2, 3)
    M = W @ W.T
    S = ns.psd_sqrt(M)
    assert np.linalg.norm(S @ S - M) <= 1e-10 * max(1.0, np.linalg.norm(M))


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_full_rank_factor_reconstructs(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    r = int(rng.integers(1, m + 1))
    W = rng.normal(size=(m, r))
    M = W @ W.T
    f = ns.full_rank_factor(M)
    assert f.rank == r
    assert np.linalg.norm(f.J @ f.J.T - M) <= 1e-10 * max(1.0, np.linalg.norm(M))


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_projector_annihilates_range(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    r = int(rng.integers(1, m))
    S = rng.normal(size=(m, m))
    X = 0.5 * (S + S.T) + 0.05 * np.eye(m)
    Y = rng.normal(size=(m, r))
    P = ns.projector_p(X, Y)
    assert np.linalg.norm(P @ Y) <= 1e-10 * max(
        1.0, np.linalg.norm(X) * np.linalg.norm(Y))


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_modal_realization_matches_modal_sum(seed):
    rng = np.random.default_rng(seed)
    family = _FAMILIES[seed % len(_FAMILIES)]
    model, mm = random_ni_plant(rng, family)
    for _ in range(5):
        s = complex(rng.normal(), rng.normal()) * 2.0
        if abs(s) < 0.3:
            continue
        if mm.terms and min(abs(s - 1j * p) for p, _ in mm.terms) < 0.2:
            continue
        ref = mm.evaluate(s)
        got = ns.eval_tf(model, s)
        assert np.linalg.norm(got - ref) <= 1e-9 * max(1.0, np.linalg.norm(ref))


@given(SEEDS)
@settings(max_examples=15, deadline=None)
def test_generated_plants_classify_ni(seed):
    rng = np.random.default_rng(seed)
    family = _FAMILIES[seed % len(_FAMILIES)]
    model, _ = random_ni_plant(rng, family)
    assert ns.classify_ni(model).is_ni


@given(SEEDS)
@settings(max_examples=15, deadline=None)
def test_laurent_routes_agree(seed):
    rng = np.random.default_rng(seed)
    family = _FAMILIES[seed % len(_FAMILIES)]
    model, _ = random_ni_plant(rng, family)
    L = ns.laurent_coefficients(model)
    assert L.agreement <= 1e-6


#: the domain of the similarity property: a T with a larger condition number
#: is redrawn.  It holds seed 28's cond(T) ~ 980 transform; it excludes seed
#: 1042's cond 1.4e7 one, which leaves the plant not minimal to working
#: precision (see test_ill_conditioned_transform_is_not_minimal)
SIMILARITY_COND_LIMIT = 1e4


def _similarity_case(seed):
    """(rng, plant, controller) of the similarity property at ``seed``."""
    rng = np.random.default_rng(seed)
    family = _FAMILIES[seed % len(_FAMILIES)]
    plant, _ = random_ni_plant(rng, family)
    return rng, plant, random_sni_controller(rng, plant.m)


def _draw_transform(rng, n):
    return np.eye(n) + 0.25 * rng.normal(size=(n, n))


@given(SEEDS)
@settings(max_examples=10, deadline=None)
@example(seed=28)  # second transform has cond(T) ~ 980
@example(seed=288223)  # G2 = 0: a G2 of rounding put the contour at |s| ~ 1e-7
def test_verdict_invariant_under_similarity(seed):
    rng, plant, ctrl = _similarity_case(seed)
    opts = ns.VerdictOptions(skip_ni_check=True)
    base = ns.stability_verdict(plant, ctrl.realization, opts).outcome
    for _ in range(3):
        T = _draw_transform(rng, plant.n)
        while np.linalg.cond(T) > SIMILARITY_COND_LIMIT:
            T = _draw_transform(rng, plant.n)
        moved = ns.stability_verdict(ns.similarity_transform(plant, T),
                                     ctrl.realization, opts).outcome
        if base in (ns.Outcome.BOUNDARY, ns.Outcome.INCONCLUSIVE):
            continue
        assert moved == base


def test_ill_conditioned_transform_is_not_minimal(monkeypatch):
    """Seed 1042's third transform, outside the property's domain.

    The plant (``double`` family, n = 16) is UNSTABLE with its controller.
    Under T with cond(T) ~ 1.4e7 its PBH margin is 0.06, so the verdict is
    INCONCLUSIVE with NotMinimalError.  The Schur-form bound cannot clear
    the cutoff there, and the SVD margin decides.
    """
    rng, plant, ctrl = _similarity_case(1042)
    opts = ns.VerdictOptions(skip_ni_check=True)
    assert ns.stability_verdict(plant, ctrl.realization, opts).outcome \
        is ns.Outcome.UNSTABLE
    for _ in range(3):
        T = _draw_transform(rng, plant.n)
    assert np.linalg.cond(T) > 1e3 * SIMILARITY_COND_LIMIT
    margins = []
    margin = ns.ltimodel.minimality_margin
    monkeypatch.setattr(ns.ltimodel, "minimality_margin",
                        lambda model: margins.append(margin(model)) or margins[-1])
    v = ns.stability_verdict(ns.similarity_transform(plant, T), ctrl.realization, opts)
    assert v.outcome is ns.Outcome.INCONCLUSIVE
    assert "NotMinimalError" in v.reason
    assert len(margins) == 1 and 0.01 < margins[0] < 1.0


@given(SEEDS)
@settings(max_examples=10, deadline=None)
def test_hurwitz_closed_loop_spectrum_similarity_invariant(seed):
    rng = np.random.default_rng(seed)
    plant, _ = random_ni_plant(rng, "double")
    ctrl = random_sni_controller(rng, plant.m)
    cl = ns.closed_loop(plant, ctrl.realization)
    ref = np.sort_complex(np.linalg.eigvals(cl.Abreve))
    T = np.eye(plant.n) + 0.25 * rng.normal(size=(plant.n,) * 2)
    cl2 = ns.closed_loop(ns.similarity_transform(plant, T), ctrl.realization)
    got = np.sort_complex(np.linalg.eigvals(cl2.Abreve))
    assert np.allclose(got, ref, atol=1e-8 * max(1.0, np.abs(ref).max()))


def _laurent_case(rng):
    """Laurent data and controller DC gain drawn directly, as congruences.

    Returns factors (X, M) of G2, G1, G0 and Gbar(0), each X M X', so that a
    rotation Q acts on the data through X -> Q X.  G2 and/or G1 are present,
    of random rank (full rank included); G0 is PSD, half the time on the
    range of the free-body coefficient; Gbar(0) is negative definite,
    positive definite or of mixed sign.
    """
    m = int(rng.integers(1, 4))
    kind = int(rng.integers(0, 3))  # G2 only, G1 only, both
    coeffs = []
    for present in (kind != 1, kind != 0):
        r = int(rng.integers(1, m + 1)) if present else 0
        coeffs.append((rng.normal(size=(m, r)), np.eye(r)))
    Y = coeffs[0][0] if kind != 1 else coeffs[1][0]
    if rng.random() < 0.5:
        W = rng.normal(size=(Y.shape[1],) * 2)
        coeffs.append((Y, W @ W.T))
    else:
        coeffs.append((rng.normal(size=(m, m)), np.eye(m)))
    S = rng.normal(size=(m, m))
    sign = int(rng.integers(0, 3))
    Gbar0 = (-S @ S.T - 0.2 * np.eye(m), S @ S.T + 0.2 * np.eye(m), S + S.T)[sign]
    coeffs.append((np.eye(m), Gbar0))
    return coeffs


def _rotated(coeffs, Q):
    G2, G1, G0, Gbar0 = [(Q @ X) @ M @ (Q @ X).T for X, M in coeffs]
    return LaurentCoefficients(G0=G0, G1=G1, G2=G2), Gbar0


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_decision_invariant_under_orthogonal_change_of_channels(seed):
    rng = np.random.default_rng(seed)
    coeffs = _laurent_case(rng)
    m = coeffs[0][0].shape[0]
    Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    band = ns.VerdictOptions().boundary_band
    base = _decide(*_rotated(coeffs, np.eye(m)), band)
    moved = _decide(*_rotated(coeffs, Q), band)
    if ns.Outcome.BOUNDARY in (base.outcome, moved.outcome):
        return
    assert (moved.outcome, moved.theorem_used) == (base.outcome, base.theorem_used)
    # a failed Gram condition decides alone; the sign of N it leaves behind
    # may rest on a nearly singular Y' Gbar(0) Y, so only a passed one pins it
    if all(v < 0.0 for k, v in base.condition_values.items() if k.endswith("_max_eig")):
        assert moved.branch is base.branch


@given(SEEDS)
@settings(max_examples=15, deadline=None)
def test_dc_gain_decision_is_the_verdict(seed):
    rng = np.random.default_rng(seed)
    plant, _ = random_ni_plant(rng, "dc_gain")
    ctrl = random_sni_controller(rng, plant.m).realization
    G0 = ns.eval_tf(plant, 0.0).real
    L = LaurentCoefficients(G0=G0, G1=np.zeros_like(G0), G2=np.zeros_like(G0))
    decided = _decide(L, ns.eval_tf(ctrl, 0.0).real, ns.VerdictOptions().boundary_band)
    verdict = ns.stability_verdict(plant, ctrl)
    assert decided.laurent is None and verdict.laurent is None
    assert decided.to_dict() == verdict.to_dict()
