"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every criterion must pass at its stated tolerance.  Criterion 3b
checks the residue minimum eigenvalues against their exact value, zero, and
not against the published table, which no colocated model can reach (see
the comment at ``TABLE_ROOTS`` and the docstring of criterion 3b).
"""

import time

import numpy as np
import pytest

import nistab as ns
from nistab.freebody import _FAMILIES, random_ni_plant

TABLE_ROOTS = [3.395326441, 9.501801884, 17.08210071, 29.32863976, 47.01240951]
# The published table also lists the residue minimum eigenvalues at these
# roots as [0.1434, 0.2553, 0.1320, 0.0361, 0.0142].  They are kept here as a
# record only and are not asserted: at a simple pole the residue is rank one,
# so the minimum eigenvalue of its symmetric part is at most 0 for any model,
# and exactly 0 for this colocated one.  The table's maximum eigenvalues are
# not printed, and the table's source is not in this repository.


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_01_irc_dc_gain(paper_irc):
    t0 = time.perf_counter()
    dc = paper_irc.dc_gain()
    elapsed = time.perf_counter() - t0
    target = np.array([[-2.2029, -1.0650], [-1.0650, -0.6971]])
    ok = bool(np.all(np.abs(dc - target) < 0.5e-4)) and elapsed < 1e-3
    assert _report("1 (IRC DC gain, 4 decimals, <1ms)", ok,
                   f"max|err|={np.abs(dc - target).max():.2e} t={elapsed * 1e3:.3f}ms")


def test_criterion_02_case_study_chain(arm_plant, paper_irc):
    t0 = time.perf_counter()
    L = ns.laurent_coefficients(arm_plant)
    J = ns.full_rank_factor(L.G2).J
    span_ok = J.shape == (2, 1) and abs(J[1, 0]) <= 1e-3 * abs(J[0, 0])
    norm_ok = abs(float(J[:, 0] @ J[:, 0]) - 0.14) <= 1e-2
    Gbar0 = paper_irc.dc_gain()
    N2 = ns.projector_p(Gbar0, J)
    n2_ok = np.all(np.abs(N2 - np.array([[0.0, 0.0], [0.0, -0.182252]])) <= 1e-3)
    jgj = float(J[:, 0] @ Gbar0 @ J[:, 0])
    jgj_ok = abs(jgj - (-0.30991)) <= 1e-3
    v = ns.stability_verdict(arm_plant, paper_irc.realization,
                             ns.VerdictOptions(run_oracle=True))
    verdict_ok = (v.outcome is ns.Outcome.STABLE
                  and v.theorem_used is ns.Theorem.DOUBLE_POLE
                  and v.branch is ns.Branch.NSD
                  and v.oracle_agrees is True)
    elapsed = time.perf_counter() - t0
    ok = span_ok and norm_ok and n2_ok and jgj_ok and verdict_ok and elapsed < 1.0
    assert _report(
        "2 (case-study verdict chain, <1s)", ok,
        f"|J|^2={float(J[:, 0] @ J[:, 0]):.5f} J'G(0)J={jgj:.6f} "
        f"outcome={v.outcome.value}/{v.theorem_used.value}/{v.branch.value} "
        f"t={elapsed:.2f}s")


def test_criterion_03a_benchmark_roots(beam_params, beam_roots):
    t0 = time.perf_counter()
    got = beam_roots[:5]
    rel = np.abs(got - np.array(TABLE_ROOTS)) / np.array(TABLE_ROOTS)
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(rel <= 1e-4)) and elapsed < 10.0
    assert _report("3a (first five modal roots, 1e-4 relative, <10s)", ok,
                   f"max rel err={rel.max():.2e}")


def test_criterion_03b_benchmark_residue_min_eigenvalues(beam_params, beam_roots):
    """Residue minimum eigenvalues at the first five roots are 0 (5e-3).

    At a simple resonance the 2x2 residue of jG(s) is the outer product of
    one mode shape with itself: real symmetric PSD of rank one, with
    minimum eigenvalue exactly zero.  That is what the NI definition asks of
    an imaginary-axis pole.  To show that the matrix read is the residue of
    the transfer matrix, its eigenvalues are compared with those of the
    one-sided limit -d Re G(j(w + d)) taken from ``beam_tf`` at d = 1e-6 w,
    a route that uses neither the numerator extrapolation nor the D'(w) of
    ``modal_residue``: the maximum eigenvalues must agree to 1e-4 relative
    and the limit's minimum eigenvalue must be 0 at the same 5e-3.
    """
    got, lim = [], []
    for w in beam_roots[:5]:
        w = float(w)
        got.append(np.linalg.eigvalsh(ns.modal_residue(beam_params, w)))
        d = 1e-6 * w
        K = -d * np.real(ns.beam_tf(beam_params, 1j * (w + d)))
        lim.append(np.linalg.eigvalsh(0.5 * (K + K.T)))
    got, lim = np.array(got), np.array(lim)
    min_ok = bool(np.all(np.abs(got[:, 0]) <= 5e-3)
                  and np.all(np.abs(lim[:, 0]) <= 5e-3))
    max_rel = np.abs(got[:, 1] - lim[:, 1]) / lim[:, 1]
    max_ok = bool(np.all(lim[:, 1] > 5e-3) and np.all(max_rel <= 1e-4))
    ok = min_ok and max_ok
    assert _report("3b (benchmark residue min eigenvalues, exact 0, 5e-3)", ok,
                   f"min={np.round(got[:, 0], 6).tolist()} "
                   f"max={np.round(got[:, 1], 4).tolist()} "
                   f"max rel err vs one-sided limit={max_rel.max():.1e}")


def test_criterion_04_free_body_limit(beam_params):
    t0 = time.perf_counter()
    eps = 1e-4
    lim = np.real(eps ** 2 * ns.beam_tf(beam_params, eps + 0j))
    elapsed = time.perf_counter() - t0
    err = np.abs(lim - np.array([[0.14, 0.0], [0.0, 0.0]]))
    ok = bool(np.all(err <= 1e-2)) and elapsed < 5.0
    assert _report("4 (beam rigid-body limit, 1e-2, <5s)", ok,
                   f"lim={np.round(lim, 5).tolist()} t={elapsed:.2f}s")


def test_criterion_05_theorem_vs_oracle():
    t0 = time.perf_counter()
    rep = ns.montecarlo_agreement(200, seed=42)
    elapsed = time.perf_counter() - t0
    groups = {k.split("/")[0] for k in rep.by_theorem}
    spans_all = {"dc_gain", "full_rank_free_body"}.issubset(groups) and (
        {"double_pole", "double_pole_general"} & groups) and (
        {"single_pole"} & groups)
    ok = (rep.agreement_fraction == 1.0 and not rep.disagreements
          and bool(spans_all) and elapsed < 60.0)
    assert _report(
        "5 (200-trial theorem-vs-oracle agreement, <60s)", ok,
        f"agreement={rep.agreement_fraction:.3f} applicable={rep.applicable} "
        f"branches={sorted(rep.by_theorem)} t={elapsed:.1f}s")


def test_criterion_06_full_rank_desk_check():
    t0 = time.perf_counter()
    plant = ns.StateSpaceModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                               [[1.0, 0.0]], [[0.0]])
    all_ok = True
    details = []
    for delta in (0.5, 0.9, 1.1, 2.0, 5.0):
        ctrl = ns.StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[-delta]])
        v = ns.stability_verdict(plant, ctrl, ns.VerdictOptions(run_oracle=True))
        expected = delta > 1.0
        # independent check: char poly s^3 + s^2 + delta s + (delta - 1)
        coeffs = np.poly(ns.closed_loop(plant, ctrl))
        routh_ok = np.allclose(coeffs, [1.0, 1.0, delta, delta - 1.0], atol=1e-9)
        routh_stable = delta - 1.0 > 0 and 1.0 * delta > delta - 1.0
        got = v.outcome is ns.Outcome.STABLE
        all_ok &= (got == expected == routh_stable and routh_ok
                   and v.oracle_agrees is True)
        details.append(f"d={delta}:{v.outcome.value}")
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 1.0
    assert _report("6 (stability boundary in controller offset, <1s)", ok,
                   " ".join(details) + f" t={elapsed:.2f}s")


def test_criterion_07_property_suites(rng):
    t0 = time.perf_counter()
    # projector annihilation, 100 cases
    proj_ok = True
    for _ in range(100):
        m = int(rng.integers(2, 6))
        r = int(rng.integers(1, m))
        S = rng.normal(size=(m, m))
        X = 0.5 * (S + S.T) + 0.05 * np.eye(m)
        Y = rng.normal(size=(m, r))
        P = ns.projector_p(X, Y)
        proj_ok &= np.linalg.norm(P @ Y) <= 1e-10 * max(
            1.0, np.linalg.norm(X) * np.linalg.norm(Y))

    # Laurent route agreement, 100 cases
    worst = 0.0
    for trial in range(100):
        model, _ = random_ni_plant(
            np.random.default_rng(rng.integers(0, 2 ** 63)),
            _FAMILIES[trial % len(_FAMILIES)])
        worst = max(worst, ns.laurent_coefficients(model).agreement)
    laurent_ok = worst <= 1e-6

    # generator output always classifies NI
    ni_ok = True
    for trial in range(24):
        model, _ = random_ni_plant(
            np.random.default_rng(rng.integers(0, 2 ** 63)),
            _FAMILIES[trial % len(_FAMILIES)])
        ni_ok &= ns.classify_ni(model).is_ni

    # verdict invariance under factor gauge and state similarity
    inv_ok = True
    from nistab.freebody import random_sni_controller

    for trial in range(10):
        trng = np.random.default_rng(rng.integers(0, 2 ** 63))
        plant, _ = random_ni_plant(trng, _FAMILIES[trial % len(_FAMILIES)])
        ctrl = random_sni_controller(trng, plant.m)
        opts = ns.VerdictOptions(skip_ni_check=True)
        base = ns.stability_verdict(plant, ctrl.realization, opts).outcome
        if base in (ns.Outcome.BOUNDARY, ns.Outcome.INCONCLUSIVE):
            continue
        T = np.eye(plant.n) + 0.25 * trng.normal(size=(plant.n,) * 2)
        moved = ns.stability_verdict(ns.similarity_transform(plant, T),
                                     ctrl.realization, opts).outcome
        inv_ok &= moved == base
    # gauge invariance of the reduction (range-only dependence)
    X = np.array([[-2.2029, -1.065], [-1.065, -0.6971]])
    J = np.array([[0.3751], [0.0]])
    for _ in range(10):
        R = rng.normal()
        if abs(R) < 0.1:
            continue
        inv_ok &= np.allclose(ns.projector_p(X, J * R), ns.projector_p(X, J),
                              atol=1e-10)

    elapsed = time.perf_counter() - t0
    ok = proj_ok and laurent_ok and ni_ok and inv_ok and elapsed < 30.0
    assert _report(
        "7 (property suites, <30s)", ok,
        f"projector={proj_ok} laurent(worst={worst:.1e})={laurent_ok} "
        f"ni_gen={ni_ok} invariance={inv_ok} t={elapsed:.1f}s")


def test_criterion_08_simulation_substitutes(arm_plant, paper_irc):
    """Multi-mode step-response curves have no published numeric data, so the
    simulation layer is checked by its structural properties instead:
    boundedness under a Hurwitz loop and exactness of the discretization."""
    t0 = time.perf_counter()
    res = ns.step_response(arm_plant, paper_irc.realization, T_end=40.0, dt=0.02)
    bounded_ok = (not res.diverged) and np.max(np.abs(res.y)) < 50.0

    r1 = ns.step_response(arm_plant, paper_irc.realization, T_end=2.0, dt=0.02)
    r2 = ns.step_response(arm_plant, paper_irc.realization, T_end=2.0, dt=0.01)
    exact_ok = np.allclose(r1.theta, r2.theta[::2], atol=1e-10)

    div = ns.step_response(
        ns.StateSpaceModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                           [[1.0, 0.0]], [[0.0]]),
        ns.StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[-0.5]]),
        T_end=200.0, dt=0.05)
    flag_ok = div.diverged

    elapsed = time.perf_counter() - t0
    ok = bounded_ok and exact_ok and flag_ok
    assert _report(
        "8 (simulation property substitutes for unpublished curves)", ok,
        f"bounded={bounded_ok} dt-exact={exact_ok} divergence-flag={flag_ok} "
        f"t={elapsed:.1f}s")
