"""Negative-imaginary and strictly-negative-imaginary classification.

A square rational G(s) is negative imaginary (in the generalized sense that
admits free body motion) when

  1. it has no pole with Re(s) > 0,
  2. j(G(jw) - G(jw)*) >= 0 for every w > 0 that is not a pole,
  3. every imaginary-axis pole jw0 with w0 > 0 is simple with Hermitian PSD
     residue K = lim (s - jw0) * j * G(s),
  4. a pole at the origin is at most double:  lim s^k G(s) = 0 for k >= 3 and
     lim s^2 G(s) is Hermitian PSD.

Strictly negative imaginary (SNI) means no pole in Re(s) >= 0 and the strict
inequality in 2.  Condition 2 is checked on a frequency grid, so the verdict
is conservative: a grid can refute the property or support it, never prove
the universally quantified statement.  Condition 4 reads the order of an
origin pole off the Schur form of A restricted to its zero cluster, and
lim s^2 G(s) from trapezoidal contour integrals of G about the origin
(``ltimodel._laurent_numeric_limits``, the cross-check route of
``freebody.laurent_coefficients``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NotAPoleError, NotMinimalError, NotSimplePoleError
from .ltimodel import StateSpaceModel, _laurent_numeric_limits, eval_tf, is_minimal
from .matrixcore import Definiteness, classify_definiteness

__all__ = [
    "FrequencyGrid",
    "NiReport",
    "SniReport",
    "classify_ni",
    "classify_sni",
    "imaginary_axis_residue",
]

#: relative radius used to cluster eigenvalues onto a target imaginary pole
POLE_CLUSTER_RTOL = 1e-7

#: relative tolerance on the condition-2 eigenvalue sweep (NI, ">= 0")
COND2_RTOL = 1e-7

#: absolute floor for the strict SNI inequality on the sweep
SNI_STRICT_FLOOR = 1e-9

#: accepted Hermitian defect of a residue, relative to its norm
RESIDUE_HERM_RTOL = 1e-6


@dataclass(frozen=True)
class FrequencyGrid:
    """Log-spaced sweep specification with extra points bracketing axis poles."""

    wmin: float = 1e-3
    wmax: float = 1e4
    points: int = 400
    bracket_points: int = 8
    guard: float = 1e-4

    def build(self, axis_poles: tuple[float, ...] = ()) -> np.ndarray:
        w = np.geomspace(self.wmin, self.wmax, self.points)
        extra = []
        for w0 in axis_poles:
            if w0 <= 0.0:
                continue
            g = self.guard * max(1.0, w0)
            span = np.geomspace(2.0 * g, 0.2 * max(w0, 10.0 * g),
                                self.bracket_points // 2)
            extra.append(w0 + span)
            extra.append(np.clip(w0 - span, 0.5 * g, None))
        if extra:
            w = np.concatenate([w] + extra)
        # drop sweep points inside any guard band
        keep = np.ones(w.shape, dtype=bool)
        for w0 in axis_poles:
            g = self.guard * max(1.0, w0)
            keep &= np.abs(w - w0) > g
        return np.unique(w[keep])


@dataclass
class NiReport:
    """Outcome of the four-condition NI test, with all measured margins."""

    is_ni: bool
    cond1_rhp_poles: list
    cond2_min_eig_by_freq: list
    cond2_worst: tuple | None
    cond3_residues: list           # (w0, K, min_eig, herm_defect, simple)
    cond4_G2: np.ndarray | None
    cond4_definiteness: Definiteness | None
    cond4_higher_order: bool
    reasons: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "is_ni": self.is_ni,
            "cond1_rhp_poles": [[z.real, z.imag] for z in self.cond1_rhp_poles],
            "cond2_worst": None if self.cond2_worst is None
            else {"omega": self.cond2_worst[0], "min_eig": self.cond2_worst[1]},
            "cond3_residues": [
                {"omega0": w0, "min_eig": me, "herm_defect": hd, "simple": simple}
                for (w0, _K, me, hd, simple) in self.cond3_residues
            ],
            "cond4_G2": None if self.cond4_G2 is None else np.real(self.cond4_G2).tolist(),
            "cond4_higher_order": self.cond4_higher_order,
            "reasons": list(self.reasons),
        }


@dataclass
class SniReport:
    """Outcome of the two-condition SNI test."""

    is_sni: bool
    closed_rhp_poles: list
    cond2_min_eig_by_freq: list
    cond2_worst: tuple | None
    reasons: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "is_sni": self.is_sni,
            "closed_rhp_poles": [[z.real, z.imag] for z in self.closed_rhp_poles],
            "cond2_worst": None if self.cond2_worst is None
            else {"omega": self.cond2_worst[0], "min_eig": self.cond2_worst[1]},
            "reasons": list(self.reasons),
        }


def _axis_tol(A: np.ndarray) -> float:
    if A.size == 0:
        return POLE_CLUSTER_RTOL
    return POLE_CLUSTER_RTOL * max(1.0, np.linalg.norm(A, 2))


def _axis_pole_clusters(eigs: np.ndarray, tol: float) -> list[tuple[float, int]]:
    """Positive-frequency imaginary-axis eigenvalue clusters (w0, count)."""
    axis = sorted(z.imag for z in eigs if abs(z.real) <= tol and z.imag > tol)
    clusters: list[list[float]] = []
    for w in axis:
        if clusters and abs(w - clusters[-1][-1]) <= POLE_CLUSTER_RTOL * max(1.0, w):
            clusters[-1].append(w)
        else:
            clusters.append([w])
    return [(float(np.mean(c)), len(c)) for c in clusters]


def _zero_cluster_block(A: np.ndarray, tol: float):
    """Schur-based restriction of A to its near-zero eigenvalue cluster."""
    if A.shape[0] == 0:
        return np.zeros((0, 0)), 0
    T, _Z, sdim = scipy.linalg.schur(
        A, output="real", sort=lambda re, im: re * re + im * im > tol * tol
    )
    S0 = T[sdim:, sdim:]
    return S0, A.shape[0] - sdim


def _sweep_min_eigs(model: StateSpaceModel, omegas: np.ndarray):
    """Per-frequency minimum eigenvalue of j(G - G*), with a noise floor.

    The floor is the forward-error bound of the resolvent solve,
    ~ eps * cond(jwI - A) * ||G||: near a pole of an ill-conditioned
    realization the asymmetric part of the evaluated G is dominated by that
    noise, and only violations above it are evidence against the property.
    """
    eps = np.finfo(float).eps
    out = []
    for w in omegas:
        G = eval_tf(model, 1j * w)
        M = 1j * (G - G.conj().T)
        me = float(np.linalg.eigvalsh(0.5 * (M + M.conj().T))[0])
        if model.n:
            sv = np.linalg.svd(1j * w * np.eye(model.n) - model.A,
                               compute_uv=False)
            kappa = sv[0] / max(sv[-1], 1e-300)
        else:
            kappa = 1.0
        norm = float(np.linalg.norm(G, 2))
        floor = 200.0 * eps * kappa * (1.0 + norm)
        out.append((float(w), me, norm, floor))
    return out


def imaginary_axis_residue(model: StateSpaceModel, omega0: float) -> np.ndarray:
    """Residue K = lim_{s->jw0} (s - jw0) j G(s) at a simple pole jw0, w0 > 0.

    The pole is simple when the eigenvalue cluster of A at jw0 is semisimple
    (algebraic multiplicity equals geometric multiplicity); the cluster may
    hold several eigenvalues, as happens for modal systems whose coefficient
    matrix at that mode has rank above one.  K = j C P B with P the spectral
    projector of the whole cluster, obtained from a sorted complex Schur form
    and one Sylvester solve.

    Raises
    ------
    NotAPoleError
        If no eigenvalue of A lies within the cluster radius of jw0.
    NotSimplePoleError
        If the cluster is defective (a Jordan block of size two or more).
    """
    if omega0 <= 0.0:
        raise NotAPoleError("omega0 must be positive")
    radius = POLE_CLUSTER_RTOL * max(1.0, abs(omega0))
    target = 1j * omega0

    lam = np.linalg.eigvals(model.A)
    dist = np.abs(lam - target)
    if dist.min() > radius:
        raise NotAPoleError(
            f"no pole within {radius:.2e} of j*{omega0}; nearest at distance {dist.min():.2e}"
        )
    T, Z, sdim = scipy.linalg.schur(
        model.A.astype(complex), output="complex",
        sort=lambda z: abs(z - target) <= radius,
    )
    if sdim == 0:
        raise NotAPoleError(f"no pole within {radius:.2e} of j*{omega0}")
    T11, T12, T22 = T[:sdim, :sdim], T[:sdim, sdim:], T[sdim:, sdim:]
    # semisimple cluster of one eigenvalue <=> T11 is (numerically) scalar
    lam_bar = np.trace(T11) / sdim
    defect = np.linalg.norm(T11 - lam_bar * np.eye(sdim))
    if defect > 1e-6 * max(1.0, np.linalg.norm(model.A, 2)):
        raise NotSimplePoleError(
            f"pole at j*{omega0} is defective (Jordan structure of size >= 2)")
    if T22.shape[0]:
        X = scipy.linalg.solve_sylvester(T11, -T22, T12)
        P = Z[:, :sdim] @ np.hstack([np.eye(sdim), X]) @ Z.conj().T
    else:
        P = np.eye(model.n, dtype=complex)
    K = 1j * (model.C @ P @ model.B)
    return K


def classify_ni(model: StateSpaceModel, grid: FrequencyGrid | None = None) -> NiReport:
    """Test the four NI conditions for a minimal state-space model.

    Raises
    ------
    NotMinimalError
        The residue-multiplicity logic assumes minimality, so non-minimal
        models are rejected rather than silently misclassified.
    """
    if not is_minimal(model):
        raise NotMinimalError("classify_ni requires a minimal realization")
    grid = grid or FrequencyGrid()
    reasons: list[str] = []
    atol = _axis_tol(model.A)
    eigs = np.linalg.eigvals(model.A)

    # condition 1: no pole in the open right half plane
    rhp = [z for z in eigs if z.real > atol]
    ok1 = not rhp
    if not ok1:
        reasons.append(f"{len(rhp)} pole(s) with positive real part")

    clusters = _axis_pole_clusters(eigs, atol)
    n_zero = int(np.sum(np.abs(eigs) <= atol))

    # condition 2: frequency sweep
    sweep = _sweep_min_eigs(model, grid.build(tuple(w for w, _ in clusters)))
    cond2 = [(w, me) for (w, me, _n, _f) in sweep]
    viol = [(w, me) for (w, me, nrm, floor) in sweep
            if me < -max(COND2_RTOL * (1.0 + nrm), floor)]
    worst = min(cond2, key=lambda t: t[1]) if cond2 else None
    ok2 = not viol
    if not ok2:
        w, me = min(viol, key=lambda t: t[1])
        reasons.append(f"j(G - G*) has eigenvalue {me:.3e} at omega = {w:.6g}")

    # condition 3: simple (semisimple-cluster) PSD residues at axis poles
    residues = []
    ok3 = True
    for w0, _count in clusters:
        try:
            K = imaginary_axis_residue(model, w0)
        except NotSimplePoleError as exc:
            residues.append((w0, None, None, None, False))
            ok3 = False
            reasons.append(str(exc))
            continue
        herm_defect = float(np.linalg.norm(K - K.conj().T))
        Kh = 0.5 * (K + K.conj().T)
        min_eig = float(np.linalg.eigvalsh(Kh)[0])
        scale = max(np.linalg.norm(K), 1e-300)
        simple_ok = herm_defect <= RESIDUE_HERM_RTOL * scale
        psd_ok = min_eig >= -COND2_RTOL * (1.0 + scale)
        residues.append((w0, K, min_eig, herm_defect, True))
        if not simple_ok:
            ok3 = False
            reasons.append(f"residue at j*{w0:.6g} has Hermitian defect {herm_defect:.3e}")
        if not psd_ok:
            ok3 = False
            reasons.append(f"residue at j*{w0:.6g} has eigenvalue {min_eig:.3e}")

    # condition 4: origin pole of order at most two with PSD s^2 G limit.
    # The order is structural: A restricted to its zero cluster must square
    # to zero.  G2 comes from the contour route of laurent_coefficients, on
    # a tenth of the distance R to the closest nonzero pole: only G2 is read
    # here, and its error, aliased Taylor terms of G of relative size
    # (r / R)^30 and rounding of size r^2 |G(s)|, falls with the radius r.
    G2 = None
    G2_def = None
    higher_ok = True
    ok4 = True
    if n_zero > 0:
        S0, n0 = _zero_cluster_block(model.A, atol)
        nil_norm = np.linalg.norm(S0 @ S0, 2)
        higher_ok = nil_norm <= atol * max(1.0, np.linalg.norm(S0, 2)) ** 2
        if not higher_ok:
            ok4 = False
            reasons.append("zero eigenvalue has a Jordan block of order >= 3")
        else:
            nonzero = np.abs(eigs[np.abs(eigs) > atol])
            radius = float(np.min(nonzero)) if nonzero.size else 10.0
            G2 = _laurent_numeric_limits(model, radius / 10.0)[2]
            herm_defect = np.linalg.norm(G2 - G2.conj().T)
            G2r = 0.5 * np.real(G2 + G2.conj().T)
            G2_def = classify_definiteness(G2r, tol=max(1e-9, 1e-6 * np.linalg.norm(G2r)))
            if herm_defect > RESIDUE_HERM_RTOL * max(1.0, np.linalg.norm(G2)):
                ok4 = False
                reasons.append("lim s^2 G(s) is not Hermitian")
            elif not G2_def.is_psd:
                ok4 = False
                reasons.append(f"lim s^2 G(s) has eigenvalue {G2_def.min_eig:.3e}")

    return NiReport(
        is_ni=bool(ok1 and ok2 and ok3 and ok4),
        cond1_rhp_poles=rhp,
        cond2_min_eig_by_freq=cond2,
        cond2_worst=worst,
        cond3_residues=residues,
        cond4_G2=G2,
        cond4_definiteness=G2_def,
        cond4_higher_order=bool(higher_ok),
        reasons=reasons,
    )


def classify_sni(model: StateSpaceModel, grid: FrequencyGrid | None = None) -> SniReport:
    """Test the SNI conditions: Hurwitz poles and strict positivity on the sweep."""
    grid = grid or FrequencyGrid()
    reasons: list[str] = []
    atol = _axis_tol(model.A)
    eigs = np.linalg.eigvals(model.A) if model.n else np.array([])

    closed_rhp = [z for z in eigs if z.real >= -atol]
    ok1 = not closed_rhp
    if not ok1:
        reasons.append(f"{len(closed_rhp)} pole(s) in Re[s] >= 0")

    cond2: list[tuple[float, float]] = []
    worst = None
    ok2 = True
    if ok1:
        sweep = _sweep_min_eigs(model, grid.build())
        cond2 = [(w, me) for (w, me, _n, _f) in sweep]
        worst = min(cond2, key=lambda t: t[1]) if cond2 else None
        bad = [(w, me) for (w, me, nrm, floor) in sweep
               if me <= max(SNI_STRICT_FLOOR * (1.0 + nrm), floor)]
        ok2 = not bad
        if not ok2:
            w, me = min(bad, key=lambda t: t[1])
            reasons.append(f"j(G - G*) not strictly positive: {me:.3e} at omega = {w:.6g}")

    return SniReport(
        is_sni=bool(ok1 and ok2),
        closed_rhp_poles=closed_rhp,
        cond2_min_eig_by_freq=cond2,
        cond2_worst=worst,
        reasons=reasons,
    )
