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
inequality in 2.  Condition 2 is checked on one fixed frequency grid
(``_sweep_grid``: SWEEP_POINTS log-spaced points on [SWEEP_WMIN, SWEEP_WMAX]
and BRACKET_POINTS beside each axis pole, none within POLE_GUARD of one), so
the verdict is conservative: a grid can refute the property or support it,
never prove the universally quantified statement.  The grid and the
tolerances are module constants, not parameters.  G is evaluated on the
whole grid from one Schur form of A (``ltimodel.freq_response``).  A point refutes the
property only beyond a noise floor, 200 eps cond2(jwI - A) (1 + ||G||).
The exact ||G||_2 costs an m x m SVD per point and the floor an n x n SVD,
so each is taken only where a cheaper upper bound cannot decide the test;
the decisions are those of the exact values.  NI: only a point with min_eig
below -COND2_RTOL can fail (||G|| >= 0), so ||G||_2 is taken there alone,
and the floor only where min_eig is below -COND2_RTOL (1 + ||G||); an NI
plant has no such point.  SNI: a point passes on bounds alone when min_eig
is FLOOR_CLEARANCE times above both floors taken with ||G||_F >= ||G||_2
and cond2(jwI - A) <= (w + ||A||_2) ||(jwI - T)^-1||_F, the inverse from
one back substitution on the Schur factor T; every other point takes the
exact route.

Every eigenvalue of A is read off the diagonal of that one complex Schur
form A = Z T Z^H, held with the rest of A's spectral data by the per-call
record ``ltimodel._Spectral``.  Condition 3 takes each axis-pole cluster as
an index set on diag(T): T's eigenvectors give a single eigenvalue's residue
(:func:`_simple_residues`); a larger cluster is moved to the top of T and
decoupled by a triangular Sylvester solve, the only route that tells a
semisimple cluster from a defective one.  Condition 4 reads everything off
the record's origin split, the same move and solve for the cluster at s = 0:
the order of the origin pole (S0^2 = 0) and lim s^2 G(s) = Re C0 S0 B0
(``SchurSplit.G2``), the G2 that ``freebody.laurent_coefficients`` returns
too.  Whether a pole is at the origin or on the imaginary axis is decided
with the one tolerance ``_Spectral.ztol`` that ``freebody`` uses too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotAPoleError, NotMinimalError, NotSimplePoleError
from .ltimodel import StateSpaceModel, _schur_solve, _spectral, _Spectral, freq_response
from .matrixcore import Definiteness, classify_definiteness

__all__ = [
    "NiReport",
    "SniReport",
    "classify_ni",
    "classify_sni",
    "imaginary_axis_residue",
]

#: relative radius used to cluster eigenvalues onto a target imaginary pole
POLE_CLUSTER_RTOL = 1e-7

#: sweep points whose noise floor, or its bound, is found in one stacked solve
FLOOR_CHUNK = 64

#: ``classify_sni`` clears a point from its bounds alone when min_eig exceeds
#: this many times the larger bound floor; the factor absorbs the rounding of
#: both the bound and the exact route
FLOOR_CLEARANCE = 2.0

#: relative tolerance on the condition-2 eigenvalue sweep (NI, ">= 0")
COND2_RTOL = 1e-7

#: absolute floor for the strict SNI inequality on the sweep
SNI_STRICT_FLOOR = 1e-9

#: accepted Hermitian defect of a residue, relative to its norm
RESIDUE_HERM_RTOL = 1e-6


#: condition 2 is swept on SWEEP_POINTS log-spaced frequencies in
#: [SWEEP_WMIN, SWEEP_WMAX], plus BRACKET_POINTS beside each axis pole
SWEEP_WMIN = 1e-3
SWEEP_WMAX = 1e4
SWEEP_POINTS = 400
BRACKET_POINTS = 8

#: relative half-width of the band about an axis pole that the sweep skips
POLE_GUARD = 1e-4


#: the log-spaced part of every sweep grid
_BASE_GRID = np.geomspace(SWEEP_WMIN, SWEEP_WMAX, SWEEP_POINTS)
_BASE_GRID.setflags(write=False)


def _sweep_grid(axis_poles: tuple[float, ...] = ()) -> np.ndarray:
    """The sweep frequencies; none lies within POLE_GUARD max(1, w0) of a pole w0.

    The BRACKET_POINTS // 2 offsets on each side of every positive pole come
    from np.geomspace over all poles at once.  That call takes another
    formula for every row once any row's span is a single point (a pole at
    or below 10 POLE_GUARD), so those rows are spaced in a call of their own:
    each bracket is then bitwise the one a call for its pole alone gives.
    """
    poles = np.asarray(axis_poles, dtype=float)
    guard = POLE_GUARD * np.maximum(1.0, poles)
    w0, g = poles[poles > 0.0], guard[poles > 0.0]
    lo, hi = 2.0 * g, 0.2 * np.maximum(w0, 10.0 * g)
    flat = np.log10(lo) == np.log10(hi)
    span = np.empty((w0.size, BRACKET_POINTS // 2))
    for rows in (flat, ~flat):
        if rows.any():
            span[rows] = np.geomspace(lo[rows], hi[rows], BRACKET_POINTS // 2, axis=1)
    w0, g = w0[:, None], g[:, None]
    w = np.concatenate([_BASE_GRID, (w0 + span).ravel(),
                        np.clip(w0 - span, 0.5 * g, None).ravel()])
    keep = np.all(np.abs(w[:, None] - poles[None, :]) > guard[None, :], axis=1)
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


def _axis_pole_clusters(eigs: np.ndarray, tol: float) -> list[tuple[float, np.ndarray]]:
    """Positive-frequency imaginary-axis eigenvalue clusters (w0, indices into eigs)."""
    axis = np.flatnonzero((np.abs(eigs.real) <= tol) & (eigs.imag > tol))
    axis = axis[np.argsort(eigs.imag[axis], kind="stable")]
    clusters: list[list[int]] = []
    for i in axis:
        w = eigs.imag[i]
        if clusters and abs(w - eigs.imag[clusters[-1][-1]]) <= POLE_CLUSTER_RTOL * max(1.0, w):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return [(float(np.mean(eigs.imag[c])), np.array(c)) for c in clusters]


def _sweep_min_eigs(model: StateSpaceModel, omegas: np.ndarray):
    """Minimum eigenvalue of j(G - G*), and G itself, at every sweep frequency.

    G comes from one :func:`ltimodel.freq_response` call over the whole
    grid, and the eigenvalues are taken for all points at once.  ||G||_2 is
    not taken here: the callers need it only at the few points where a
    cheaper bound on it cannot decide their test (:func:`_norm2`), and the
    noise floor a violation must clear only where its bound cannot
    (:func:`_noise_floor`, :func:`_noise_floor_bound`).
    """
    G = freq_response(model, 1j * omegas)
    M = 1j * (G - G.conj().transpose(0, 2, 1))
    min_eig = np.linalg.eigvalsh(0.5 * (M + M.conj().transpose(0, 2, 1)))[:, 0]
    return min_eig, G


def _norm2(G: np.ndarray) -> np.ndarray:
    """||G_k||_2 of a stack of matrices, by one stacked SVD."""
    return np.linalg.svd(G, compute_uv=False)[:, 0]


def _noise_floor(model: StateSpaceModel, omegas: np.ndarray, norms: np.ndarray):
    """200 eps cond2(jwI - A) (1 + ||G||), the sweep's noise floor, at ``omegas``.

    It bounds the forward error of the resolvent solve: near a pole of an
    ill-conditioned realization the asymmetric part of the evaluated G is
    dominated by that noise, and only violations above it are evidence
    against the property.  The condition numbers come from stacked n x n
    SVDs of FLOOR_CHUNK points each; ``classify_ni`` takes them only below
    -COND2_RTOL, ``classify_sni`` only where :func:`_noise_floor_bound`
    cannot clear a point.
    """
    kappa = np.ones(omegas.size)
    if model.n:
        for k in range(0, omegas.size, FLOOR_CHUNK):
            jw = 1j * omegas[k:k + FLOOR_CHUNK, None, None]
            sv = np.linalg.svd(jw * np.eye(model.n) - model.A, compute_uv=False)
            kappa[k:k + FLOOR_CHUNK] = sv[:, 0] / np.maximum(sv[:, -1], 1e-300)
    return 200.0 * np.finfo(float).eps * kappa * (1.0 + norms)


def _noise_floor_bound(spec: _Spectral, omegas: np.ndarray, norm_bounds: np.ndarray):
    """An upper bound on :func:`_noise_floor` from the record's Schur form.

    With A = Z T Z^H, cond2(jwI - A) <= (|w| + ||A||_2) ||(jwI - T)^-1||_F,
    and the inverse is one back substitution with an identity right-hand
    side (``ltimodel._schur_solve``), for FLOOR_CHUNK points at a time.
    ``norm_bounds`` bounds ||G|| from above (||G||_F).
    """
    kappa = np.ones(omegas.size)
    if spec.n:
        T, _ = spec.schur
        eye = np.eye(spec.n)
        for k in range(0, omegas.size, FLOOR_CHUNK):
            w = omegas[k:k + FLOOR_CHUNK]
            inv = _schur_solve(T, 1j * w, eye)
            kappa[k:k + FLOOR_CHUNK] = (w + spec.norm2) * np.linalg.norm(inv, axis=(0, 2))
    return 200.0 * np.finfo(float).eps * kappa * (1.0 + norm_bounds)


def _simple_residues(spec: _Spectral, idx: np.ndarray) -> np.ndarray:
    """K = j (C Z x)(u Z^H B) at each simple eigenvalue t_ii, i in ``idx``, of A = Z T Z^H.

    x and u are T's right and left eigenvectors with x_i = u_i = 1, x zero below row i and u left
    of it, so u x = 1 and Z x u Z^H is the spectral projector, with no reorder or Sylvester solve.
    One back substitution serves all i (u^H on T^H reversed), row k updating columns i > k."""
    T, Z = spec.schur
    order = np.argsort(idx)
    vecs, flip = [], np.ascontiguousarray(T.conj().T[::-1, ::-1])
    for M, i in ((T, idx[order]), (flip, spec.n - 1 - idx[order][::-1])):
        X = np.eye(spec.n, dtype=complex)[:, i]
        lam, starts = M[i, i], np.searchsorted(i, np.arange(spec.n), side="right")
        for k in range(i.max(initial=0) - 1, -1, -1):
            X[k, starts[k]:] = M[k, k + 1:] @ X[k + 1:, starts[k]:] / (lam[starts[k]:] - M[k, k])
        vecs.append(X)
    CX, UB = spec.C @ Z @ vecs[0], vecs[1][::-1, ::-1].conj().T @ (Z.conj().T @ spec.B)
    return 1j * np.einsum("ik,kj->kij", CX, UB)[np.argsort(order)]


def _cluster_residue(spec: _Spectral, idx: np.ndarray, omega0: float) -> np.ndarray:
    """K = j C P B, P the spectral projector of the eigenvalues diag(T)[idx] near jw0.

    The cluster is split off the one Schur form A = Z T Z^H by
    ``_Spectral.split`` (ztrsen, then ztrsyl), so K = j C0 B0, the cluster's
    decoupled output and input maps: O(n^2 m) work beside the shared O(n^3)
    Schur form.  Taken for two or more eigenvalues; the check of :func:`_simple_residues` on one.

    Raises
    ------
    NotSimplePoleError
        If the cluster is defective (a Jordan block of size two or more).
    """
    split = spec.split(idx)
    k = idx.size
    # semisimple cluster of one eigenvalue <=> T0 is (numerically) scalar
    lam_bar = np.trace(split.T0) / k
    defect = np.linalg.norm(split.T0 - lam_bar * np.eye(k))
    if defect > 1e-6 * max(1.0, spec.norm2):
        raise NotSimplePoleError(
            f"pole at j*{omega0} is defective (Jordan structure of size >= 2)")
    return 1j * split.C0 @ split.B0


def imaginary_axis_residue(model: StateSpaceModel, omega0: float) -> np.ndarray:
    """Residue K = lim_{s->jw0} (s - jw0) j G(s) at a simple pole jw0, w0 > 0.

    The pole is simple when the eigenvalue cluster of A at jw0 is semisimple
    (algebraic multiplicity equals geometric multiplicity); the cluster may
    hold several eigenvalues, as happens for modal systems whose coefficient
    matrix at that mode has rank above one.  The cluster is every eigenvalue
    on the Schur diagonal of A within POLE_CLUSTER_RTOL max(1, w0) of jw0,
    and K = j C P B with P its spectral projector, by the route of :func:`classify_ni`.

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
    spec = _spectral(model)
    dist = np.abs(spec.eigs - 1j * omega0)
    if dist.min() > radius:
        raise NotAPoleError(
            f"no pole within {radius:.2e} of j*{omega0}; nearest at distance {dist.min():.2e}"
        )
    idx = np.flatnonzero(dist <= radius)
    return _simple_residues(spec, idx)[0] if idx.size == 1 else _cluster_residue(spec, idx, omega0)


def classify_ni(model: StateSpaceModel) -> NiReport:
    """Test the four NI conditions for a minimal state-space model.

    Raises
    ------
    NotMinimalError
        The residue-multiplicity logic assumes minimality, so non-minimal
        models are rejected rather than silently misclassified.
    """
    spec = _spectral(model)
    if not spec.minimal:
        raise NotMinimalError("classify_ni requires a minimal realization")
    reasons: list[str] = []
    atol = spec.ztol
    eigs = spec.eigs

    # condition 1: no pole in the open right half plane
    rhp = [z for z in eigs if z.real > atol]
    ok1 = not rhp
    if not ok1:
        reasons.append(f"{len(rhp)} pole(s) with positive real part")

    clusters = _axis_pole_clusters(eigs, atol)

    # condition 2: frequency sweep; a point violates it when min_eig is below
    # both -COND2_RTOL (1 + ||G||) and minus the noise floor.  As ||G|| >= 0,
    # only points below -COND2_RTOL can fail the first test: ||G|| is taken
    # there alone, and the floor only where the first test fails
    omegas = _sweep_grid(tuple(w for w, _ in clusters))
    min_eig, G = _sweep_min_eigs(spec, omegas)
    cond2 = list(zip(omegas.tolist(), min_eig.tolist()))
    cand = np.flatnonzero(min_eig < -COND2_RTOL)
    norm = _norm2(G[cand])
    below = min_eig[cand] < -COND2_RTOL * (1.0 + norm)
    cand, norm = cand[below], norm[below]
    floor = _noise_floor(spec, omegas[cand], norm)
    viol = [cond2[k] for k, f in zip(cand, floor) if cond2[k][1] < -f]
    worst = min(cond2, key=lambda t: t[1]) if cond2 else None
    ok2 = not viol
    if not ok2:
        w, me = min(viol, key=lambda t: t[1])
        reasons.append(f"j(G - G*) has eigenvalue {me:.3e} at omega = {w:.6g}")

    # condition 3: simple (semisimple-cluster) PSD residues at axis poles; margins stacked
    one = iter(_simple_residues(spec, np.array([i[0] for _, i in clusters if i.size == 1], int)))
    Ks, defective = [], {}
    for w0, idx in clusters:
        try:
            Ks.append(next(one) if idx.size == 1 else _cluster_residue(spec, idx, w0))
        except NotSimplePoleError as exc:
            Ks.append(np.zeros((spec.m, spec.m)))
            defective[w0] = str(exc)
    stack = np.array(Ks).reshape(-1, spec.m, spec.m)
    Kh = stack.conj().transpose(0, 2, 1)
    margins = zip(np.linalg.norm(stack - Kh, axis=(1, 2)).tolist(),
                  np.linalg.eigvalsh(0.5 * (stack + Kh))[:, 0].tolist(),
                  np.linalg.norm(stack, axis=(1, 2)).tolist())
    residues = []
    ok3 = not defective
    for (w0, _idx), K, (herm_defect, min_eig, scale) in zip(clusters, Ks, margins):
        if w0 in defective:
            residues.append((w0, None, None, None, False))
            reasons.append(defective[w0])
            continue
        residues.append((w0, K, min_eig, herm_defect, True))
        if not herm_defect <= RESIDUE_HERM_RTOL * scale:
            ok3 = False
            reasons.append(f"residue at j*{w0:.6g} has Hermitian defect {herm_defect:.3e}")
        if not min_eig >= -COND2_RTOL * (1.0 + scale):
            ok3 = False
            reasons.append(f"residue at j*{w0:.6g} has eigenvalue {min_eig:.3e}")

    # condition 4: origin pole of order at most two with PSD s^2 G limit,
    # both read off the record's origin split: A restricted to its origin
    # cluster, S0, must square to zero, and G2 = Re C0 S0 B0
    G2 = None
    G2_def = None
    higher_ok = True
    ok4 = True
    split = spec.origin_split
    if split.n0:
        higher_ok = split.order_excess <= 1.0
        if not higher_ok:
            ok4 = False
            reasons.append("zero eigenvalue has a Jordan block of order >= 3")
        else:
            G2 = split.G2
            herm_defect = np.linalg.norm(G2 - G2.T)
            G2r = 0.5 * (G2 + G2.T)
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


def classify_sni(model: StateSpaceModel) -> SniReport:
    """Test the SNI conditions: Hurwitz poles and strict positivity on the sweep."""
    reasons: list[str] = []
    spec = _spectral(model)
    atol = spec.ztol
    eigs = spec.eigs

    closed_rhp = [z for z in eigs if z.real >= -atol]
    ok1 = not closed_rhp
    if not ok1:
        reasons.append(f"{len(closed_rhp)} pole(s) in Re[s] >= 0")

    cond2: list[tuple[float, float]] = []
    worst = None
    ok2 = True
    if ok1:
        # a point fails when min_eig is at or below the strict floor or the
        # noise floor.  Both grow with ||G||_2 <= ||G||_F, and the noise floor
        # has a cheap bound: a point FLOOR_CLEARANCE clear of both bounds
        # passes, the rest take ||G||_2, and the exact noise floor where
        # they pass the strict one
        omegas = _sweep_grid()
        min_eig, G = _sweep_min_eigs(spec, omegas)
        cond2 = list(zip(omegas.tolist(), min_eig.tolist()))
        worst = min(cond2, key=lambda t: t[1]) if cond2 else None
        norm_f = np.linalg.norm(G, axis=(1, 2))
        clear = min_eig > FLOOR_CLEARANCE * SNI_STRICT_FLOOR * (1.0 + norm_f)
        idx = np.flatnonzero(clear)
        bound = _noise_floor_bound(spec, omegas[idx], norm_f[idx])
        clear[idx] = min_eig[idx] > FLOOR_CLEARANCE * bound
        idx = np.flatnonzero(~clear)
        norm = _norm2(G[idx])
        fails = np.zeros(omegas.size, dtype=bool)
        fails[idx] = min_eig[idx] <= SNI_STRICT_FLOOR * (1.0 + norm)
        above = ~fails[idx]
        idx, norm = idx[above], norm[above]
        fails[idx] = min_eig[idx] <= _noise_floor(spec, omegas[idx], norm)
        bad = [cond2[k] for k in np.flatnonzero(fails)]
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
