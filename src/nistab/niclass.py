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
inequality in 2.  Condition 2 is checked on one fixed frequency grid, so the
verdict is conservative: a grid can refute the property or support it, never
prove the universally quantified statement.  The grid and the tolerances are
module constants, not parameters.

The NI test sweeps condition 2 on the remainder R(s) = C_r (sI - T_r)^-1 B_r
+ D where it can, not on G: the imaginary-axis poles are split off the Schur
form, and T_r keeps the origin cluster and any damped or right-half-plane
eigenvalue.  For a lossless plant with free-body poles R is the origin split
that condition 4 reads anyway.  An axis pair +-jw_i with residue K adds
-K/(w - w_i) + K^T/(w + w_i) to G(jw), whose j(. - .*) is exactly 0 when K
is Hermitian.  So condition 3 is taken first, and the axis poles drop out
only when every one is simple (or a semisimple cluster), its K Hermitian to
COND2_RTOL, and its real part not above AXIS_GROWTH_RTOL kappa ||A||_2 (kappa
its Wilkinson condition number), so not a growing mode.  R has no axis pole,
so it is swept on the SWEEP_POINTS log-spaced points on [SWEEP_WMIN,
SWEEP_WMAX] alone.  Otherwise, or when the split is ill-conditioned
(``SchurSplit.cond`` above ``ltimodel.TRANSFORM_COND_LIMIT``, or not finite),
G itself is swept, on that grid plus BRACKET_POINTS beside each axis pole,
none within POLE_GUARD of one (``_sweep_grid``); the SNI test, whose model has
no axis pole, always sweeps G.  Both tests decide condition 2 by one routine,
:func:`_condition2`: one walk over all rows of the swept Schur triangle T
evaluates G on the whole grid (``ltimodel._schur_response``; the triangle
swept on every analysis is small, a 2-4 state origin remainder or a
controller), one :func:`_least_eig` call gives min_eig, the least eigenvalue
of j(G - G*), at every point (in closed form for m = 2: the paper's colocated
pair, every ladder rung, the IRC), and a point where j(G - G*) is not finite
(G overflows) raises ``NonFiniteResponseError``.  A point is judged by
:func:`_beyond_floor`: is a margin z above (1 + ||G||_2) max(c, 200 eps
cond2(jwI - T)), the second term the noise floor of the resolvent solve?  NI
fails where z = -min_eig is above it with c = COND2_RTOL, SNI where z =
min_eig is not, with c = SNI_STRICT_FLOOR; the exact ||G||_2 and cond2 are
taken only where cheap bounds cannot decide.  Every failed condition of
either test gives a reason and no passing one does: the verdict is ``not
reasons``.

Every eigenvalue of A is read off the diagonal of one complex Schur
form A = Z T Z^H, held with the rest of A's spectral data by the per-call
record ``ltimodel._Spectral``.  Condition 3 takes each axis-pole cluster as
an index set on diag(T): T's eigenvectors, kept by the record for the PBH
test, give a single eigenvalue's residue (:func:`_simple_residues`); a
larger cluster is split off T (``_Spectral.split``: by indexing where it is
whole diagonal blocks of T, else moved to the top and decoupled by a
triangular Sylvester solve), the only route that tells a semisimple cluster
from a defective one.  Condition 4 reads everything off the record's origin
split, the same split of the cluster at s = 0: the order of the origin pole
(S0^2 = 0) and lim s^2 G(s) = Re C0 S0 B0 (``SchurSplit.G2``), the G2 that
``freebody.laurent_coefficients`` returns too.  ``_Spectral.ztol``, as
in ``freebody``, decides whether a pole is at the origin or on the axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteResponseError, NotAPoleError, NotMinimalError, NotSimplePoleError
from .ltimodel import (
    TRANSFORM_COND_LIMIT,
    StateSpaceModel,
    _eigvecs,
    _schur_response,
    _schur_solve,
    _spectral,
    _Spectral,
)
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

#: entries (points x n^2) of one stacked solve or SVD for cond2(jwI - T), or its
#: bound, 16 MB of complex entries: one chunk holds the 400-point grid up to
#: n = 51, 96 points at n = 104 and 6 at n = 404
FLOOR_ENTRIES = 2 ** 20

#: ``_beyond_floor`` decides a point from its bounds alone when the margin
#: exceeds this many times the bound floor; the factor absorbs the rounding of
#: both the bound and the exact route
FLOOR_CLEARANCE = 2.0

#: relative tolerance on the condition-2 eigenvalue sweep (NI, ">= 0")
COND2_RTOL = 1e-7

#: absolute floor for the strict SNI inequality on the sweep
SNI_STRICT_FLOOR = 1e-9

#: accepted Hermitian defect of a residue, relative to its norm
RESIDUE_HERM_RTOL = 1e-6

#: an axis pole whose real part is above AXIS_GROWTH_RTOL kappa ||A||_2, ten
#: times the rounding of a computed eigenvalue of Wilkinson condition number
#: kappa, may be a growing mode: condition 2 is then swept on G with it
AXIS_GROWTH_RTOL = 10.0 * np.finfo(float).eps


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

    Each positive pole w0 adds BRACKET_POINTS // 2 offsets on each side, one
    np.geomspace over [2 g, 0.2 max(w0, 10 g)] for its guard g.
    """
    if not len(axis_poles):
        return _BASE_GRID
    poles = np.asarray(axis_poles, dtype=float)
    guard = POLE_GUARD * np.maximum(1.0, poles)
    w = [_BASE_GRID]
    for w0, g in zip(poles[poles > 0.0], guard[poles > 0.0]):
        span = np.geomspace(2.0 * g, 0.2 * max(w0, 10.0 * g), BRACKET_POINTS // 2)
        w += [w0 + span, np.clip(w0 - span, 0.5 * g, None)]
    w = np.concatenate(w)
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
    """Positive-frequency imaginary-axis eigenvalue clusters (w0, indices into eigs), w0 rising.

    All clusters are cut at once, each a slice of one sorted index array, and w0, the mean
    frequency, is summed by one np.add.reduceat.  That sums a cluster of three or more in
    another order than np.mean; such a cluster takes np.mean, so w0 is np.mean's value.
    """
    axis = np.flatnonzero((np.abs(eigs.real) <= tol) & (eigs.imag > tol))
    axis = axis[np.argsort(eigs.imag[axis], kind="stable")]
    w = eigs.imag[axis]
    # a cluster starts where its frequency is more than the radius above the last
    starts = np.flatnonzero(np.diff(w, prepend=-np.inf) > POLE_CLUSTER_RTOL * np.maximum(1.0, w))
    sizes = np.diff(starts, append=w.size)
    w0 = np.add.reduceat(w, starts) / sizes
    for j in np.flatnonzero(sizes > 2):
        w0[j] = np.mean(w[starts[j]:starts[j] + sizes[j]])
    ends = (starts + sizes).tolist()
    return [(m, axis[a:b]) for m, a, b in zip(w0.tolist(), starts.tolist(), ends)]


def _remainder(spec: _Spectral, axis_poles: tuple[float, ...], drop: bool):
    """(T, Bt, Ct, ||T||_2, omegas): the model condition 2 is swept on,
    Ct (sI - T)^-1 Bt + D for upper triangular T, and its grid.

    With ``drop``, where every axis pole drops out of j(G - G*) (see
    :func:`classify_ni`), it is the remainder R on ``_BASE_GRID``.  R holds
    every eigenvalue of A that is not an imaginary-axis pole (|Re| <= ztol <
    |Im|, on both signs of the axis, so R stays the transfer matrix of a real
    system): the origin cluster and any damped or right-half-plane
    eigenvalue.  When that is the origin cluster alone, R is the record's
    origin split and no split is taken.  Without ``drop``, for a model with
    no axis pole, or where the split has a decoupling condition number above
    TRANSFORM_COND_LIMIT (or not finite), it is the record's whole Schur form
    (T, Z^H B, C Z) on ``_sweep_grid(axis_poles)``.
    """
    if drop:
        rest = (np.abs(spec.eigs.real) > spec.ztol) | (np.abs(spec.eigs.imag) <= spec.ztol)
        if not rest.all():
            # the origin cluster is part of the rest, so equal sizes mean equal sets
            split = (spec.origin_split if rest.sum() == spec.origin_split.n0
                     else spec.split(np.flatnonzero(rest)))
            if split.cond <= TRANSFORM_COND_LIMIT:
                norm2 = float(np.linalg.norm(split.T0, 2)) if split.n0 else 0.0
                return split.T0, split.B0, split.C0, norm2, _BASE_GRID
    return spec.schur[0], *spec.maps, spec.norm2, _sweep_grid(axis_poles)


def _least_eig(M: np.ndarray) -> np.ndarray:
    """Least eigenvalue of the Hermitian part (M + M^H) / 2 of each matrix of a (K, m, m) stack.

    For m = 2 it is (a + d)/2 - hypot((a - d)/2, |b|), with a and d the real diagonal and
    b = (m_01 + conj(m_10)) / 2: no LAPACK call per matrix, and no overflow before the
    eigenvalue itself overflows.  Every other m takes stacked ``np.linalg.eigvalsh``.  A
    matrix with a non-finite entry gives NaN.
    """
    finite = np.isfinite(M).all(axis=(1, 2))
    if M.shape[-1] == 2:
        a, d = M[:, 0, 0].real, M[:, 1, 1].real
        with np.errstate(invalid="ignore"):   # inf - inf where an entry is not finite
            b = 0.5 * M[:, 0, 1] + 0.5 * M[:, 1, 0].conj()
            lam = (0.5 * a + 0.5 * d) - np.hypot(0.5 * a - 0.5 * d, np.abs(b))
    else:
        lam = np.empty(M.shape[0])
        H = M[finite]
        lam[finite] = np.linalg.eigvalsh(0.5 * (H + H.conj().transpose(0, 2, 1)))[:, 0]
    lam[~finite] = np.nan
    return lam


def _sweep_min_eigs(T, Bt, Ct, D, omegas: np.ndarray):
    """Minimum eigenvalue of j(G - G*), and G itself, at every sweep frequency.

    G = Ct (jwI - T)^-1 Bt + D comes from one ``ltimodel._schur_response``
    call over the whole grid, one walk over all rows of T, and the
    eigenvalues from one :func:`_least_eig` call for all points, in closed
    form for m = 2.  ||G||_2 and cond2(jwI - T) are not taken here:
    :func:`_beyond_floor` needs them only at the few points where their
    bounds cannot decide the test.

    Raises
    ------
    NonFiniteResponseError
        If j(G - G*) is not finite at a sweep point (G overflows): a NaN
        margin would pass every test against it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        G = _schur_response(T, Bt, Ct, D, 1j * omegas)
        min_eig = _least_eig(1j * (G - G.conj().transpose(0, 2, 1)))
    bad = np.flatnonzero(np.isnan(min_eig))
    if bad.size:
        raise NonFiniteResponseError(
            f"j(G - G*) is not finite at omega = {omegas[bad[0]]:.6g}")
    return min_eig, G


def _by_chunks(T: np.ndarray, omegas: np.ndarray, chunk) -> np.ndarray:
    """``chunk(w)`` on ``omegas`` in chunks of at most FLOOR_ENTRIES = points x n^2
    entries (and at least one point) each, for the n x n triangle T; ones for n = 0."""
    step = max(1, FLOOR_ENTRIES // max(1, T.size))
    parts = [chunk(omegas[k:k + step]) for k in range(0, omegas.size, step)] if T.size else []
    return np.concatenate(parts) if parts else np.ones(omegas.size)


def _cond2(T: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """cond2(jwI - T) at ``omegas`` for a Schur triangle T (for the record's,
    cond2(jwI - A)), from one stacked n x n SVD per chunk of :func:`_by_chunks`."""
    def chunk(w):
        sv = np.linalg.svd(1j * w[:, None, None] * np.eye(T.shape[0]) - T, compute_uv=False)
        return sv[:, 0] / np.maximum(sv[:, -1], 1e-300)
    return _by_chunks(T, omegas, chunk)


def _cond2_bound(T: np.ndarray, norm2: float, omegas: np.ndarray) -> np.ndarray:
    """An upper bound on :func:`_cond2` for the triangle T with ||T||_2 = ``norm2``.

    cond2(jwI - T) <= (|w| + ||T||_2) ||(jwI - T)^-1||_F, and the inverse is
    one back substitution with an identity right-hand side
    (``ltimodel._schur_solve``) per chunk of :func:`_by_chunks`: one solve
    over the whole grid for a triangle of up to 51 rows, such as a
    controller's or an origin remainder's.
    """
    return _by_chunks(T, omegas, lambda w: (w + norm2) * np.linalg.norm(
        _schur_solve(T, 1j * w, np.eye(T.shape[0])), axis=(0, 2)))


def _beyond_floor(T: np.ndarray, norm2: float, omegas: np.ndarray, z, G, c: float) -> np.ndarray:
    """z > (1 + ||G||_2) max(c, 200 eps cond2(jwI - T)) at every sweep point.

    T is the Schur triangle the sweep evaluated G on, the record's or the
    remainder's, and ``norm2`` its 2-norm.  The noise floor 200 eps
    cond2(jwI - T) bounds the forward error of the resolvent solve: near a
    pole of an ill-conditioned realization the asymmetric part of the
    evaluated G is dominated by that noise, so only a margin above it is
    evidence.  A point with z <= c is decided at once, as the right side is
    at least c; one with z FLOOR_CLEARANCE times above the right side taken
    with ||G||_F >= ||G||_2 and :func:`_cond2_bound` is beyond it.  Every
    other point takes ||G||_2, and the exact :func:`_cond2` where z still
    exceeds c (1 + ||G||_2).
    """
    beyond = np.zeros(z.size, dtype=bool)
    idx = np.flatnonzero(z > c)
    if not idx.size:
        return beyond
    noise = 200.0 * np.finfo(float).eps
    bound = (1.0 + np.linalg.norm(G[idx], axis=(1, 2))) * np.maximum(
        c, noise * _cond2_bound(T, norm2, omegas[idx]))
    clear = z[idx] > FLOOR_CLEARANCE * bound
    beyond[idx[clear]] = True
    idx = idx[~clear]
    norm = np.linalg.svd(G[idx], compute_uv=False)[:, 0]
    above = z[idx] > c * (1.0 + norm)
    idx, norm = idx[above], norm[above]
    beyond[idx] = z[idx] > noise * _cond2(T, omegas[idx]) * (1.0 + norm)
    return beyond


def _simple_residues(spec: _Spectral, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K = j (C Z x)(u^H Z^H B) at each simple eigenvalue t_ii, i in ``idx``, of A = Z T Z^H,
    and its Wilkinson condition number ||x||_2 ||u||_2, from T's eigenvectors x and u: read off
    the PBH test's record (``_Spectral.eigvecs``) where it holds every i, else by its kernel."""
    rec = vars(spec).get("eigvecs")   # built by the PBH test, if that ran
    if rec is None or not np.isin(idx, rec.idx).all():
        rec = _eigvecs(spec, np.unique(idx))
    pos = np.searchsorted(rec.idx, idx)
    return 1j * np.einsum("ik,kj->kij", rec.CX[:, pos], rec.UB[pos]), rec.kappa[pos]


def _cluster_residue(spec: _Spectral, idx: np.ndarray, omega0: float) -> tuple[np.ndarray, float]:
    """K = j C P B, P the spectral projector of the eigenvalues diag(T)[idx] near jw0,
    and a bound on the cluster's condition number ||P||_2.

    The cluster is split off the one Schur form A = Z T Z^H by
    ``_Spectral.split`` (by indexing, or ztrsen then ztrsyl), so K = j C0 B0, the cluster's
    decoupled output and input maps: O(n^2 m) work beside the shared O(n^3)
    Schur form.  ||P||_2 = (1 + ||X||_2^2)^1/2 for the coupling X is at most
    ||[[I, X], [0, I]]||_2 = ``SchurSplit.cond`` ^ 1/2, the bound returned.
    Taken for two or more eigenvalues; the check of :func:`_simple_residues` on one.

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
    return 1j * split.C0 @ split.B0, float(np.sqrt(split.cond))


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
    idx = np.flatnonzero(dist <= radius)
    if not idx.size:
        raise NotAPoleError(f"no pole within {radius:.2e} of j*{omega0}; nearest at "
                            f"distance {dist.min(initial=np.inf):.2e}")
    one = idx.size == 1
    return (_simple_residues(spec, idx)[0] if one else _cluster_residue(spec, idx, omega0))[0]


def _condition2(spec: _Spectral, axis_poles: tuple[float, ...], drop: bool, strict: bool):
    """Condition 2 on the model of ``_remainder(spec, axis_poles, drop)``: its profile
    [(w, min_eig)], worst point and lowest failing point (None where none fails).

    Swept by :func:`_sweep_min_eigs`, refuted by :func:`_beyond_floor`: NI fails where
    -min_eig is beyond the COND2_RTOL floor, SNI (``strict``) where min_eig is not
    beyond the SNI_STRICT_FLOOR floor.
    """
    T, Bt, Ct, norm2, omegas = _remainder(spec, axis_poles, drop)
    min_eig, G = _sweep_min_eigs(T, Bt, Ct, spec.D, omegas)
    profile = list(zip(omegas.tolist(), min_eig.tolist()))
    if strict:
        fails = ~_beyond_floor(T, norm2, omegas, min_eig, G, SNI_STRICT_FLOOR)
    else:
        fails = _beyond_floor(T, norm2, omegas, -min_eig, G, COND2_RTOL)
    bad = np.flatnonzero(fails)
    lowest = profile[bad[np.argmin(min_eig[bad])]] if bad.size else None
    return profile, profile[np.argmin(min_eig)], lowest


def classify_ni(model: StateSpaceModel) -> NiReport:
    """Test the four NI conditions for a minimal state-space model.

    Condition 2 (:func:`_condition2`, as for SNI) is swept on the remainder
    R of :func:`_remainder`, the model without its imaginary-axis poles,
    where every axis pole drops out of j(G - G*); ``cond2_min_eig_by_freq``
    is then R's profile.  An axis pole drops out when condition 3 finds it
    simple (or a semisimple cluster) with a residue K Hermitian to
    COND2_RTOL ||K||_F, and its real part is at most AXIS_GROWTH_RTOL kappa
    ||A||_2, ten times the rounding of the computed eigenvalue (kappa its
    Wilkinson condition number, or the cluster's ||P||_2).  Leaving out an
    axis pole with Hermitian residue K changes j(G - G*) by exactly 0.  An
    eigenvalue -eps + jw_i with 0 < eps <= ztol, a damped pole taken as an
    axis pole, drops the term 2 eps K / ((w - w_i)^2 + eps^2) (and its
    mirror at -jw_i), which is PSD where K is, as condition 3 requires: so
    the test on R is sufficient, never optimistic.  A growing mode
    eps + jw_i would drop the NSD term -2 eps K / ((w - w_i)^2 + eps^2);
    the bound on the real part keeps every eps that the full sweep's
    brackets can see (about 100 kappa eps ||A||_2 and up, where the
    near-pole noise floor stops hiding it) in that sweep.  When an axis
    pole does not drop out, or the split is ill-conditioned, G itself is
    swept, on the grid with brackets beside each axis pole.  The model is
    NI exactly when ``reasons`` is empty: each failed condition adds one.

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

    # condition 1: no pole in the open right half plane
    rhp = [z for z in spec.eigs if z.real > spec.ztol]
    if rhp:
        reasons.append(f"{len(rhp)} pole(s) with positive real part")

    clusters = _axis_pole_clusters(spec.eigs, spec.ztol)
    sizes = np.array([idx.size for _w0, idx in clusters], dtype=int)
    members = np.concatenate([idx for _w0, idx in clusters] + [np.zeros(0, dtype=int)])
    starts = np.cumsum(sizes) - sizes

    # condition 3 (taken first: it decides condition 2's route): simple
    # (semisimple-cluster) PSD residues at axis poles, every margin an array
    # indexed by cluster; a defective cluster keeps K = 0 and kappa = inf
    single = np.flatnonzero(sizes == 1)
    Ks = np.zeros((sizes.size, spec.m, spec.m), dtype=complex)
    kappas = np.full(sizes.size, np.inf)
    Ks[single], kappas[single] = _simple_residues(spec, members[starts[single]])
    defective = {}
    for j in np.flatnonzero(sizes > 1).tolist():
        try:
            Ks[j], kappas[j] = _cluster_residue(spec, clusters[j][1], clusters[j][0])
        except NotSimplePoleError as exc:
            defective[j] = str(exc)
    herm = np.linalg.norm(Ks - Ks.conj().transpose(0, 2, 1), axis=(1, 2))
    least = _least_eig(Ks)
    scale = np.linalg.norm(Ks, axis=(1, 2))
    residues, reasons3 = [], []
    w0s = [w0 for w0, _idx in clusters]
    for j, (w0, K, hd, me, sc) in enumerate(zip(w0s, Ks, herm.tolist(), least.tolist(),
                                                 scale.tolist())):
        if j in defective:
            residues.append((w0, None, None, None, False))
            reasons3.append(defective[j])
            continue
        residues.append((w0, K, me, hd, True))
        if not hd <= RESIDUE_HERM_RTOL * sc:
            reasons3.append(f"residue at j*{w0:.6g} has Hermitian defect {hd:.3e}")
        if not me >= -COND2_RTOL * (1.0 + sc):
            reasons3.append(f"residue at j*{w0:.6g} has eigenvalue {me:.3e}")

    # condition 2: sweep of the remainder where every axis pole drops out of
    # j(G - G*) (none defective, each K Hermitian to COND2_RTOL, each cluster's
    # largest real part within the growth bound), else of the whole model
    top = np.maximum.reduceat(spec.eigs.real[members], starts)
    growth = AXIS_GROWTH_RTOL * spec.norm2 * kappas
    drop = not defective and bool(np.all((herm <= COND2_RTOL * scale) & (top <= growth)))
    cond2, worst, fail = _condition2(spec, tuple(w0s), drop, False)
    if fail:
        reasons.append(f"j(G - G*) has eigenvalue {fail[1]:.3e} at omega = {fail[0]:.6g}")
    reasons += reasons3

    # condition 4: origin pole of order at most two with PSD s^2 G limit,
    # both read off the record's origin split: A restricted to its origin
    # cluster, S0, must square to zero, and G2 = Re C0 S0 B0
    G2 = G2_def = None
    split = spec.origin_split
    higher_ok = not split.n0 or split.order_excess <= 1.0
    if not higher_ok:
        reasons.append("zero eigenvalue has a Jordan block of order >= 3")
    elif split.n0:
        G2 = split.G2
        G2r = 0.5 * (G2 + G2.T)
        G2_def = classify_definiteness(G2r, tol=max(1e-9, 1e-6 * np.linalg.norm(G2r)))
        if np.linalg.norm(G2 - G2.T) > RESIDUE_HERM_RTOL * max(1.0, np.linalg.norm(G2)):
            reasons.append("lim s^2 G(s) is not Hermitian")
        elif not G2_def.is_psd:
            reasons.append(f"lim s^2 G(s) has eigenvalue {G2_def.min_eig:.3e}")

    return NiReport(
        is_ni=not reasons,
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
    """Test the SNI conditions: Hurwitz poles and strict positivity on the sweep.

    Condition 2, swept only when no pole lies in Re[s] >= 0, is :func:`_condition2`
    with the strict floor on the whole model.  SNI exactly when ``reasons`` is empty.
    """
    reasons: list[str] = []
    spec = _spectral(model)
    closed_rhp = [z for z in spec.eigs if z.real >= -spec.ztol]
    cond2, worst = [], None
    if closed_rhp:
        reasons.append(f"{len(closed_rhp)} pole(s) in Re[s] >= 0")
    else:
        cond2, worst, fail = _condition2(spec, (), False, True)
        if fail:
            reasons.append(
                f"j(G - G*) not strictly positive: {fail[1]:.3e} at omega = {fail[0]:.6g}")

    return SniReport(
        is_sni=not reasons,
        closed_rhp_poles=closed_rhp,
        cond2_min_eig_by_freq=cond2,
        cond2_worst=worst,
        reasons=reasons,
    )
