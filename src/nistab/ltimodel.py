"""State-space models, interconnection, and modal realizations.

The central type is :class:`StateSpaceModel`, a square (m inputs, m outputs)
continuous-time LTI system (A, B, C, D).  :class:`ModalModel` is the
undamped-structure form

    G(s) = sum_i  C_i / (s^2 + p_i^2)  +  G1/s  +  G2/s^2,

which is the natural parameterization of flexible structures with free body
motion; :func:`modal_to_ss` turns it into a minimal block-structured
realization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import DimensionError, IllPosedError, SingularAtSError
from .matrixcore import full_rank_factor, symmetrize

__all__ = [
    "StateSpaceModel",
    "ModalModel",
    "ClosedLoop",
    "SchurSplit",
    "eval_tf",
    "freq_response",
    "is_minimal",
    "closed_loop",
    "is_hurwitz",
    "modal_to_ss",
    "similarity_transform",
    "model_to_dict",
    "model_from_dict",
    "model_to_json",
    "model_from_json",
]

#: margin of the Hurwitz test: every eigenvalue must have Re(lambda) below -margin
HURWITZ_MARGIN = 1e-8

#: ||D|| at or below this counts as strictly proper
STRICT_PROPER_TOL = 1e-10

#: relative cutoff treating an eigenvalue of A, or its real part, as zero
ZERO_EIG_RTOL = 1e-7

#: relative rank cutoff of S0, A on its origin cluster: its nonzero singular
#: values are couplings (1/w of ||A|| beside a mode at w rad/s), the rest
#: rounding, at most about 1e-12 of ||A||
S0_RANK_RTOL = 1e-11


def _as_matrix(x, name: str) -> np.ndarray:
    """A float64 copy of ``x``: a model owns its arrays and may freeze them."""
    M = np.array(x, dtype=float)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D array, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise DimensionError(f"{name} contains non-finite entries")
    return M


@dataclass(frozen=True)
class StateSpaceModel:
    """Square LTI system x' = Ax + Bu, y = Cx + Du with m = #inputs = #outputs."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        C = _as_matrix(self.C, "C")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise DimensionError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise DimensionError(f"C has {C.shape[1]} columns, expected {n}")
        m = B.shape[1]
        if C.shape[0] != m:
            raise DimensionError(
                f"square transfer matrix required: {C.shape[0]} outputs vs {m} inputs"
            )
        D = np.zeros((m, m)) if self.D is None else _as_matrix(self.D, "D")
        if D.shape != (m, m):
            raise DimensionError(f"D must be {m}x{m}, got {D.shape}")
        for nm, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            M.setflags(write=False)
            object.__setattr__(self, nm, M)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def strictly_proper(self) -> bool:
        return bool(np.linalg.norm(self.D) <= STRICT_PROPER_TOL)


@dataclass(frozen=True)
class ClosedLoop:
    """Positive-feedback interconnection state matrix (plant states first)."""

    Abreve: np.ndarray
    n_plant: int
    n_ctrl: int


@dataclass(frozen=True)
class ModalModel:
    """Undamped modal sum with optional single/double pole terms at the origin.

    ``terms`` is a list of (p_i, C_i) with p_i > 0 strictly increasing and C_i
    real symmetric.  ``g1`` and ``g2`` are the 1/s and 1/s^2 coefficients
    (``g2`` must be symmetric PSD for the model to be negative imaginary).
    """

    m: int
    terms: tuple = ()
    g1: np.ndarray | None = None
    g2: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        terms = []
        last_p = 0.0
        for p, Ci in self.terms:
            p = float(p)
            if p <= last_p:
                raise DimensionError("mode frequencies must be positive and strictly increasing")
            Ci = symmetrize(np.asarray(Ci, dtype=float))
            if Ci.shape != (self.m, self.m):
                raise DimensionError(f"mode coefficient must be {self.m}x{self.m}")
            terms.append((p, Ci))
            last_p = p
        object.__setattr__(self, "terms", tuple(terms))
        for nm in ("g1", "g2"):
            M = getattr(self, nm)
            if M is not None:
                M = symmetrize(np.asarray(M, dtype=float))
                if M.shape != (self.m, self.m):
                    raise DimensionError(f"{nm} must be {self.m}x{self.m}")
                object.__setattr__(self, nm, M)

    def evaluate(self, s: complex) -> np.ndarray:
        """Direct modal sum; the realization-independent reference value."""
        G = np.zeros((self.m, self.m), dtype=complex)
        for p, Ci in self.terms:
            G += Ci / (s * s + p * p)
        if self.g1 is not None:
            G += self.g1 / s
        if self.g2 is not None:
            G += self.g2 / (s * s)
        return G


@dataclass(frozen=True)
class SchurSplit:
    """A cluster of eigenvalues of A split off the rest: G(s) is the sum

        C0 (sI - T0)^-1 B0  +  C1 (sI - T1)^-1 B1  +  D

    with T0 (n0 x n0) holding the cluster and T1 (n1 x n1) the rest, both
    upper triangular.  For the reordered Schur vectors Z and the coupling X,
    A = W diag(T0, T1) W^-1 with W = Z [[I, -X], [0, I]]; B0 = (Z^H B)_0 +
    X (Z^H B)_1 and C1 = (C Z)_1 - (C Z)_0 X are the decoupled maps.

    Of the origin split (``_Spectral.origin_split``), T0 = S0 is A on its
    origin cluster: ``k`` = rank S0 counts the double poles at s = 0 and
    ``n2`` = n0 - 2k the simple ones, and ``order_excess`` tests S0^2 = 0.
    The rank is cut at S0_RANK_RTOL max(1, ||A||_2), at rounding level, not
    at the cluster radius ``ztol``: a fast mode's unit coupling is far below
    the latter.  With S0^2 = 0, C0 (sI - S0)^-1 B0 = C0 B0 / s +
    C0 S0 B0 / s^2, so ``G2`` = Re C0 S0 B0 = lim s^2 G(s), with S0 cut to
    that rank.
    """

    T0: np.ndarray
    T1: np.ndarray
    B0: np.ndarray
    B1: np.ndarray
    C0: np.ndarray
    C1: np.ndarray
    X: np.ndarray
    #: the record's max(1, ||A||_2), the unit of ``k`` and ``order_excess``
    scale: float

    @property
    def n0(self) -> int:
        return self.T0.shape[0]

    @property
    def n1(self) -> int:
        return self.T1.shape[0]

    @cached_property
    def _s0_cut(self) -> tuple[np.ndarray, np.ndarray]:
        """S0 cut to its numerical rank k, as the factors (U_k diag(sv_k), Vh_k)."""
        U, sv, Vh = np.linalg.svd(self.T0)
        keep = sv > S0_RANK_RTOL * self.scale
        return U[:, keep] * sv[keep], Vh[keep]

    @property
    def k(self) -> int:
        return self._s0_cut[1].shape[0]

    @cached_property
    def G2(self) -> np.ndarray:
        """lim s^2 G(s) = Re C0 S0 B0, S0 cut to its rank ``k``."""
        US, Vh = self._s0_cut
        return np.real(self.C0 @ US @ Vh @ self.B0)

    @property
    def n2(self) -> int:
        return self.n0 - 2 * self.k

    @property
    def order_excess(self) -> float:
        """||T0^2||_2 / (ztol max(1, ||T0||_2)^2); above one, a pole of order >= 3."""
        if not self.n0:
            return 0.0
        top = np.linalg.norm(self.T0 @ self.T0, 2)
        ztol = ZERO_EIG_RTOL * self.scale
        return float(top / (ztol * max(1.0, np.linalg.norm(self.T0, 2)) ** 2))

    @property
    def cond(self) -> float:
        """Condition number of the decoupling [[I, X], [0, I]], ((x + (x^2 + 4)^1/2) / 2)^2
        for x = ||X||_2."""
        x = float(np.linalg.norm(self.X, 2)) if self.X.size else 0.0
        return ((x + np.sqrt(x * x + 4.0)) / 2.0) ** 2


class _Spectral(StateSpaceModel):
    """A model with the spectral data of its A, each part taken on first need.

    A record lives for one public call: ``freebody.stability_verdict`` builds
    one for the plant and passes it, as the model, to every stage, so the NI
    test, the Laurent routes and the sweep share one complex Schur form, one
    ||A||_2, one origin split and one PBH test.  A public function handed a
    plain model builds a record of its own (:func:`_spectral`); nothing is
    kept on the caller's model.  Inside ``freebody.montecarlo_agreement``,
    still one public call, a record spans one trial: the draw filter's PBH
    bound is the verdict's minimality test.
    """

    @cached_property
    def schur(self) -> tuple[np.ndarray, np.ndarray]:
        """Complex Schur form (T, Z), A = Z T Z^H."""
        return scipy.linalg.schur(self.A, output="complex")

    @cached_property
    def eigs(self) -> np.ndarray:
        """Eigenvalues of A, the diagonal of T: the one eigenvalue source of the
        NI tests and the Laurent routes.  The PBH test shifts by the exact
        conjugate pairs of a real eigensolver instead (:func:`_pbh_shifts`),
        but triangularizes on this Schur form (:func:`_pbh_bound`)."""
        return np.diag(self.schur[0])

    @cached_property
    def norm2(self) -> float:
        return float(np.linalg.norm(self.A, 2))

    @cached_property
    def ztol(self) -> float:
        """Absolute cutoff below which an eigenvalue of A, or its real part, is zero.

        The one tolerance for "A has an origin pole" (:attr:`origin_split`,
        whose ``n0`` counts them), "a pole lies on the imaginary axis"
        (``niclass``) and "two eigenvalues are one cluster" (:func:`_pbh_shifts`).
        It groups eigenvalues; it is not the rank cutoff of S0 (see
        :class:`SchurSplit`).
        """
        return ZERO_EIG_RTOL * max(1.0, self.norm2)

    def split(self, idx: np.ndarray) -> SchurSplit:
        """The eigenvalues diag(T)[idx] of the Schur form split off the rest.

        The cluster is moved to the top of the one Schur form A = Z T Z^H
        (LAPACK ztrsen), T = [[T0, T01], [0, T1]], and decoupled by the
        triangular Sylvester solve T0 X - X T1 = T01 (ztrsyl): O(n^2 m) work
        beside the shared O(n^3) Schur form.  See :class:`SchurSplit`.
        """
        T, Z = self.schur
        k = idx.size
        if 0 < k < self.n:
            select = np.zeros(self.n, dtype=np.int32)
            select[idx] = 1
            T, Z, *_rest = lapack.ztrsen(select, T, Z, job="N")
            X, scale, _info = lapack.ztrsyl(T[:k, :k], T[k:, k:], T[:k, k:], isgn=-1)
            X = X / scale
        else:
            X = np.zeros((k, self.n - k), dtype=complex)
        Bt = Z.conj().T @ self.B
        CZ = self.C @ Z
        return SchurSplit(T0=T[:k, :k], T1=T[k:, k:], B0=Bt[:k] + X @ Bt[k:],
                          B1=Bt[k:], C0=CZ[:, :k], C1=CZ[:, k:] - CZ[:, :k] @ X,
                          X=X, scale=max(1.0, self.norm2))

    @cached_property
    def origin_split(self) -> SchurSplit:
        """The origin cluster, the eigenvalues within ``ztol`` of 0, split off.

        ``niclass`` condition 4 reads its order test and ``G2`` here, and
        ``freebody.to_block_diagonal`` the Laurent data about s = 0.
        """
        return self.split(np.flatnonzero(np.abs(self.eigs) <= self.ztol))

    @cached_property
    def pbh_bound(self) -> float:
        """:func:`_pbh_bound` on this record's Schur form."""
        return _pbh_bound(self)

    @cached_property
    def minimal(self) -> bool:
        """The PBH verdict, :func:`is_minimal` on this record's Schur form."""
        return is_minimal(self)


def _spectral(model: StateSpaceModel) -> _Spectral:
    """``model`` itself if it is a record already, else a new record of it."""
    if isinstance(model, _Spectral):
        return model
    return _Spectral(model.A, model.B, model.C, model.D, model.name)


def eval_tf(model: StateSpaceModel, s: complex) -> np.ndarray:
    """Evaluate G(s) = C (sI - A)^-1 B + D by linear solve.

    Raises
    ------
    SingularAtSError
        If sI - A is numerically singular (s is at or near a pole).
    """
    n = model.n
    M = s * np.eye(n) - model.A
    try:
        X = np.linalg.solve(M, model.B)
    except np.linalg.LinAlgError as exc:
        raise SingularAtSError(f"sI - A singular at s = {s}") from exc
    return model.C @ X + model.D


def freq_response(model: StateSpaceModel, s) -> np.ndarray:
    """G(s_k) = C (s_k I - A)^-1 B + D at every point of ``s``, shape (K, m, m).

    One complex Schur form A = Z T Z^H is taken per call; each point then
    costs an O(n^2) back substitution with s_k I - T, done for all points at
    once, row by row of T.  This is Laub's scheme (1981, IEEE TAC, "Efficient
    multivariable frequency response computations") with the triangular
    Schur factor in place of the Hessenberg one, which makes the per-point
    solve a plain back substitution.

    Raises
    ------
    SingularAtSError
        If s_k I - T has an exactly zero pivot (s_k is an eigenvalue of A).
    """
    s = np.asarray(s, dtype=complex).ravel()
    n, m, K = model.n, model.m, s.size
    G = np.repeat(model.D.astype(complex)[None], K, axis=0)
    if n == 0 or K == 0:
        return G
    T, Z = _spectral(model).schur
    Bt = Z.conj().T @ model.B
    pivots = s[None, :] - np.diag(T)[:, None]
    if not np.all(pivots):
        k = int(np.flatnonzero(~np.all(pivots, axis=0))[0])
        raise SingularAtSError(f"sI - A singular at s = {s[k]}")
    # X[i] = (Bt[i] + T[i, i+1:] X[i+1:]) / (s - T[i, i]), one row per step
    X = np.empty((n, K * m), dtype=complex)
    for i in range(n - 1, -1, -1):
        rhs = np.tile(Bt[i], K) + T[i, i + 1:] @ X[i + 1:]
        X[i] = rhs / np.repeat(pivots[i], m)
    G += np.tensordot(model.C @ Z, X.reshape(n, K, m), axes=(1, 0)).transpose(1, 0, 2)
    return G


def _laurent_numeric_limits(model: StateSpaceModel, r: float):
    """Leading Laurent data about s = 0 by the trapezoidal rule on |s| = r.

    The coefficient of s^k is the mean of G(s) s^-k over N = 32 equispaced
    nodes s_j = r exp(i pi (2j + 1) / N); the rule converges
    geometrically, with error of order (r / R)^N for R the radius of
    convergence (Trefethen & Weideman 2014, SIAM Review 56(3)).  A real model
    has G(conj s) = conj G(s), so only the upper half of the nodes (which
    avoid the real axis) is evaluated.  Unlike a fit extrapolated to s = 0,
    no node comes closer than r to a pole, and noise in G(s) reaches the
    s^k coefficient scaled by r^-k only.  Returns (G0, G1, G2, settle),
    where settle is max(|G_-3| r^-3, |G_-4| r^-4) over the largest |G(s_j)|:
    the share of G on the circle that the s^-3 and s^-4 terms carry.  It
    vanishes for a pole of order at most two, up to aliased terms of order
    (r / R)^(N-4), and does not change when G is scaled in gain or
    frequency.
    """
    N = 32
    nodes = r * np.exp(1j * np.pi * (2 * np.arange(N // 2) + 1) / N)
    samples = freq_response(model, nodes)

    def coeff(k: int) -> np.ndarray:
        return (2.0 / N) * np.real(np.tensordot(nodes ** (-k), samples, axes=1))

    size = max(np.linalg.norm(G) for G in samples)
    tail = max(np.linalg.norm(coeff(-3)) / r ** 3, np.linalg.norm(coeff(-4)) / r ** 4)
    settle = tail / size if size > 0 else 0.0
    return coeff(0), coeff(-1), coeff(-2), float(settle)


def _balance_radius(G2: np.ndarray, G0: np.ndarray) -> float:
    """sqrt(||G2|| / ||G0||), where the s^-2 and s^0 terms of G are equal.

    Read on |s| = r, the contour G2 carries rounding of about
    eps r^2 max |G(s)|, i.e. eps (||G2|| + r^2 ||G0||): beyond this radius
    the second term wins and the error grows as r^2.  Infinite when G2 or G0
    vanishes.
    """
    g2, g0 = np.linalg.norm(G2), np.linalg.norm(G0)
    return float(np.sqrt(g2 / g0)) if g2 > 0.0 and g0 > 0.0 else np.inf


def _pbh_shifts(A: np.ndarray, ztol: float) -> np.ndarray:
    """The eigenvalues the PBH test is taken at, one of each conjugate pair,
    and one shift at the mean of each cluster.

    A, B, C are real, so the test matrices at conj(lambda) are the complex
    conjugates of those at lambda and have the same singular values.  The
    eigenvalues come from a real eigensolver, not from a complex Schur
    diagonal, so that each conjugate pair is exact and tested once.  A
    defective eigenvalue comes back as a cluster about eps^1/2 ||A|| wide,
    and the test at each computed member can clear the cutoff by 1e6 though
    a mode is lost; the mean of the cluster, the distinct eigenvalues linked
    pairwise within ``ztol``, is within rounding of the exact eigenvalue.
    (Equal eigenvalues count once: the test at their value is taken
    already.)  A cluster that meets the real axis is its own conjugate, and
    its mean is real.
    """
    eigs = np.linalg.eigvals(A)
    shifts = [eigs[eigs.imag >= 0.0]]
    eigs = np.unique(eigs)
    near = np.abs(eigs[:, None] - eigs[None, :]) <= ztol
    linked = np.flatnonzero(near.sum(axis=1) > 1)
    if linked.size:
        eigs, near = eigs[linked], near[np.ix_(linked, linked)]
        # each eigenvalue takes the least index in its cluster
        label = np.arange(linked.size)
        while True:
            least = np.where(near, label[None, :], linked.size).min(axis=1)
            if np.array_equal(least, label):
                break
            label = least
        for root in np.unique(label):
            members = eigs[label == root]
            # the conjugate of a cluster above the axis is not tested
            if members.imag.max() >= 0.0:
                mean = members.mean()
                shifts.append([mean.real if members.imag.min() <= 0.0 else mean])
    return np.concatenate(shifts)


def minimality_margin(model: StateSpaceModel) -> float:
    """Smallest eigenvalue-test singular value over its rank cutoff.

    Controllability and observability are checked per eigenvalue:
    rank [A - lambda I, B] = n and rank [A - lambda I; C'] = n for every
    eigenvalue lambda and cluster mean (:func:`_pbh_shifts`).  This is
    numerically far better behaved than ranks of the stacked Kalman
    matrices, whose high powers of A swamp the cutoff.  Values above 1 mean
    minimal.  Two dense SVDs per shift, O(n^4) in all: :func:`is_minimal`
    runs it only where the bound of :func:`_pbh_bound` cannot decide.
    """
    n = model.n
    if n == 0:
        return np.inf
    margin = np.inf
    for lam in _pbh_shifts(model.A, _spectral(model).ztol):
        shifted = model.A - lam * np.eye(n)
        for M in (np.hstack([shifted, model.B]),
                  np.vstack([shifted, model.C])):
            sv = np.linalg.svd(M, compute_uv=False)
            cutoff = max(M.shape) * np.finfo(float).eps * max(sv[0], 1e-300)
            margin = min(margin, sv[n - 1] / cutoff)
    return float(margin)


#: :func:`is_minimal` takes "minimal" from :func:`_pbh_bound` only above
#: this; near the cutoff 1 the bound is rounding, and the SVD decides
PBH_CLEARANCE = 100.0


def _pbh_bound(spec: _Spectral) -> float:
    """A lower bound on :func:`minimality_margin`, from the record's Schur form.

    With A = Z T Z^H, [A - lambda I; C] has the singular values of
    [T - lambda I; C Z], and [A - lambda I, B] those of [T^H - conj(lambda) I;
    B' Z] with rows and columns reversed: each an upper triangle with m rows
    below it.  LAPACK ztpqrt folds the m rows into the triangle, R, in
    O(n^2 m).  Then sigma_min >= 1 / ||R^-1||_F (ztrtri) and
    sigma_max <= ||M||_F, so sigma_min / ((n + m) eps sigma_max), the margin,
    is at least 1 / (||R^-1||_F ||M||_F (n + m) eps).  The bound is within a
    small factor of the margin on well-separated plants but, like the SVD,
    is rounding near the cutoff; 0 when an R is exactly singular.
    """
    n, m = spec.n, spec.m
    if n == 0:
        return np.inf
    T, Z = spec.schur
    lams = _pbh_shifts(spec.A, spec.ztol)
    # ||T - lambda I||_F^2 = off-diagonal part + sum_i |t_ii - lambda|^2
    tri = (np.linalg.norm(np.triu(T, 1)) ** 2
           + np.sum(np.abs(np.diag(T)[None, :] - lams[:, None]) ** 2, axis=1))
    eye = np.eye(n)
    bounds = []
    for upper, rows, shifts in ((T, spec.C @ Z, lams),
                                (T.conj().T[::-1, ::-1], (spec.B.T @ Z)[:, ::-1],
                                 lams.conj())):
        fro = np.sqrt(tri + np.linalg.norm(rows) ** 2)
        for lam, f in zip(shifts, fro):
            # LAPACK block size 8 (at most n): the fastest at n = 104
            R = lapack.ztpqrt(0, min(8, n), upper - lam * eye, rows, overwrite_a=1)[0]
            Rinv, info = lapack.ztrtri(R, overwrite_c=1)
            bounds.append(0.0 if info else 1.0 / (np.linalg.norm(Rinv) * f))
    # np.min, not min: a NaN must reach the caller and fail its test
    return float(np.min(bounds, initial=np.inf) / ((n + m) * np.finfo(float).eps))


def is_minimal(model: StateSpaceModel) -> bool:
    """Controllability and observability at every eigenvalue (numerical).

    The decision is ``minimality_margin(model) > 1``.  The lower bound of
    :func:`_pbh_bound`, on the Schur form of the model's record, decides it
    when it exceeds ``PBH_CLEARANCE``; otherwise the SVDs of
    :func:`minimality_margin` do.  The bound never says "not minimal", so
    the decision is the margin's.
    """
    spec = _spectral(model)
    return spec.pbh_bound > PBH_CLEARANCE or minimality_margin(spec) > 1.0


def closed_loop(G: StateSpaceModel, Gbar: StateSpaceModel) -> ClosedLoop:
    """Positive-feedback closed-loop state matrix.

    For plant (A, B, C, D) and controller (Abar, Bbar, Cbar, Dbar) with
    I - D Dbar nonsingular the combined state matrix is

        [ A + B Dbar L C          B Cbar + B Dbar L D Cbar ]
        [ Bbar L C                Abar + Bbar L D Cbar     ]

    with L = (I - D Dbar)^-1.

    Raises
    ------
    IllPosedError
        If I - D Dbar is singular: its smallest singular value is at most
        1e-12 max(1, ||D|| ||Dbar||).
    """
    if G.m != Gbar.m:
        raise DimensionError(f"channel counts differ: {G.m} vs {Gbar.m}")
    m = G.m
    A, B, C, D = G.A, G.B, G.C, G.D
    Ab, Bb, Cb, Db = Gbar.A, Gbar.B, Gbar.C, Gbar.D
    W = np.eye(m) - D @ Db
    smin = np.linalg.svd(W, compute_uv=False)[-1]
    if smin <= 1e-12 * max(1.0, np.linalg.norm(D) * np.linalg.norm(Db)):
        raise IllPosedError("I - D*Dbar is singular: interconnection ill posed")
    L = np.linalg.solve(W, np.eye(m))
    top = np.hstack([A + B @ Db @ L @ C, B @ Cb + B @ Db @ L @ D @ Cb])
    bot = np.hstack([Bb @ L @ C, Ab + Bb @ L @ D @ Cb])
    return ClosedLoop(Abreve=np.vstack([top, bot]), n_plant=G.n, n_ctrl=Gbar.n)


def is_hurwitz(M: np.ndarray) -> bool:
    """True iff every eigenvalue satisfies Re(lambda) < -HURWITZ_MARGIN."""
    return spectral_abscissa(_as_matrix(M, "M")) < -HURWITZ_MARGIN


def spectral_abscissa(M: np.ndarray) -> float:
    """Largest eigenvalue real part; the quantity is_hurwitz thresholds."""
    return float(np.max(np.linalg.eigvals(np.asarray(M)).real))


def _factor_symmetric(M: np.ndarray, rtol: float = 1e-12, floor: float = 0.0):
    """Signed full-rank factorization M = W diag(sgn) W' of a symmetric matrix.

    ``floor`` is an absolute eigenvalue cutoff; callers working with matrices
    that may be pure roundoff relative to some outer scale must supply it, or
    the noise would be kept as spurious rank.
    """
    w, V = np.linalg.eigh(M)
    scale = max(np.abs(w)) if w.size else 0.0
    keep = np.abs(w) > max(rtol * scale, floor, 1e-300)
    W = V[:, keep] * np.sqrt(np.abs(w[keep]))
    return W, np.sign(w[keep])


def modal_to_ss(mm: ModalModel) -> StateSpaceModel:
    """Minimal block-structured realization of a modal model.

    Each oscillatory term contributes paired states with
    A-block [[0, p I], [-p I, 0]]; the 1/s content outside the range of the
    1/s^2 factor J lands in an A2 = 0 block; the 1/s^2 term (and the 1/s
    content inside range(J)) is carried by nilpotent Jordan pairs
    A3 = [[0, I], [0, 0]].  The realization is minimal when the coefficient
    matrices are factored at full rank, which this constructor does.
    """
    m = mm.m
    scale_all = 1.0 + max(
        [np.linalg.norm(Ci) for _p, Ci in mm.terms]
        + [np.linalg.norm(M) for M in (mm.g1, mm.g2) if M is not None]
        + [0.0]
    )
    floor = 1e-10 * scale_all

    modes = [(p, *_factor_symmetric(Ci, floor=floor)) for p, Ci in mm.terms]
    modes = [(p, W, sgn) for p, W, sgn in modes if W.shape[1]]

    G1 = np.zeros((m, m)) if mm.g1 is None else mm.g1
    G2 = np.zeros((m, m)) if mm.g2 is None else mm.g2

    if np.linalg.norm(G2) > 0.0:
        J = full_rank_factor(G2).J
    else:
        J = np.zeros((m, 0))
    k = J.shape[1]

    if k > 0:
        Jpinv = np.linalg.solve(J.T @ J, J.T)       # (J'J)^-1 J'
        PJ = J @ Jpinv                              # projector on range(J)
        Q = np.eye(m) - PJ
        B3a = Jpinv @ G1                            # covers P_J G1
        C3b = Q @ G1 @ Jpinv.T                      # covers Q G1 P_J
        G1_rem = Q @ G1 @ Q
    else:
        G1_rem = G1

    # A2 = 0 block for the 1/s content not reachable through the Jordan pairs
    W2, sgn2 = _factor_symmetric(0.5 * (G1_rem + G1_rem.T), floor=floor)
    n2 = W2.shape[1]

    # the blocks are written in place, in the order oscillatory pairs, A2, A3
    n = 2 * sum(W.shape[1] for _p, W, _s in modes) + n2 + 2 * k
    A, B, C = np.zeros((n, n)), np.zeros((n, m)), np.zeros((m, n))
    i = 0
    for p, W, sgn in modes:
        r = W.shape[1]
        A[i:i + r, i + r:i + 2 * r] = p * np.eye(r)
        A[i + r:i + 2 * r, i:i + r] = -p * np.eye(r)
        B[i + r:i + 2 * r] = (sgn[:, None] * W.T) / p
        C[:, i:i + r] = W
        i += 2 * r
    B[i:i + n2] = sgn2[:, None] * W2.T
    C[:, i:i + n2] = W2
    i += n2
    if k > 0:
        A[i:i + k, i + k:] = np.eye(k)
        B[i:i + k], B[i + k:] = B3a, J.T
        C[:, i:i + k], C[:, i + k:] = J, C3b
    return StateSpaceModel(A, B, C, np.zeros((m, m)))


def similarity_transform(model: StateSpaceModel, T: np.ndarray) -> StateSpaceModel:
    """Equivalent realization (T^-1 A T, T^-1 B, C T, D)."""
    T = _as_matrix(T, "T")
    if T.shape != (model.n, model.n):
        raise DimensionError(f"T must be {model.n}x{model.n}")
    Ti = np.linalg.inv(T)
    return StateSpaceModel(Ti @ model.A @ T, Ti @ model.B, model.C @ T, model.D)


# --- JSON model format -----------------------------------------------------
#
# {"A": [[...]], "B": [[...]], "C": [[...]], "D": [[...]], "name": "..."}
# Row-major arrays of finite doubles; D optional (defaults to zero).


def _matrix_from_json(obj, name: str) -> np.ndarray:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise DimensionError(f"{name} must be an array of arrays")
    widths = {len(r) for r in obj}
    if len(widths) > 1:
        raise DimensionError(f"{name} has ragged rows")
    for r in obj:
        for x in r:
            if not isinstance(x, (int, float)) or isinstance(x, bool) or not np.isfinite(x):
                raise DimensionError(f"{name} must contain finite numbers only")
    return np.array(obj, dtype=float)


def model_from_dict(d: dict) -> StateSpaceModel:
    for key in ("A", "B", "C"):
        if key not in d:
            raise DimensionError(f"model object missing key {key!r}")
    A = _matrix_from_json(d["A"], "A")
    B = _matrix_from_json(d["B"], "B")
    C = _matrix_from_json(d["C"], "C")
    D = _matrix_from_json(d["D"], "D") if "D" in d else None
    return StateSpaceModel(A, B, C, D, name=str(d.get("name", "")))


def model_to_dict(model: StateSpaceModel) -> dict:
    d = {
        "A": model.A.tolist(),
        "B": model.B.tolist(),
        "C": model.C.tolist(),
        "D": model.D.tolist(),
    }
    if model.name:
        d["name"] = model.name
    return d


def model_from_json(text: str) -> StateSpaceModel:
    return model_from_dict(json.loads(text))


def model_to_json(model: StateSpaceModel, indent: int | None = None) -> str:
    return json.dumps(model_to_dict(model), indent=indent)
