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
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from .errors import DimensionError, IllPosedError, SingularAtSError
from .matrixcore import full_rank_factor, symmetrize

__all__ = [
    "StateSpaceModel",
    "ModalModel",
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

#: largest condition number of a split's decoupling [[I, X], [0, I]] that is
#: used: ``freebody`` rejects a worse origin split, ``niclass`` sweeps the
#: whole model instead of a worse remainder
TRANSFORM_COND_LIMIT = 1e8

#: fewest states whose Schur triangle is walked per diagonal block (``_Spectral.blocks``):
#: below, the stacked walk per block size costs more array calls than the rows it skips
BLOCK_WALK_MIN_N = 32

#: relative radius linking eigenvalues into one PBH cluster (:func:`_pbh_shifts`):
#: a Jordan triple's computed eigenvalues lie about eps^1/3 ||A|| apart
PBH_CLUSTER_RTOL = 4.0 * np.finfo(float).eps ** (1.0 / 3.0)


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

    A split by indexing (a cluster of whole diagonal blocks of T, see
    ``_Spectral.split``) takes Z with its columns permuted, cluster first, and
    X = 0: the blocks' coupling is exactly zero, so B0, B1, C0 and C1 are rows
    and columns of the record's maps.

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

    @cached_property
    def order_excess(self) -> float:
        """||T0^2||_2 / (ztol max(1, ||T0||_2)^2); above one, a pole of order >= 3."""
        if not self.n0:
            return 0.0
        top = np.linalg.norm(self.T0 @ self.T0, 2)
        ztol = ZERO_EIG_RTOL * self.scale
        return float(top / (ztol * max(1.0, np.linalg.norm(self.T0, 2)) ** 2))

    @cached_property
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
    still one public call, a record spans one trial: the draw filter's
    minimality margin is the verdict's minimality test.
    """

    @cached_property
    def schur(self) -> tuple[np.ndarray, np.ndarray]:
        """Complex Schur form (T, Z), A = Z T Z^H."""
        return scipy.linalg.schur(self.A, output="complex")

    @cached_property
    def maps(self) -> tuple[np.ndarray, np.ndarray]:
        """(Z^H B, C Z): the input and output maps in the coordinates of :attr:`schur`, formed
        once for :func:`freq_response`, the eigenvector record, the [T - lambda I; C Z] side
        of the PBH fold, the NI and SNI sweeps and every split taken by indexing (a cluster of
        whole diagonal blocks, none or all eigenvalues), whose maps are their rows and
        columns."""
        Z = self.schur[1]
        return Z.conj().T @ self.B, self.C @ Z

    @cached_property
    def eigs(self) -> np.ndarray:
        """Eigenvalues of A, the diagonal of T: the one eigenvalue source of the
        NI tests, the Laurent routes and the PBH shifts (:func:`_pbh_shifts`)."""
        return np.diag(self.schur[0])

    @cached_property
    def norm2(self) -> float:
        """||A||_2 = ||T||_2.  With a partition (:attr:`blocks`) T is block diagonal up to a
        permutation, so this is the largest singular value over its diagonal blocks, one
        stacked SVD per block size; without one, the SVD of A."""
        if self.blocks is None:
            return float(np.linalg.norm(self.A, 2))
        T = self.schur[0]
        top = 0.0
        for b, starts in self.blocks:
            rows = starts[:, None] + np.arange(b)
            sv = np.linalg.svd(T[rows[:, :, None], rows[:, None]], compute_uv=False)
            top = max(top, float(sv[:, 0].max()))
        return top

    @cached_property
    def ztol(self) -> float:
        """Absolute cutoff below which an eigenvalue of A, or its real part, is zero.

        The one tolerance for "A has an origin pole" (:attr:`origin_split`,
        whose ``n0`` counts them) and "a pole lies on the imaginary axis"
        (``niclass``).  It groups eigenvalues; it is not the rank cutoff of
        S0 (see :class:`SchurSplit`), nor the wider PBH cluster radius
        (:func:`_pbh_shifts`).
        """
        return ZERO_EIG_RTOL * max(1.0, self.norm2)

    def split(self, idx: np.ndarray) -> SchurSplit:
        """The eigenvalues diag(T)[idx] of the Schur form split off the rest.

        A cluster of none or all eigenvalues, or one that is a union of whole
        diagonal blocks of the record's partition (:attr:`blocks`), is split by
        indexing: T0 = T[idx, idx], T1 the rest's rows and columns, B0, B1 the
        rows of Z^H B and C0, C1 the columns of C Z (:attr:`maps`), and X = 0,
        exact as the blocks' coupling is exactly zero.  Any other cluster (a
        dense T, an axis cluster inside a block) is moved to the top of the one
        Schur form A = Z T Z^H (LAPACK ztrsen), T = [[T0, T01], [0, T1]], and
        decoupled by the triangular Sylvester solve T0 X - X T1 = T01 (ztrsyl):
        O(n^2 m) work beside the shared O(n^3) Schur form.  See :class:`SchurSplit`.
        """
        T, Z = self.schur
        n, k = self.n, idx.size
        own = np.zeros(n, dtype=bool)
        own[idx] = True
        # the cluster is whole blocks where it begins and ends at block starts only
        if k in (0, n) or self.blocks is not None and np.isin(
                np.flatnonzero(own[1:] != own[:-1]) + 1,
                np.concatenate([starts for _b, starts in self.blocks])).all():
            i, r = np.flatnonzero(own), np.flatnonzero(~own)
            Bt, CZ = self.maps
            return SchurSplit(T0=T[np.ix_(i, i)], T1=T[np.ix_(r, r)], B0=Bt[i], B1=Bt[r],
                              C0=CZ[:, i], C1=CZ[:, r], X=np.zeros((k, n - k), dtype=complex),
                              scale=max(1.0, self.norm2))
        T, Z, *_rest = lapack.ztrsen(own.astype(np.int32), T, Z, job="N")
        X, scale, _info = lapack.ztrsyl(T[:k, :k], T[k:, k:], T[:k, k:], isgn=-1)
        X = X / scale
        Bt, CZ = Z.conj().T @ self.B, self.C @ Z   # the maps of the reordered Z
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
    def pbh_shifts(self) -> tuple[np.ndarray, np.ndarray]:
        """(lams, idx): :func:`_pbh_shifts`, the cluster shifts and the i of every simple
        shift t_ii, each i once."""
        return _pbh_shifts(self)

    @cached_property
    def blocks(self) -> tuple[tuple[int, np.ndarray], ...] | None:
        """:func:`_blocks` of the Schur triangle T, the partition :func:`_eigvecs` and
        :func:`freq_response` walk, or None for one walk over all rows: for a T of one
        block, and below BLOCK_WALK_MIN_N states.  Only exact zeros split blocks, so a walk
        on either gives the same results up to summation order."""
        if self.n < BLOCK_WALK_MIN_N:
            return None
        blocks = _blocks(self.schur[0])
        return None if blocks[0][0] == self.n else blocks

    @cached_property
    def eigvecs(self) -> _Eigvecs:
        """:func:`_eigvecs` at the simple PBH shifts, for the PBH bound and the residues."""
        return _eigvecs(self, self.pbh_shifts[1])

    @cached_property
    def pbh_bound(self) -> float:
        """:func:`_pbh_bound` on this record's Schur form."""
        return _pbh_bound(self)

    @cached_property
    def margin(self) -> float:
        """:func:`minimality_margin` (n > 0): [A - lambda I, B] at every PBH shift as one
        (K, n, n+m) stack and [A - lambda I; C] as one (K, n+m, n) stack, one SVD call each."""
        n, (lams, idx) = self.n, self.pbh_shifts
        shifted = self.A - np.concatenate([lams, self.eigs[idx]])[:, None, None] * np.eye(n)
        K, margins = shifted.shape[0], []
        for M in (np.concatenate([shifted, np.broadcast_to(self.B, (K, n, self.m))], axis=2),
                  np.concatenate([shifted, np.broadcast_to(self.C, (K, self.m, n))], axis=1)):
            sv = np.linalg.svd(M, compute_uv=False)
            cutoff = max(M.shape[1:]) * np.finfo(float).eps * np.maximum(sv[:, 0], 1e-300)
            margins.append(sv[:, n - 1] / cutoff)
        # np.min, not min: a NaN must reach the caller and fail its test
        return float(np.min(margins))

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


def _blocks(T: np.ndarray) -> tuple[tuple[int, np.ndarray], ...]:
    """The diagonal blocks of an upper triangular T, as (b, starts) per block size b, b rising.

    A block ends after row i where T[:i+1, i+1:] is exactly zero: where the running maximum
    over rows 0 to i of each row's last nonzero column is i.  Only exact zeros split blocks,
    so a coupling of any size, 1e-17 too, keeps its rows in one block, and a dense T is one
    block of n rows.  LAPACK's complex Schur form of a modal realization keeps the exact
    zeros between its modes: blocks of 2 rows, and one for the origin cluster.
    """
    n = T.shape[0]
    cols = np.arange(n)
    # each row's last nonzero column right of the diagonal, else its own index
    last = np.where(np.triu(T, 1) != 0, cols, cols[:, None]).max(axis=1, initial=0)
    ends = np.flatnonzero(np.maximum.accumulate(last) == cols) + 1
    sizes = np.diff(ends, prepend=0)
    return tuple((int(b), (ends - b)[sizes == b]) for b in np.unique(sizes))


def _schur_solve(T: np.ndarray, s: np.ndarray, R: np.ndarray,
                 blocks: tuple[tuple[int, np.ndarray], ...] | None = None) -> np.ndarray:
    """X[:, k] = (s_k I - T)^-1 R for upper triangular T at every point s_k.

    One back substitution for all points at once, :func:`_walk` on -T with the K
    points' right-hand sides side by side: X[i] = (R[i] + T[i, i+1:] X[i+1:]) /
    (s - T[i, i]).  With ``blocks``, T's partition into diagonal blocks decoupled
    by exact zeros (:func:`_blocks`), each block is walked on its own rows, all
    blocks of one size b in one stacked walk of b steps: O(sum b^2) per point in
    place of O(n^2).  A product with an exactly zero coupling adds exactly zero,
    so this equals the walk over all n rows, the one taken without ``blocks``.
    Returns shape (n, K, r) for R of shape (n, r).

    Raises
    ------
    SingularAtSError
        If s_k I - T has an exactly zero pivot (s_k is an eigenvalue of T).
    """
    n, K = T.shape[0], s.size
    pivots = s[None, :] - np.diag(T)[:, None]
    if not np.all(pivots):
        k = int(np.flatnonzero(~np.all(pivots, axis=0))[0])
        raise SingularAtSError(f"sI - A singular at s = {s[k]}")
    r = R.shape[1]
    W, P = np.tile(R.astype(complex), (1, K)), np.repeat(pivots, r, axis=1)
    if blocks is None:
        return _walk(-T, W, P).reshape(n, K, r)
    X = np.empty((n, K, r), dtype=complex)
    for b, starts in blocks:
        rows = starts[:, None] + np.arange(b)
        # each block in Fortran order, as LAPACK's T: a row of it is then summed as in
        # the walk over all n rows
        Tb = T[rows[:, None], rows[:, :, None]].transpose(0, 2, 1)
        X[rows] = _walk(-Tb, W[rows], P[rows]).reshape(starts.size, b, K, r)
    return X


def freq_response(model: StateSpaceModel, s) -> np.ndarray:
    """G(s_k) = C (s_k I - A)^-1 B + D at every point of ``s``, shape (K, m, m).

    One complex Schur form A = Z T Z^H is taken per call; each point then
    costs a back substitution with s_k I - T, done for all points at once
    (:func:`_schur_solve` with right-hand side Z^H B).  From BLOCK_WALK_MIN_N
    states on it walks each diagonal block of T that exact zeros decouple
    (``_Spectral.blocks``) on its own rows: O(sum b^2) per point for blocks
    of b rows, O(n^2) for a dense T.  This is Laub's scheme (1981, IEEE TAC, "Efficient
    multivariable frequency response computations") with the triangular
    Schur factor in place of the Hessenberg one, which makes the per-point
    solve a plain back substitution.

    Raises
    ------
    SingularAtSError
        If s_k I - T has an exactly zero pivot (s_k is an eigenvalue of A).
    """
    s = np.asarray(s, dtype=complex).ravel()
    if model.n == 0 or s.size == 0:
        return np.repeat(model.D.astype(complex)[None], s.size, axis=0)
    spec = _spectral(model)
    return _schur_response(spec.schur[0], *spec.maps, model.D, s, spec.blocks)


def _schur_response(T: np.ndarray, Bt: np.ndarray, Ct: np.ndarray, D: np.ndarray,
                    s: np.ndarray,
                    blocks: tuple[tuple[int, np.ndarray], ...] | None = None) -> np.ndarray:
    """Ct (s_k I - T)^-1 Bt + D at every point of ``s`` for upper triangular T,
    shape (K, m, m): one :func:`_schur_solve` for all points, on ``blocks``
    if given.  For T the Schur factor of A = Z T Z^H, Bt = Z^H B and Ct =
    C Z, this is G(s_k)."""
    G = np.repeat(D.astype(complex)[None], s.size, axis=0)
    if T.shape[0]:
        X = _schur_solve(T, s, Bt, blocks)
        G += np.tensordot(Ct, X, axes=(1, 0)).transpose(1, 0, 2)
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
    # the s^0 ... s^-4 coefficients at once: row k weighs the samples by s_j^k
    coeffs = (2.0 / N) * np.real(np.tensordot(nodes ** np.arange(5)[:, None], samples, axes=1))
    size = np.linalg.norm(samples, axis=(1, 2)).max()
    tail = max(np.linalg.norm(coeffs[3]) / r ** 3, np.linalg.norm(coeffs[4]) / r ** 4)
    settle = tail / size if size > 0 else 0.0
    return coeffs[0], coeffs[1], coeffs[2], float(settle)


def _balance_radius(G2: np.ndarray, G0: np.ndarray) -> float:
    """sqrt(||G2|| / ||G0||), where the s^-2 and s^0 terms of G are equal.

    Read on |s| = r, the contour G2 carries rounding of about
    eps r^2 max |G(s)|, i.e. eps (||G2|| + r^2 ||G0||): beyond this radius
    the second term wins and the error grows as r^2.  Infinite when G2 or G0
    vanishes.
    """
    g2, g0 = np.linalg.norm(G2), np.linalg.norm(G0)
    return float(np.sqrt(g2 / g0)) if g2 > 0.0 and g0 > 0.0 else np.inf


def _pbh_shifts(spec: _Spectral) -> tuple[np.ndarray, np.ndarray]:
    """(lams, idx): the shifts the PBH test is taken at, read off the Schur diagonal.

    The distinct t_ii, each exact copy of a multiple eigenvalue once, are
    linked pairwise within PBH_CLUSTER_RTOL max(1, ||A||_2) into clusters.  A
    t_ii alone in its cluster and on the diagonal is a simple eigenvalue,
    tested at t_ii: its i is in ``idx``.  Every other distinct t_ii is a shift
    in ``lams``, and so is the mean of each cluster of two or more: a defective
    eigenvalue with a Jordan block of size k comes back as a cluster about
    eps^1/k ||A|| wide, and the test at each computed member can clear the
    cutoff by 1e6 though a mode is lost, while the mean is within rounding of
    the exact eigenvalue.  The radius spans the spread of a pair and of a
    triple.  A, B, C are real, so the test matrices at conj(lambda) are the
    complex conjugates of those at lambda and have the same singular values:
    a shift more than the radius below the real axis is not taken, its
    conjugate above is.  diag(T) holds no exact conjugates, so a t_ii within
    the radius of the axis is taken, a real eigenvalue computed as x - 1e-17j
    too, and the mean of a cluster with such a member is taken real.
    """
    radius = PBH_CLUSTER_RTOL * max(1.0, spec.norm2)
    eigs, first, count = np.unique(spec.eigs, return_index=True, return_counts=True)
    near = np.abs(eigs[:, None] - eigs[None, :]) <= radius
    alone, up = near.sum(axis=1) == 1, eigs.imag >= -radius
    simple = alone & (count == 1)
    shifts = [eigs[up & ~simple]]
    linked = np.flatnonzero(~alone)
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
            if members.imag.max() >= -radius:
                mean = members.mean()
                shifts.append([mean.real if np.abs(members.imag).min() <= radius else mean])
    # the mean of two eigenvalues an ulp apart is one of them
    return np.unique(np.concatenate(shifts)), np.sort(first[simple & up])


def minimality_margin(model: StateSpaceModel) -> float:
    """Smallest eigenvalue-test singular value over its rank cutoff.

    Controllability and observability are checked per eigenvalue:
    rank [A - lambda I, B] = n and rank [A - lambda I; C'] = n for every
    eigenvalue lambda and cluster mean (:func:`_pbh_shifts`).  This is
    numerically far better behaved than ranks of the stacked Kalman
    matrices, whose high powers of A swamp the cutoff.  Values above 1 mean
    minimal.  One SVD call per side on the shifts' stacked test matrices
    (``_Spectral.margin``, cached on the record), O(n^4) in all: :func:`is_minimal`
    runs it only where :func:`_pbh_bound` cannot decide, if the record lacks it.
    """
    return _spectral(model).margin if model.n else np.inf


#: :func:`is_minimal` takes "minimal" from :func:`_pbh_bound` only above
#: this; near the cutoff 1 the bound is rounding (the comparison-matrix bound
#: can be loose by a factor exponential in n), and the SVD margin decides
PBH_CLEARANCE = 100.0


def _norm(M: np.ndarray, axis: int | None = None) -> np.ndarray:
    """The 2-norm of M's entries (along ``axis``) as a hypot reduction: no entry is squared,
    so entries up to the largest float give a finite norm."""
    return np.hypot.reduce(np.abs(M), axis=axis)


def _inv_norm_bound(R: np.ndarray) -> float:
    """(||M^-1 e||_inf ||M^-T e||_inf)^1/2 >= ||R^-1||_2 for R's comparison matrix M."""
    M = -np.abs(R)
    M.ravel(order="K")[:: R.shape[0] + 1] *= -1.0
    e = np.ones(M.shape[0])
    return np.sqrt(blas.dtrsv(M, e).max() * blas.dtrsv(M, e, trans=1).max())


#: what T's eigenvectors at the t_ii, i in ``idx``, give (:func:`_eigvecs`)
_Eigvecs = namedtuple("_Eigvecs", "idx CX UB res head kappa beta")


def _walk(S: np.ndarray, W: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Back substitution in place on stacks of b x b upper triangles S: for k = b - 1 to 0,
    W[..., k, :] = (W[..., k, :] - S[..., k, k+1:] W[..., k+1:, :]) / P[..., k, :]."""
    for k in range(S.shape[-1] - 1, -1, -1):
        W[..., k, :] = (W[..., k, :] - (S[..., k:k + 1, k + 1:] @ W[..., k + 1:, :])[..., 0, :]
                        ) / P[..., k, :]
    return W


def _eigvecs(spec: _Spectral, idx: np.ndarray) -> _Eigvecs:
    """What T's right and left eigenvectors x and u at each t_ii, i in ``idx`` (no t_jj equal
    to it), give.

    (T - t_ii I) x = 0 = u^H (T - t_ii I), x_i = u_i = 1, x zero below row i and u above it, so
    u^H x = 1 and Z x u^H Z^H is the spectral projector.  The record holds C Z x, u^H Z^H B, the
    explicit residual norms of x and u, ``head`` = (||x[:i]||, ||u[i+1:]||), ``kappa`` = ||x||
    ||u|| (Wilkinson's), and ``beta`` >= ||M~^-1||_2, M~ = T - t_ii I without row and column i.
    Four systems are solved by back substitution: W x = e_i (W = T - t_ii I with w_ii = 1), the
    same for u on T^H reversed, and N y = e (e all ones) on the comparison matrix N of M~ (|w_jj|
    on the diagonal, -|w_jk| above, row and column i dropped by an infinite n_ii) and on N^T
    reversed.  0 <= |M~^-1| <= N^-1 (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Thm 8.12), so beta = (||N^-1 e||_inf ||N^-T e||_inf)^1/2.

    Where the record has a partition (``_Spectral.blocks``), each system is walked per diagonal
    block of T that exact zeros decouple, all blocks of one size b in one stacked loop of b
    steps.  x and u vanish off the block of i, so they are solved on that block alone, and
    N^-1 e is the concatenation of the blocks' solves for every i: O(sum b^2 p) work for p
    shifts, in place of the O(n^2 p) of :func:`_eigvecs_one_walk`, whose results these are up
    to summation order.
    """
    if spec.blocks is None:
        return _eigvecs_one_walk(spec, idx)
    T = spec.schur[0]
    p, diag = idx.size, np.diag(T)
    (ZB, CZ), lam = spec.maps, diag[idx]
    CX, UB = np.zeros((spec.m, p), dtype=complex), np.zeros((p, spec.m), dtype=complex)
    # rows 0 and 1: the x and the u side; ``ymax`` the largest N^-1 e and N^-T e entries
    res, head, norm, ymax = np.zeros((4, 2, p))
    for b, starts in spec.blocks if p else ():
        # a block's rows of T and of T^H reversed, each in walk order
        rows = starts[:, None] + np.arange(b)
        Tb = T[rows[:, :, None], rows[:, None]]
        S = np.array([Tb, Tb.conj().transpose(0, 2, 1)[:, ::-1, ::-1]])
        own = rows[..., None] == idx
        gap = np.where(own, np.inf, np.abs(diag[rows][..., None] - lam))
        Y = _walk(-np.abs(S), np.ones((2,) + own.shape), np.array([gap, gap[:, ::-1]]))
        ymax = np.maximum(ymax, Y.max(axis=(1, 2)))
        # x and u on the blocks that hold an i, for its columns; a block with fewer than
        # ``width`` of them repeats its first
        g, j, c = np.nonzero(own)
        if not c.size:
            continue
        sel, first, count = np.unique(g, return_index=True, return_counts=True)
        width = count.max()
        cols = c[first[:, None] + np.minimum(np.arange(width), count[:, None] - 1)]
        rows, S = rows[sel], S[:, sel]
        own = rows[..., None] == idx[cols][:, None]
        gap = diag[rows][..., None] - lam[cols][:, None]
        shift = np.array([lam[cols], lam[cols].conj()])[:, :, None]
        V = _walk(S, np.array([own, own[:, ::-1]], dtype=complex),
                  np.array([np.where(own, 1.0, gap), np.where(own, 1.0, gap)[:, ::-1].conj()]))
        E, sq = S @ V - V * shift, np.abs(V) ** 2
        res[:, cols] = np.sqrt((E.conj() * E).real.sum(axis=2))
        head[:, cols] = np.sqrt(np.where(np.array([own, own[:, ::-1]]), 0.0, sq).sum(axis=2))
        norm[:, cols] = sq.sum(axis=2)
        CX[:, cols] = (CZ[:, rows].transpose(1, 0, 2) @ V[0]).transpose(1, 0, 2)
        UB[cols] = V[1][:, ::-1].conj().transpose(0, 2, 1) @ ZB[rows]
    return _Eigvecs(idx, CX, UB, res, head, kappa=np.sqrt(norm.prod(axis=0)),
                    beta=np.sqrt(ymax.prod(axis=0)))


def _eigvecs_one_walk(spec: _Spectral, idx: np.ndarray) -> _Eigvecs:
    """:func:`_eigvecs` by one back substitution over all n rows of T that serves every i and
    the four systems at once, one stacked matmul per row."""
    T = spec.schur[0]
    n, p, lam = T.shape[0], idx.size, np.diag(T)[idx]
    own, gap = np.arange(n)[:, None] == idx, np.diag(T)[:, None] - lam
    own, gap = np.array([own, own[::-1]]), np.array([gap, gap[::-1].conj()])
    # rows 0 to 3 of the stacks: x, u (reversed), N^-1 e and N^-T e (reversed)
    P = np.concatenate([np.where(own, 1.0, gap), np.where(own, np.inf, np.abs(gap))])
    W = np.concatenate([own, np.ones((2, n, p))], dtype=complex)
    S = np.array([T, T.conj().T[::-1, ::-1]])
    S = np.concatenate([S, -np.abs(S)])
    if p:
        _walk(S, W, P)
    V, X, U, sq = W[:2], W[0], W[1][::-1], np.abs(W[:2]) ** 2
    res = np.linalg.norm(S[:2] @ V - V * np.array([lam, lam.conj()])[:, None], axis=1)
    ZB, CZ = spec.maps
    return _Eigvecs(idx, CZ @ X, U.conj().T @ ZB, res,
                    head=np.sqrt(np.where(own, 0.0, sq).sum(axis=1)),
                    kappa=np.sqrt(sq.sum(axis=1).prod(axis=0)),
                    beta=np.sqrt(W[2:].real.max(axis=1, initial=0.0).prod(axis=0)))


def _deflated_bounds(rec: _Eigvecs, frob: np.ndarray) -> np.ndarray:
    """Lower bounds on sigma_min [T - t_ii I; C Z] (row 0) and [T^H - conj(t_ii) I; B' Z]
    reversed (row 1) at each i of ``rec``, for ``frob`` = [[||C||_F], [||B||_F]].

    With E = I + (x - e_i) e_i^T, ||E||_2 = (s + (s^2 + 4)^1/2) / 2 for s = ||x[:i]||.  Row i of
    (T - t_ii I) E dropped and the rows C Z E replaced by the one w^H C Z E, w = C Z x / gamma,
    gamma = ||C Z x||, leave [[M~, rho], [g, gamma]], ||rho|| = r the residual of x, ||g|| <=
    ||C||_F: sigma_min >= (gamma / (beta^2 (gamma^2 + ||C||_F^2) + 1)^1/2 - r) / ||E||_2, and u
    gives the other side.  gamma is a norm, never a Gram form: a lost mode's gamma is rounding.
    Neither it nor ||C||_F squares an entry (:func:`_norm`, np.hypot).
    """
    gamma = np.array([_norm(rec.CX, axis=0), _norm(rec.UB, axis=1)])
    lower = gamma / np.hypot(rec.beta * np.hypot(gamma, frob), 1.0)
    return (lower - rec.res) * 2.0 / (rec.head + np.hypot(rec.head, 2.0))


def _pbh_bound(spec: _Spectral) -> float:
    """A lower bound on :func:`minimality_margin`, from the record's Schur form.

    With A = Z T Z^H, [A - lambda I; C] has the singular values of
    [T - lambda I; C Z], and [A - lambda I, B] those of [T^H - conj(lambda) I;
    B' Z] reversed; sigma_max <= ||.||_F.  A simple shift (one t_ii in the
    cluster radius) is taken at its t_ii and bounded from the record's
    eigenvectors (:func:`_deflated_bounds`).  A cluster shift, and a side
    where that bound does not clear PBH_CLEARANCE, takes the upper triangle
    with m rows below, which LAPACK ztpqrt folds into a triangle R in
    O(n^2 m), and 1/sigma_min <= (||M^-1 e||_inf ||M^-T e||_inf)^1/2 for R's
    comparison matrix M (as in :func:`_eigvecs`), two dtrsv solves.  That
    bound can be loose by a factor exponential in n; where it does not clear
    PBH_CLEARANCE, :func:`is_minimal` takes the SVD margin.  0 or NaN if an R
    is singular or where ||T||_F^2 overflows, so it clears nothing; huge B
    or C alone leave it finite (:func:`_norm`, np.hypot).
    """
    n, m = spec.n, spec.m
    if n == 0:
        return np.inf
    T, Z = spec.schur
    lams, idx = spec.pbh_shifts
    shifts = np.concatenate([lams, spec.eigs[idx]])
    # ||T - lambda I||_F^2 = off-diagonal part + sum_i |t_ii - lambda|^2
    tri = np.linalg.norm(np.triu(T, 1)) ** 2 + (np.abs(spec.eigs - shifts[:, None]) ** 2).sum(1)
    frob = np.array([[_norm(spec.C)], [_norm(spec.B)]])
    cutoff = (n + m) * np.finfo(float).eps * np.hypot(np.sqrt(tri), frob)
    # rows 0 and 1: [A - lambda I; C] and [A - lambda I, B]; NaN at a cluster shift
    b = np.full((2, shifts.size), np.nan)
    if idx.size:
        b[:, lams.size:] = _deflated_bounds(spec.eigvecs, frob) / cutoff[:, lams.size:]
    for side, k in zip(*np.nonzero(~(b > PBH_CLEARANCE))):   # NaN too
        upper, rows = ((T.conj().T[::-1, ::-1], (spec.B.T @ Z)[:, ::-1]) if side
                       else (T, spec.maps[1]))
        a = upper.copy(order="F")   # for ztpqrt to overwrite
        a.ravel(order="K")[:: n + 1] -= shifts[k].conj() if side else shifts[k]
        # LAPACK block size 8 (at most n): the fastest at n = 104
        R = lapack.ztpqrt(0, min(8, n), a, rows, overwrite_a=1)[0]
        b[side, k] = 1.0 / (_inv_norm_bound(R) * cutoff[side, k])
    # np.min, not min: a NaN must reach the caller and fail its test
    return float(np.min(b, initial=np.inf))


def is_minimal(model: StateSpaceModel) -> bool:
    """Controllability and observability at every eigenvalue (numerical).

    The decision is ``minimality_margin(model) > 1``, read off a record that
    holds the margin (a Monte-Carlo draw's); else the O(n^3) lower bound of
    :func:`_pbh_bound` on the record's Schur form (eigenvector deflation at
    each simple eigenvalue, the ztpqrt triangles at the rest) decides it above
    ``PBH_CLEARANCE``, the SVDs of :func:`minimality_margin` otherwise; the
    bound never says "not minimal", so the decision is the margin's.
    """
    spec = _spectral(model)
    if "margin" in vars(spec):
        return spec.margin > 1.0
    return spec.pbh_bound > PBH_CLEARANCE or minimality_margin(spec) > 1.0


def closed_loop(G: StateSpaceModel, Gbar: StateSpaceModel) -> np.ndarray:
    """Positive-feedback closed-loop state matrix, plant states first.

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
    return np.vstack([top, bot])


def is_hurwitz(M: np.ndarray) -> bool:
    """True iff every eigenvalue satisfies Re(lambda) < -HURWITZ_MARGIN (so for 0 x 0 M)."""
    return spectral_abscissa(_as_matrix(M, "M")) < -HURWITZ_MARGIN


def spectral_abscissa(M: np.ndarray) -> float:
    """Largest eigenvalue real part, -inf for an empty spectrum; the quantity is_hurwitz
    thresholds."""
    return float(np.max(np.linalg.eigvals(np.asarray(M)).real, initial=-np.inf))


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


def model_to_json(model: StateSpaceModel) -> str:
    return json.dumps(model_to_dict(model))
