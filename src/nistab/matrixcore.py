"""Dense symmetric-matrix utilities for the stability tests.

Everything here is a thin, carefully-toleranced layer over ``numpy.linalg``:
sign classification of symmetric matrices, symmetrization and full-rank
factorizations M = J J'.  These are the building blocks the feedback
theorems are phrased in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonSymmetricError, NotPSDError

__all__ = [
    "DefinitenessKind",
    "Definiteness",
    "FullRankFactor",
    "classify_definiteness",
    "full_rank_factor",
    "symmetrize",
]

#: absolute eigenvalue floor used when a matrix norm is tiny
ABS_EIG_FLOOR = 1e-9

#: relative asymmetry accepted before a "symmetric" input is rejected
SYM_RTOL = 1e-8


class DefinitenessKind(enum.Enum):
    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE = "positive_semidefinite"
    NEGATIVE_DEFINITE = "negative_definite"
    NEGATIVE_SEMIDEFINITE = "negative_semidefinite"
    INDEFINITE = "indefinite"
    ZERO = "zero"


@dataclass(frozen=True)
class Definiteness:
    """Sign classification of a symmetric matrix at a given tolerance."""

    kind: DefinitenessKind
    min_eig: float
    max_eig: float

    @property
    def is_psd(self) -> bool:
        return self.kind in (
            DefinitenessKind.POSITIVE_DEFINITE,
            DefinitenessKind.POSITIVE_SEMIDEFINITE,
            DefinitenessKind.ZERO,
        )

    @property
    def is_nsd(self) -> bool:
        return self.kind in (
            DefinitenessKind.NEGATIVE_DEFINITE,
            DefinitenessKind.NEGATIVE_SEMIDEFINITE,
            DefinitenessKind.ZERO,
        )

    @property
    def is_pd(self) -> bool:
        return self.kind is DefinitenessKind.POSITIVE_DEFINITE


@dataclass(frozen=True)
class FullRankFactor:
    """Full column rank factor J with J J' reconstructing the input."""

    J: np.ndarray
    residual: float

    @property
    def rank(self) -> int:
        return self.J.shape[1]


def symmetrize(M: np.ndarray, rtol: float = SYM_RTOL) -> np.ndarray:
    """Return (M + M')/2, rejecting inputs that are not nearly symmetric.

    Raises
    ------
    NonSymmetricError
        If ``||M - M'|| > rtol * max(||M||, 1e-300)``.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    scale = max(np.linalg.norm(M), 1e-300)
    defect = np.linalg.norm(M - M.T)
    if defect > rtol * scale:
        raise NonSymmetricError(
            f"asymmetry {defect:.3e} exceeds {rtol:.1e} * ||M|| = {rtol * scale:.3e}"
        )
    return 0.5 * (M + M.T)


def _eig_tol(norm: float, tol: float | None) -> float:
    if tol is not None:
        return float(tol)
    return max(ABS_EIG_FLOOR, ABS_EIG_FLOOR * norm)


def classify_definiteness(M: np.ndarray, tol: float | None = None) -> Definiteness:
    """Classify a real symmetric matrix as PD/PSD/ND/NSD/indefinite/zero.

    Parameters
    ----------
    M : array_like
        Square matrix; symmetrized internally if its asymmetry is within
        tolerance, rejected otherwise.
    tol : float, optional
        Eigenvalue threshold separating "zero" from "signed".  Defaults to
        ``max(1e-9, 1e-9 * ||M||_2)``.

    Returns
    -------
    Definiteness
        Classification plus the extreme eigenvalues.
    """
    M = np.asarray(M, dtype=float)
    sym_rtol = SYM_RTOL if tol is None else max(SYM_RTOL, tol)
    Ms = symmetrize(M, rtol=sym_rtol)
    w = np.linalg.eigvalsh(Ms)
    lo, hi = float(w[0]), float(w[-1])
    size = max(abs(lo), abs(hi))  # ||Ms||_2, Ms being symmetric
    t = _eig_tol(size, tol)
    if size <= t:
        kind = DefinitenessKind.ZERO
    elif lo > t:
        kind = DefinitenessKind.POSITIVE_DEFINITE
    elif lo >= -t:
        kind = DefinitenessKind.POSITIVE_SEMIDEFINITE
    elif hi < -t:
        kind = DefinitenessKind.NEGATIVE_DEFINITE
    elif hi <= t:
        kind = DefinitenessKind.NEGATIVE_SEMIDEFINITE
    else:
        kind = DefinitenessKind.INDEFINITE
    return Definiteness(kind=kind, min_eig=lo, max_eig=hi)


def full_rank_factor(M: np.ndarray) -> FullRankFactor:
    """Factor a symmetric PSD matrix as M = J J' with J of full column rank.

    The number of columns of J equals the numerical rank of M (eigenvalues
    above ``max(dims) * eps * lambda_max`` are kept); an eigenvalue below
    -max(1e-9, 1e-9 ||M||_2) raises :class:`NotPSDError`.
    """
    Ms = symmetrize(np.asarray(M, dtype=float))
    w, V = np.linalg.eigh(Ms)
    scale = max(abs(w[0]), abs(w[-1])) if w.size else 0.0
    t = _eig_tol(scale, None)
    if w.size and w[0] < -t:
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e} below -{t:.1e}")
    cutoff = max(Ms.shape) * np.finfo(float).eps * max(scale, 0.0)
    keep = w > max(cutoff, 0.0)
    # deterministic gauge: columns by decreasing eigenvalue, dominant entry positive
    idx = np.argsort(w[keep])[::-1]
    J = (V[:, keep] * np.sqrt(w[keep]))[:, idx]
    for j in range(J.shape[1]):
        lead = np.argmax(np.abs(J[:, j]))
        if J[lead, j] < 0:
            J[:, j] = -J[:, j]
    residual = float(np.linalg.norm(J @ J.T - Ms))
    return FullRankFactor(J=J, residual=residual)
