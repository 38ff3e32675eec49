"""Integral resonant controllers, the SNI controller family used throughout.

An IRC is the first-order controller

    Gbar(s) = (s I + Gamma Phi)^-1 Gamma - Delta,

realized as (A, B, C, D) = (-Gamma Phi, Gamma, I, -Delta).  It is strictly
negative imaginary whenever Gamma > 0, Phi > 0 and Delta is symmetric, and
its DC gain is Phi^-1 - Delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonSymmetricError, NotPDError
from .ltimodel import StateSpaceModel
from .matrixcore import classify_definiteness, symmetrize

__all__ = ["IrcController", "make_irc"]


@dataclass(frozen=True)
class IrcController:
    Gamma: np.ndarray
    Phi: np.ndarray
    Delta: np.ndarray
    realization: StateSpaceModel

    @property
    def m(self) -> int:
        return self.Gamma.shape[0]

    def dc_gain(self) -> np.ndarray:
        """Phi^-1 - Delta, the closed-form value of Gbar(0)."""
        return np.linalg.inv(self.Phi) - self.Delta


def make_irc(Gamma, Phi, Delta) -> IrcController:
    """Construct and validate an integral resonant controller.

    Parameters
    ----------
    Gamma, Phi : array_like
        Symmetric positive definite m x m matrices.
    Delta : array_like
        Symmetric m x m feedthrough offset.

    Raises
    ------
    NonSymmetricError
        Naming the offending matrix, when Gamma, Phi or Delta is not
        symmetric (checked first).
    NotPDError
        Naming the offending matrix, when Gamma or Phi is not positive
        definite.
    """
    mats = {}
    for name, M in (("Gamma", Gamma), ("Phi", Phi), ("Delta", Delta)):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionError(f"{name} must be square, got shape {M.shape}")
        try:
            mats[name] = symmetrize(M)
        except NonSymmetricError as exc:
            raise NonSymmetricError(f"{name}: {exc}") from None
    m = mats["Gamma"].shape[0]
    if mats["Phi"].shape != (m, m) or mats["Delta"].shape != (m, m):
        raise DimensionError("Gamma, Phi, Delta must share one size")
    for name in ("Gamma", "Phi"):
        if not classify_definiteness(mats[name]).is_pd:
            raise NotPDError(f"{name} must be positive definite")
    G, P, Dl = mats["Gamma"], mats["Phi"], mats["Delta"]
    realization = StateSpaceModel(A=-G @ P, B=G, C=np.eye(m), D=-Dl, name="irc")
    return IrcController(Gamma=G, Phi=P, Delta=Dl, realization=realization)
