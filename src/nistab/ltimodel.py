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

import numpy as np
from scipy.linalg import block_diag

from .errors import DimensionError, IllPosedError, SingularAtSError
from .matrixcore import full_rank_factor, symmetrize

__all__ = [
    "StateSpaceModel",
    "ModalModel",
    "ClosedLoop",
    "eval_tf",
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

#: default margin for Hurwitz tests; eigenvalues within the band are "boundary"
HURWITZ_MARGIN = 1e-8

#: ||D|| at or below this counts as strictly proper
STRICT_PROPER_TOL = 1e-10


def _as_matrix(x, name: str) -> np.ndarray:
    M = np.asarray(x, dtype=float)
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

    def strictly_proper(self, tol: float = STRICT_PROPER_TOL) -> bool:
        return bool(np.linalg.norm(self.D) <= tol)


@dataclass(frozen=True)
class ClosedLoop:
    """Positive-feedback interconnection state matrix (plant states first)."""

    Abreve: np.ndarray
    n_plant: int
    n_ctrl: int
    well_posed: bool = True


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
    samples = np.stack([eval_tf(model, complex(s)) for s in nodes])

    def coeff(k: int) -> np.ndarray:
        return (2.0 / N) * np.real(np.tensordot(nodes ** (-k), samples, axes=1))

    size = max(np.linalg.norm(G) for G in samples)
    tail = max(np.linalg.norm(coeff(-3)) / r ** 3, np.linalg.norm(coeff(-4)) / r ** 4)
    settle = tail / size if size > 0 else 0.0
    return coeff(0), coeff(-1), coeff(-2), float(settle)


def minimality_margin(model: StateSpaceModel) -> float:
    """Smallest eigenvalue-test singular value over its rank cutoff.

    Controllability and observability are checked per eigenvalue:
    rank [A - lambda I, B] = n and rank [A - lambda I; C'] = n for every
    eigenvalue lambda.  This is numerically far better behaved than ranks of
    the stacked Kalman matrices, whose high powers of A swamp the cutoff.
    Values above 1 mean minimal.
    """
    n = model.n
    if n == 0:
        return np.inf
    eigs = np.linalg.eigvals(model.A)
    margin = np.inf
    for lam in eigs:
        shifted = model.A - lam * np.eye(n)
        for M in (np.hstack([shifted, model.B]),
                  np.vstack([shifted, model.C])):
            sv = np.linalg.svd(M, compute_uv=False)
            cutoff = max(M.shape) * np.finfo(float).eps * max(sv[0], 1e-300)
            margin = min(margin, sv[n - 1] / cutoff)
    return float(margin)


def is_minimal(model: StateSpaceModel) -> bool:
    """Controllability and observability at every eigenvalue (numerical)."""
    return minimality_margin(model) > 1.0


def closed_loop(G: StateSpaceModel, Gbar: StateSpaceModel,
                tol: float = 1e-12) -> ClosedLoop:
    """Positive-feedback closed-loop state matrix.

    For plant (A, B, C, D) and controller (Abar, Bbar, Cbar, Dbar) with
    I - D Dbar nonsingular the combined state matrix is

        [ A + B Dbar L C          B Cbar + B Dbar L D Cbar ]
        [ Bbar L C                Abar + Bbar L D Cbar     ]

    with L = (I - D Dbar)^-1.

    Raises
    ------
    IllPosedError
        If I - D Dbar is singular within tolerance.
    """
    if G.m != Gbar.m:
        raise DimensionError(f"channel counts differ: {G.m} vs {Gbar.m}")
    m = G.m
    A, B, C, D = G.A, G.B, G.C, G.D
    Ab, Bb, Cb, Db = Gbar.A, Gbar.B, Gbar.C, Gbar.D
    W = np.eye(m) - D @ Db
    smin = np.linalg.svd(W, compute_uv=False)[-1]
    if smin <= tol * max(1.0, np.linalg.norm(D) * np.linalg.norm(Db)):
        raise IllPosedError("I - D*Dbar is singular: interconnection ill posed")
    L = np.linalg.solve(W, np.eye(m))
    top = np.hstack([A + B @ Db @ L @ C, B @ Cb + B @ Db @ L @ D @ Cb])
    bot = np.hstack([Bb @ L @ C, Ab + Bb @ L @ D @ Cb])
    return ClosedLoop(Abreve=np.vstack([top, bot]), n_plant=G.n, n_ctrl=Gbar.n)


def is_hurwitz(M: np.ndarray, margin: float = HURWITZ_MARGIN) -> bool:
    """True iff every eigenvalue satisfies Re(lambda) < -margin."""
    M = _as_matrix(M, "M")
    return bool(np.max(np.linalg.eigvals(M).real) < -margin)


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
    A_blocks, B_rows, C_cols = [], [], []

    scale_all = 1.0 + max(
        [np.linalg.norm(Ci) for _p, Ci in mm.terms]
        + [np.linalg.norm(M) for M in (mm.g1, mm.g2) if M is not None]
        + [0.0]
    )
    floor = 1e-10 * scale_all

    for p, Ci in mm.terms:
        W, sgn = _factor_symmetric(Ci, floor=floor)
        r = W.shape[1]
        if r == 0:
            continue
        Ablk = np.block([[np.zeros((r, r)), p * np.eye(r)],
                         [-p * np.eye(r), np.zeros((r, r))]])
        Bblk = np.vstack([np.zeros((r, m)), (sgn[:, None] * W.T) / p])
        Cblk = np.hstack([W, np.zeros((m, r))])
        A_blocks.append(Ablk)
        B_rows.append(Bblk)
        C_cols.append(Cblk)

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
        B3a = np.zeros((0, m))
        C3b = np.zeros((m, 0))
        G1_rem = G1

    # A2 = 0 block for the 1/s content not reachable through the Jordan pairs
    W2, sgn2 = _factor_symmetric(0.5 * (G1_rem + G1_rem.T), floor=floor)
    n2 = W2.shape[1]
    if n2 > 0:
        A_blocks.append(np.zeros((n2, n2)))
        B_rows.append(sgn2[:, None] * W2.T)
        C_cols.append(W2)

    if k > 0:
        A3 = np.block([[np.zeros((k, k)), np.eye(k)],
                       [np.zeros((k, k)), np.zeros((k, k))]])
        A_blocks.append(A3)
        B_rows.append(np.vstack([B3a, J.T]))
        C_cols.append(np.hstack([J, C3b]))

    if not A_blocks:
        return StateSpaceModel(np.zeros((0, 0)), np.zeros((0, m)),
                               np.zeros((m, 0)), np.zeros((m, m)))

    return StateSpaceModel(block_diag(*A_blocks), np.vstack(B_rows),
                           np.hstack(C_cols), np.zeros((m, m)))


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
