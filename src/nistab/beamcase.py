"""Slewing flexible-arm benchmark: transcendental beam model and modal data.

The plant is a uniform Euler-Bernoulli beam pinned to a motor hub (inertia
I_h) at x = 0 and free at x = L, with a piezoelectric actuator/sensor pair
spanning the full length.  Inputs are the hub torque tau and the actuator
voltage V_a; outputs are the hub angle theta and the sensor voltage V_s.  In
the Laplace domain the deflection satisfies

    Y''''(x, s) - beta^4 Y(x, s) = 0,      beta^4(s) = -mu s^2 / (EI),

with boundary conditions Y(0) = 0,  EI Y''(0) - I_h s^2 Y'(0) + tau = 0 and
zero total moment/shear at the free tip; the actuator enters as equal and
opposite edge moments C_a V_a at the patch ends.  Every frequency response is
obtained by solving that two-point boundary-value problem numerically with a
fundamental system of the fourth-order operator (matrix-exponential
propagation at moderate beta L, a decaying-exponential basis beyond, where
the raw propagation would lose all precision to cosh^2 cancellation).  An
array of frequencies takes one stacked solve per basis.

Calibration
-----------
The nominal physical constants of the benchmark arm do not reproduce its
published modal data: the tabulated resonance frequencies require the
bending stiffness EI to be divided by 100, and the published rigid-body
compliance (lim s^2 G_11 = 0.1407) additionally fixes a common scale on the
inertial quantities.  The defaults below therefore apply two documented
calibration factors (`inertia_scale`, applied to rho*A, I_h and EI alike,
and the extra 1/100 on EI); with them the model reproduces the benchmark
frequencies to better than 1e-5 relative.  The voltage channel gain (equal
actuator and sensor constants) is calibrated against the published first
flexible-mode coefficient.  All factors can be overridden.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionError,
    InsufficientRangeError,
    NistabError,
    NotARootError,
    SingularAtSError,
)
from .ltimodel import ModalModel

__all__ = [
    "BeamParameters",
    "BeamTransferSample",
    "beam_tf",
    "d_of_s",
    "find_modal_roots",
    "modal_residue",
    "finite_dim_approx",
    "emit_residue_scan",
]

#: common scale on rho*A, I_h and EI fixing the rigid-body compliance
INERTIA_SCALE = 2.0108554

#: additional stiffness correction: tabulated frequencies need EI/100
STIFFNESS_CORRECTION = 0.01

#: actuator = sensor voltage constant (calibrated, see module docstring)
VOLTAGE_GAIN = 0.5481628

#: |beta*L| above which the propagation basis switches to decaying exponentials
_BASIS_SWITCH = 6.0

#: step of the uniform beta*l grid on which modal roots are bracketed (the
#: roots lie about pi apart in beta*l)
ROOT_SCAN_STEP = 0.005

#: beta*l at the end of the first root-scan window (about two roots); each
#: further window doubles it
_FIRST_WINDOW = 8.0

#: beta*l beyond which the root scan gives up (1e6 rad/s on the default arm)
_SCAN_LIMIT = 2048.0

#: relative step below which a root refinement stops
_ROOT_RTOL = 1e-14

#: refinement steps after which a bracket is left at its last iterate
_ROOT_MAX_STEPS = 64


@dataclass(frozen=True)
class BeamParameters:
    """Physical constants of the slewing arm plus model calibration factors.

    The first nine fields are the nominal physical values (SI units except
    where noted: density is printed in its source's mixed unit, capacitance
    in uF/m^2); the calibration fields are described in the module docstring.
    """

    Ih: float = 0.0348            # hub inertia, N m s^2
    l: float = 2.0                # beam length, m
    rho: float = 2712.6           # density (source prints Kg/m^2)
    A: float = 483.87e-6          # cross-section area, m^2
    E: float = 69.0e9             # Young's modulus, N/m^2
    I: float = 1.63e-9            # area moment of inertia, m^4
    k31: float = -0.340           # piezo coupling coefficient
    C: float = 68.35              # capacitance, uF/m^2
    ts: float = 3.05e-4           # piezo thickness, m
    inertia_scale: float = INERTIA_SCALE
    stiffness_correction: float = STIFFNESS_CORRECTION
    voltage_gain: float = VOLTAGE_GAIN

    @property
    def mu(self) -> float:
        """Effective mass per unit length rho*A (calibrated)."""
        return self.inertia_scale * self.rho * self.A

    @property
    def EI(self) -> float:
        """Effective bending stiffness (calibrated)."""
        return self.inertia_scale * self.stiffness_correction * self.E * self.I

    @property
    def hub_inertia(self) -> float:
        """Effective hub inertia (calibrated)."""
        return self.inertia_scale * self.Ih

    @property
    def total_inertia(self) -> float:
        """Rigid-body inertia about the hub: I_h + mu l^3 / 3."""
        return self.hub_inertia + self.mu * self.l ** 3 / 3.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "BeamParameters":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(d) - known
        if bad:
            raise DimensionError(f"unknown beam parameter keys: {sorted(bad)}")
        vals = {k: float(v) for k, v in d.items()}
        return cls(**vals)


@dataclass(frozen=True)
class BeamTransferSample:
    """One frequency-response sample of the 2x2 arm transfer matrix."""

    s: complex
    G: np.ndarray          # inputs (tau, V_a) -> outputs (theta, V_s)
    D_value: complex       # closed-form characteristic function at s


def _beta(p: BeamParameters, s):
    """Principal fourth root of -mu s^2 / EI, Re(beta) >= 0; elementwise."""
    b = (-p.mu * np.asarray(s) * s / p.EI + 0j) ** 0.25
    return np.where(b.real < 0, -b, b)[()]


def d_of_s(p: BeamParameters, s):
    """Closed-form characteristic function whose imaginary-axis zeros are
    the flexible resonances:

        D(s) = 4 b EI [ mu (cos(bl) sinh(bl) - cosh(bl) sin(bl))
                        - b^3 I_h (1 + cos(bl) cosh(bl)) ],   b = beta(s).

    D(0) = 0 (the rigid-body double pole) and D(jw) is real for real w.
    Elementwise over an array s; a scalar s gives a scalar (so does beta).
    """
    b = _beta(p, s)
    bl = b * p.l
    term = (p.mu * (np.cos(bl) * np.sinh(bl) - np.cosh(bl) * np.sin(bl))
            - b ** 3 * p.hub_inertia * (1.0 + np.cos(bl) * np.cosh(bl)))
    return 4.0 * b * p.EI * term


def _rad_per_bl2(p: BeamParameters) -> float:
    """k in w = k (beta(jw) l)^2: sqrt(EI / mu) / l^2."""
    return (p.EI / p.mu) ** 0.5 / p.l ** 2


def _d_reduced(p: BeamParameters, bl) -> np.ndarray:
    """D(jw) / (4 beta EI mu cosh(beta l)) as a function of bl = beta(jw) l > 0:
    the same zeros, no overflow, vectorized over bl.  The arm enters only
    through I_h / (mu l^3), so EI moves no root in bl."""
    bl = np.asarray(bl, dtype=float)
    c = p.hub_inertia / (p.mu * p.l ** 3)
    cos = np.cos(bl)
    sech = 1.0 / np.cosh(np.minimum(bl, 700.0))
    return cos * np.tanh(bl) - np.sin(bl) - c * bl ** 3 * (sech + cos)


def _solve_scaled(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked solve of M x = rhs, each row scaled to unit max-norm.  A member
    that is exactly singular (s on a modal root, or a degenerate boundary
    system: an all-zero row, left at zero) comes back as NaN."""
    r = np.abs(M).max(axis=-1, keepdims=True)
    r[r == 0.0] = 1.0
    M, rhs = M / r, rhs / r
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        # det and solve factorize alike: det is exactly 0 where solve
        # meets a zero pivot
        ok = np.linalg.det(M) != 0.0
        x = np.full(rhs.shape, np.nan, dtype=complex)
        x[ok] = np.linalg.solve(M[ok], rhs[ok])
        return x


def _beam_response(p: BeamParameters, s: np.ndarray) -> np.ndarray:
    """The 2x2 arm transfer matrix at each point of a 1-D array s: (K, 2, 2).

    One stacked BVP solve per propagation basis, unit tau and unit V_a as two
    right-hand sides; each basis sees only its own members (the other would
    overflow or lose precision).  A member on a modal root comes back NaN.
    """
    EI, Ih, L, ca = p.EI, p.hub_inertia, p.l, p.voltage_gain
    s = np.asarray(s, dtype=complex)
    beta = _beta(p, s)
    # rows theta, V_s = ca (Y'(l) - Y'(0)); columns tau, V_a
    G = np.empty((s.size, 2, 2), dtype=complex)

    small = np.abs(beta * L) <= _BASIS_SWITCH
    if small.any():
        # propagate the state (Y, Y', Y'', Y''') with the matrix exponential
        sk = s[small]
        Abar = np.zeros((sk.size, 4, 4), dtype=complex)
        Abar[:, 0, 1] = Abar[:, 1, 2] = Abar[:, 2, 3] = 1.0
        Abar[:, 3, 0] = beta[small] ** 4
        Phi = scipy.linalg.expm(Abar * L)
        # unknowns: Z(0-)[1:4]; Z(0+) = Z(0-) + [0,0,ca*Va/EI,0].
        # In pre-jump variables the hub balance reduces to
        # EI Y''(0-) - Ih s^2 Y'(0) = -tau (the patch moment cancels).
        M = np.zeros((sk.size, 3, 3), dtype=complex)
        M[:, 0, 0], M[:, 0, 1] = -Ih * sk * sk, EI
        M[:, 1:] = Phi[:, 2:, 1:]
        rhs = np.zeros((sk.size, 3, 2), dtype=complex)
        rhs[:, 0, 0] = -1.0
        rhs[:, 1:, 1] = np.array([ca / EI, 0.0]) - Phi[:, 2:, 2] * ca / EI
        z0 = np.zeros((sk.size, 4, 2), dtype=complex)
        z0[:, 1:] = _solve_scaled(M, rhs)
        z0[:, 2, 1] += ca / EI
        G[small, 0] = z0[:, 1]
        G[small, 1] = ca * ((Phi[:, 1:2] @ z0)[:, 0] - z0[:, 1])
    big = ~small
    if big.any():
        # decaying-exponential basis: Y = a sin(bx) + b0 cos(bx)
        #                                 + pe e^{-bx} + qe e^{b(x-L)}
        sk, bk = s[big], beta[big]
        bl = bk * L
        El = np.exp(-bl)
        S, Co = np.sin(bl), np.cos(bl)

        def row(*entries):
            return np.stack(np.broadcast_arrays(*entries), axis=-1).astype(complex)

        Yp0 = row(1, 0, -1, El)                                 # Y'(0)/b
        YpL = row(Co, -S, -El, 1)                               # Y'(L)/b
        M = np.stack([
            row(0, 1, 1, El),                                   # Y(0)
            (EI * bk ** 2)[:, None] * row(0, -1, 1, El)         # EI Y''(0)
            - (Ih * sk * sk * bk)[:, None] * Yp0,               # - Ih s^2 Y'(0)
            row(-S, -Co, El, 1),                                # Y''(L)/b^2
            row(-Co, S, -El, 1),                                # Y'''(L)/b^3
        ], axis=1)
        rhs = np.zeros((sk.size, 4, 2), dtype=complex)
        rhs[:, 1] = [-1.0, ca]
        rhs[:, 2, 1] = ca / (EI * bk ** 2)
        c = _solve_scaled(M, rhs)
        theta = bk[:, None] * np.einsum("kj,kjc->kc", Yp0, c)
        G[big, 0] = theta
        G[big, 1] = ca * (bk[:, None] * np.einsum("kj,kjc->kc", YpL, c) - theta)
    return G


def _nonsingular(G: np.ndarray) -> np.ndarray:
    """G unchanged, or SingularAtSError if any member is on a modal root."""
    if np.isnan(G).any():
        raise SingularAtSError("boundary system singular: s is on a modal root")
    return G


def beam_tf(p: BeamParameters, s: complex) -> BeamTransferSample:
    """Evaluate the 2x2 arm transfer matrix at s by solving the beam BVP.

    The actuator/sensor pair spans the whole beam, the configuration the
    benchmark fixes.

    Raises
    ------
    SingularAtSError
        When s coincides with a modal root (the boundary system is singular).
    """
    if s == 0:
        raise SingularAtSError("s = 0 is the rigid-body double pole")
    G = _nonsingular(_beam_response(p, np.array([s])))[0]
    return BeamTransferSample(s=s, G=G, D_value=d_of_s(p, s))


def _refine_roots(p: BeamParameters, a, b, fa, fb) -> np.ndarray:
    """Roots of `_d_reduced` in the brackets [a, b] in beta*l, all refined
    together by Illinois regula falsi.

    fa and fb are the values at a and b, of opposite sign or zero; b is the
    better end, from which the first secant step starts.  A bracket stops
    at an exact zero or once a step moves its iterate by at most _ROOT_RTOL
    relative; the point that step reached is returned.
    """
    a, b, fa, fb = (np.array(v, dtype=float, ndmin=1) for v in (a, b, fa, fb))
    live = np.flatnonzero(fb != 0.0)
    for _ in range(_ROOT_MAX_STEPS):
        if live.size == 0:
            break
        ai, bi, fai, fbi = a[live], b[live], fa[live], fb[live]
        c = bi - fbi * (bi - ai) / (fbi - fai)
        fc = _d_reduced(p, c)
        # the root lies between b and c: c's old neighbour b becomes the far
        # end; otherwise the far end stays and its value is halved (Illinois)
        flip = (fc < 0.0) != (fbi < 0.0)
        a[live] = np.where(flip, bi, ai)
        fa[live] = np.where(flip, fbi, 0.5 * fai)
        b[live], fb[live] = c, fc
        live = live[(fc != 0.0) & (np.abs(c - bi) > _ROOT_RTOL * np.abs(c))]
    return b


def find_modal_roots(p: BeamParameters, count: int,
                     omega_max: float | None = None) -> np.ndarray:
    """First `count` positive imaginary-axis roots of D, ascending.

    Sign changes of D(jw) are bracketed on a uniform grid in beta l (step
    ROOT_SCAN_STEP; w = k (beta l)^2 with k = sqrt(EI / mu) / l^2), scanned
    in windows that start at beta l <= 8 and double.  The first `count`
    brackets are refined together by Illinois regula falsi until a step
    moves a root by at most 1e-14 relative.  The roots in beta l do not
    depend on EI, so the scan is the same for a slow arm and a stiff one.
    The rigid pole at w = 0 is not included.

    Raises
    ------
    InsufficientRangeError
        If fewer than `count` roots lie below `omega_max`, or below
        beta l = 2048 when no `omega_max` is given.
    """
    if count < 1:
        raise DimensionError("count must be at least 1")
    k = _rad_per_bl2(p)
    top = _SCAN_LIMIT if omega_max is None else min(
        _SCAN_LIMIT, (max(omega_max, 0.0) / k) ** 0.5)
    hi, first = _FIRST_WINDOW, 1        # grid point 0 is the rigid root
    brackets, found = [], 0
    while True:
        last = int(min(hi, top) / ROOT_SCAN_STEP)
        bl = ROOT_SCAN_STEP * np.arange(first, last + 1)
        f = _d_reduced(p, bl)
        i = np.flatnonzero((f[:-1] < 0.0) != (f[1:] < 0.0))
        brackets.append((bl[i], bl[i + 1], f[i], f[i + 1]))
        found += i.size
        if found >= count:
            break
        if hi >= top:
            raise InsufficientRangeError(
                f"only {found} roots below {k * top ** 2:.6g} rad/s")
        first, hi = last, 2.0 * hi
    a, b, fa, fb = (np.concatenate(v)[:count] for v in zip(*brackets))
    return k * _refine_roots(p, a, b, fa, fb) ** 2


def _nearest_root(p: BeamParameters, omega0: float) -> float:
    """Refine omega0 to the nearest root; NotARootError if none is close.

    The bracket is omega0 (1 -+ 5e-4); the refinement starts from omega0
    itself, usually a root already."""
    if not omega0 > 0.0:
        raise NotARootError(f"{omega0} is not a positive frequency")
    k = _rad_per_bl2(p)
    span = 5e-4 * omega0
    bl = np.sqrt(np.array([omega0 - span, omega0, omega0 + span]) / k)
    f = _d_reduced(p, bl)
    if f[0] * f[2] > 0.0:
        raise NotARootError(f"{omega0} is not within {span:.2e} of a root of D")
    far = 0 if f[0] * f[1] <= 0.0 else 2
    w = k * float(_refine_roots(p, bl[far], bl[1], f[far], f[1])[0]) ** 2
    if abs(w - omega0) > 1e-6 * omega0:
        raise NotARootError(
            f"nearest root {w:.9f} is {abs(w - omega0):.2e} away from {omega0}")
    return w


#: central-difference stencil: w + h, w - h, w + h/2, w - h/2
_STENCIL = np.array([1.0, -1.0, 0.5, -0.5])


def _numerator_at(p: BeamParameters, w, h) -> np.ndarray:
    """N(jw) = G(jw) D(jw) extrapolated onto w (which may be a root) by one
    h^2 Richardson step of two-sided evaluations; elementwise over w, h."""
    w = w + np.multiply.outer(_STENCIL, h)
    s = 1j * w.ravel()
    N = _nonsingular(_beam_response(p, s)) * d_of_s(p, s)[:, None, None]
    N = np.real(N).reshape(w.shape + (2, 2))
    N1, N2 = 0.5 * (N[0] + N[1]), 0.5 * (N[2] + N[3])
    return (4.0 * N2 - N1) / 3.0


def _d_prime(p: BeamParameters, w, h):
    """dD(jw)/dw by central differences of the closed form, elementwise."""
    d = d_of_s(p, 1j * (w + np.multiply.outer(_STENCIL, h)))
    d1 = (d[0] - d[1]) / (2.0 * h)
    d2 = (d[2] - d[3]) / h
    return np.real((4.0 * d2 - d1) / 3.0)


def modal_residue(p: BeamParameters, omega0: float) -> np.ndarray:
    """Residue K = lim_{s->jw0} (s - jw0) j G(s) at a flexible resonance.

    Computed as K = -N(jw0) / D'(w0) with the numerator matrix
    N = G * D extrapolated onto the root and D' a central difference of the
    closed form.  For this colocated lossless model K is real symmetric PSD
    of rank one.

    Raises
    ------
    NotARootError
        If omega0 is not (within 1e-6 relative) a root of D.
    """
    w = _nearest_root(p, omega0)
    h = 1e-5 * w
    K = -_numerator_at(p, w, h) / _d_prime(p, w, h)
    return 0.5 * (K + K.T)


def finite_dim_approx(p: BeamParameters, n: int) -> ModalModel:
    """Rational approximation keeping the rigid mode and first n resonances.

        G_f(s) = C_0 / s^2 + sum_{i=1..n} C_i / (s^2 + p_i^2)

    with coefficients from the partial-fraction rule
    C_i = N(j p_i) / (k prod_{j != i} (p_j^2 - p_i^2)).  The scalar k matches
    the product denominator to D at a reference frequency w0 = p_1 / 100 in
    the rigid-body-dominated band, which pins the double-pole coefficient C_0
    to the true lim s^2 G(s) up to O((w0/p_1)^2); w0 is recorded in ``meta``.
    k cancels against the products: each coefficient is formed from the
    ratios (1 - w0^2/p_j^2) and (p_j^2 - w0^2)/(p_j^2 - p_i^2), which stay
    finite where the bare products overflow; NistabError where N = G D does.
    """
    if n < 1:
        raise DimensionError("need at least one flexible mode")
    poles = find_modal_roots(p, n)
    w0 = float(poles[0] / 100.0)
    # 1/k = -w0^2 prod_j (p_j^2 - w0^2) / D(j w0)
    scale = -w0 ** 2 / float(np.real(d_of_s(p, 1j * w0)))

    # N(jw) = G D is even and analytic through w = 0, so its stencil about
    # w = 0 with h = 2 w0 is one Richardson step on the root-free pair w0,
    # 2 w0 (~1e-7 relative); the poles' numerators come in the same solve
    with np.errstate(over="ignore", invalid="ignore"):
        N = _numerator_at(p, np.concatenate([[0.0], poles]),
                          np.concatenate([[2.0 * w0], 1e-5 * poles]))
    C0 = N[0] * (scale * np.prod(1.0 - (w0 / poles) ** 2))
    C0 = 0.5 * (C0 + C0.T)
    # the rigid coefficient is PSD of rank one; shave extrapolation dust
    ew, V = np.linalg.eigh(C0)
    if ew[0] < 0.0 and abs(ew[0]) <= 1e-6 * max(abs(ew[-1]), 1e-300):
        C0 = (V * np.clip(ew, 0.0, None)) @ V.T
        C0 = 0.5 * (C0 + C0.T)

    sq = poles ** 2
    gaps = sq - sq[:, None]                  # row i: p_j^2 - p_i^2, and -p_i^2 at j = i
    np.fill_diagonal(gaps, -sq)
    C = N[1:] * (scale * np.prod((sq - w0 ** 2) / gaps, axis=1))[:, None, None]
    bad = np.flatnonzero(~np.isfinite(C).all(axis=(1, 2)))
    if bad.size:
        raise NistabError(f"coefficient of mode {bad[0] + 1} is not finite (N = G D overflows)")
    terms = tuple((float(pi), 0.5 * (Ci + Ci.T)) for pi, Ci in zip(poles, C))
    return ModalModel(m=2, terms=terms, g2=C0, meta={"omega0": w0, "n_modes": n})


def emit_residue_scan(p: BeamParameters, gamma: float,
                      omegas: np.ndarray) -> list[tuple[float, float]]:
    """Table of (w, min eig of D'(jw)^2 K(jw) + gamma D(jw)^2).

    With K(jw) = -N(jw)/D'(w), the scanned matrix equals
    -D'(w) N(jw) + gamma D(jw)^2 I, which is smooth through the modal roots
    (where the second term vanishes and the first reduces to D'^2 K >= 0)
    and dominated by the positive gamma term elsewhere.  Points w <= 0 are
    skipped; the rest take one batched boundary solve.  Within 1e-7 relative
    of a root of D (|D| <= 1e-7 w |D'|), or where the system is exactly
    singular, the solve loses N = G D to cancellation: such a point moves
    1e-7 relative away from the root (up, when D = 0) and is solved again.
    """
    w = np.asarray(omegas, dtype=float)
    w = w[w > 0.0]
    G = _beam_response(p, 1j * w)
    D = d_of_s(p, 1j * w)
    dp = _d_prime(p, w, 1e-5 * w)
    near = (np.abs(D) <= 1e-7 * w * np.abs(dp)) | np.isnan(G).any(axis=(1, 2))
    if near.any():
        w[near] *= np.where(np.real(D[near]) * dp[near] < 0.0, 1.0 - 1e-7, 1.0 + 1e-7)
        G[near] = _nonsingular(_beam_response(p, 1j * w[near]))
        D[near] = d_of_s(p, 1j * w[near])
        dp[near] = _d_prime(p, w[near], 1e-5 * w[near])
    Q = (-dp[:, None, None] * np.real(G * D[:, None, None])
         + gamma * (np.abs(D) ** 2)[:, None, None] * np.eye(2))
    Q = 0.5 * (Q + np.swapaxes(Q, 1, 2))
    return list(zip(w.tolist(), np.linalg.eigvalsh(Q)[:, 0].tolist()))
