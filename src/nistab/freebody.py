"""Free-body stability machinery: origin split, Laurent data, verdicts.

For a strictly proper NI plant G(s) in positive feedback with an SNI
controller Gbar(s), internal stability is decided from the Laurent data
G(s) = G2/s^2 + G1/s + G0 + O(s) about s = 0 and the controller DC gain
Gbar(0) alone.  :func:`stability_verdict` reads the models into that data (a
plant without origin poles enters as G0 = G(0), G1 = G2 = 0); the pure
``_decide`` picks the free-body basis Y (F1 from G1, J from G2, the Hankel
subspace matrix F when both are nonzero, I for a full-rank coefficient, none
without free body), and one ``_reduced_gain`` rule decides every theorem:
the Gram test Y' Gbar(0) Y < 0 (with a free body), then every eigenvalue of
(G0 + extra) N below 1 for the reduced gain N = P(Gbar(0), Y), which is
Gbar(0) without free body and 0 for a basis of m columns.
:func:`direct_stability` is the independent eigenvalue oracle, and
:func:`montecarlo_agreement` drives both against random NI/SNI pairs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    G2ZeroError,
    IllConditionedTransformError,
    IllPosedError,
    JordanBlockTooLargeError,
    LimitDivergentError,
    NistabError,
    NotMinimalError,
    NotStrictlyProperError,
    SingularAtSError,
    SingularInnerError,
)
from .ircsynth import make_irc
from .ltimodel import (
    TRANSFORM_COND_LIMIT,
    ModalModel,
    SchurSplit,
    StateSpaceModel,
    _balance_radius,
    _laurent_numeric_limits,
    _norm,
    _spectral,
    closed_loop,
    eval_tf,
    is_hurwitz,
    minimality_margin,
    modal_to_ss,
    spectral_abscissa,
)
from .matrixcore import classify_definiteness, full_rank_factor, symmetrize
from .niclass import NiReport, SniReport, classify_ni, classify_sni

__all__ = [
    "LaurentCoefficients",
    "Outcome",
    "Theorem",
    "Branch",
    "StabilityVerdict",
    "VerdictOptions",
    "to_block_diagonal",
    "laurent_coefficients",
    "projector_p",
    "build_f_matrix",
    "stability_verdict",
    "direct_stability",
    "montecarlo_agreement",
    "MonteCarloReport",
    "random_ni_plant",
    "random_sni_controller",
]

#: ||Gi|| <= ZERO_COEFF_RTOL * (1 + ||G0||) counts as a vanishing coefficient
ZERO_COEFF_RTOL = 1e-8

#: strict inequalities satisfied by less than this (relative) are "boundary"
BOUNDARY_BAND = 1e-7

#: largest share of G on the Laurent contour its s^-3 and s^-4 terms may
#: carry before the contour route counts as failed to settle
SETTLE_RTOL = 1e-4


# --------------------------------------------------------------------------
# origin split and Laurent coefficients
# --------------------------------------------------------------------------


def to_block_diagonal(model: StateSpaceModel) -> SchurSplit:
    """Origin split of a minimal strictly proper model: A = W diag(S0, T1) W^-1.

    The record's origin split (``_Spectral.origin_split``): the eigenvalues
    within ``ztol`` of the origin are split off the one complex Schur form,
    by indexing where they are whole diagonal blocks of it (the origin block
    of a modal realization of 32 states or more), else moved to the top and
    decoupled from the rest by a triangular Sylvester solve.
    S0 (the record's ``T0``) carries the k = rank S0 double and the
    n2 = n0 - 2k simple origin poles; T1 (n1 x n1) is nonsingular.  Zero eigenvalues with Jordan blocks
    of order three or more are rejected, since no NI transfer matrix can
    produce them.

    Raises
    ------
    NotMinimalError, NotStrictlyProperError
    JordanBlockTooLargeError
        Origin pole of order three or more (S0^2 != 0).
    IllConditionedTransformError
        The decoupling [[I, X], [0, I]] has condition number above 1e8.
    """
    if not model.strictly_proper():
        raise NotStrictlyProperError("block-diagonal form requires D = 0")
    spec = _spectral(model)
    if not spec.minimal:
        raise NotMinimalError("block-diagonal form requires a minimal realization")
    split = spec.origin_split
    if split.order_excess > 1.0:
        raise JordanBlockTooLargeError(
            "origin pole of order >= 3: not realizable by an NI system"
        )
    cond = split.cond
    if not np.isfinite(cond) or cond > TRANSFORM_COND_LIMIT:
        raise IllConditionedTransformError(
            f"decoupling condition number {cond:.2e} exceeds {TRANSFORM_COND_LIMIT:.0e}"
        )
    return split


@dataclass(frozen=True)
class LaurentCoefficients:
    """Leading coefficients G(s) = G2/s^2 + G1/s + G0 + O(s) near the origin.

    ``agreement`` is the relative disagreement of the contour route with the
    primary route, the cross-check :func:`laurent_coefficients` makes.
    """

    G0: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    agreement: float | None = None


def laurent_coefficients(model: StateSpaceModel) -> LaurentCoefficients:
    """Laurent data of a minimal strictly proper model about s = 0.

    The primary route reads the coefficients off the origin split
    (:func:`to_block_diagonal`).  With S0 = T0 the origin block, B0 and C0 its
    decoupled maps and T1, B1, C1 those of the rest, S0^2 = 0 gives
    C0 (sI - S0)^-1 B0 = C0 B0 / s + C0 S0 B0 / s^2, so G2 = Re C0 S0 B0
    (``SchurSplit.G2``, with S0 cut to its numerical rank k; :func:`classify_ni`
    reads the same G2 for condition 4), G1 = Re C0 B0 and
    G0 = -Re C1 T1^-1 B1 (a triangular solve).  The
    secondary route, independent of that split, takes the contour
    integrals of G(s) s^-k around the circle |s| = radius/3, where radius is
    the modulus of the closest nonzero pole, or on the smaller circle where
    the G2/s^2 and G0 terms balance (see ``ltimodel._laurent_numeric_limits``
    and ``_balance_radius``).  The measured disagreement is stored on the
    result (typically below 1e-12).  The secondary route raises
    LimitDivergentError when its s^-3 and s^-4 terms carry more than
    ``SETTLE_RTOL`` of G on the circle; disagreement beyond 1e-3 raises
    NistabError.
    """
    spec = _spectral(model)
    split = to_block_diagonal(spec)
    G2 = split.G2
    G1 = np.real(split.C0 @ split.B0)
    if split.n1 > 0:
        # T1 X = B1 as the transposed system on the lower triangle T1.T, Fortran-ordered: no copy
        X, info = scipy.linalg.lapack.ztrtrs(split.T1.T, split.B1, lower=1, trans=1)
        if info:
            raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info-1}")
        G0 = -np.real(split.C1 @ X)
    else:
        G0 = np.zeros((model.m, model.m))

    # the Laurent series converges out to the closest nonzero pole; on a
    # third of that radius G0 ... G2 alias with terms of relative size
    # 3^-30 or less, and the s^-3, s^-4 settle measure with 3^-28.  A
    # fast mode puts that circle where rounding of size eps r^2 ||G0||
    # swamps G2, so the radius is capped at the balance point.
    nonzero = np.abs(spec.eigs[np.abs(spec.eigs) > spec.ztol])
    radius = float(np.min(nonzero)) if nonzero.size else 10.0
    radius = min(radius / 3.0, _balance_radius(G2, G0))
    G0n, G1n, G2n, settle = _laurent_numeric_limits(spec, radius)
    if settle > SETTLE_RTOL:
        raise LimitDivergentError(
            "numeric Laurent limits failed to settle (s^-3, s^-4 terms "
            f"carry {settle:.2e} of G on the contour)"
        )
    scale = 1.0 + max(np.linalg.norm(M) for M in (G0, G1, G2))
    agreement = float(
        max(
            np.linalg.norm(G0n - G0),
            np.linalg.norm(G1n - G1),
            np.linalg.norm(G2n - G2),
        )
        / scale
    )
    if agreement > 1e-3:
        raise NistabError(
            f"Laurent routes disagree by {agreement:.2e} (relative); "
            "realization or limits are unreliable for this model"
        )
    return LaurentCoefficients(G0=G0, G1=G1, G2=G2, agreement=agreement)


# --------------------------------------------------------------------------
# projector and Hankel subspace matrix
# --------------------------------------------------------------------------


def projector_p(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X - X Y (Y' X Y)^-1 Y' X, the oblique reduction used by the verdicts.

    Annihilates range(Y) from the right (P(X, Y) @ Y = 0) and depends on Y
    only through its range.  A zero-width Y returns X unchanged.

    Raises
    ------
    SingularInnerError
        If Y' X Y is numerically singular.
    """
    X = symmetrize(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y.reshape(-1, 1)
    if Y.shape[0] != X.shape[0]:
        raise SingularInnerError(
            f"Y has {Y.shape[0]} rows, X is {X.shape[0]}x{X.shape[1]}")
    if Y.shape[1] == 0:
        return X
    inner = Y.T @ X @ Y
    smin = np.linalg.svd(inner, compute_uv=False)[-1]
    if smin <= 1e-12 * max(1.0, np.linalg.norm(inner, 2)):
        raise SingularInnerError("Y' X Y is numerically singular")
    P = X - X @ Y @ np.linalg.solve(inner, Y.T @ X)
    return 0.5 * (P + P.T)


def build_f_matrix(L: LaurentCoefficients) -> np.ndarray:
    """Subspace matrix F from the SVD of the block-Hankel [[G1, G2], [G2, 0]].

    The Hankel matrix is factored as U V1' with U = H1 S; splitting U into
    its top and bottom m rows U1, U2, the columns of F = U1 Vhat2 span the
    output directions excited by the free-body states, where Vhat2 is an
    orthonormal basis of the null space of U1' U2.

    Raises
    ------
    G2ZeroError
        The construction needs G2 != 0 (use the single-pole route otherwise).
    """
    m = L.G2.shape[0]
    if np.linalg.norm(L.G2) == 0.0:
        raise G2ZeroError("F construction requires a nonzero double-pole coefficient")
    Gamma = np.block([[L.G1, L.G2], [L.G2, np.zeros((m, m))]])
    H, sv, _Vt = np.linalg.svd(Gamma)
    cutoff = 2 * m * np.finfo(float).eps * sv[0]
    ntil = int(np.sum(sv > cutoff))
    U = H[:, :ntil] * sv[:ntil]
    U1, U2 = U[:m, :], U[m:, :]
    M = U1.T @ U2
    Um, sm, Vmt = np.linalg.svd(M)
    cut2 = ntil * np.finfo(float).eps * (sm[0] if sm.size and sm[0] > 0 else 1.0)
    # the compressed map is nilpotent, so a relative cutoff on its own scale
    # must be guarded against the Hankel scale as well
    cut2 = max(cut2, 1e-9 * sv[0])
    r = int(np.sum(sm > cut2))
    Vhat2 = Vmt[r:].T
    return U1 @ Vhat2


# --------------------------------------------------------------------------
# verdicts
# --------------------------------------------------------------------------


class Outcome(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    INCONCLUSIVE = "inconclusive"
    PRECONDITION_FAILED = "precondition_failed"
    BOUNDARY = "boundary"


class Theorem(enum.Enum):
    """Which member of the condition family decided the verdict."""

    DC_GAIN = "dc_gain"                          # no free body motion
    DOUBLE_POLE_GENERAL = "double_pole_general"  # G2 != 0, any G1
    DOUBLE_POLE = "double_pole"                  # G2 != 0, G1 = 0
    SINGLE_POLE = "single_pole"                  # G1 != 0, G2 = 0
    FULL_RANK_FREE_BODY = "full_rank_free_body"  # Gbar(0) < 0 test
    NONE = "none"


class Branch(enum.Enum):
    """The sign of the reduced gain N; INVERTIBLE when the basis has m columns."""

    PSD = "psd"
    NSD = "nsd"
    INVERTIBLE = "invertible"
    NONE = "none"


@dataclass(frozen=True)
class VerdictOptions:
    """What a caller of :func:`stability_verdict` chooses.

    ``boundary_band`` is the relative band about each strict inequality
    inside which the verdict is BOUNDARY (the CLI's ``--tol``);
    ``run_oracle`` adds the closed-loop Hurwitz test of
    :func:`direct_stability`; ``skip_ni_check`` skips the NI and SNI
    classification, for a pair that is NI/SNI by construction.  Every other
    tolerance is a module constant.
    """

    boundary_band: float = BOUNDARY_BAND
    run_oracle: bool = False
    skip_ni_check: bool = False


@dataclass
class StabilityVerdict:
    """Internal-stability decision plus every measured condition value.

    A verdict no theorem decided (a failed precondition, a stage that could
    not run) keeps the record defaults: theorem and branch NONE, no values.
    """

    outcome: Outcome
    theorem_used: Theorem = Theorem.NONE
    branch: Branch = Branch.NONE
    condition_values: dict = field(default_factory=dict)
    reason: str = ""
    oracle_agrees: bool | None = None
    laurent: LaurentCoefficients | None = None
    ni: NiReport | None = None
    sni: SniReport | None = None
    oracle_hurwitz: bool | None = None
    tolerances: dict = field(default_factory=lambda: {
        "zero_coeff_rtol": ZERO_COEFF_RTOL, "boundary_band": BOUNDARY_BAND})

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "theorem_used": self.theorem_used.value,
            "branch": self.branch.value,
            "condition_values": {k: float(v) for k, v in self.condition_values.items()},
            "reason": self.reason,
            "oracle_agrees": self.oracle_agrees,
            "tolerances": dict(self.tolerances),
        }


class _Conditions:
    """The strict inequalities one theorem requires, under one boundary band.

    Each condition is written excess < 0 with a scale of its own (see
    :meth:`require`).  The outcome starts STABLE; a failed condition makes it
    UNSTABLE, and a condition inside the band makes it BOUNDARY, which no
    later failure overrides.  The recorded values are the verdict's
    ``condition_values``.
    """

    def __init__(self, band: float):
        self.band = band
        self.values: dict[str, float] = {}
        self.outcome = Outcome.STABLE

    def require(self, name: str, value: float, excess: float, scale: float) -> None:
        """Require excess < 0, recording ``value`` under ``name``: BOUNDARY
        when |excess| <= band * scale, failed when excess > 0."""
        self.values[name] = value
        if abs(excess) <= self.band * scale:
            self.outcome = Outcome.BOUNDARY
        elif excess > 0.0 and self.outcome is Outcome.STABLE:
            self.outcome = Outcome.UNSTABLE

    def negative_definite(self, name: str, M: np.ndarray) -> None:
        """Require M < 0, recording its largest eigenvalue; the Gram matrix of
        a zero-column basis records -inf and requires nothing."""
        if not M.size:
            self.values[name] = -np.inf
            return
        top = float(np.linalg.eigvalsh(symmetrize(M))[-1])
        self.require(name, top, top, 1.0 + abs(top) + np.linalg.norm(M))

    def verdict(self, theorem: Theorem, branch: Branch,
                laurent: LaurentCoefficients | None) -> StabilityVerdict:
        reason = ("a decisive quantity sits inside the tolerance band"
                  if self.outcome is Outcome.BOUNDARY else "")
        return StabilityVerdict(self.outcome, theorem, branch, self.values,
                                reason, laurent=laurent)


def stability_verdict(G: StateSpaceModel, Gbar: StateSpaceModel,
                      opts: VerdictOptions | None = None) -> StabilityVerdict:
    """Decide internal stability of the positive feedback loop [G, Gbar].

    G must be NI and Gbar SNI (checked unless ``opts.skip_ni_check``); free
    body content additionally requires G strictly proper.  One rule decides
    every theorem (``_reduced_gain``): the Gram test Y' Gbar(0) Y < 0, then
    every eigenvalue of (G0 + extra) N below 1.  It is the theorem family's
    necessary and sufficient condition when the reduced gain N is sign
    semidefinite; for an indefinite N it rests on the argument in the README,
    part of which is checked on corpora rather than proved.  Any decisive
    quantity inside the tolerance band yields BOUNDARY rather than a guess.
    A classification that cannot run (a non-minimal plant) and Laurent data
    that cannot be extracted reliably yield INCONCLUSIVE, with the error as
    the reason.

    Only :func:`_front_end` reads the models; :func:`_decide` sees (G2, G1,
    G0, Gbar(0)).  The verdict carries everything the analysis computed: the
    NI and SNI reports, the Laurent data, the tolerances used and, with
    ``opts.run_oracle``, the closed-loop Hurwitz test of :func:`direct_stability`.
    """
    opts = opts or VerdictOptions()
    # one record of the plant's spectral data, shared by every stage below
    G = _spectral(G)
    ni = sni = None
    try:
        if not opts.skip_ni_check:
            # the controller first: its report stands if the plant's cannot run
            sni = classify_sni(Gbar)
            ni = classify_ni(G)
    except NistabError as exc:
        verdict = _inconclusive("classification", exc)
    else:
        verdict = _front_end(G, Gbar, ni, sni, opts.boundary_band)
    verdict.ni, verdict.sni = ni, sni
    verdict.tolerances["boundary_band"] = opts.boundary_band
    if opts.run_oracle:
        _attach_oracle(verdict, G, Gbar)
    return verdict


def _inconclusive(stage: str, exc: NistabError) -> StabilityVerdict:
    return StabilityVerdict(
        Outcome.INCONCLUSIVE, reason=f"{stage} unavailable: {type(exc).__name__}: {exc}")


def _vanishing(L: LaurentCoefficients) -> tuple[bool, bool]:
    """Whether G2 and G1 vanish: ||Gi|| <= ZERO_COEFF_RTOL (1 + ||G0||), the norms taken with
    no entry squared (``ltimodel._norm``), so finite data give finite norms."""
    tol = ZERO_COEFF_RTOL * (1.0 + _norm(L.G0))
    return _norm(L.G2) <= tol, _norm(L.G1) <= tol


def _front_end(G, Gbar, ni, sni, band: float) -> StabilityVerdict:
    """The NI/SNI, channel-count, Gbar(0), strictly-proper and Laurent
    preconditions, then :func:`_decide`; a plant without origin poles enters
    as G0 = G(0).  A controller with a pole at s = 0, which no SNI
    controller has, fails the Gbar(0) precondition (under ``skip_ni_check``
    too).
    Gbar(0), G(0) or Laurent data that are not finite (a model that
    overflows), or a norm or product of them that overflows in the decision,
    give INCONCLUSIVE."""
    failed = Outcome.PRECONDITION_FAILED
    if ni is not None and not ni.is_ni:
        return StabilityVerdict(
            failed, reason="plant is not negative imaginary: " + "; ".join(ni.reasons))
    if sni is not None and not sni.is_sni:
        return StabilityVerdict(failed, reason="controller is not strictly negative "
                                "imaginary: " + "; ".join(sni.reasons))
    if G.m != Gbar.m:
        return StabilityVerdict(failed, reason=f"channel counts differ: plant {G.m}, "
                                f"controller {Gbar.m}; the loop cannot be closed")
    origin = G.origin_split.n0
    with np.errstate(over="ignore", invalid="ignore"):   # tested for below
        try:
            Gbar0 = eval_tf(Gbar, 0.0).real
        except SingularAtSError:
            return StabilityVerdict(failed, reason="controller has a pole at s = 0: "
                                    "Gbar(0) does not exist")
        G0 = None if origin else eval_tf(G, 0.0).real
    if not origin:
        zero = np.zeros_like(G0)
        L = LaurentCoefficients(G0, zero, zero)
    elif not G.strictly_proper():
        return StabilityVerdict(
            failed, reason="free-body analysis requires a strictly proper plant")
    else:
        try:
            L = laurent_coefficients(G)
        except NistabError as exc:
            return _inconclusive("Laurent data", exc)
    if not np.isfinite([Gbar0, L.G0, L.G1, L.G2]).all():
        return StabilityVerdict(Outcome.INCONCLUSIVE, reason="Gbar(0), G(0) or the Laurent "
                                "data are not finite: the model overflows")
    try:
        # finite data can still overflow in a norm or product the decision forms
        with np.errstate(over="raise", invalid="raise"):
            if origin and all(_vanishing(L)):
                return StabilityVerdict(failed, reason="origin pole detected but both Laurent "
                                        "coefficients vanish (numerically inconsistent model)",
                                        laurent=L)
            return _decide(L, Gbar0, band)
    except FloatingPointError as exc:
        return StabilityVerdict(Outcome.INCONCLUSIVE, reason="a quantity the decision forms "
                                f"from Gbar(0) and the Laurent data is not finite ({exc}): "
                                "the model overflows")


def _decide(L: LaurentCoefficients, Gbar0: np.ndarray, band: float) -> StabilityVerdict:
    """The verdict from the Laurent data (G2, G1, G0) and Gbar(0) alone.

    This picks the free-body basis Y for :func:`_reduced_gain`: none when
    G2 = G1 = 0 (the DC-gain theorem, a verdict without Laurent data); F1,
    the thin SVD factor of G1, when G2 = 0; J (G2 = J J') when G1 = 0; Y = I
    for a full-rank G1 or G2; else the Hankel subspace matrix F, with
    friction G1 J (J'J)^-2 J' G1'.
    """
    m = L.G0.shape[0]
    g2_zero, g1_zero = _vanishing(L)
    extra = np.zeros((m, m))
    if g2_zero and g1_zero:
        return _reduced_gain(L, Gbar0, None, extra, band, Theorem.DC_GAIN, None)
    if g2_zero:
        U, sv, _Vt = np.linalg.svd(L.G1)
        r = int(np.sum(sv > m * np.finfo(float).eps * sv[0]))
        Y, full = U[:, :r] * sv[:r], r == m
        theorem, key = Theorem.SINGLE_POLE, "f1_gram_max_eig"
    else:
        J = full_rank_factor(L.G2).J
        if g1_zero:
            Y, full = J, classify_definiteness(L.G2).is_pd
            theorem, key = Theorem.DOUBLE_POLE, "j_gram_max_eig"
        else:
            JtJ = J.T @ J
            extra = L.G1 @ J @ np.linalg.solve(JtJ @ JtJ, J.T @ L.G1.T)
            Y, full = build_f_matrix(L), False
            theorem, key = Theorem.DOUBLE_POLE_GENERAL, "f_gram_max_eig"
    if full:
        Y, theorem, key = np.eye(m), Theorem.FULL_RANK_FREE_BODY, "controller_dc_max_eig"
    return _reduced_gain(L, Gbar0, Y, extra, band, theorem, key)


def _attach_oracle(verdict: StabilityVerdict, G, Gbar) -> None:
    """Record the closed-loop Hurwitz test and whether a decisive verdict agrees.

    A loop that cannot be closed (channel counts differ), whose state matrix
    is not finite, or that is ill-posed leaves the test unset; an ill-posed
    loop raises IllPosedError only when the verdict is decisive.
    """
    if G.m != Gbar.m:
        return
    decisive = verdict.outcome in (Outcome.STABLE, Outcome.UNSTABLE)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            verdict.oracle_hurwitz = direct_stability(G, Gbar)
    except IllPosedError:
        if decisive:
            raise
        return
    except NistabError:   # is_hurwitz's DimensionError: the state matrix is not finite
        return
    if decisive:
        verdict.oracle_agrees = bool(
            verdict.oracle_hurwitz == (verdict.outcome is Outcome.STABLE))


def _reduced_gain(L, Gbar0, Y, extra, band, theorem, key) -> StabilityVerdict:
    """One rule on the free-body basis Y (J, F, F1 or I; None without free body).

    With a free body, Y' Gbar(0) Y < 0 is required, under ``key``.  It is
    necessary: for real s > 0, G(s) and Gbar(s) are symmetric (colocated
    pairs) and G(s) >= (G2 + s G1)/s^2, so for y = Y v with
    v' Y' Gbar(0) Y v > 0 the Rayleigh quotient y' Gbar(s) y / y' G(s)^-1 y
    of G^1/2 Gbar G^1/2 grows without bound as s -> 0+, while the real top
    eigenvalue of G(s) Gbar(s) tends to 0 as s -> oo: it passes 1 at a real
    closed-loop pole s > 0.  Then every eigenvalue of (G0 + extra) N must lie
    below 1, under ``dc_gain_lambda_max``, for the reduced gain
    N = P(Gbar(0), Y): N = Gbar(0) without free body, the DC-gain test; N = 0
    when Y has m columns (branch INVERTIBLE).  The branch is N's sign (NSD, a
    zero N included, PSD, or NONE when N is indefinite or not formed).  A
    singular Gram matrix, failed or banded, leaves N unformed and the Gram
    test decides alone.  ``extra`` is the friction for Y = F, zero otherwise.
    """
    m = L.G0.shape[0]
    conds = _Conditions(band)
    branch, E = Branch.NONE, L.G0 + extra
    if Y is None:   # the DC-gain test: no Gram matrix, and no Laurent data to report
        N, L = Gbar0, None
    else:
        conds.negative_definite(key, Y.T @ Gbar0 @ Y)
        if Y.shape[1] == m:
            N, branch = np.zeros((m, m)), Branch.INVERTIBLE
        else:
            try:
                N = projector_p(Gbar0, Y)
            except SingularInnerError:
                return conds.verdict(theorem, branch, L)
            sign = classify_definiteness(N)
            branch = Branch.NSD if sign.is_nsd else Branch.PSD if sign.is_psd else branch
    eigs = np.linalg.eigvals(E @ N)
    if np.max(np.abs(eigs.imag)) > 1e-7 * (1.0 + np.max(np.abs(eigs))):
        return StabilityVerdict(Outcome.PRECONDITION_FAILED, reason="dc gain product "
                                "has non-real eigenvalues; models are not NI/SNI consistent")
    lam = float(np.max(eigs.real))
    conds.require("dc_gain_lambda_max", lam, lam - 1.0, 1.0 + abs(lam))
    return conds.verdict(theorem, branch, L)


def direct_stability(G: StateSpaceModel, Gbar: StateSpaceModel) -> bool:
    """Theorem-independent oracle: is the closed-loop state matrix Hurwitz
    (every eigenvalue real part below -``ltimodel.HURWITZ_MARGIN``)."""
    return is_hurwitz(closed_loop(G, Gbar))


# --------------------------------------------------------------------------
# random model generation and Monte-Carlo agreement
# --------------------------------------------------------------------------

_FAMILIES = ("dc_gain", "double_pd", "double", "double_range",
             "mixed", "single", "single_inv", "single_range")


def _random_psd(rng, m: int, rank: int | None = None, scale: float = 1.0):
    r = rank if rank is not None else m
    W = rng.normal(size=(m, r))
    return scale * (W @ W.T) / max(r, 1)


def random_ni_plant(rng: np.random.Generator, family: str, m: int | None = None):
    """Random NI plant in modal form, structured to land in one dispatch family.

    The modal form sum of PSD coefficient terms plus PSD 1/s and 1/s^2 terms
    is NI by construction, so no rejection sampling is needed for the NI
    property itself; draws are only repeated (rarely) when the realized model
    sits too close to the minimality rank cutoff to analyze reliably.  A draw
    is kept when its ``minimality_margin`` exceeds 50 (on a draw this tiny, two
    stacked SVD calls cost less than ``ltimodel._pbh_bound``, its eigenvector
    record and its ztpqrt folds); the verdict reads the margin off the record.
    """
    spec, mm = _draw_minimal_plant(rng, family, m)
    return StateSpaceModel(spec.A, spec.B, spec.C, spec.D, spec.name), mm


def _draw_minimal_plant(rng: np.random.Generator, family: str, m: int | None = None):
    """:func:`random_ni_plant`, returning the spectral record its filter built."""
    for _ in range(50):
        model, mm = _draw_ni_plant(rng, family, m)
        spec = _spectral(model)
        if minimality_margin(spec) > 50.0:
            return spec, mm
    raise NistabError(f"could not draw a comfortably minimal {family!r} plant")


def _draw_ni_plant(rng: np.random.Generator, family: str, m: int | None = None):
    m = m if m is not None else int(rng.integers(1, 4))
    n_modes = int(rng.integers(1, 4))
    poles = np.sort(rng.uniform(0.5, 20.0, size=n_modes))
    # spread poles so the realization stays comfortably minimal
    poles += np.arange(n_modes) * 0.25

    g1 = g2 = None
    k = int(rng.integers(1, m + 1))
    J = rng.normal(size=(m, k))

    def modal_coeffs(inside=None):
        out = []
        for p in poles:
            if inside is None:
                C = _random_psd(rng, m, rank=int(rng.integers(1, m + 1)))
            else:
                r = inside.shape[1]
                C = inside @ _random_psd(rng, r) @ inside.T
            out.append((p, C))
        return out

    if family == "dc_gain":
        terms = modal_coeffs()
    elif family == "double_pd":
        g2 = _random_psd(rng, m) + 0.05 * np.eye(m)
        terms = modal_coeffs()
    elif family in ("double", "double_range"):
        J = J[:, :min(k, max(1, m - 1))]
        g2 = J @ J.T
        terms = modal_coeffs(inside=J if family == "double_range" else None)
    elif family == "mixed":
        g2 = J @ J.T
        g1 = _random_psd(rng, m, rank=int(rng.integers(1, m + 1)))
        terms = modal_coeffs()
    elif family == "single":
        r = min(int(rng.integers(1, m + 1)), max(1, m - 1))
        g1 = _random_psd(rng, m, rank=r)
        terms = modal_coeffs()
    elif family == "single_inv":
        g1 = _random_psd(rng, m) + 0.05 * np.eye(m)
        terms = modal_coeffs()
    elif family == "single_range":
        r = min(int(rng.integers(1, m + 1)), max(1, m - 1))
        W = rng.normal(size=(m, r))
        g1 = W @ W.T
        terms = modal_coeffs(inside=W)
    else:
        raise NistabError(f"unknown family {family!r}")
    mm = ModalModel(m=m, terms=tuple(terms), g1=g1, g2=g2,
                    meta={"family": family})
    return modal_to_ss(mm), mm


def random_sni_controller(rng: np.random.Generator, m: int):
    """Random IRC controller; SNI by construction for PD Gamma, Phi."""
    Gamma = _random_psd(rng, m) + 0.2 * np.eye(m)
    Phi = _random_psd(rng, m) + 0.2 * np.eye(m)
    mode = rng.integers(0, 3)
    base = _random_psd(rng, m)
    if mode == 0:        # Gbar(0) strongly negative definite
        Delta = np.linalg.inv(Phi) + base + 0.2 * np.eye(m)
    elif mode == 1:      # Gbar(0) positive definite
        Delta = -base - 0.2 * np.eye(m)
    else:                # sign-mixed
        S = rng.normal(size=(m, m))
        Delta = 0.5 * (S + S.T)
    return make_irc(Gamma, Phi, Delta)


@dataclass
class MonteCarloReport:
    count: int
    applicable: int
    agreements: int
    boundary: int
    inconclusive: int
    precondition_failed: int
    disagreements: list
    by_theorem: dict

    @property
    def agreement_fraction(self) -> float:
        return 1.0 if self.applicable == 0 else self.agreements / self.applicable

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "applicable": self.applicable,
            "agreements": self.agreements,
            "boundary": self.boundary,
            "inconclusive": self.inconclusive,
            "precondition_failed": self.precondition_failed,
            "agreement_fraction": self.agreement_fraction,
            "by_theorem": dict(self.by_theorem),
            "disagreements": [
                {"trial": t, "family": fam, "outcome": out} for (t, fam, out) in self.disagreements
            ],
        }


def montecarlo_agreement(count: int, seed: int = 0) -> MonteCarloReport:
    """Check verdicts against the eigenvalue oracle on random NI/SNI pairs.

    Every decisive (STABLE/UNSTABLE) verdict must match
    :func:`direct_stability`; BOUNDARY and INCONCLUSIVE trials are tallied
    but excluded from the agreement fraction, as is any trial whose
    closed-loop spectral abscissa is itself inside the margin band.  Trial
    k draws its plant from dispatch family ``_FAMILIES[k % 8]``.  The
    pairs are NI/SNI by construction, so the verdicts skip the NI check.
    """
    opts = VerdictOptions(skip_ni_check=True)
    rng = np.random.default_rng(seed)
    applicable = agreements = 0
    undecided = dict.fromkeys(Outcome, 0)
    disagreements: list = []
    by_theorem: dict[str, int] = {}

    for trial in range(count):
        family = _FAMILIES[trial % len(_FAMILIES)]
        trial_rng = np.random.default_rng(rng.integers(0, 2 ** 63))
        # the filter's record: the verdict reuses its margin and Schur form
        plant, _ = _draw_minimal_plant(trial_rng, family)
        ctrl = random_sni_controller(trial_rng, plant.m)
        verdict = stability_verdict(plant, ctrl.realization, opts)

        if verdict.outcome not in (Outcome.STABLE, Outcome.UNSTABLE):
            undecided[verdict.outcome] += 1
            continue

        cl = closed_loop(plant, ctrl.realization)
        alpha = spectral_abscissa(cl)
        # the SVD only where ||.||_F >= ||.||_2, 1e-12 over for rounding, cannot clear |alpha|
        if (abs(alpha) <= 1e-7 * max(1.0, np.linalg.norm(cl) * (1.0 + 1e-12))
                and abs(alpha) <= 1e-7 * max(1.0, np.linalg.norm(cl, 2))):
            undecided[Outcome.BOUNDARY] += 1   # the oracle itself is marginal
            continue
        applicable += 1
        key = f"{verdict.theorem_used.value}/{verdict.branch.value}"
        by_theorem[key] = by_theorem.get(key, 0) + 1
        if (alpha < 0.0) == (verdict.outcome is Outcome.STABLE):
            agreements += 1
        else:
            disagreements.append((trial, family, verdict.outcome.value))

    return MonteCarloReport(
        count=count, applicable=applicable, agreements=agreements,
        boundary=undecided[Outcome.BOUNDARY],
        inconclusive=undecided[Outcome.INCONCLUSIVE],
        precondition_failed=undecided[Outcome.PRECONDITION_FAILED],
        disagreements=disagreements,
        by_theorem=by_theorem,
    )
