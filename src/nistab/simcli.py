"""Closed-loop simulation, whole-pipeline analysis reports, and the CLI.

``step_response`` simulates the positive-feedback loop under a reference
step using exact zero-order-hold discretization of the combined LTI system,
so samples are exact at the grid points for any dt.  ``run_analysis`` turns
one stability verdict (classification, Laurent extraction, decision and
eigenvalue oracle) into one serializable report.  ``main`` exposes
everything as the ``nistab`` command with subcommands classify, laurent,
stability, verify, beam and simulate.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import __version__
from .beamcase import BeamParameters, emit_residue_scan, find_modal_roots, \
    finite_dim_approx, modal_residue
from .errors import IllPosedError, NistabError
from .freebody import (
    BOUNDARY_BAND,
    ZERO_COEFF_RTOL,
    Outcome,
    VerdictOptions,
    laurent_coefficients,
    montecarlo_agreement,
    stability_verdict,
)
from .ircsynth import make_irc
from .ltimodel import HURWITZ_MARGIN, StateSpaceModel, _matrix_from_json, _spectral, \
    closed_loop, model_from_dict
from .niclass import classify_ni, classify_sni

__all__ = [
    "SimulationResult",
    "AnalysisReport",
    "step_response",
    "run_analysis",
    "load_model",
    "main",
]

SCHEMA_VERSION = 2

#: state norm beyond which a trajectory is flagged divergent
DIVERGENCE_LIMIT = 1e12

#: most samples ``step_response`` forms in one block product
WINDOW = 1024

WIRINGS = ("additive", "replace")


@dataclass
class SimulationResult:
    """Uniformly sampled closed-loop step response.

    ``t`` holds the sample times k dt, k = 0 ... ceil(T_end / dt), a quotient
    within 4 ulps of an integer counting as that integer, so the last sample
    is never past T_end by rounding.  ``theta`` is the first output channel
    and ``Vs`` the second (zero for single-channel loops); ``y`` carries all
    outputs.  The samples are the exact zero-order-hold ones up to rounding,
    formed a block at a time from powers of one matrix exponential (see
    :func:`step_response`).  ``diverged`` is set when the state norm exceeds
    ``DIVERGENCE_LIMIT`` (1e12) or a state is not finite, which the exact
    discretization of an unstable loop will eventually produce; the samples
    then end at the first such one.
    """

    t: np.ndarray
    theta: np.ndarray
    Vs: np.ndarray
    y: np.ndarray
    diverged: bool
    config: dict = field(default_factory=dict)


def _reference_wiring(G: StateSpaceModel, Gbar: StateSpaceModel, wiring: str):
    """Closed-loop (A_cl, B_cl, C_cl) for a reference on the first channel.

    additive: the controller sees y + e1 r (loop matrix equals the analyzed
    positive-feedback interconnection).
    replace: the controller sees y + e1 (r - y1), i.e. its first input is
    the reference alone.  This opens the first feedback channel, so its loop
    matrix differs from the analyzed one; selectable, not the default.

    Either loop matrix is :func:`ltimodel.closed_loop` of the controller
    with the plant whose output map is S C, S = I (additive) or I with its
    first diagonal entry zeroed (replace).
    """
    if G.m != Gbar.m:
        raise IllPosedError("plant and controller channel counts differ")
    if not G.strictly_proper():
        raise IllPosedError("step_response assumes a strictly proper plant")
    m = G.m
    e1 = np.zeros((m, 1))
    e1[0, 0] = 1.0
    S = np.eye(m)
    if wiring == "replace":
        S[0, 0] = 0.0
    elif wiring != "additive":
        raise NistabError(f"unknown wiring {wiring!r}; options: {WIRINGS}")
    # x' = Ax + B(Cb xb + Db (S C x + e1 r));  xb' = Ab xb + Bb (S C x + e1 r)
    A_cl = closed_loop(StateSpaceModel(G.A, G.B, S @ G.C), Gbar)
    B_cl = np.vstack([G.B @ Gbar.D @ e1, Gbar.B @ e1])
    C_cl = np.hstack([G.C, np.zeros((m, Gbar.n))])
    return A_cl, B_cl, C_cl


def step_response(G: StateSpaceModel, Gbar: StateSpaceModel,
                  wiring: str = "additive", T_end: float = 10.0,
                  dt: float = 1e-3, r: float = 1.0) -> SimulationResult:
    """Simulate the loop under a reference step of height r.

    The samples are t_k = k dt for k = 0 ... K, K = ceil(T_end / dt), with a
    quotient within 4 ulps of an integer taken as that integer: 0.07 / 0.01
    evaluates to 7.000000000000001, and gives 8 samples, not 9.  dt and T_end
    must be positive and finite, r finite and T_end / dt below 2**53
    (NistabError otherwise, before any array is formed).

    Integration is the exact zero-order-hold discretization of the combined
    system: one matrix exponential E = expm([[A dt, B dt], [0, 0]]) of the
    augmented state z = [x; r] (Van Loan 1978), so z_k = E^k z_0, the
    samples are exact for every dt, and halving dt reproduces the same
    values at shared grid points.  The powers E^h, h = 1, 2, 4, ... up to
    ``WINDOW``, come from repeated squaring (Moler & Van Loan 2003), stopped
    before a square would overflow.  Each block of samples is one product
    E^h [z_j ... z_(j+h-1)]: the window of states doubles until it is as wide
    as the last power formed, then slides by that width.  The result differs from the per-step recursion
    z_(k+1) = E z_k by rounding, at most 3.5e-13 max|y| on the flexible arm
    at 1 to 10 modes.  Only the current window of states is kept.
    """
    if not (0.0 < dt < np.inf and 0.0 < T_end < np.inf and -np.inf < r < np.inf):
        raise NistabError(f"dt and T_end must be positive and finite and r finite, "
                          f"got dt = {dt}, T_end = {T_end}, r = {r}")
    if T_end / dt >= 2.0 ** 53:
        raise NistabError(f"T_end / dt = {T_end / dt:.3g} samples is 2**53 or more")
    A_cl, B_cl, C_cl = _reference_wiring(G, Gbar, wiring)
    n = A_cl.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = A_cl * dt
    aug[:n, n:] = B_cl * dt
    E = scipy.linalg.expm(aug)

    q = T_end / dt
    k = round(q)
    steps = (k if abs(q - k) <= 4 * np.spacing(k) else int(np.ceil(q))) + 1
    y = np.empty((steps, G.m))
    diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        # powers[j] = E^(2^j): the window doubles with all but the last and
        # slides by the last; none is formed past the width the run needs
        powers = [E]
        while 2 ** (len(powers) - 1) < steps and 2 ** len(powers) <= WINDOW:
            square = powers[-1] @ powers[-1]
            # past an overflow, inf * 0 = NaN would reach states r never drives
            if not np.all(np.isfinite(square)):
                break
            powers.append(square)
        window = block = np.zeros((n + 1, 1))
        window[n] = r
        done = 0
        while True:
            x = block[:n, : steps - done]
            y[done:done + x.shape[1]] = (C_cl @ x).T
            bad = ~np.all(np.isfinite(x), axis=0) | (
                np.linalg.norm(x, axis=0) > DIVERGENCE_LIMIT)
            if bad.any():
                diverged = True
                steps = done + int(np.argmax(bad)) + 1
                break
            done += x.shape[1]
            if done == steps:
                break
            h = window.shape[1]
            if h < 2 ** (len(powers) - 1):
                block = powers[h.bit_length() - 1] @ window
                window = np.hstack([window, block])
            else:
                block = window = powers[-1] @ window
    y = y[:steps]
    t = np.arange(steps) * dt
    theta = y[:, 0]
    vs = y[:, 1] if G.m > 1 else np.zeros_like(theta)
    return SimulationResult(
        t=t, theta=theta, Vs=vs, y=y, diverged=diverged,
        config={"wiring": wiring, "dt": dt, "T_end": T_end, "r": r},
    )


# --------------------------------------------------------------------------
# whole-pipeline analysis
# --------------------------------------------------------------------------


@dataclass
class AnalysisReport:
    ni_report: object
    sni_report: object
    laurent: object
    verdict: object
    oracle_hurwitz: bool | None
    tolerances: dict
    version: str = __version__
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        lau = None
        if self.laurent is not None:
            lau = {
                "G0": np.asarray(self.laurent.G0).tolist(),
                "G1": np.asarray(self.laurent.G1).tolist(),
                "G2": np.asarray(self.laurent.G2).tolist(),
                "cross_check_disagreement": self.laurent.agreement,
            }
        return {
            "schema_version": self.schema_version,
            "tool_version": self.version,
            "ni_report": None if self.ni_report is None else self.ni_report.to_dict(),
            "sni_report": None if self.sni_report is None else self.sni_report.to_dict(),
            "laurent": lau,
            "verdict": self.verdict.to_dict(),
            "oracle_hurwitz": self.oracle_hurwitz,
            "tolerances": self.tolerances,
        }


def load_model(source) -> StateSpaceModel:
    """Model from a dict, JSON text, or path; accepts the "irc" wrapper."""
    if isinstance(source, StateSpaceModel):
        return source
    if isinstance(source, str):
        text = source
        if not source.lstrip().startswith("{"):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        source = json.loads(text)
    if not isinstance(source, dict):
        raise NistabError("model source must be a dict, JSON text, or file path")
    if "irc" in source:
        irc = source["irc"]
        keys = ("Gamma", "Phi", "Delta")
        if not isinstance(irc, dict) or not all(k in irc for k in keys):
            raise NistabError('"irc" must be an object with keys Gamma, Phi and Delta')
        return make_irc(*(_matrix_from_json(irc[k], k) for k in keys)).realization
    return model_from_dict(source)


def run_analysis(plant_source, controller_source,
                 band: float = BOUNDARY_BAND) -> AnalysisReport:
    """Decide stability once and report everything the decision computed.

    ``band`` is the verdict's boundary band (the CLI's ``--tol``).  The NI
    and SNI classification and the eigenvalue oracle always run.
    The verdict reads no Laurent data for a plant without origin poles or a
    controller that is not SNI; for a strictly proper NI plant the report
    extracts them anyway, from the verdict's spectral record of the plant.
    A plant whose classification cannot run (not minimal) is reported with
    ``ni_report`` None and an INCONCLUSIVE verdict.
    """
    G = _spectral(load_model(plant_source))
    Gbar = load_model(controller_source)
    verdict = stability_verdict(G, Gbar, VerdictOptions(boundary_band=band, run_oracle=True))
    laurent = verdict.laurent
    if laurent is None and verdict.ni is not None and verdict.ni.is_ni \
            and G.strictly_proper():
        try:
            laurent = laurent_coefficients(G)
        except NistabError:
            pass
    return AnalysisReport(
        ni_report=verdict.ni, sni_report=verdict.sni, laurent=laurent,
        verdict=verdict, oracle_hurwitz=verdict.oracle_hurwitz,
        tolerances={
            "boundary_band": band,
            "zero_coeff_rtol": ZERO_COEFF_RTOL,
            "hurwitz_margin": HURWITZ_MARGIN,
        },
    )


# --------------------------------------------------------------------------
# command line interface
# --------------------------------------------------------------------------

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_PRECONDITION = 3


def _emit(obj: dict, args) -> None:
    if args.json:
        print(json.dumps(obj, indent=2))
    else:
        for key, val in obj.items():
            print(f"{key}: {val}")


def _matrix_str(M) -> str:
    return np.array2string(np.asarray(M), precision=6, suppress_small=True)


def _cmd_classify(args) -> int:
    model = load_model(args.model)
    ni = classify_ni(model)
    sni = classify_sni(model)
    if args.json:
        print(json.dumps({"ni": ni.to_dict(), "sni": sni.to_dict()}, indent=2))
    else:
        print(f"negative imaginary: {ni.is_ni}")
        for r in ni.reasons:
            print(f"  - {r}")
        print(f"strictly negative imaginary: {sni.is_sni}")
        for r in sni.reasons:
            print(f"  - {r}")
    return EXIT_OK


def _cmd_laurent(args) -> int:
    model = load_model(args.model)
    L = laurent_coefficients(model)
    if args.json:
        print(json.dumps({
            "G0": L.G0.tolist(), "G1": L.G1.tolist(), "G2": L.G2.tolist(),
            "cross_check_disagreement": L.agreement,
        }, indent=2))
    else:
        print("G2 =", _matrix_str(L.G2))
        print("G1 =", _matrix_str(L.G1))
        print("G0 =", _matrix_str(L.G0))
        print(f"route disagreement: {L.agreement:.2e}")
    return EXIT_OK


def _cmd_stability(args) -> int:
    if args.tol is not None and not args.tol >= 0.0:
        raise NistabError(f"--tol must be a nonnegative band, got {args.tol}")
    band = BOUNDARY_BAND if args.tol is None else args.tol
    report = run_analysis(args.plant, args.controller, band)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        v = report.verdict
        print(f"outcome: {v.outcome.value}")
        print(f"theorem: {v.theorem_used.value} (branch {v.branch.value})")
        for k, val in v.condition_values.items():
            print(f"  {k} = {val:.6g}")
        if v.reason:
            print(f"reason: {v.reason}")
        print(f"oracle (closed loop Hurwitz): {report.oracle_hurwitz}")
    if report.verdict.outcome is Outcome.PRECONDITION_FAILED:
        return EXIT_PRECONDITION
    return EXIT_OK


def _cmd_verify(args) -> int:
    """Every trial pair is NI/SNI by construction, so a decisive verdict that
    the oracle contradicts and a PRECONDITION_FAILED trial are both failures."""
    if args.count < 1:
        raise NistabError(f"--count must be at least 1, got {args.count}")
    if args.seed < 0:
        raise NistabError(f"--seed must be nonnegative, got {args.seed}")
    rep = montecarlo_agreement(args.count, seed=args.seed)
    _emit(rep.to_dict(), args)
    if rep.disagreements or rep.precondition_failed:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _beam_params(args) -> BeamParameters:
    if args.params:
        with open(args.params, "r", encoding="utf-8") as fh:
            return BeamParameters.from_dict(json.load(fh))
    return BeamParameters()


def _cmd_beam(args) -> int:
    p = _beam_params(args)
    if args.beam_cmd == "modes":
        roots = find_modal_roots(p, args.count)
        rows = []
        for w in roots:
            K = modal_residue(p, float(w))
            rows.append((float(w), float(np.linalg.eigvalsh(K)[0])))
        if args.csv:
            print("omega,min_residue_eig")
            for w, me in rows:
                print(f"{w:.9f},{me:.6e}")
        else:
            _emit({f"root_{i + 1}": f"{w:.9f} (min residue eig {me:.3e})"
                   for i, (w, me) in enumerate(rows)}, args)
    elif args.beam_cmd == "approx":
        mm = finite_dim_approx(p, args.modes)
        obj = {
            "poles": [0.0] + [t[0] for t in mm.terms],
            "C0": np.asarray(mm.g2).tolist(),
            "coefficients": [np.asarray(t[1]).tolist() for t in mm.terms],
            "meta": mm.meta,
        }
        print(json.dumps(obj, indent=2))
    elif args.beam_cmd == "scan":
        if args.points < 1 or not 0.0 < args.wmin < args.wmax < np.inf:
            raise NistabError("scan needs --points >= 1 and 0 < --wmin < --wmax < inf, got "
                              f"{args.points} points on [{args.wmin}, {args.wmax}]")
        if not np.isfinite(args.gamma):
            raise NistabError(f"scan needs a finite --gamma, got {args.gamma}")
        grid = np.geomspace(args.wmin, args.wmax, args.points)
        table = emit_residue_scan(p, args.gamma, grid)
        print("omega,value")
        for w, v in table:
            print(f"{w:.9g},{v:.9e}")
    else:  # pragma: no cover - argparse enforces choices
        raise NistabError(f"unknown beam subcommand {args.beam_cmd!r}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    G = load_model(args.plant)
    Gbar = load_model(args.controller)
    res = step_response(G, Gbar, wiring=args.wiring, T_end=args.tend,
                        dt=args.dt, r=args.r)
    print("t,theta,Vs")
    for i in range(len(res.t)):
        print(f"{res.t[i]:.9g},{res.theta[i]:.9e},{res.Vs[i]:.9e}")
    if res.diverged:
        print("# trajectory divergent", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nistab",
        description="Stability analysis of negative-imaginary systems with free body dynamics",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("classify", help="NI/SNI classification of one model")
    c.add_argument("model", help="model JSON file (or inline JSON)")
    c.set_defaults(func=_cmd_classify)

    c = sub.add_parser("laurent", help="Laurent coefficients about s = 0")
    c.add_argument("model")
    c.set_defaults(func=_cmd_laurent)

    c = sub.add_parser("stability", help="stability verdict for a plant/controller pair")
    c.add_argument("plant")
    c.add_argument("controller")
    c.set_defaults(func=_cmd_stability)

    c = sub.add_parser("verify", help="Monte-Carlo agreement against the eigenvalue oracle")
    c.add_argument("--count", type=int, default=200)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_verify)

    c = sub.add_parser("beam", help="flexible-arm benchmark computations")
    bsub = c.add_subparsers(dest="beam_cmd", required=True)
    b = bsub.add_parser("modes", help="modal roots and residue eigenvalues")
    b.add_argument("--count", type=int, default=5)
    b.add_argument("--params", default=None, help="beam parameter JSON file")
    b.set_defaults(func=_cmd_beam)
    b = bsub.add_parser("approx", help="finite-dimensional modal approximation")
    b.add_argument("--modes", type=int, default=1)
    b.add_argument("--params", default=None)
    b.set_defaults(func=_cmd_beam)
    b = bsub.add_parser("scan", help="residue positivity scan table (CSV)")
    b.add_argument("--gamma", type=float, default=10.0)
    b.add_argument("--wmin", type=float, default=0.1)
    b.add_argument("--wmax", type=float, default=260.0)
    b.add_argument("--points", type=int, default=400)
    b.add_argument("--params", default=None)
    b.set_defaults(func=_cmd_beam)

    c = sub.add_parser("simulate", help="closed-loop reference step response (CSV)")
    c.add_argument("plant")
    c.add_argument("controller")
    c.add_argument("--tend", type=float, default=10.0)
    c.add_argument("--dt", type=float, default=1e-3)
    c.add_argument("--r", type=float, default=1.0)
    c.add_argument("--wiring", choices=WIRINGS, default="additive")
    c.set_defaults(func=_cmd_simulate)

    # each output flag is declared on the subcommands that read it, and only there
    flags = {"--json": dict(action="store_true", help="machine-readable output"),
             "--csv": dict(action="store_true", help="CSV output for tables"),
             "--tol": dict(type=float, help="override the boundary tolerance band")}
    cmds, json_only = sub.choices, ("--json",)
    for parser, names in ((cmds["classify"], json_only), (cmds["laurent"], json_only),
                          (cmds["stability"], ("--json", "--tol")), (cmds["verify"], json_only),
                          (bsub.choices["modes"], ("--json", "--csv"))):
        for name in names:
            parser.add_argument(name, **flags[name])
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NistabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
