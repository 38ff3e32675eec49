"""The benchmark workloads: inputs built from a seed, one timed pass each, and
the expected outputs every pass is checked against.

Each timing the benchmark gates on has a workload of its own, so a pass times
exactly one stage: ``modal_ladder.n24``, ``.n54`` and ``.n104`` analyse one
rung of the seeded modal ladder, ``mc_verify`` makes one Monte-Carlo call,
and ``flex_arm.model``, ``.analysis`` and ``.simulate`` run one stage of the
flexible-arm case study.

A workload is a ``Workload`` with a ``setup(seed, smoke)`` that builds the
inputs and makes the warm-up calls, and a ``run_pass(state, k, p)`` that makes
the workload's public-API calls once (k numbers the pass) through the ``Pass``
p.  ``Pass.call`` times and checks each call; an exception or a wrong output
marks that call failed and the pass carries on.

Only the public ``nistab`` API is used, always through attribute access on
the package (``ns.run_analysis``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

import nistab as ns

#: (outcome, theorem, branch) every modal-ladder analysis must return: the
#: plants carry a full-rank PSD G2 and the IRC's Gbar(0) is negative definite
EXPECT_LADDER = ("stable", "full_rank_free_body", "invertible")

#: (outcome, theorem, branch) every flexible-arm analysis must return: the
#: arm's rigid coefficient lim s^2 G(s) has rank one
EXPECT_ARM = ("stable", "double_pole", "nsd")

#: modes per ladder rung; each rung has n = 2 * modes + 4 states
LADDER_MODES = (10, 25, 50)
SMOKE_LADDER_MODES = (1,)

#: input index of the warm-up calls, never used by a timed pass
WARMUP_INDEX = 2 ** 32 - 1

#: trials per montecarlo_agreement call; the trials cycle through the eight
#: dispatch families, so the warm-up call of eight trials visits each once.
#: The cost of a trial set varies with the seed's plant sizes; 200 trials
#: average that out (40 left an IQR of 7.5% over ten seeds' cost)
MC_COUNT = 200
SMOKE_MC_COUNT = 8
MC_WARMUP = 8

ARM_ROOTS = 11
ARM_APPROX_MODES = (2, 5, 10)
ARM_SCAN = dict(gamma=10.0, wmin=0.1, wmax=260.0, points=400)
ARM_STEP = dict(T_end=10.0, dt=1e-3)
SMOKE_ARM = dict(roots=1, approx=(1,), points=20, T_end=0.1)


def paper_irc():
    """The integral resonant controller of the flexible-arm case study.

    A copy of the ``paper_irc`` fixture in tests/conftest.py; keep the two equal.
    """
    return ns.make_irc([[35.0, 15.0], [15.0, 20.0]],
                       [[0.745, 0.521], [0.521, 1.021]],
                       [[4.29, 0.0], [0.0, 2.22]])


def ladder_plant(rng: np.random.Generator, modes: int):
    """Seeded lossless modal plant with m = 2 and n = 2 * modes + 4 states.

    Recipe, in draw order from ``rng``:
      1. frequencies: ``sort(rng.uniform(0.5, 50.0, modes)) + 0.25 * arange(modes)``
         (the shift keeps them distinct, at least 0.25 rad/s apart);
      2. per mode, ascending: ``v = rng.normal(size=2)``, coefficient ``v v'``
         (rank-one PSD);
      3. ``W = rng.normal(size=(2, 2))``, ``G2 = W W' + 0.1 I`` (full-rank PSD).
    The realization is ``modal_to_ss`` of that ``ModalModel``.
    """
    freqs = np.sort(rng.uniform(0.5, 50.0, modes)) + 0.25 * np.arange(modes)
    terms = []
    for w in freqs:
        v = rng.normal(size=2)
        terms.append((w, np.outer(v, v)))
    W = rng.normal(size=(2, 2))
    g2 = W @ W.T + 0.1 * np.eye(2)
    return ns.modal_to_ss(ns.ModalModel(m=2, terms=tuple(terms), g2=g2))


def ladder(seed: int, modes=LADDER_MODES):
    """The seeded ladder: one plant per rung, drawn in rung order from
    ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return [ladder_plant(rng, n) for n in modes]


def warmup_seed(seed: int) -> int:
    """Seed of the warm-up montecarlo_agreement call, apart from the timed one."""
    return int(np.random.SeedSequence([seed, WARMUP_INDEX]).generate_state(1)[0])


# --------------------------------------------------------------------------
# timed, checked calls
# --------------------------------------------------------------------------

#: duration of ``reference_seconds`` at the nominal machine speed; times are
#: reported at that speed (see ``scale_to_nominal``)
REF_NOMINAL_S = 0.007

_ref_rng = np.random.default_rng(20130507)
_REF_C = _ref_rng.normal(size=(40, 40)) + 1j * _ref_rng.normal(size=(40, 40))
_REF_R = _ref_rng.normal(size=(40, 40))
_REF_P = 0.5 * _ref_rng.normal(size=(2, 2))
_REF_BIG_C = _ref_rng.normal(size=(104, 104)) + 1j * _ref_rng.normal(size=(104, 104))
_REF_BIG_R = _ref_rng.normal(size=(104, 104))


def reference_seconds(repeats: int = 5) -> float:
    """Mean time of ``repeats`` runs of a fixed kernel that mixes small and
    104-dimensional LAPACK calls with an interpreter-bound loop, as the
    workloads do (104 is the largest ladder rung).

    The mean, not the minimum: the host's speed flips between states within
    milliseconds, and the scaled times track the mean speed better.
    """
    t0 = time.perf_counter()
    for _ in range(repeats):
        np.linalg.svd(_REF_C, compute_uv=False)
        np.linalg.solve(_REF_C, _REF_C[:, :2])
        np.linalg.eigvals(_REF_R)
        x = np.ones((2, 1))
        for _ in range(200):
            x = _REF_P @ x
        np.linalg.svd(_REF_BIG_C, compute_uv=False)
        np.linalg.solve(_REF_BIG_C, _REF_BIG_C[:, :2])
        np.linalg.eigvals(_REF_BIG_R)
    return (time.perf_counter() - t0) / repeats


def scale_to_nominal(ref_times) -> float:
    """Factor from wall time to time at the nominal machine speed: REF_NOMINAL_S
    over the mean of reference-kernel times taken around and during a timed
    stretch."""
    return REF_NOMINAL_S * len(ref_times) / sum(ref_times)


#: seconds between two samples of the machine's speed while passes run
SAMPLE_PERIOD_S = 0.1


class SpeedSampler:
    """Times one run of the reference kernel every SAMPLE_PERIOD_S seconds,
    from a SIGALRM handler, while it is entered.

    The host's speed drifts by tens of percent within a second when other
    tenants load it (half-second stretches of the kernel alone vary by 13% on a
    2-vCPU shared VM), so a kernel timed only before and after a 2.5 s pass
    misses most of what the pass met.  Samples taken all through the pass
    track it: scaled by them, the 104-state analysis varied by 2.5% from pass
    to pass instead of 12%.

    The handler's own time is no call's time: ``paused(t0, t1)`` gives how much
    of [t0, t1] it took, and ``Pass.call`` and the tracer take that out.
    """

    def __init__(self):
        self.starts, self.ref_times, self.done = [], [], [0.0]
        self._busy = False
        self._handler = None

    def sample(self, *_):
        if self._busy:  # a tick that lands while a sample still runs is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_seconds(1)
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.ref_times.append(dt)
        self.done.append(self.done[-1] + dt)
        self._busy = False

    def __enter__(self):
        self.starts, self.ref_times, self.done = [], [], [0.0]
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()

    def paused(self, t0: float, t1: float) -> float:
        """Time the samples took within [t0, t1]; a sample runs inside the
        interrupted code, so it lies wholly inside or outside any interval
        that code measures."""
        return self.done[bisect_left(self.starts, t1)] - self.done[bisect_left(self.starts, t0)]

    def around(self, t0: float, t1: float) -> list:
        """Reference times of the samples during [t0, t1], the last one before
        it and the first one after it."""
        lo = max(bisect_left(self.starts, t0) - 1, 0)
        return self.ref_times[lo:bisect_left(self.starts, t1) + 1]


SAMPLER = SpeedSampler()


@dataclass
class Pass:
    """Stage times, operation counts and failures of one pass.

    ``span(name)`` opens a trace span around each call (no-op when untraced).
    ``wall`` holds the wall time of each stage, less the speed samples taken
    during it.
    ``failed`` counts failed operations and ``failures`` describes them;
    ``failed_ops`` maps each description to its count, so that a run can tell
    one operation failing on every pass from distinct ones; ``wrong`` is set
    when an output fails the correctness check.
    """

    span: Callable = nullcontext
    wall: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: bool = False
    failures: list = field(default_factory=list)
    failed_ops: dict = field(default_factory=dict)
    tallies: dict = field(default_factory=dict)

    def call(self, stage: str, label: str, fn: Callable, *args,
             check: Callable | None = None, ops: int = 1, **kwargs):
        """Time ``fn(*args, **kwargs)`` into ``stage`` and check its output.

        The call counts as ``ops`` operations, all failed when it raises.
        ``check(out)`` returns None when the output is right, else a reason
        (one failed operation).
        """
        self.attempted += ops
        t0 = time.perf_counter()
        try:
            with self.span(f"bench.{stage}"):
                out = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            out, problem = None, f"raised {type(exc).__name__}: {exc}"
        else:
            problem = None
        t1 = time.perf_counter()
        self.wall[stage] = self.wall.get(stage, 0.0) + t1 - t0 - SAMPLER.paused(t0, t1)
        if problem is not None:
            self.fail(label, problem, ops)
        elif check is not None and (problem := check(out)) is not None:
            self.fail(label, problem)
        return out

    def fail(self, label: str, problem: str, ops: int = 1, wrong: bool = True) -> None:
        """Record ``ops`` failed operations; ``wrong`` when an output is incorrect."""
        self.failed += ops
        self.wrong |= wrong
        self.failures.append(f"{label}: {problem}")
        self.failed_ops[self.failures[-1]] = self.failed_ops.get(self.failures[-1], 0) + ops

    def tally(self, key: str, value: int) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + int(value)


def verdict_check(expected):
    """Check of an AnalysisReport: expected verdict, confirmed by the oracle."""
    def check(report):
        v = report.verdict
        got = (v.outcome.value, v.theorem_used.value, v.branch.value)
        if got != tuple(expected):
            return f"verdict {got}, expected {tuple(expected)} ({v.reason})"
        if v.oracle_agrees is not True:
            return f"oracle_agrees is {v.oracle_agrees}"
        return None
    return check


# --------------------------------------------------------------------------
# modal_ladder.n24, .n54, .n104: one rung of the ladder each
# --------------------------------------------------------------------------


def ladder_setup(rung: int, seed: int, smoke: bool) -> dict:
    modes = SMOKE_LADDER_MODES if smoke else LADDER_MODES
    plant = ladder(seed, modes)[min(rung, len(modes) - 1)]
    ctrl = paper_irc().realization
    warm = ladder_plant(np.random.default_rng([seed, WARMUP_INDEX]), 1)
    ns.run_analysis(warm, ctrl)
    return {"plant": plant, "ctrl": ctrl}


def ladder_pass(state: dict, k: int, p: Pass) -> None:
    G = state["plant"]
    p.call(f"analysis_n{G.n}_s", f"run_analysis n={G.n}", ns.run_analysis, G,
           state["ctrl"], check=verdict_check(EXPECT_LADDER))


# --------------------------------------------------------------------------
# mc_verify
# --------------------------------------------------------------------------


def mc_setup(seed: int, smoke: bool) -> dict:
    count = SMOKE_MC_COUNT if smoke else MC_COUNT
    ns.montecarlo_agreement(MC_WARMUP, seed=warmup_seed(seed))
    return {"seed": seed, "count": count}


def mc_check(rep):
    if rep.disagreements:
        return f"{len(rep.disagreements)} disagreement(s): {rep.disagreements[:3]}"
    if rep.agreement_fraction != 1.0:
        return f"agreement_fraction {rep.agreement_fraction}"
    return None


def mc_pass(state: dict, k: int, p: Pass) -> None:
    """One montecarlo_agreement call; each of its trials is one operation.

    Every pass makes the same call, ``montecarlo_agreement(count, seed)``, so
    the passes differ only in timing and a run's outcomes depend on the seed
    alone, not on how many passes fit in the run.

    A disagreement fails the correctness check.  A PRECONDITION_FAILED trial
    is a failed operation too, since every plant and controller the library
    draws is NI/SNI by construction, but its verdict is not a wrong decision,
    so it does not make the run incorrect.
    """
    count, seed = state["count"], state["seed"]
    label = f"montecarlo_agreement seed={seed}"
    rep = p.call("verify_s", label, ns.montecarlo_agreement, count, seed=seed,
                 ops=count)
    p.tally("trials", count)
    if rep is None:
        return
    problem = mc_check(rep)
    if problem is not None:
        p.fail(label, problem, ops=max(1, len(rep.disagreements)))
    if rep.precondition_failed:
        p.fail(label, f"{rep.precondition_failed} PRECONDITION_FAILED trial(s) "
               "on NI/SNI pairs", ops=rep.precondition_failed, wrong=False)
    for key in ("applicable", "boundary", "inconclusive", "precondition_failed"):
        p.tally(key, getattr(rep, key))


# --------------------------------------------------------------------------
# flex_arm.model, .analysis, .simulate: one stage of the case study each
# --------------------------------------------------------------------------


def arm_setup(seed: int, smoke: bool) -> dict:
    """The case study has no random input: every seed gives the same arm.

    Every stage's inputs are built, and each stage is called once on a
    1-mode arm as warm-up (this also makes the lazy scipy.optimize import).
    """
    params = ns.BeamParameters()
    ctrl = paper_irc().realization
    arm1 = ns.modal_to_ss(ns.finite_dim_approx(params, 1))
    ns.run_analysis(arm1, ctrl)
    ns.step_response(arm1, ctrl, T_end=0.01, dt=ARM_STEP["dt"])
    ns.emit_residue_scan(params, ARM_SCAN["gamma"], np.array([1.0]))
    approx = SMOKE_ARM["approx"] if smoke else ARM_APPROX_MODES
    points = SMOKE_ARM["points"] if smoke else ARM_SCAN["points"]
    return {
        "params": params, "ctrl": ctrl, "arm1": arm1, "approx": approx,
        "plants": [ns.modal_to_ss(ns.finite_dim_approx(params, n)) for n in approx],
        "roots": SMOKE_ARM["roots"] if smoke else ARM_ROOTS,
        "omegas": np.linspace(ARM_SCAN["wmin"], ARM_SCAN["wmax"], points),
        "T_end": SMOKE_ARM["T_end"] if smoke else ARM_STEP["T_end"],
    }


def roots_check(count):
    def check(roots):
        if len(roots) != count or not np.all(np.diff(roots) > 0) or roots[0] <= 0:
            return f"expected {count} ascending positive roots, got {roots}"
        return None
    return check


def residue_check(K):
    eig = np.linalg.eigvalsh(K)
    if eig[0] < -1e-9 * max(abs(eig[-1]), 1e-300):
        return f"residue is not PSD: eigenvalues {eig}"
    return None


def scan_check(points):
    def check(table):
        if len(table) != points:
            return f"scan has {len(table)} rows, expected {points}"
        low = min(v for _, v in table)
        return None if low > 0.0 else f"residue positivity scan reaches {low}"
    return check


def step_check(steps):
    def check(res):
        if res.diverged or len(res.t) != steps or not np.all(np.isfinite(res.y)):
            return f"step response diverged or is short ({len(res.t)} of {steps} samples)"
        return None
    return check


def arm_model_pass(state: dict, k: int, p: Pass) -> None:
    """Roots, residues, finite-dimensional approximations and residue scan."""
    params, stage = state["params"], "arm_model_s"
    roots = p.call(stage, "find_modal_roots", ns.find_modal_roots, params,
                   state["roots"], check=roots_check(state["roots"]))
    for w in [] if roots is None else roots:
        p.call(stage, f"modal_residue {w:.4f}", ns.modal_residue, params, float(w),
               check=residue_check)
    for modes in state["approx"]:
        mm = p.call(stage, f"finite_dim_approx {modes}", ns.finite_dim_approx,
                    params, modes)
        if mm is not None:
            p.call(stage, f"modal_to_ss {modes}", ns.modal_to_ss, mm)
    omegas = state["omegas"]
    p.call(stage, "emit_residue_scan", ns.emit_residue_scan, params,
           ARM_SCAN["gamma"], omegas, check=scan_check(len(omegas)))


def arm_analysis_pass(state: dict, k: int, p: Pass) -> None:
    """run_analysis of each finite-dimensional approximation."""
    check = verdict_check(EXPECT_ARM)
    for G in state["plants"]:
        p.call("arm_analysis_s", f"run_analysis n={G.n}", ns.run_analysis, G,
               state["ctrl"], check=check)


def arm_simulate_pass(state: dict, k: int, p: Pass) -> None:
    """Step response of the 1-mode arm loop."""
    steps = int(np.ceil(state["T_end"] / ARM_STEP["dt"])) + 1
    p.call("arm_simulate_s", "step_response", ns.step_response, state["arm1"],
           state["ctrl"], T_end=state["T_end"], dt=ARM_STEP["dt"],
           check=step_check(steps))


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run_pass: Callable


WORKLOADS = {
    **{f"modal_ladder.n{2 * modes + 4}": Workload(partial(ladder_setup, rung), ladder_pass)
       for rung, modes in enumerate(LADDER_MODES)},
    "mc_verify": Workload(mc_setup, mc_pass),
    "flex_arm.model": Workload(arm_setup, arm_model_pass),
    "flex_arm.analysis": Workload(arm_setup, arm_analysis_pass),
    "flex_arm.simulate": Workload(arm_setup, arm_simulate_pass),
}
