"""Write the identity set of verdicts, one JSON record per line, in a fixed order.

    python tools/identity_set.py OUT.json

Two checkouts whose outputs are byte-identical (``cmp``) give the same
verdicts, reports and condition-2 sweep profiles on the set (ROADMAP.md,
"The identity set for verdict comparisons"):

- Monte-Carlo seeds 0-5, 200 trials each, drawn as ``montecarlo_agreement``
  draws them, each pair under the five option sets of ``OPTION_SETS`` through
  ``stability_verdict``;
- the modal ladder rungs of seeds 1-3 at 10, 25, 50 and 100 modes and the
  flexible arm at 1, 2, 5 and 10 modes, each with the paper IRC through
  ``run_analysis``.

A record holds the verdict's ``to_dict()``, the NI and SNI reports'
``to_dict()`` and both sweep profiles (``cond2_min_eig_by_freq``); a report
that was not made is null.  The code under test is the ``src/`` beside this
script, so a copy of the script in another checkout tests that checkout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import nistab as ns  # noqa: E402
from nistab import freebody  # noqa: E402
from workloads import ladder, paper_irc  # noqa: E402

MC_SEEDS = range(6)
MC_TRIALS = 200
OPTION_SETS = (
    dict(run_oracle=True),
    dict(skip_ni_check=True, run_oracle=True),
    dict(boundary_band=1e-3, run_oracle=True),
    dict(boundary_band=0.0),
    dict(boundary_band=0.5, skip_ni_check=True),
)
LADDER_SEEDS = (1, 2, 3)
LADDER_MODES = (10, 25, 50, 100)
ARM_MODES = (1, 2, 5, 10)


def record(case: str, verdict, ni, sni) -> dict:
    return {
        "case": case,
        "verdict": verdict.to_dict(),
        "ni": None if ni is None else ni.to_dict(),
        "sni": None if sni is None else sni.to_dict(),
        "ni_profile": None if ni is None else ni.cond2_min_eig_by_freq,
        "sni_profile": None if sni is None else sni.cond2_min_eig_by_freq,
    }


def records():
    for seed in MC_SEEDS:
        rng = np.random.default_rng(seed)
        for trial in range(MC_TRIALS):
            trial_rng = np.random.default_rng(rng.integers(0, 2 ** 63))
            family = freebody._FAMILIES[trial % len(freebody._FAMILIES)]
            spec, _ = freebody._draw_minimal_plant(trial_rng, family)
            ctrl = freebody.random_sni_controller(trial_rng, spec.m).realization
            for k, opts in enumerate(OPTION_SETS):
                # a new model per verdict: no spectral data carries over between option sets
                plant = ns.StateSpaceModel(spec.A, spec.B, spec.C, spec.D)
                v = ns.stability_verdict(plant, ctrl, ns.VerdictOptions(**opts))
                yield record(f"mc seed {seed} trial {trial} options {k}", v, v.ni, v.sni)
    irc = paper_irc().realization
    plants = [(f"ladder seed {seed} modes {modes}", plant) for seed in LADDER_SEEDS
              for modes, plant in zip(LADDER_MODES, ladder(seed, LADDER_MODES))]
    params = ns.BeamParameters()
    plants += [(f"arm modes {modes}", ns.modal_to_ss(ns.finite_dim_approx(params, modes)))
               for modes in ARM_MODES]
    for case, plant in plants:
        rep = ns.run_analysis(plant, irc)
        yield record(case, rep.verdict, rep.ni_report, rep.sni_report)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/identity_set.py OUT.json", file=sys.stderr)
        return 2
    with open(argv[0], "w", encoding="utf-8") as out:
        for rec in records():
            out.write(json.dumps(rec, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
