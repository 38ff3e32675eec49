"""End-to-end and per-layer benchmark of nistab.

    python3 bench/run.py --workload modal_ladder.n104 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory, and the run stops with an error when that is missing.  One process
makes one public-API call after another (a closed loop with one caller) on
inputs built from ``--seed``, for ``--seconds`` seconds, with the BLAS and
OpenMP thread counts pinned to 1.  Every output is checked.

Standard output ends with two lines: a ``{"report": ...}`` object with the
environment, every timing of the workload (median, sample count), the error
rate and the failures; then the result object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every pass repeats the same
operations on the same inputs, so ``attempted`` counts the operations of one
pass and ``failed`` those that failed on any pass; both depend on the seed
alone.  ``correct`` is false when an output fails the correctness check or a
call raises (see ``workloads.Pass``).  With ``--trace 0`` the metrics are
the ``end_to_end`` ones of BENCHMARK.json; with ``--trace 1`` every pass is
run twice, untraced then traced, and the metrics are the ``per_layer`` ones
(medians over traced passes) plus the tracing overhead.  Spans are written to
``.bench_out/spans-<workload>.json`` when a traced run ends.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# numpy reads these once, when it is first imported (here or in a child)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: set-up is timed this many times per untraced run, each in a fresh child
#: process, and reported as the median
SETUP_REPEATS = 5


def parse_args(spec, argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one set-up sample, for the benchmark's tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def use_checkout_sources():
    """Import nistab from this checkout's src, never from elsewhere."""
    if not (SRC / "nistab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package sources at {SRC / 'nistab'}")
    sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int, smoke: bool):
    """Import the package, build the inputs and make the warm-up calls."""
    t0 = time.perf_counter()
    import workloads
    state = workloads.WORKLOADS[workload].setup(seed, smoke)
    return time.perf_counter() - t0, state


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter, at the nominal machine speed
    (see ``workloads.scale_to_nominal``)."""
    from workloads import reference_seconds, scale_to_nominal

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    before = reference_seconds()
    out = subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    after = reference_seconds()
    elapsed = float(out.stdout.strip().splitlines()[-1])
    return elapsed * scale_to_nominal([before, after])


def run_pass(wl, state, k: int, tracer):
    """One pass of the workload, traced when ``tracer`` is given.

    The record holds wall times; ``scale_pass`` adds the times at the nominal
    machine speed once the run's speed samples are all taken.
    """
    from workloads import Pass

    p = Pass(span=tracer.span if tracer else nullcontext)
    if tracer:
        tracer.install()
        lo = len(tracer.spans)
    t0 = time.perf_counter()
    try:
        with tracer.span("bench.pass") if tracer else nullcontext():
            wl.run_pass(state, k, p)
    finally:
        if tracer:
            tracer.uninstall()
    rec = {"traced": bool(tracer), "window": (t0, time.perf_counter()),
           "pass_wall_s": sum(p.wall.values()), "wall": p.wall,
           "attempted": p.attempted, "failed_ops": p.failed_ops, "wrong": p.wrong,
           "failures": p.failures, "tallies": p.tallies}
    if tracer:
        rec["span_range"] = (lo, len(tracer.spans))
    return rec


def scale_pass(rec: dict, sampler, tracer) -> None:
    """Add to a pass record its stage times and layer self times at the
    nominal machine speed, from the speed samples around and during it."""
    from workloads import scale_to_nominal

    scale = scale_to_nominal(sampler.around(*rec["window"]))
    rec["stages"] = {stage: wall * scale for stage, wall in rec["wall"].items()}
    rec["pass_s"] = sum(rec["stages"].values())
    if rec["traced"]:
        rec["layers"], rec["stage_layers"] = tracer.summarize(
            *rec["span_range"], scale, sampler.paused)


def timing(values, unit="s") -> dict:
    return {"value": statistics.median(values), "unit": unit, "samples": len(values)}


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed, "git_sha": git_sha(),
    }


def summarize(args, spec, passes, setup_samples) -> tuple[dict, dict]:
    """The report and the result object of a run."""
    plain = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    # every pass makes the same operations on the same inputs, so a run
    # attempts one pass's operations, and one fails when it fails on any pass;
    # both counts then depend on the seed, not on how many passes fit the run
    attempted = max(r["attempted"] for r in passes)
    failed_ops = {}
    for r in passes:
        for desc, ops in r["failed_ops"].items():
            failed_ops[desc] = max(failed_ops.get(desc, 0), ops)
    failed = sum(failed_ops.values())
    tallies = {}
    for r in passes:
        for key, val in r["tallies"].items():
            tallies[key] = tallies.get(key, 0) + val

    timings = {"pass_s": timing([r["pass_s"] for r in plain])}
    wall = {"pass_s": timing([r["pass_wall_s"] for r in plain])}
    if setup_samples:
        timings["setup_s"] = timing(setup_samples)
    for stage in plain[0]["stages"]:
        timings[stage] = timing([r["stages"][stage] for r in plain])
        wall[stage] = timing([r["wall"][stage] for r in plain])
    if "verify_s" in timings:
        per_pass = passes[0]["tallies"]["trials"]
        timings["verify_trials_per_s"] = timing(
            [per_pass / r["stages"]["verify_s"] for r in plain], "1/s")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": environment(args.seed),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "timings": timings, "wall_timings": wall,
        "error_rate": {"value": failed / attempted, "unit": "ratio",
                       "failed": failed, "attempted": attempted},
        "calls_made": sum(r["attempted"] for r in passes),
        "failures": list(failed_ops)[:20], "tallies": tallies,
    }
    if traced:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        diffs = [t["pass_s"] - u["pass_s"] for u, t in zip(plain, traced)]
        layers["trace.overhead_s"] = statistics.median(diffs)
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / timings["pass_s"]["value"]
        stage_layers = {}
        for stage, by_layer in traced[0]["stage_layers"].items():
            stage_layers[stage] = {layer: statistics.median(
                r["stage_layers"][stage].get(layer, 0.0) for r in traced) for layer in by_layer}
        report["stage_layer_self_s"] = stage_layers
        values, wanted = layers, spec["per_layer"]
    else:
        values = {name: t["value"] for name, t in timings.items()}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not any(r["wrong"] for r in passes), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec, argv)
    use_checkout_sources()
    if args.setup_probe:
        print(repr(setup(args.workload, args.seed, args.smoke)[0]))
        return 0

    _, state = setup(args.workload, args.seed, args.smoke)
    setup_samples = []
    if not args.trace:
        repeats = 1 if args.smoke else SETUP_REPEATS
        setup_samples = [probe_setup(args) for _ in range(repeats)]

    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    passes = []
    with workloads.SAMPLER as sampler:
        deadline = time.perf_counter() + args.seconds
        k = 0
        while k == 0 or time.perf_counter() < deadline:
            for tr in (None, tracer) if tracer else (None,):
                passes.append(run_pass(wl, state, k, tr))
            k += 1
    for rec in passes:
        scale_pass(rec, sampler, tracer)

    report, result = summarize(args, spec, passes, setup_samples)
    report["speed_samples"] = {"count": len(sampler.ref_times), "busy_s": sampler.done[-1]}
    if tracer:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}.json"
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "tag"],
                                    "spans": tracer.spans}))
        report["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
