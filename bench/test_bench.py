"""Tests of the benchmark itself, on its smoke inputs.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run

run.use_checkout_sources()

import nistab as ns  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SCRIPT = str(Path(run.__file__).resolve())

#: timings each workload's report names, on the smoke inputs (every ladder
#: rung is a 1-mode plant with n = 6)
NAMED = {
    "modal_ladder.n24": ["analysis_n6_s"],
    "modal_ladder.n54": ["analysis_n6_s"],
    "modal_ladder.n104": ["analysis_n6_s"],
    "mc_verify": ["verify_trials_per_s"],
    "flex_arm.model": ["arm_model_s"],
    "flex_arm.analysis": ["arm_analysis_s"],
    "flex_arm.simulate": ["arm_simulate_s"],
}


def test_named_workloads_are_the_benchmark_workloads():
    assert set(NAMED) == set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def smoke(workload, trace):
    return subprocess.run(
        [sys.executable, SCRIPT, "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(NAMED))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    out = smoke(workload, trace)
    assert out.returncode == 0, out.stderr
    *_, report_line, result_line = out.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}

    report = json.loads(report_line)["report"]
    timings = report["timings"]
    for name in NAMED[workload] + ["pass_s"] + (["setup_s"] if not trace else []):
        assert timings[name]["unit"] in ("s", "1/s") and timings[name]["value"] > 0
    assert report["error_rate"] == {"value": 0.0, "unit": "ratio", "failed": 0,
                                    "attempted": result["attempted"]}
    env = report["environment"]
    assert env["seed"] == 0 and env["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def run_in_process(workload, capsys, seconds=0.0):
    assert run.main(["--workload", workload, "--seed", "0", "--seconds", str(seconds),
                     "--trace", "0", "--smoke"]) == 0
    *_, report, result = capsys.readouterr().out.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


@pytest.mark.parametrize("workload, name", [("modal_ladder.n24", "EXPECT_LADDER"),
                                            ("flex_arm.analysis", "EXPECT_ARM")])
def test_flipped_expected_verdict_fails_the_check(workload, name, capsys, monkeypatch):
    outcome, theorem, branch = getattr(workloads, name)
    monkeypatch.setattr(workloads, name, ("unstable", theorem, branch))
    report, result = run_in_process(workload, capsys, seconds=0.5)
    # the smoke inputs hold one analysis, repeated on every pass: it is one
    # failed operation however many passes the run makes
    assert report["passes"]["untraced"] > 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_monte_carlo_disagreement_fails_the_check():
    rep = ns.montecarlo_agreement(workloads.SMOKE_MC_COUNT, seed=0)
    assert workloads.mc_check(rep) is None
    flipped = dataclasses.replace(rep, disagreements=[(0, "double", "stable")],
                                  agreements=rep.applicable - 1)
    assert workloads.mc_check(flipped) is not None


def test_precondition_failed_trials_are_failed_operations(monkeypatch):
    rep = ns.montecarlo_agreement(workloads.SMOKE_MC_COUNT, seed=0)
    assert rep.precondition_failed == 0
    monkeypatch.setattr(ns, "montecarlo_agreement",
                        lambda count, seed: dataclasses.replace(rep, precondition_failed=2))
    p = workloads.Pass()
    workloads.mc_pass({"seed": 0, "count": workloads.SMOKE_MC_COUNT}, 0, p)
    assert p.attempted == workloads.SMOKE_MC_COUNT and p.failed == 2
    assert not p.wrong and "PRECONDITION_FAILED" in p.failures[0]


def test_exception_counts_as_failure_and_the_pass_goes_on():
    p = workloads.Pass()
    p.call("stage", "boom", lambda: 1 / 0, ops=3)
    p.call("stage", "ok", lambda: 1, check=lambda out: None)
    assert p.attempted == 4 and p.failed == 3 and p.wrong
    assert len(p.failures) == 1 and "ZeroDivisionError" in p.failures[0]


def test_speed_samples_are_taken_out_of_call_times():
    def spin(seconds):  # interpreter-bound, so the handler runs as it goes
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    handler = signal.getsignal(signal.SIGALRM)
    p = workloads.Pass()
    with workloads.SAMPLER as sampler:
        t0 = time.perf_counter()
        p.call("stage", "spin", spin, 0.35)
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(sampler.around(t0, t1)) >= 4 and sampler.paused(t0, t1) > 0
    assert p.wall["stage"] == pytest.approx(t1 - t0 - sampler.paused(t0, t1), abs=1e-3)


def test_same_seed_same_ladder():
    a, b, c = (workloads.ladder(s, (2,))[0] for s in (5, 5, 6))
    assert a.n == 2 * 2 + 4
    assert all(np.array_equal(getattr(a, x), getattr(b, x)) for x in "ABCD")
    assert not np.array_equal(a.A, c.A)


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
         "flex_arm.simulate", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
